#include "fault/fault.hpp"

#include <atomic>
#include <memory>
#include <vector>

#include "support/mutex.hpp"
#include "support/rng.hpp"

namespace sigrt::fault {
namespace {

// Per-site salt folded into the stream seed so the sites draw from
// independent streams even for the same (seed, id) pair.
constexpr std::uint64_t kSiteSalt[kSiteCount] = {
    0x7461736b63726173ULL,  // TaskCrash
    0x7461736b64656c61ULL,  // TaskDelay
    0x7461736b636f7272ULL,  // TaskCorrupt
    0x776f726b7374616cULL,  // WorkerStall
    0x636f6e6e72657365ULL,  // ConnReset
    0x636f6e6e73686f72ULL,  // ConnShortWrite
};

struct ArmedPlan {
  FaultPlan plan;
};

std::atomic<const ArmedPlan*> g_plan{nullptr};

// Retired plans are kept alive for the process lifetime: should_fire may
// hold a plan pointer across a disarm()/arm() on another thread, and
// arming is a test-harness operation where a few dozen leaked-by-design
// structs are irrelevant.
support::Mutex g_arm_mutex;
std::vector<std::unique_ptr<ArmedPlan>>& graveyard() SIGRT_REQUIRES(g_arm_mutex) {
  static std::vector<std::unique_ptr<ArmedPlan>> g;
  return g;
}

std::atomic<std::uint64_t> g_fires[kSiteCount];
std::atomic<std::uint64_t> g_hash{0};

thread_local unsigned tls_corrupt_depth = 0;

std::uint64_t mix_event(unsigned site, std::uint64_t stream,
                        unsigned attempt) noexcept {
  support::SplitMix64 m(stream ^ (kSiteSalt[site] * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(attempt) << 56));
  return m.next();
}

}  // namespace

bool armed() noexcept {
  return g_plan.load(std::memory_order_relaxed) != nullptr;
}

void arm(const FaultPlan& plan) {
  support::MutexLock lock(g_arm_mutex);
  graveyard().push_back(std::make_unique<ArmedPlan>(ArmedPlan{plan}));
  reset_trace();
  g_plan.store(graveyard().back().get(), std::memory_order_release);
}

void disarm() noexcept {
  g_plan.store(nullptr, std::memory_order_release);
}

bool should_fire(Site site, std::uint64_t stream, unsigned attempt) noexcept {
  const ArmedPlan* armed = g_plan.load(std::memory_order_acquire);
  if (armed == nullptr) return false;
  const unsigned s = static_cast<unsigned>(site);
  const SiteConfig& sc = armed->plan.site[s];
  if (sc.probability <= 0.0) return false;
  // One fresh draw per attempt from the (seed, site, stream) stream: a task
  // that crashed on attempt 0 gets an independent coin on its redo instead
  // of deterministically re-crashing forever.
  auto rng = support::stream_rng(armed->plan.seed ^ kSiteSalt[s], stream);
  double u = rng.uniform();
  for (unsigned i = 0; i < attempt; ++i) u = rng.uniform();
  if (u >= sc.probability) return false;
  g_fires[s].fetch_add(1, std::memory_order_relaxed);
  g_hash.fetch_xor(mix_event(s, stream, attempt), std::memory_order_relaxed);
  return true;
}

std::uint32_t param_us(Site site) noexcept {
  const ArmedPlan* armed = g_plan.load(std::memory_order_acquire);
  if (armed == nullptr) return 0;
  return armed->plan.site[static_cast<unsigned>(site)].param_us;
}

Trace trace() noexcept {
  Trace t;
  for (unsigned s = 0; s < kSiteCount; ++s) {
    t.fires[s] = g_fires[s].load(std::memory_order_relaxed);
  }
  t.hash = g_hash.load(std::memory_order_relaxed);
  return t;
}

void reset_trace() noexcept {
  for (auto& f : g_fires) f.store(0, std::memory_order_relaxed);
  g_hash.store(0, std::memory_order_relaxed);
}

bool corrupting() noexcept { return tls_corrupt_depth > 0; }

ScopedCorrupt::ScopedCorrupt() noexcept { ++tls_corrupt_depth; }
ScopedCorrupt::~ScopedCorrupt() { --tls_corrupt_depth; }

}  // namespace sigrt::fault
