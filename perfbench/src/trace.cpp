#include "trace.hpp"

#include <memory>

namespace perfbench::trace {

namespace {

constexpr int kMaxDepth = 64;

std::atomic<bool> g_enabled{false};
std::unique_ptr<Span[]> g_spans;
std::size_t g_capacity = 0;
std::atomic<std::uint64_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_next_tid{0};

/// Per-thread open-span stack: child time accumulated under each level.
struct Stack {
  std::int64_t child_ns[kMaxDepth] = {};
  int depth = 0;
};
thread_local Stack t_stack;

}  // namespace

const char* name(Kind k) noexcept {
  switch (k) {
    case Kind::CoreSpawn: return "core.spawn";
    case Kind::CoreWait: return "core.wait";
    case Kind::AppsBodyAcc: return "apps.body_acc";
    case Kind::AppsBodyApprox: return "apps.body_approx";
    case Kind::AppsSerial: return "apps.serial";
    case Kind::NetSend: return "net.send";
    case Kind::NetRecv: return "net.recv";
    case Kind::WireKernel: return "apps.wire_kernel";
    case Kind::BenchCheck: return "bench.check";
    case Kind::kCount: break;
  }
  return "?";
}

void enable(std::size_t capacity) {
  g_spans = std::make_unique<Span[]>(capacity);
  g_capacity = capacity;
  g_next.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void disable() noexcept { g_enabled.store(false, std::memory_order_release); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint32_t thread_id() noexcept {
  thread_local const std::uint32_t id =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::int64_t begin() noexcept {
  Stack& s = t_stack;
  if (s.depth < kMaxDepth) s.child_ns[s.depth] = 0;
  ++s.depth;
  return sigrt::support::now_ns();
}

namespace {

void store(const Span& span) noexcept {
  const std::uint64_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < g_capacity) {
    g_spans[slot] = span;
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

std::int64_t end(Kind kind, std::int64_t start_ns) noexcept {
  const std::int64_t end_ns = sigrt::support::now_ns();
  Stack& s = t_stack;
  --s.depth;
  const std::int64_t dur = end_ns - start_ns;
  const std::int64_t child = s.depth < kMaxDepth ? s.child_ns[s.depth] : 0;
  if (s.depth > 0 && s.depth - 1 < kMaxDepth) s.child_ns[s.depth - 1] += dur;
  store(Span{start_ns, end_ns, dur - child, thread_id(), kind});
  return end_ns;
}

void record_leaf(Kind kind, std::int64_t start_ns,
                 std::int64_t end_ns) noexcept {
  const std::int64_t dur = end_ns - start_ns;
  Stack& s = t_stack;
  if (s.depth > 0 && s.depth - 1 < kMaxDepth) s.child_ns[s.depth - 1] += dur;
  store(Span{start_ns, end_ns, dur, thread_id(), kind});
}

std::uint64_t recorded() noexcept {
  const std::uint64_t n = g_next.load(std::memory_order_acquire);
  return n < g_capacity ? n : g_capacity;
}

std::uint64_t dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::array<KindTotals, static_cast<std::size_t>(Kind::kCount)> totals(
    std::uint32_t tid) {
  std::array<KindTotals, static_cast<std::size_t>(Kind::kCount)> t{};
  const std::uint64_t n = recorded();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Span& s = g_spans[i];
    if (tid != kAnyThread && s.tid != tid) continue;
    KindTotals& k = t[static_cast<std::size_t>(s.kind)];
    ++k.count;
    k.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    k.self_ms += static_cast<double>(s.self_ns) * 1e-6;
  }
  return t;
}

std::vector<double> durations_us(Kind kind) {
  std::vector<double> out;
  const std::uint64_t n = recorded();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Span& s = g_spans[i];
    if (s.kind == kind) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path, std::int64_t origin_ns,
                        std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const std::uint64_t n = recorded();
  const std::uint64_t limit = n < max_spans ? n : max_spans;
  for (std::uint64_t i = 0; i < limit; ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", name(s.kind), s.tid,
                 static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<double>(s.self_ns) * 1e-3);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
