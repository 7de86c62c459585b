// Wire workload: open-loop Poisson traffic over loopback TCP into an
// in-process net::NetServer in front of a serve::Server.
//
// One request asks for the Sobel filter of one of kTiles seeded 256x256
// tiles; the handler runs the public apps::kern band kernels on a runtime
// worker and answers with a 64-bit digest of the output, which the client
// compares with digests precomputed from apps::sobel::reference (status Ok)
// or reference_approx (status OkApprox).
//
// The fixed rate sits well below capacity, so the QoS controller holds
// ratio 1.0 and latency is set by the request path: poller read and
// framing, admission, EDF, dispatch, the runtime, the outbound queue and
// the write path.
//
// Every thread of the workload (the generator's sender and reader, the
// poller, the dispatcher, the QoS controller and the one runtime worker)
// runs on a single CPU.  At the 2000 req/s BENCHMARK.json passes, that CPU
// is about a third busy, so a request still passes each stage one hand-off
// at a time, but each hand-off wakes a thread on a CPU that is running.
// Spread over the idle CPUs of a virtual machine, the same hand-offs wait
// for the host to resume a halted virtual CPU; on a shared host those
// waits, not the request path, set the tail, and they moved it up to
// tenfold between runs of the same code.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/sobel.hpp"
#include "common.hpp"
#include "energy/meter.hpp"
#include "metrics/quality.hpp"
#include "net/net.hpp"
#include "schedule.hpp"
#include "serve/serve.hpp"
#include "support/image.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace net = sigrt::net;
namespace serve = sigrt::serve;
using sigrt::support::now_ns;
using trace::Kind;

constexpr std::size_t kTile = 256;
constexpr std::uint16_t kTiles = 16;
constexpr std::uint32_t kKernel = 0;
constexpr double kDeadlineMs = 20.0;
constexpr std::size_t kPayloadBytes = 8;  // u32 id | u16 tile | u8 traced | u8 0
constexpr std::size_t kResultBytes = 8;   // u64 digest of the output tile
constexpr std::uint8_t kUnanswered = 0xff;

/// 64-bit digest of a tile (word-wise multiply-xorshift).
std::uint64_t digest(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

struct Tiles {
  std::vector<sigrt::support::Image> input;
  std::vector<std::uint64_t> acc, apx;
  std::vector<double> apx_loss;  ///< PSNR^-1 of the approximate output
};

/// The wire kernel: the Listing-1 Sobel (accurate or approximate taps) over
/// the tile's interior; `out` keeps a zero border.
void wire_kernel(std::uint8_t* out, const std::uint8_t* img, bool approximate) {
  namespace kern = sigrt::apps::kern;
  if (approximate) {
    kern::sobel_band_approx(out, img, kTile, 1, kTile - 1);
  } else {
    kern::sobel_band_accurate(out, img, kTile, 1, kTile - 1);
  }
}

Tiles make_tiles(std::uint64_t seed) {
  Tiles t;
  for (std::uint16_t i = 0; i < kTiles; ++i) {
    t.input.push_back(sigrt::support::synthetic_image(
        kTile, kTile, seed * 1000003ull + i));
    const auto a = sigrt::apps::sobel::reference(t.input.back());
    const auto b = sigrt::apps::sobel::reference_approx(t.input.back());
    t.acc.push_back(digest(a.data(), a.size()));
    t.apx.push_back(digest(b.data(), b.size()));
    t.apx_loss.push_back(
        sigrt::metrics::inverse_psnr(sigrt::metrics::psnr_db(a, b)));
  }
  return t;
}

/// What the kernel handler reads; owned by WireState, outlives the server.
struct HandlerShared {
  const Tiles* tiles = nullptr;
  /// Handler start/end per request id, written on traced requests only.
  std::unique_ptr<std::atomic<std::int64_t>[]> h_start, h_end;
  std::size_t capacity = 0;
};

void sobel_handler(const HandlerShared* sh, const std::uint8_t* p,
                   std::size_t n, bool approximate,
                   std::vector<std::uint8_t>& out) {
  if (n != kPayloadBytes) return;  // answered with an empty payload
  const std::uint32_t id = net::get_u32(p);
  std::uint16_t tile;
  std::memcpy(&tile, p + 4, 2);
  const bool traced = p[6] != 0;
  if (tile >= kTiles) return;
  const std::int64_t t0 = traced ? trace::begin() : 0;
  // Per-worker output tile: allocated once per thread, zero border kept
  // (the band kernels write rows and columns [1, kTile - 1) only).
  thread_local std::vector<std::uint8_t> tile_out(kTile * kTile, 0);
  wire_kernel(tile_out.data(), sh->tiles->input[tile].data(), approximate);
  const std::uint64_t d = digest(tile_out.data(), tile_out.size());
  std::uint8_t buf[kResultBytes];
  std::memcpy(buf, &d, sizeof d);
  out.insert(out.end(), buf, buf + sizeof buf);
  if (traced) {
    const std::int64_t t1 = trace::end(Kind::WireKernel, t0);
    if (id < sh->capacity) {
      sh->h_start[id].store(t0, std::memory_order_relaxed);
      sh->h_end[id].store(t1, std::memory_order_relaxed);
    }
  }
}

/// Per-request outcome of one schedule sent by run_schedule.
struct ScheduleOutcome {
  std::int64_t start_ns = 0;  ///< window start: due times are offsets of it
  std::int64_t end_ns = 0;    ///< last due time (the window end)
  /// flush_ns: when the flush that carried the request began.  Not when it
  /// returned: with every thread on one CPU the loopback write can run the
  /// whole server path before the sender gets the CPU back.
  std::vector<std::int64_t> send_ns, flush_ns, recv_ns, server_ns;
  std::vector<std::uint8_t> status;
  std::vector<std::uint32_t> recv_order;
  std::vector<double> ratio_samples;
  std::uint64_t bad_payloads = 0, bad_ids = 0, duplicates = 0;
  std::string reader_error, sender_error;  ///< one writer each
};

struct WireState {
  std::unique_ptr<Tiles> tiles;
  std::unique_ptr<HandlerShared> shared;
  Schedule warm, sched;
  std::unique_ptr<serve::Server> srv;
  std::unique_ptr<net::NetServer> netsrv;
  std::unique_ptr<net::Client> client;
  serve::ClassId cls = 0;

  WireState() = default;
  WireState(const WireState&) = delete;
  WireState& operator=(const WireState&) = delete;
  ~WireState() { teardown(); }

  /// Shutdown order of the net frontend contract: drain the serve tier
  /// first, then stop the pollers.
  void teardown() {
    if (client) client->close();
    if (srv) srv->close();
    if (netsrv) netsrv->stop();
    netsrv.reset();
    srv.reset();
    client.reset();
  }
};

/// Pins the calling thread, and so every thread it creates while pinned, to
/// the last CPU of its affinity mask; restore() puts the mask back on the
/// calling thread (threads created meanwhile stay pinned).
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = CPU_SETSIZE - 1; c >= 0 && cpu_ < 0; --c) {
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    }
    if (cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  ~PinToOneCpu() { restore(); }

  void restore() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
    pinned_ = false;
  }
  /// The CPU every thread shares, or -1 when pinning failed.
  [[nodiscard]] int cpu() const { return pinned_ ? cpu_ : -1; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
  bool pinned_ = false;
};

bool is_timeout(const std::system_error& e) {
  return e.code() == std::errc::resource_unavailable_try_again ||
         e.code() == std::errc::operation_would_block;
}

/// Sends `sched` open loop on the state's connection and collects every
/// response.  `trace_even`: even request ids carry the traced flag.
void run_schedule(WireState& s, const Schedule& sched, bool trace_even,
                  ScheduleOutcome& d) {
  const std::size_t n = sched.due_ns.size();
  d.send_ns.assign(n, 0);
  d.flush_ns.assign(n, 0);
  d.recv_ns.assign(n, 0);
  d.server_ns.assign(n, 0);
  d.status.assign(n, kUnanswered);
  d.recv_order.clear();
  d.recv_order.reserve(n);
  d.ratio_samples.clear();
  if (trace_even) {
    for (std::size_t i = 0; i < s.shared->capacity; ++i) {
      s.shared->h_start[i].store(0, std::memory_order_relaxed);
      s.shared->h_end[i].store(0, std::memory_order_relaxed);
    }
  }
  net::Client& c = *s.client;
  const Tiles& tiles = *s.tiles;
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_exited{false};
  std::atomic<std::size_t> received{0};

  std::thread reader([&] {
    net::Client::Response resp;
    resp.payload.reserve(64);
    while (received.load(std::memory_order_relaxed) < n &&
           !stop.load(std::memory_order_acquire)) {
      try {
        const std::int64_t t0 = now_ns();
        const bool got = c.read_response(resp);
        if (trace::enabled()) trace::record_leaf(Kind::NetRecv, t0, now_ns());
        if (!got) break;
      } catch (const std::system_error& e) {
        if (is_timeout(e)) continue;
        d.reader_error = e.what();
        break;
      } catch (const std::exception& e) {  // malformed frame
        d.reader_error = e.what();
        break;
      }
      const std::int64_t t = now_ns();
      const std::uint32_t id = resp.header.id;
      if (id >= n) {
        ++d.bad_ids;
        continue;
      }
      if (d.status[id] != kUnanswered) {
        ++d.duplicates;
        continue;
      }
      d.status[id] = static_cast<std::uint8_t>(resp.header.status);
      d.recv_ns[id] = t;
      d.server_ns[id] = resp.header.server_ns;
      d.recv_order.push_back(id);
      const std::uint16_t tile = sched.tile[id];
      bool payload_ok = resp.payload.empty();
      if (resp.header.status == net::Status::Ok ||
          resp.header.status == net::Status::OkApprox) {
        std::uint64_t got = 0;
        const std::uint64_t want = resp.header.status == net::Status::Ok
                                       ? tiles.acc[tile]
                                       : tiles.apx[tile];
        payload_ok = resp.payload.size() == kResultBytes;
        if (payload_ok) std::memcpy(&got, resp.payload.data(), sizeof got);
        payload_ok = payload_ok && got == want;
      }
      if (!payload_ok) ++d.bad_payloads;
      received.fetch_add(1, std::memory_order_relaxed);
    }
    reader_exited.store(true, std::memory_order_release);
  });

  std::uint8_t payload[kPayloadBytes] = {};
  net::RequestHeader h;
  h.cls = s.cls;
  h.kernel = kKernel;
  // Start slightly in the future so the first due times are reachable.
  d.start_ns = now_ns() + 2'000'000;
  d.end_ns = d.start_ns + (n == 0 ? 0 : sched.due_ns.back());
  std::int64_t next_sample = d.start_ns;
  std::size_t i = 0;
  try {
    while (i < n) {
      const std::int64_t due = d.start_ns + sched.due_ns[i];
      std::int64_t t = now_ns();
      if (t < due) {
        // Idle slack: sample the class ratio knob every 20 ms.
        if (t >= next_sample && due - t > 200'000) {
          d.ratio_samples.push_back(s.srv->class_report(s.cls).ratio);
          next_sample = t + 20'000'000;
          continue;
        }
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        t = now_ns();
      }
      const bool traced = trace::enabled();
      const std::int64_t t0 = traced ? trace::begin() : 0;
      const std::size_t first = i;
      for (; i < n && d.start_ns + sched.due_ns[i] <= t; ++i) {
        h.id = static_cast<std::uint32_t>(i);
        net::put_u32(payload, h.id);
        std::memcpy(payload + 4, &sched.tile[i], 2);
        payload[6] = trace_even && i % 2 == 0 ? 1 : 0;
        d.send_ns[i] = t;
        c.enqueue(h, payload, sizeof payload);
      }
      const std::int64_t tf = now_ns();
      for (std::size_t j = first; j < i; ++j) d.flush_ns[j] = tf;
      c.flush();
      if (traced) trace::end(Kind::NetSend, t0);
    }
  } catch (const std::system_error& e) {
    d.sender_error = e.what();
  }
  // Wait for the stragglers; requests still unanswered after the grace
  // period count as failed.
  const std::int64_t grace_end = now_ns() + 10'000'000'000;
  while (received.load(std::memory_order_relaxed) < n && now_ns() < grace_end &&
         d.sender_error.empty() &&
         !reader_exited.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

void build_wire(WireState& s, const RunOptions& o, unsigned workers) {
  constexpr double kWarmSeconds = 0.5;
  s.teardown();
  s.tiles = std::make_unique<Tiles>(make_tiles(o.seed));
  s.warm = make_schedule(o.seed ^ 0x77a3f00dull, o.wire_rate, kWarmSeconds,
                         kTiles);
  s.sched = make_schedule(o.seed, o.wire_rate, o.seconds, kTiles);
  s.shared = std::make_unique<HandlerShared>();
  s.shared->tiles = s.tiles.get();
  s.shared->capacity = std::max(s.warm.due_ns.size(), s.sched.due_ns.size());
  s.shared->h_start =
      std::make_unique<std::atomic<std::int64_t>[]>(s.shared->capacity);
  s.shared->h_end =
      std::make_unique<std::atomic<std::int64_t>[]>(s.shared->capacity);

  serve::ServerOptions so;
  so.runtime.workers = workers;
  so.dispatcher_threads = 1;
  so.epoch_ms = 10.0;
  s.srv = std::make_unique<serve::Server>(so);
  serve::RequestClassConfig cfg;
  cfg.name = "sobel";
  cfg.qos.deadline_ns = kDeadlineMs * 1e6;
  cfg.qos.quality_floor = 0.0;
  // Never perforate and keep the admission bound far above the standing
  // queue: a host stall may make the controller degrade for a while, but
  // every request is still answered with a result.
  cfg.qos.max_perforation = 0.0;
  cfg.qos.backlog_high = 256;
  cfg.qos.backlog_low = 32;
  cfg.degrade_in_flight = 128;
  cfg.max_in_flight = 8192;
  s.cls = s.srv->register_class(cfg);

  net::NetServerOptions no;
  no.port = 0;
  no.pollers = 1;
  s.netsrv = std::make_unique<net::NetServer>(*s.srv, no);
  const HandlerShared* sh = s.shared.get();
  s.netsrv->register_kernel(
      kKernel,
      {.fn = [sh](const std::uint8_t* p, std::size_t n, bool approximate,
                  std::vector<std::uint8_t>& out) {
         sobel_handler(sh, p, n, approximate, out);
       },
       .significance = 0.5});
  s.netsrv->start();
  s.client = std::make_unique<net::Client>();
  s.client->connect("127.0.0.1", s.netsrv->port());
  s.client->set_receive_timeout_ms(50);

  ScheduleOutcome warm;
  run_schedule(s, s.warm, false, warm);
  std::size_t answered = 0;
  for (const std::uint8_t st : warm.status) answered += st != kUnanswered;
  if (answered != s.warm.due_ns.size() || warm.bad_payloads != 0 ||
      !warm.reader_error.empty() || !warm.sender_error.empty()) {
    throw std::runtime_error("wire warm-up failed: " + warm.reader_error +
                             warm.sender_error);
  }
}

}  // namespace

RunResult run_wire(const RunOptions& o) {
  if (!(o.wire_rate > 0.0)) {
    throw std::invalid_argument("wire_steady needs a positive --wire-rate");
  }
  RunResult r;
  init_layer_metrics(r);
  // One worker: every thread shares one CPU (see the top of this file).
  constexpr unsigned workers = 1;
  PinToOneCpu pin;
  const int cpu = pin.cpu();
  // The sender sleeps until each due time: a 1 ns timer slack keeps the
  // kernel from deferring those wake-ups by its default 50 µs.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  WireState s;
  const double setup_s =
      repeat_setup([&] { build_wire(s, o, workers); });

  sigrt::Runtime& rt = s.srv->runtime();
  const serve::ClassReport before = s.srv->class_report(s.cls);
  const sigrt::RuntimeStats rs0 = rt.stats();
  const auto nc0 = s.netsrv->counters();
  const ProcWindow proc;
  const sigrt::energy::Scope energy(rt.meter());
  ScheduleOutcome d;
  run_schedule(s, s.sched, o.trace, d);
  r.window_start_ns = d.start_ns;
  const double energy_j = energy.joules();
  const serve::ClassReport after = s.srv->class_report(s.cls);
  const sigrt::RuntimeStats rs1 = rt.stats();
  const auto nc1 = s.netsrv->counters();

  const std::size_t n = s.sched.due_ns.size();
  const double window_s =
      std::max(static_cast<double>(d.end_ns - d.start_ns) * 1e-9, 1e-9);
  std::uint64_t ok = 0, approx = 0, dropped = 0, shed = 0, expired = 0,
                timeout = 0, other = 0, unanswered = 0, on_time = 0;
  double loss_sum = 0.0;
  std::vector<double> lat_ms;
  std::vector<double> traced_ms, plain_ms;
  lat_ms.reserve(n);
  for (const std::uint32_t id : d.recv_order) {
    const auto st = static_cast<net::Status>(d.status[id]);
    const double ms = static_cast<double>(latency_from_due(
                          d.start_ns, s.sched.due_ns[id], d.recv_ns[id])) *
                      1e-6;
    const bool result = st == net::Status::Ok || st == net::Status::OkApprox;
    switch (st) {
      case net::Status::Ok: ++ok; break;
      case net::Status::OkApprox:
        ++approx;
        loss_sum += s.tiles->apx_loss[s.sched.tile[id]];
        break;
      case net::Status::OkDropped: ++dropped; break;
      case net::Status::Shed: ++shed; break;
      case net::Status::Expired: ++expired; break;
      case net::Status::Timeout: ++timeout; break;
      default: ++other; break;
    }
    // A request without a result misses every latency limit.
    lat_ms.push_back(result ? ms : std::numeric_limits<double>::infinity());
    if (result && ms <= kDeadlineMs) ++on_time;
    if (result) (o.trace && id % 2 == 0 ? traced_ms : plain_ms).push_back(ms);
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (d.status[id] == kUnanswered) {
      ++unanswered;
      lat_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  const std::uint64_t results = ok + approx;

  r.attempted = n;
  r.failed = n - results + d.bad_payloads;
  if (r.failed > n) r.failed = n;
  for (const std::string* err : {&d.reader_error, &d.sender_error}) {
    if (!err->empty()) r.fail_check("connection error: " + *err);
  }
  if (d.bad_payloads != 0) {
    r.fail_check(std::to_string(d.bad_payloads) +
                 " payloads differ from the precomputed result");
  }
  if (d.bad_ids != 0 || d.duplicates != 0) {
    r.fail_check("responses with unknown or repeated ids");
  }
  if (unanswered != 0) {
    r.fail_check(std::to_string(unanswered) + " requests never answered");
  }
  if (ok + approx + dropped + shed + expired + timeout + other + unanswered !=
      n) {
    r.fail_check("sent != ok + approx + dropped + shed + expired + timeout");
  }
  if (other != 0) r.fail_check("error statuses on the wire");
  if (nc1.protocol_errors != nc0.protocol_errors) {
    r.fail_check("server reported protocol errors");
  }

  EndToEnd e;
  e.setup_s = setup_s;
  e.ops_per_s = static_cast<double>(results) / window_s;
  e.tasks_per_s =
      static_cast<double>(rs1.accurate + rs1.approximate + rs1.dropped -
                          rs0.accurate - rs0.approximate - rs0.dropped) /
      window_s;
  e.latency = summarize_latency(lat_ms);
  e.goodput_per_s = static_cast<double>(on_time) / window_s;
  e.deadline_miss_frac =
      static_cast<double>(n - on_time) / static_cast<double>(std::max<std::size_t>(n, 1));
  e.accurate_frac =
      static_cast<double>(ok) / static_cast<double>(std::max<std::uint64_t>(results, 1));
  e.quality_loss =
      loss_sum / static_cast<double>(std::max<std::uint64_t>(results, 1));
  const double ratio_mean =
      d.ratio_samples.empty()
          ? after.ratio
          : std::accumulate(d.ratio_samples.begin(), d.ratio_samples.end(), 0.0) /
                static_cast<double>(d.ratio_samples.size());
  e.ratio_error = std::abs(ratio_mean - e.accurate_frac);
  e.energy_j_per_op =
      energy_j / static_cast<double>(std::max<std::uint64_t>(results, 1));
  e.failed_frac =
      static_cast<double>(r.failed) / static_cast<double>(std::max<std::size_t>(n, 1));
  put_end_to_end(r, e);

  const double submitted = static_cast<double>(
      std::max<std::uint64_t>(after.submitted - before.submitted, 1));
  r.set("serve.shed_frac", static_cast<double>(after.shed - before.shed) / submitted, "frac");
  r.set("serve.degraded_frac",
        static_cast<double>(after.degraded - before.degraded) / submitted, "frac");
  r.set("serve.perforated_frac",
        static_cast<double>(after.perforated - before.perforated) / submitted,
        "frac");
  r.set("serve.expired_frac",
        static_cast<double>(after.expired - before.expired) / submitted, "frac");
  r.set("serve.ratio_mean", ratio_mean, "frac");
  r.set("net.protocol_errors",
        static_cast<double>(nc1.protocol_errors - nc0.protocol_errors), "count");
  const double tasks = static_cast<double>(
      std::max<std::uint64_t>(rs1.spawned - rs0.spawned, 1));
  r.set("core.steals_per_ktask",
        static_cast<double>(rs1.steals - rs0.steals) * 1000.0 / tasks, "count");
  r.set("core.inline_spawn_frac",
        static_cast<double>(rs1.inline_spawns - rs0.inline_spawns) / tasks, "frac");
  proc.put(r, std::max<std::uint64_t>(results, 1));

  // Generator lateness over the window.
  std::vector<double> late_ms;
  late_ms.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    late_ms.push_back(static_cast<double>(lateness(d.start_ns, s.sched.due_ns[id],
                                                   d.send_ns[id])) * 1e-6);
  }
  std::sort(late_ms.begin(), late_ms.end());
  r.set("gen.late_ms_max", late_ms.empty() ? 0.0 : late_ms.back(), "ms");
  r.set("gen.late_ms_p99", percentile_sorted(late_ms, 99.0), "ms");

  // Server time from the response header; the residual is what the client
  // saw beyond it (framing, poller, outbound queue, loopback, client read).
  std::vector<double> server_ms, residual_ms, to_handler_us, from_handler_us,
      kernel_acc_us, kernel_apx_us;
  double sum_late = 0, sum_send = 0, sum_server = 0, sum_kernel = 0,
         sum_lat = 0;
  std::size_t traced_n = 0;
  for (const std::uint32_t id : d.recv_order) {
    const auto st = static_cast<net::Status>(d.status[id]);
    if (st != net::Status::Ok && st != net::Status::OkApprox) continue;
    const double srv_ms = static_cast<double>(d.server_ns[id]) * 1e-6;
    server_ms.push_back(srv_ms);
    residual_ms.push_back(
        static_cast<double>(d.recv_ns[id] - d.send_ns[id]) * 1e-6 - srv_ms);
    if (!o.trace || id % 2 != 0) continue;
    const std::int64_t hs = s.shared->h_start[id].load(std::memory_order_relaxed);
    const std::int64_t he = s.shared->h_end[id].load(std::memory_order_relaxed);
    if (hs == 0 || he == 0) continue;
    to_handler_us.push_back(static_cast<double>(hs - d.flush_ns[id]) * 1e-3);
    from_handler_us.push_back(static_cast<double>(d.recv_ns[id] - he) * 1e-3);
    (st == net::Status::Ok ? kernel_acc_us : kernel_apx_us)
        .push_back(static_cast<double>(he - hs) * 1e-3);
    ++traced_n;
    sum_late += static_cast<double>(
        lateness(d.start_ns, s.sched.due_ns[id], d.send_ns[id]));
    sum_send += static_cast<double>(d.flush_ns[id] - d.send_ns[id]);
    sum_server += static_cast<double>(d.server_ns[id]);
    sum_kernel += static_cast<double>(he - hs);
    sum_lat += static_cast<double>(
        latency_from_due(d.start_ns, s.sched.due_ns[id], d.recv_ns[id]));
  }
  r.set("serve.server_ms", median(server_ms), "ms");
  r.set("net.residual_ms", median(residual_ms), "ms");
  if (o.trace) {
    const double k = 1e-6 / static_cast<double>(std::max<std::size_t>(traced_n, 1));
    r.set("net.to_handler_us", median(to_handler_us), "us");
    r.set("net.from_handler_us", median(from_handler_us), "us");
    r.set("apps.body_us_acc", median(kernel_acc_us), "us");
    r.set("apps.body_us_approx", median(kernel_apx_us), "us");
    r.op_ms = sum_lat * k;
    const double gen = sum_late * k, send = sum_send * k,
                 kernel = sum_kernel * k, served = (sum_server - sum_kernel) * k;
    r.self_time = {{"gen.late", gen},
                   {"net.send", send},
                   {"apps.wire_kernel", kernel},
                   {"serve.admission_to_completion", served},
                   {"residual", r.op_ms - gen - send - kernel - served}};
    // Busy share of the workers: mean kernel time of the traced requests
    // times the results served, over the window.
    r.set("core.busy_frac",
          kernel * static_cast<double>(results) * 1e-3 / (window_s * workers),
          "frac");
    r.set("self.gen_ms", gen, "ms");
    r.set("self.net_send_ms", send, "ms");
    r.set("self.wire_kernel_ms", kernel, "ms");
    r.set("self.serve_ms", served, "ms");
    r.set("self.residual_ms", r.op_ms - gen - send - kernel - served, "ms");
    if (!traced_ms.empty() && !plain_ms.empty()) {
      r.set("trace.overhead_ms", median(traced_ms) - median(plain_ms), "ms");
    }
    r.set("trace.spans", static_cast<double>(trace::recorded()), "count");
    r.set("trace.dropped_spans", static_cast<double>(trace::dropped()), "count");
  }

  char extra[768];
  std::snprintf(
      extra, sizeof extra,
      "{\"rate_hz\":%.1f,\"tile\":%zu,\"deadline_ms\":%.1f,\"sent\":%zu,"
      "\"ok\":%llu,\"ok_approx\":%llu,\"ok_dropped\":%llu,\"shed\":%llu,"
      "\"expired\":%llu,\"timeout\":%llu,\"unanswered\":%llu,"
      "\"tail_pct\":%.2f,\"samples\":%zu,\"tail_windows\":%zu,"
      "\"window_s\":%.4f}",
      o.wire_rate, kTile, kDeadlineMs, n, static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(approx),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(timeout),
      static_cast<unsigned long long>(unanswered), e.latency.tail_pct,
      e.latency.samples, e.latency.windows, window_s);
  r.extra_json = extra;
  pin.restore();  // the host fingerprint reads nproc from this thread's mask
  r.config_json = config_json(workers, 2, 2, 1,
                              "\"pollers\":1,\"dispatchers\":1,"
                              "\"generator\":\"sender+reader threads\","
                              "\"pinned_cpu\":" + std::to_string(cpu),
                              cpu < 0 ? 0 : 1);
  r.host_json = host_json(rt.meter().name(), o.commit, o.source_digest);
  return r;
}

}  // namespace perfbench
