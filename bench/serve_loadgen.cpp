// Open-loop load generator for the serving layer, in two transports.
//
// In-process (default): three request classes (sobel / dct / kmeans
// mini-jobs) under merged Poisson arrival streams at three rate tiers, each
// tier against a fresh Server.  Demonstrates the closed loop end to end: at
// the high tier the QosController trades the group ratio() for latency; at
// the low tier quality recovers.
//
// Wire (--tcp): the same calibrated tiers driven through the net frontend
// over loopback by CLIENT PROCESSES (posix_spawn of this binary with
// --client), one tenant per process, the parent aggregating server-side
// tenant cells with client-observed wire latencies.  A fourth "peak" tier
// runs pipelined clients against an allocation-free FNV kernel and measures
// sustained wire throughput plus the number of heap allocations per request
// on the server's hot threads (pollers, dispatchers, workers-in-handler) —
// the zero-steady-state-alloc gate for the framing/dispatch path.
//
// Prints one JSON line per cell as it is produced, then a final summary
// line {"bench":"serve_loadgen","transport":...,"cells":[...]} — the
// record bench/ab_compare.py consumes (it parses the LAST line).  Cells
// carry `tenant` and `transport` tags; diff across transports with
// `ab_compare.py --strip-tag transport ...`.
//
// Flags: --seconds <s> (per tier, default 2.0), --quick (= --seconds 0.6),
// --workers <n>, --tcp.  The --client form is internal (spawned children).
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "apps/dct.hpp"
#include "apps/kmeans.hpp"
#include "apps/sobel.hpp"
#include "harness.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

extern char** environ;

// Hot threads are those on the per-request path: pollers, dispatchers, and
// workers once they have run a kernel handler.  Each marks itself with
// harness::mark_hot_thread(); the peak tier divides the growth of
// harness::hot_allocs() over its post-warmup window by the requests served
// in it, the allocs-per-request figure the acceptance gate watches.

namespace {

using namespace sigrt;
using namespace sigrt::serve;

/// Defeats dead-code elimination of the request bodies.
volatile std::uint64_t g_sink = 0;
void sink(std::uint64_t v) { g_sink = g_sink + v; }

std::string jsonf(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

/// Emits one cell line immediately and stashes it for the final summary.
void emit(std::vector<std::string>& cells, std::string cell) {
  std::printf("%s\n", cell.c_str());
  std::fflush(stdout);
  cells.push_back(std::move(cell));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// --- Workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  double deadline_ms = 25.0;
  std::function<void()> accurate;
  std::function<void()> approximate;
  double accurate_cost_s = 0.0;  ///< calibrated at startup
};

apps::kmeans::Options kmeans_options(std::size_t iterations) {
  apps::kmeans::Options o;
  o.points = 512;
  o.dims = 8;
  o.clusters = 4;
  o.chunk = 64;
  o.max_iterations = iterations;
  return o;
}

std::vector<Workload> make_workloads() {
  static const support::Image img64 = support::synthetic_image(64, 64, 42);
  static const support::Image img32 = support::synthetic_image(32, 32, 43);
  static const support::Image img16 = support::synthetic_image(16, 16, 44);

  std::vector<Workload> out;
  out.push_back({"sobel", 25.0,
                 [] { sink(apps::sobel::reference(img64).at(10, 10)); },
                 [] { sink(apps::sobel::reference_approx(img64).at(10, 10)); },
                 0.0});
  // DCT is a drop-style benchmark; its degraded response transforms a
  // quarter-resolution thumbnail instead of the full tile.
  out.push_back({"dct", 25.0,
                 [] {
                   const auto c = apps::dct::reference(img32);
                   sink(static_cast<std::uint64_t>(c[0]));
                 },
                 [] {
                   const auto c = apps::dct::reference(img16);
                   sink(static_cast<std::uint64_t>(c[0]));
                 },
                 0.0});
  // Kmeans degrades by iteration count: the cheap response stops after one
  // assignment pass.
  out.push_back({"kmeans", 50.0,
                 [] { sink(apps::kmeans::reference(kmeans_options(6)).iterations); },
                 [] { sink(apps::kmeans::reference(kmeans_options(1)).iterations); },
                 0.0});
  return out;
}

double measure_cost_s(const std::function<void()>& fn) {
  double best = 1e9;  // min of 3: the least-interfered-with run
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = support::now_ns();
    fn();
    best = std::min(best, static_cast<double>(support::now_ns() - t0) * 1e-9);
  }
  return std::max(best, 1e-6);
}

RequestClassConfig class_config(const Workload& w) {
  RequestClassConfig cfg;
  cfg.name = w.name;
  cfg.qos.deadline_ns = w.deadline_ms * 1e6;
  cfg.qos.quality_floor = 0.05;
  cfg.qos.backlog_high = 64;
  cfg.qos.backlog_low = 16;
  // The admission bound caps the standing queue — and with it the
  // worst-case residence time — so under sustained overload the ladder
  // ends in shedding instead of an ever-deeper backlog.
  cfg.max_in_flight = 256;
  return cfg;
}

std::vector<double> tier_rates_hz(double mult, unsigned workers,
                                  const std::vector<Workload>& workloads) {
  std::vector<double> rates;
  // Even capacity split: `mult` x the pool's accurate throughput.
  for (const Workload& w : workloads) {
    rates.push_back(mult * static_cast<double>(workers) /
                    (static_cast<double>(workloads.size()) * w.accurate_cost_s));
  }
  return rates;
}

// --- In-process tiers ----------------------------------------------------

void run_tier(const char* tier, double mult, double seconds,
              const std::vector<Workload>& workloads, unsigned workers,
              std::uint64_t seed, std::vector<std::string>& cells) {
  ServerOptions so;
  so.runtime.workers = workers;
  so.epoch_ms = 10.0;
  Server srv(so);

  std::vector<ClassId> ids;
  for (const Workload& w : workloads) ids.push_back(srv.register_class(class_config(w)));
  const std::vector<double> rates_hz = tier_rates_hz(mult, workers, workloads);

  support::Xoshiro256 rng(seed);
  const auto exp_gap_ns = [&rng](double rate_hz) {
    return static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) * 1e9 /
                                     rate_hz);
  };

  std::vector<std::int64_t> next(workloads.size());
  std::vector<std::uint64_t> sig_counter(workloads.size(), 0);
  const std::int64_t start = support::now_ns();
  for (std::size_t i = 0; i < next.size(); ++i) next[i] = start + exp_gap_ns(rates_hz[i]);
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);

  while (true) {
    const std::size_t i = static_cast<std::size_t>(
        std::min_element(next.begin(), next.end()) - next.begin());
    if (next[i] >= end) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(next[i]))));
    const Workload& w = workloads[i];
    srv.submit(ids[i],
               {w.accurate, w.approximate,
                static_cast<double>(sig_counter[i]++ % 9 + 1) / 10.0});
    next[i] += exp_gap_ns(rates_hz[i]);
  }
  srv.close();  // drains everything admitted

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ClassReport r = srv.class_report(ids[i]);
    emit(cells,
         jsonf("{\"bench\":\"serve_loadgen\",\"transport\":\"inproc\","
               "\"tier\":\"%s\",\"class\":\"%s\",\"tenant\":\"*\","
               "\"simd\":\"%s\","
               "\"workers\":%u,\"rate_hz\":%.1f,\"seconds\":%.2f,"
               "\"accurate_cost_ms\":%.3f,\"deadline_ms\":%.1f,"
               "\"submitted\":%" PRIu64 ",\"shed\":%" PRIu64
               ",\"degraded\":%" PRIu64 ",\"perforated\":%" PRIu64
               ",\"served\":%" PRIu64
               ",\"throughput_hz\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
               "\"mean_ms\":%.3f,\"ratio\":%.3f,\"achieved_ratio\":%.3f}",
               tier, r.name.c_str(),
               support::simd::to_string(support::simd::active()), workers,
               rates_hz[i], seconds, workloads[i].accurate_cost_s * 1e3,
               r.deadline_ms, r.submitted, r.shed, r.degraded, r.perforated,
               r.served(), static_cast<double>(r.served()) / seconds, r.p50_ms,
               r.p99_ms, r.mean_ms, r.ratio, r.achieved_ratio()));
  }
}

// --- Client children (the --client form) ---------------------------------

/// Wire-side per-class stats, as measured by one client process.
struct WireStats {
  std::uint64_t sent = 0, ok = 0, ok_approx = 0, ok_dropped = 0, shed = 0,
                errors = 0;
  std::vector<double> lat_ms;

  [[nodiscard]] std::uint64_t completed() const {
    return ok + ok_approx + ok_dropped + shed + errors;
  }

  void record(net::Status s, double ms) {
    switch (s) {
      case net::Status::Ok: ++ok; break;
      case net::Status::OkApprox: ++ok_approx; break;
      case net::Status::OkDropped: ++ok_dropped; break;
      case net::Status::Shed: ++shed; break;
      default: ++errors; break;
    }
    lat_ms.push_back(ms);
  }
};

/// The child->parent pipe protocol: one line per class, parsed by
/// parse_child_lines().  Keep in sync with that function.
void print_wire_stats(std::uint32_t cls, const WireStats& s) {
  std::printf("C %u %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 " %.4f %.4f\n",
              cls, s.sent, s.ok, s.ok_approx, s.ok_dropped, s.shed, s.errors,
              percentile(s.lat_ms, 0.50), percentile(s.lat_ms, 0.99));
}

bool is_timeout(const std::system_error& e) {
  return e.code() == std::errc::resource_unavailable_try_again ||
         e.code() == std::errc::operation_would_block;
}

struct Stream {
  std::uint32_t cls = 0;
  std::uint32_t kernel = 0;
  double rate_hz = 0.0;
};

/// Open-loop Poisson client: merged arrival streams over one connection, a
/// reader thread correlating responses by id.  The Client object is split
/// between the two threads by role (sender: enqueue/flush, reader:
/// read_response) — disjoint buffers, full-duplex socket.
int client_poisson(net::Client& c, const std::vector<Stream>& streams,
                   double seconds, std::uint32_t tenant, std::uint64_t seed) {
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::uint32_t>> meta;  ///< id -> (t, cls)
  std::map<std::uint32_t, WireStats> stats;
  bool done = false;

  std::thread reader([&] {
    net::Client::Response resp;
    std::uint64_t received = 0;
    for (;;) {
      {
        std::lock_guard lock(mu);
        if (done && received == meta.size()) break;
      }
      try {
        if (!c.read_response(resp)) break;  // server went away
      } catch (const std::system_error& e) {
        if (is_timeout(e)) continue;
        throw;
      }
      const std::int64_t t = support::now_ns();
      std::lock_guard lock(mu);
      const auto [t0, cls] = meta[resp.header.id];
      stats[cls].record(resp.header.status,
                        static_cast<double>(t - t0) * 1e-6);
      ++received;
    }
  });

  support::Xoshiro256 rng(seed);
  const auto exp_gap_ns = [&rng](double rate_hz) {
    return static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) * 1e9 /
                                     rate_hz);
  };
  std::uint8_t payload[32] = {};
  std::vector<std::int64_t> next(streams.size());
  const std::int64_t start = support::now_ns();
  for (std::size_t i = 0; i < next.size(); ++i) {
    next[i] = start + exp_gap_ns(streams[i].rate_hz);
  }
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  while (true) {
    const std::size_t i = static_cast<std::size_t>(
        std::min_element(next.begin(), next.end()) - next.begin());
    if (next[i] >= end) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(next[i]))));
    net::RequestHeader h;
    h.tenant = tenant;
    h.cls = streams[i].cls;
    h.kernel = streams[i].kernel;
    {
      std::lock_guard lock(mu);
      h.id = static_cast<std::uint32_t>(meta.size());
      meta.emplace_back(support::now_ns(), streams[i].cls);
      ++stats[streams[i].cls].sent;
    }
    c.enqueue(h, payload, sizeof payload);
    c.flush();
    next[i] += exp_gap_ns(streams[i].rate_hz);
  }
  {
    std::lock_guard lock(mu);
    done = true;
  }
  reader.join();

  for (const Stream& s : streams) print_wire_stats(s.cls, stats[s.cls]);
  return 0;
}

/// Closed-loop pipelined client: keeps `window` requests in flight on one
/// connection, batching sends so the syscall cost amortizes — the peak-
/// throughput driver.
int client_pipeline(net::Client& c, std::uint32_t cls, std::uint32_t kernel,
                    double seconds, std::uint32_t tenant, unsigned window,
                    unsigned payload_bytes) {
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(0xa5u + i);
  }
  std::vector<std::int64_t> send_ns;
  WireStats stats;
  net::RequestHeader h;
  h.tenant = tenant;
  h.cls = cls;
  h.kernel = kernel;

  const auto send_one = [&] {
    h.id = static_cast<std::uint32_t>(send_ns.size());
    send_ns.push_back(support::now_ns());
    c.enqueue(h, payload.data(), payload.size());
    ++stats.sent;
  };
  const auto read_one = [&]() -> bool {
    net::Client::Response resp;
    for (;;) {
      try {
        if (!c.read_response(resp)) return false;
        break;
      } catch (const std::system_error& e) {
        if (!is_timeout(e)) throw;
      }
    }
    stats.record(resp.header.status,
                 static_cast<double>(support::now_ns() -
                                     send_ns[resp.header.id]) *
                     1e-6);
    return true;
  };

  for (unsigned i = 0; i < window; ++i) send_one();
  c.flush();
  const unsigned batch = std::min(32u, window);
  const std::int64_t end =
      support::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (support::now_ns() < end) {
    for (unsigned i = 0; i < batch; ++i) {
      if (!read_one()) return 1;
    }
    for (unsigned i = 0; i < batch; ++i) send_one();
    c.flush();
  }
  // Drain the window (bounded: the server answers every frame).
  const std::int64_t drain_end = support::now_ns() + 5'000'000'000;
  while (stats.completed() < stats.sent && support::now_ns() < drain_end) {
    if (!read_one()) break;
  }
  print_wire_stats(cls, stats);
  return 0;
}

int client_main(int argc, char** argv) {
  std::string mode;
  std::uint16_t port = 0;
  std::uint32_t tenant = 0, cls = 0, kernel = 0;
  double seconds = 1.0;
  std::uint64_t seed = 1;
  unsigned window = 64, payload_bytes = 64;
  std::vector<Stream> streams;
  for (int i = 1; i < argc; ++i) {
    const auto next_arg = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--client") == 0) mode = next_arg();
    else if (std::strcmp(argv[i], "--port") == 0) port = static_cast<std::uint16_t>(std::atoi(next_arg()));
    else if (std::strcmp(argv[i], "--tenant") == 0) tenant = static_cast<std::uint32_t>(std::atoi(next_arg()));
    else if (std::strcmp(argv[i], "--cls") == 0) cls = static_cast<std::uint32_t>(std::atoi(next_arg()));
    else if (std::strcmp(argv[i], "--kernel") == 0) kernel = static_cast<std::uint32_t>(std::atoi(next_arg()));
    else if (std::strcmp(argv[i], "--seconds") == 0) seconds = std::atof(next_arg());
    else if (std::strcmp(argv[i], "--seed") == 0) seed = static_cast<std::uint64_t>(std::atoll(next_arg()));
    else if (std::strcmp(argv[i], "--window") == 0) window = static_cast<unsigned>(std::atoi(next_arg()));
    else if (std::strcmp(argv[i], "--payload") == 0) payload_bytes = static_cast<unsigned>(std::atoi(next_arg()));
    else if (std::strcmp(argv[i], "--stream") == 0) {
      Stream s;
      double rate = 0.0;
      if (std::sscanf(next_arg(), "%u:%u:%lf", &s.cls, &s.kernel, &rate) == 3) {
        s.rate_hz = std::max(rate, 0.1);
        streams.push_back(s);
      }
    }
  }
  try {
    net::Client c;
    c.connect("127.0.0.1", port);
    c.set_receive_timeout_ms(50);
    if (mode == "poisson") return client_poisson(c, streams, seconds, tenant, seed);
    if (mode == "pipeline") {
      return client_pipeline(c, cls, kernel, seconds, tenant, window, payload_bytes);
    }
    std::fprintf(stderr, "serve_loadgen --client: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_loadgen --client: %s\n", e.what());
    return 1;
  }
}

// --- Parent-side process plumbing ----------------------------------------

struct ChildProc {
  pid_t pid = -1;
  int fd = -1;  ///< read end of the child's stdout pipe
};

ChildProc spawn_client(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe2");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  std::vector<char*> argv;
  std::string exe = "/proc/self/exe";
  argv.push_back(exe.data());
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ChildProc child;
  const int rc = ::posix_spawn(&child.pid, exe.c_str(), &fa, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::system_error(rc, std::generic_category(), "posix_spawn");
  }
  child.fd = fds[0];
  return child;
}

/// Reads the child's whole stdout (EOF = child exit), reaps it, and parses
/// its "C ..." report lines into per-class WireStats (latency vectors stay
/// empty; the child pre-reduced them to the p50/p99 returned alongside).
struct ChildReport {
  std::map<std::uint32_t, WireStats> stats;
  std::map<std::uint32_t, std::pair<double, double>> pcts;  ///< cls -> p50,p99
  int exit_status = -1;
};

ChildReport finish_client(ChildProc child) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(child.fd, buf, sizeof buf)) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(child.fd);
  int status = 0;
  ::waitpid(child.pid, &status, 0);

  ChildReport report;
  report.exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    std::uint32_t cls = 0;
    WireStats s;
    double p50 = 0.0, p99 = 0.0;
    if (std::sscanf(line.c_str(),
                    "C %u %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64 " %lf %lf",
                    &cls, &s.sent, &s.ok, &s.ok_approx, &s.ok_dropped, &s.shed,
                    &s.errors, &p50, &p99) == 9) {
      report.stats[cls] = s;
      report.pcts[cls] = {p50, p99};
    }
  }
  if (report.exit_status != 0) {
    std::fprintf(stderr, "serve_loadgen: client pid %d exited %d\n",
                 static_cast<int>(child.pid), report.exit_status);
  }
  return report;
}

// --- Wire tiers ----------------------------------------------------------

constexpr unsigned kWireClients = 2;

void tag_hot_thread(const char* /*role*/, unsigned /*index*/) {
  harness::mark_hot_thread();
}

/// One Poisson tier over loopback TCP: kWireClients child processes, one
/// tenant each, every child driving all three classes at rate/kWireClients.
void run_wire_tier(const char* tier, double mult, double seconds,
                   const std::vector<Workload>& workloads, unsigned workers,
                   std::uint64_t seed, std::vector<std::string>& cells) {
  ServerOptions so;
  so.runtime.workers = workers;
  so.epoch_ms = 10.0;
  so.thread_start_hook = [](const char* role, unsigned) {
    if (std::strcmp(role, "dispatcher") == 0) harness::mark_hot_thread();
  };
  Server srv(so);

  std::vector<ClassId> ids;
  for (const Workload& w : workloads) ids.push_back(srv.register_class(class_config(w)));
  std::vector<TenantId> tenants;
  std::vector<std::string> tenant_names;
  for (unsigned t = 0; t < kWireClients; ++t) {
    tenant_names.push_back("c" + std::to_string(t));
    tenants.push_back(srv.register_tenant({.name = tenant_names.back()}));
  }

  net::NetServerOptions no;
  no.port = 0;
  no.thread_start_hook = tag_hot_thread;
  net::NetServer net(srv, no);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    net.register_kernel(
        static_cast<std::uint32_t>(i),
        {.fn = [w](const std::uint8_t*, std::size_t, bool approximate,
                   std::vector<std::uint8_t>&) {
           harness::mark_hot_thread();
           if (approximate) {
             w.approximate();
           } else {
             w.accurate();
           }
         },
         .significance = 0.5});
  }
  net.start();

  const std::vector<double> rates_hz = tier_rates_hz(mult, workers, workloads);
  std::vector<ChildProc> children;
  for (unsigned t = 0; t < kWireClients; ++t) {
    std::vector<std::string> args = {
        "--client", "poisson",
        "--port", std::to_string(net.port()),
        "--tenant", std::to_string(tenants[t]),
        "--seconds", std::to_string(seconds),
        "--seed", std::to_string(seed + t)};
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      args.push_back("--stream");
      args.push_back(jsonf("%zu:%zu:%.3f", i, i,
                           rates_hz[i] / static_cast<double>(kWireClients)));
    }
    children.push_back(spawn_client(args));
  }
  std::vector<ChildReport> reports;
  for (ChildProc& c : children) reports.push_back(finish_client(c));

  srv.close();  // drain admitted work FIRST,
  net.stop();   // THEN tear the frontend down

  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (unsigned t = 0; t < kWireClients; ++t) {
      const TenantClassCell cell = srv.tenant_report(tenants[t]).cells[ids[i]];
      const WireStats& w = reports[t].stats[static_cast<std::uint32_t>(i)];
      const auto [p50, p99] = reports[t].pcts[static_cast<std::uint32_t>(i)];
      emit(cells,
           jsonf("{\"bench\":\"serve_loadgen\",\"transport\":\"tcp\","
                 "\"tier\":\"%s\",\"class\":\"%s\",\"tenant\":\"%s\","
                 "\"workers\":%u,\"seconds\":%.2f,"
                 "\"sent\":%" PRIu64 ",\"submitted\":%" PRIu64
                 ",\"shed\":%" PRIu64 ",\"degraded\":%" PRIu64
                 ",\"perforated\":%" PRIu64 ",\"served\":%" PRIu64
                 ",\"wire_ok\":%" PRIu64 ",\"wire_ok_approx\":%" PRIu64
                 ",\"wire_shed\":%" PRIu64 ",\"wire_errors\":%" PRIu64
                 ",\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                 tier, workloads[i].name.c_str(), tenant_names[t].c_str(),
                 workers, seconds, w.sent, cell.submitted, cell.shed,
                 cell.degraded, cell.perforated, cell.served(), w.ok,
                 w.ok_approx, w.shed + w.ok_dropped, w.errors, p50, p99));
    }
    // The cross-tenant aggregate mirrors the in-process cell shape so the
    // two transports diff cleanly (ab_compare.py --strip-tag transport).
    const ClassReport r = srv.class_report(ids[i]);
    emit(cells,
         jsonf("{\"bench\":\"serve_loadgen\",\"transport\":\"tcp\","
               "\"tier\":\"%s\",\"class\":\"%s\",\"tenant\":\"*\","
               "\"simd\":\"%s\","
               "\"workers\":%u,\"rate_hz\":%.1f,\"seconds\":%.2f,"
               "\"accurate_cost_ms\":%.3f,\"deadline_ms\":%.1f,"
               "\"submitted\":%" PRIu64 ",\"shed\":%" PRIu64
               ",\"degraded\":%" PRIu64 ",\"perforated\":%" PRIu64
               ",\"served\":%" PRIu64
               ",\"throughput_hz\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
               "\"mean_ms\":%.3f,\"ratio\":%.3f,\"achieved_ratio\":%.3f}",
               tier, r.name.c_str(),
               support::simd::to_string(support::simd::active()), workers,
               rates_hz[i], seconds, workloads[i].accurate_cost_s * 1e3,
               r.deadline_ms, r.submitted, r.shed, r.degraded, r.perforated,
               r.served(), static_cast<double>(r.served()) / seconds, r.p50_ms,
               r.p99_ms, r.mean_ms, r.ratio, r.achieved_ratio()));
  }
}

/// FNV-1a over the payload — cheap, deterministic, allocation-free once the
/// response buffer's capacity is warm: the peak-throughput kernel.
void fnv_kernel(const std::uint8_t* payload, std::size_t bytes,
                bool /*approximate*/, std::vector<std::uint8_t>& out) {
  harness::mark_hot_thread();
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ payload[i]) * 1099511628211ull;
  }
  const std::size_t base = out.size();
  out.resize(base + sizeof h);
  std::memcpy(out.data() + base, &h, sizeof h);
}

/// Peak tier: pipelined clients against the FNV kernel; measures sustained
/// wire req/s over a post-warmup window and heap allocations per request on
/// the hot threads during that window (the zero-alloc steady-state gate).
void run_peak_tier(double seconds, unsigned workers,
                   std::vector<std::string>& cells) {
  constexpr unsigned kWindow = 64;
  constexpr unsigned kPayloadBytes = 64;

  ServerOptions so;
  so.runtime.workers = workers;
  so.epoch_ms = 0.0;  // raw throughput: no controller in the loop
  so.thread_start_hook = [](const char* role, unsigned) {
    if (std::strcmp(role, "dispatcher") == 0) harness::mark_hot_thread();
  };
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "peak";
  cfg.criticality = Criticality::Critical;
  cfg.qos.deadline_ns = 100e6;
  cfg.max_in_flight = 4096;
  const ClassId cls = srv.register_class(cfg);
  std::vector<TenantId> tenants;
  std::vector<std::string> tenant_names;
  for (unsigned t = 0; t < kWireClients; ++t) {
    tenant_names.push_back("c" + std::to_string(t));
    tenants.push_back(srv.register_tenant({.name = tenant_names.back()}));
  }

  net::NetServerOptions no;
  no.port = 0;
  no.thread_start_hook = tag_hot_thread;
  net::NetServer net(srv, no);
  net.register_kernel(0, {.fn = fnv_kernel, .significance = 1.0});
  net.start();

  // Children outlive warmup + the measurement window.
  const double child_seconds = 0.4 + seconds + 0.4;
  std::vector<ChildProc> children;
  for (unsigned t = 0; t < kWireClients; ++t) {
    children.push_back(spawn_client(
        {"--client", "pipeline",
         "--port", std::to_string(net.port()),
         "--tenant", std::to_string(tenants[t]),
         "--cls", std::to_string(cls),
         "--kernel", "0",
         "--seconds", std::to_string(child_seconds),
         "--window", std::to_string(kWindow),
         "--payload", std::to_string(kPayloadBytes)}));
  }

  // Warmup lets pools, framing buffers and response capacities reach their
  // high-water marks; the window then counts true steady state.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::uint64_t r0 = net.counters().responses;
  const std::uint64_t a0 = harness::hot_allocs();
  const std::int64_t w0 = support::now_ns();
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9)));
  const std::uint64_t a1 = harness::hot_allocs();
  const std::int64_t w1 = support::now_ns();
  const std::uint64_t r1 = net.counters().responses;

  std::vector<ChildReport> reports;
  for (ChildProc& c : children) reports.push_back(finish_client(c));
  srv.close();
  net.stop();

  const std::uint64_t window_reqs = r1 - r0;
  const double window_s = static_cast<double>(w1 - w0) * 1e-9;
  const double req_per_s =
      window_reqs > 0 ? static_cast<double>(window_reqs) / window_s : 0.0;
  const double allocs_per_req =
      window_reqs > 0 ? static_cast<double>(a1 - a0) /
                            static_cast<double>(window_reqs)
                      : 0.0;

  for (unsigned t = 0; t < kWireClients; ++t) {
    const TenantClassCell cell = srv.tenant_report(tenants[t]).cells[cls];
    const WireStats& w = reports[t].stats[cls];
    const auto [p50, p99] = reports[t].pcts[cls];
    emit(cells,
         jsonf("{\"bench\":\"serve_loadgen\",\"transport\":\"tcp\","
               "\"tier\":\"peak\",\"class\":\"peak\",\"tenant\":\"%s\","
               "\"workers\":%u,\"seconds\":%.2f,"
               "\"sent\":%" PRIu64 ",\"submitted\":%" PRIu64
               ",\"shed\":%" PRIu64 ",\"served\":%" PRIu64
               ",\"wire_ok\":%" PRIu64 ",\"wire_errors\":%" PRIu64
               ",\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
               tenant_names[t].c_str(), workers, child_seconds, w.sent,
               cell.submitted, cell.shed, cell.served(), w.ok, w.errors, p50,
               p99));
  }
  const ClassReport r = srv.class_report(cls);
  emit(cells,
       jsonf("{\"bench\":\"serve_loadgen\",\"transport\":\"tcp\","
             "\"tier\":\"peak\",\"class\":\"peak\",\"tenant\":\"*\","
             "\"workers\":%u,\"seconds\":%.2f,\"clients\":%u,\"window\":%u,"
             "\"payload_bytes\":%u,"
             "\"req_per_s\":%.1f,\"hot_allocs_per_req\":%.4f,"
             "\"submitted\":%" PRIu64 ",\"shed\":%" PRIu64
             ",\"served\":%" PRIu64 ",\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
             workers, window_s, kWireClients, kWindow, kPayloadBytes,
             req_per_s, allocs_per_req, r.submitted, r.shed, r.served(),
             r.p50_ms, r.p99_ms));
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--client") == 0) return client_main(argc, argv);
  }

  double seconds = 2.0;
  bool tcp = false;
  unsigned workers = RuntimeConfig::default_workers();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) seconds = 0.6;
    if (std::strcmp(argv[i], "--tcp") == 0) tcp = true;
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    }
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
    }
  }

  std::vector<Workload> workloads = make_workloads();
  for (Workload& w : workloads) w.accurate_cost_s = measure_cost_s(w.accurate);

  std::vector<std::string> cells;
  if (tcp) {
    run_wire_tier("low", 0.25, seconds, workloads, workers, /*seed=*/101, cells);
    run_wire_tier("base", 1.0, seconds, workloads, workers, /*seed=*/202, cells);
    run_wire_tier("high", 3.0, seconds, workloads, workers, /*seed=*/303, cells);
    run_peak_tier(seconds, workers, cells);
  } else {
    run_tier("low", 0.25, seconds, workloads, workers, /*seed=*/101, cells);
    run_tier("base", 1.0, seconds, workloads, workers, /*seed=*/202, cells);
    run_tier("high", 3.0, seconds, workloads, workers, /*seed=*/303, cells);
  }

  // The summary record ab_compare.py consumes: LAST stdout line.
  std::string summary = jsonf(
      "{\"bench\":\"serve_loadgen\",\"transport\":\"%s\",\"workers\":%u,"
      "\"seconds\":%.2f,\"cells\":[",
      tcp ? "tcp" : "inproc", workers, seconds);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) summary += ',';
    summary += cells[i];
  }
  summary += "]}";
  std::printf("%s\n", summary.c_str());
  return 0;
}
