#include "common.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Per-layer metrics, grouped by the layer they read.  Each one is written
// by every workload (0 where the workload bypasses the layer).
constexpr LayerMetric kLayerMetrics[] = {
    {"core.spawn_us", "us"},
    {"core.spawn_us_tail", "us"},
    {"core.start_wait_us", "us"},
    {"core.barrier_us", "us"},
    {"core.busy_frac", "frac"},
    {"core.steals_per_ktask", "count"},
    {"core.inline_spawn_frac", "frac"},
    {"policy.inversion_frac", "frac"},
    {"dep.blocks_per_spawn", "count"},
    {"dep.edges_per_task", "count"},
    {"dep.nodes", "count"},
    {"apps.body_us_acc", "us"},
    {"apps.body_us_approx", "us"},
    {"apps.serial_ms", "ms"},
    {"apps.overhead_x", "x"},
    {"pool.allocs_per_task", "count"},
    {"net.to_handler_us", "us"},
    {"net.from_handler_us", "us"},
    {"serve.server_ms", "ms"},
    {"net.residual_ms", "ms"},
    {"serve.shed_frac", "frac"},
    {"serve.degraded_frac", "frac"},
    {"serve.perforated_frac", "frac"},
    {"serve.expired_frac", "frac"},
    {"serve.ratio_mean", "frac"},
    {"net.protocol_errors", "count"},
    {"proc.ctx_switches_per_op", "count"},
    {"proc.cpu_s_per_op", "s"},
    {"proc.peak_rss_mb", "MB"},
    {"gen.late_ms_max", "ms"},
    {"gen.late_ms_p99", "ms"},
    {"self.gen_ms", "ms"},
    {"self.net_send_ms", "ms"},
    {"self.core_spawn_ms", "ms"},
    {"self.core_wait_ms", "ms"},
    {"self.wire_kernel_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.residual_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.dropped_spans", "count"},
};

}  // namespace

void put_end_to_end(RunResult& r, const EndToEnd& e) {
  r.set("setup_s", e.setup_s, "s");
  r.set("ops_per_s", e.ops_per_s, "1/s");
  r.set("tasks_per_s", e.tasks_per_s, "1/s");
  r.set("lat_p50_ms", e.latency.p50, "ms");
  r.set("lat_tail_ms", e.latency.tail, "ms");
  r.set("goodput_per_s", e.goodput_per_s, "1/s");
  r.set("deadline_miss_frac", e.deadline_miss_frac, "frac");
  r.set("accurate_frac", e.accurate_frac, "frac");
  r.set("quality_loss", e.quality_loss, e.quality_unit);
  r.set("ratio_error", e.ratio_error, "frac");
  r.set("energy_j_per_op", e.energy_j_per_op, "J");
  r.set("failed_frac", e.failed_frac, "frac");
}

void init_layer_metrics(RunResult& r) {
  for (const LayerMetric& m : kLayerMetrics) r.set(m.name, 0.0, m.unit);
}

double repeat_setup(const std::function<void()>& setup) {
  std::vector<double> s;
  for (unsigned i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = sigrt::support::now_ns();
    setup();
    s.push_back(since_s(t0));
  }
  return median(std::move(s));
}

std::string config_json(unsigned workers, unsigned serve_threads,
                        unsigned generator_threads, unsigned connections,
                        const std::string& extra, unsigned cpus) {
  if (cpus == 0) cpus = nproc();
  const unsigned busy = workers + serve_threads + generator_threads;
  std::string s = "{\"nproc\":" + std::to_string(nproc()) +
                  ",\"cpus\":" + std::to_string(cpus) +
                  ",\"workers\":" + std::to_string(workers) +
                  ",\"serve_threads\":" + std::to_string(serve_threads) +
                  ",\"generator_threads\":" +
                  std::to_string(generator_threads) +
                  ",\"connections\":" + std::to_string(connections) +
                  ",\"oversubscribed\":" +
                  (busy > cpus ? "true" : "false");
  if (!extra.empty()) s += "," + extra;
  s += "}";
  return s;
}

}  // namespace perfbench
