// Unit tests of the benchmark's own machinery: the tail rule, seeded
// schedules and inputs, due-time latency and generator lateness, and the
// record schema.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "record.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "support/image.hpp"

namespace perfbench {
namespace {

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
  EXPECT_DOUBLE_EQ(tail_pct(1000), 99.0);
  // 10000: p99.9 leaves exactly 10.
  EXPECT_DOUBLE_EQ(tail_pct(10000), 99.9);
  EXPECT_DOUBLE_EQ(tail_pct(100000), 99.99);
  // 30 samples: p66 leaves 10 (rank 20), p67 leaves 9 (rank 21).
  EXPECT_EQ(samples_beyond(30, 66.0), 10u);
  EXPECT_EQ(samples_beyond(30, 67.0), 9u);
  EXPECT_DOUBLE_EQ(tail_pct(30), 66.0);
  // Too few samples for any ladder entry: the median.
  EXPECT_DOUBLE_EQ(tail_pct(5), 50.0);
  for (std::size_t n : {20u, 57u, 999u, 12345u, 250000u}) {
    EXPECT_GE(samples_beyond(n, tail_pct(n)), kTailBeyond) << n;
  }
}

TEST(TailRule, PercentilesAreNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(TailRule, WindowedTailIsMedianOfWindowTails) {
  // 20 windows of 100; one window carries a stall of 20 huge samples.
  std::vector<double> v;
  for (int w = 0; w < 20; ++w) {
    for (int i = 0; i < 100; ++i) v.push_back(w == 3 && i < 20 ? 1e6 : i);
  }
  const LatencySummary s = summarize_latency(v);
  EXPECT_EQ(s.windows, 20u);
  EXPECT_EQ(s.samples, 2000u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 89.0);  // rank 90 of 0..99
  EXPECT_DOUBLE_EQ(s.p50, 50.0);   // rank 1000 of the sorted 2000
  // Fewer samples than one window: a single window, the rule on all of
  // them (30 samples: p66).
  const LatencySummary small = summarize_latency(std::vector<double>(30, 1.0));
  EXPECT_EQ(small.windows, 1u);
  EXPECT_DOUBLE_EQ(small.tail_pct, 66.0);
}

TEST(Schedule, SameSeedSameArrivalsAndTiles) {
  const Schedule a = make_schedule(7, 5000.0, 2.0, 16);
  const Schedule b = make_schedule(7, 5000.0, 2.0, 16);
  const Schedule c = make_schedule(8, 5000.0, 2.0, 16);
  EXPECT_EQ(a.due_ns, b.due_ns);
  EXPECT_EQ(a.tile, b.tile);
  EXPECT_NE(a.due_ns, c.due_ns);
  // Poisson at 5000/s over 2 s: about 10000 arrivals, increasing, in range.
  EXPECT_NEAR(static_cast<double>(a.due_ns.size()), 10000.0, 400.0);
  for (std::size_t i = 1; i < a.due_ns.size(); ++i) {
    ASSERT_GE(a.due_ns[i], a.due_ns[i - 1]);
  }
  EXPECT_LT(a.due_ns.back(), 2'000'000'000);
  for (const auto t : a.tile) ASSERT_LT(t, 16);
}

TEST(Schedule, SameSeedSameInputs) {
  const auto a = sigrt::support::synthetic_image(64, 64, 11);
  const auto b = sigrt::support::synthetic_image(64, 64, 11);
  const auto c = sigrt::support::synthetic_image(64, 64, 12);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size()));
  EXPECT_NE(0, std::memcmp(a.data(), c.data(), a.size()));
}

TEST(Schedule, LatencyIsTimedFromDueTime) {
  // Window starts at 1000; a request due at +500 sent late at 1900 and
  // answered at 2000 waited 500 ns, not the 100 ns since it was sent.
  EXPECT_EQ(latency_from_due(1000, 500, 2000), 500);
  EXPECT_EQ(lateness(1000, 500, 1900), 400);
  // Sent on time (or early): no lateness.
  EXPECT_EQ(lateness(1000, 500, 1500), 0);
  EXPECT_EQ(lateness(1000, 500, 1400), 0);
}

TEST(Record, SchemaCarriesEveryMetricWithUnit) {
  RunResult r;
  init_layer_metrics(r);
  EndToEnd e;
  e.setup_s = 0.5;
  e.latency.p50 = 1.25;
  put_end_to_end(r, e);
  for (const char* name :
       {"setup_s", "ops_per_s", "tasks_per_s", "lat_p50_ms", "lat_tail_ms",
        "goodput_per_s", "deadline_miss_frac", "accurate_frac", "quality_loss",
        "ratio_error", "energy_j_per_op", "failed_frac", "proc.peak_rss_mb",
        "core.spawn_us", "pool.allocs_per_task", "net.to_handler_us",
        "self.residual_ms", "gen.late_ms_p99"}) {
    const Metric* m = r.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_FALSE(m->unit.empty()) << name;
  }
  r.attempted = 3;
  r.fail_check("band 7 \"differs\"");
  r.failed = 1;
  r.self_time = {{"core.spawn", 1.0}, {"residual", 1.0}};
  r.op_ms = 2.0;
  RunOptions o;
  o.workload = "fine_tasks";
  o.seed = 9;
  const std::string s = record_json(o, r);
  EXPECT_EQ(s.rfind("{\"record\":\"perfbench\",\"workload\":\"fine_tasks\","
                    "\"seed\":9,",
                    0),
            0u);
  EXPECT_NE(s.find("\"correct\":false,\"attempted\":3,\"failed\":1,"),
            std::string::npos);
  EXPECT_NE(s.find("\"check_failures\":[\"band 7 \\\"differs\\\"\"]"),
            std::string::npos);
  EXPECT_NE(s.find("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"),
            std::string::npos);
  EXPECT_NE(s.find("\"lat_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}"),
            std::string::npos);
  EXPECT_NE(s.find("{\"layer\":\"residual\",\"ms_per_op\":1,\"share\":0.5}"),
            std::string::npos);
  EXPECT_EQ(s.back(), '}');
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
}

}  // namespace
}  // namespace perfbench
