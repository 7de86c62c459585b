// Monte Carlo PDE benchmark tests.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/mc.hpp"

namespace {

using namespace sigrt::apps;

mc::Options small_options(Variant v, Degree d) {
  mc::Options o;
  o.points = 32;
  o.walks = 300;
  o.common.variant = v;
  o.common.degree = d;
  o.common.workers = 2;
  return o;
}

TEST(Mc, RatiosMatchTable1) {
  EXPECT_DOUBLE_EQ(mc::ratio_for(Degree::Mild), 1.0);
  EXPECT_DOUBLE_EQ(mc::ratio_for(Degree::Medium), 0.80);
  EXPECT_DOUBLE_EQ(mc::ratio_for(Degree::Aggressive), 0.50);
}

TEST(Mc, BoundaryConditionIsHarmonic) {
  // Finite-difference Laplacian of g must vanish.
  const double h = 1e-4;
  for (const auto [x, y] : {std::pair{0.3, 0.4}, {0.7, 0.2}, {0.5, 0.9}}) {
    const double lap = (mc::boundary_value(x + h, y) + mc::boundary_value(x - h, y) +
                        mc::boundary_value(x, y + h) + mc::boundary_value(x, y - h) -
                        4.0 * mc::boundary_value(x, y)) /
                       (h * h);
    EXPECT_NEAR(lap, 0.0, 1e-4);
  }
}

TEST(Mc, ReferenceApproximatesHarmonicSolution) {
  // For harmonic g, the walk estimate converges to g at the start point.
  auto o = small_options(Variant::Accurate, Degree::Mild);
  o.points = 16;
  o.walks = 3000;
  const auto ref = mc::reference(o);
  constexpr double kPi = 3.14159265358979323846;
  for (std::size_t p = 0; p < 16; ++p) {
    const double theta = 2.0 * kPi * static_cast<double>(p) / 16.0;
    const double x = 0.5 + 0.22 * std::cos(theta);
    const double y = 0.5 + 0.22 * std::sin(theta);
    EXPECT_NEAR(ref[p], mc::boundary_value(x, y), 0.08) << "point " << p;
  }
}

TEST(Mc, ReferenceIsDeterministic) {
  const auto o = small_options(Variant::Accurate, Degree::Mild);
  EXPECT_EQ(mc::reference(o), mc::reference(o));
}

TEST(Mc, MildDegreeIsFullyAccurate) {
  // Table 1: MC Mild keeps 100% of tasks accurate.
  const auto r = mc::run(small_options(Variant::GTBMaxBuffer, Degree::Mild));
  EXPECT_EQ(r.tasks_approximate, 0u);
  EXPECT_DOUBLE_EQ(r.quality, 0.0);
}

TEST(Mc, AggressiveStaysGraceful) {
  const auto r = mc::run(small_options(Variant::GTBMaxBuffer, Degree::Aggressive));
  EXPECT_GT(r.tasks_approximate, 0u);
  EXPECT_GT(r.quality, 0.0);
  EXPECT_LT(r.quality, 0.35);  // approximate walks still estimate u
}

TEST(Mc, QualityDegradesMonotonicallyWithDegree) {
  const auto mild = mc::run(small_options(Variant::GTBMaxBuffer, Degree::Mild));
  const auto med = mc::run(small_options(Variant::GTBMaxBuffer, Degree::Medium));
  const auto aggr =
      mc::run(small_options(Variant::GTBMaxBuffer, Degree::Aggressive));
  EXPECT_LE(mild.quality, med.quality);
  EXPECT_LE(med.quality, aggr.quality);
}

TEST(Mc, AccurateTasksMatchReferenceExactly) {
  // Seeded per-point streams: points executed accurately under any policy
  // produce bit-identical estimates to the reference.
  auto o = small_options(Variant::GTBMaxBuffer, Degree::Aggressive);
  std::vector<double> est;
  mc::run(o, &est);
  const auto ref = mc::reference(o);
  int exact = 0;
  for (std::size_t p = 0; p < est.size(); ++p) exact += est[p] == ref[p];
  // Ratio 0.5 of 32 points: at least 16 exact matches.
  EXPECT_GE(exact, 16);
}

TEST(Mc, PerforationKeepsAllPointsWithFewerWalks) {
  // Walk-loop perforation: every point task survives, each with
  // ratio*walks accurate walks — graceful quality, proportional work.
  auto o = small_options(Variant::Perforated, Degree::Aggressive);
  std::vector<double> est;
  const auto r = mc::run(o, &est);
  EXPECT_EQ(r.tasks_total, o.points);
  for (const double v : est) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(r.quality, 0.0);   // fewer walks => noisier estimates
  EXPECT_LT(r.quality, 0.8);   // still graceful (rel.err inflates near zero-valued points)
}

TEST(Mc, LqhRunsKeepQualityBounded) {
  // LQH decides from the history of the worker that dequeues each task, so
  // with several workers the quality depends on how the points happen to
  // split between them (one worker's localized view can approximate most
  // of the significant points, §4.2).  Zero workers run every task on the
  // spawning thread in spawn order: one history, one deterministic split.
  auto o = small_options(Variant::LQH, Degree::Medium);
  o.common.workers = 0;
  const auto r = mc::run(o);
  EXPECT_GT(r.tasks_approximate, 0u);
  EXPECT_LT(r.quality, 0.35);
  EXPECT_EQ(mc::run(o).quality, r.quality);
}

}  // namespace
