// RatioTuner tests, including an end-to-end search
// over the real Sobel kernel.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/sobel.hpp"
#include "core/autotuner.hpp"

namespace {

using sigrt::RatioTuner;

RatioTuner::Options tuner_options(double bound, double tol = 0.02) {
  RatioTuner::Options o;
  o.quality_bound = bound;
  o.tolerance = tol;
  return o;
}

/// Synthetic monotone quality curve: quality(r) = (1 - r)^2.
double synthetic_quality(double ratio) {
  return (1.0 - ratio) * (1.0 - ratio);
}

TEST(RatioTuner, FindsBoundaryOnSyntheticCurve) {
  // quality <= 0.25 iff ratio >= 0.5.
  const RatioTuner tuner(tuner_options(0.25, 0.01));
  const auto r = tuner.offline(synthetic_quality);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.ratio, 0.5, 0.02);
}

TEST(RatioTuner, TightBoundPushesRatioUp) {
  const RatioTuner tuner(tuner_options(0.01, 0.01));
  const auto r = tuner.offline(synthetic_quality);  // needs ratio >= 0.9
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.ratio, 0.9, 0.02);
}

TEST(RatioTuner, TrivialBoundReturnsMinRatio) {
  const RatioTuner tuner(tuner_options(2.0));
  const auto r = tuner.offline(synthetic_quality);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.ratio, 0.0);
  EXPECT_EQ(r.samples.size(), 2u);  // hi probe + lo probe, no bisection
}

TEST(RatioTuner, InfeasibleBoundReported) {
  const RatioTuner tuner(tuner_options(-1.0));  // nothing can satisfy this
  const auto r = tuner.offline(synthetic_quality);
  EXPECT_FALSE(r.feasible);
  EXPECT_DOUBLE_EQ(r.ratio, 1.0);
  EXPECT_EQ(r.samples.size(), 1u);  // fails fast after the hi probe
}

TEST(RatioTuner, RespectsProbeBudget) {
  RatioTuner::Options o = tuner_options(0.25, 1e-9);  // unreachable tolerance
  o.max_probes = 6;
  const RatioTuner tuner(o);
  const auto r = tuner.offline(synthetic_quality);
  EXPECT_LE(r.samples.size(), 6u + 1u);
  EXPECT_TRUE(r.feasible);
}

TEST(RatioTuner, ReturnedRatioIsAcceptable) {
  const RatioTuner tuner(tuner_options(0.1, 0.05));
  const auto r = tuner.offline(synthetic_quality);
  EXPECT_LE(synthetic_quality(r.ratio), 0.1 + 1e-12);
}

TEST(RatioTuner, EndToEndOnSobel) {
  // Find the cheapest ratio keeping Sobel above 35 dB PSNR
  // (quality = PSNR^-1 <= 1/35).
  const RatioTuner tuner(tuner_options(1.0 / 35.0, 0.05));
  const auto result = tuner.offline([](double ratio) {
    sigrt::apps::sobel::Options o;
    o.width = 128;
    o.height = 128;
    o.common.variant = sigrt::apps::Variant::GTBMaxBuffer;
    o.common.workers = 0;
    o.ratio_override = ratio;
    return sigrt::apps::sobel::run(o).quality;
  });
  ASSERT_TRUE(result.feasible);
  // The found operating point must satisfy the bound...
  sigrt::apps::sobel::Options check;
  check.width = 128;
  check.height = 128;
  check.common.variant = sigrt::apps::Variant::GTBMaxBuffer;
  check.common.workers = 0;
  check.ratio_override = result.ratio;
  EXPECT_LE(sigrt::apps::sobel::run(check).quality, 1.0 / 35.0 + 1e-9);
  // ...and be meaningfully cheaper than fully accurate.
  EXPECT_LT(result.ratio, 1.0);
}

}  // namespace
