#include "apps/mc.hpp"

#include <algorithm>
#include <cmath>

#include "metrics/quality.hpp"
#include "perforation/perforate.hpp"
#include "support/rng.hpp"

namespace sigrt::apps::mc {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kSubdomainRadius = 0.22;  // interior circle around (0.5, 0.5)
constexpr double kCaptureEps = 1e-3;       // accurate boundary capture band
constexpr double kCaptureEpsApprox = 8e-3; // lighter capture band (approxfun)

/// Distance from (x, y) to the unit-square boundary (the WoS sphere radius).
double wall_distance(double x, double y) {
  return std::min(std::min(x, 1.0 - x), std::min(y, 1.0 - y));
}

/// One accurate walk-on-spheres step sequence from (x, y); returns g at the
/// exit point.  The step is an exact uniform sample of the largest circle
/// inscribed at the current location.
double walk_accurate(double x, double y, support::Xoshiro256& rng) {
  double r = wall_distance(x, y);
  while (r > kCaptureEps) {
    const double theta = rng.uniform(0.0, 2.0 * kPi);
    x += r * std::cos(theta);
    y += r * std::sin(theta);
    r = wall_distance(x, y);
  }
  // Snap to the nearest wall and evaluate g there.
  const double dx = std::min(x, 1.0 - x);
  const double dy = std::min(y, 1.0 - y);
  if (dx < dy) {
    x = x < 0.5 ? 0.0 : 1.0;
  } else {
    y = y < 0.5 ? 0.0 : 1.0;
  }
  return boundary_value(x, y);
}

/// Lighter stepping rule (§4.1: "a modified, more lightweight methodology
/// ... to decide how far the next step should be"): axis-aligned L-inf
/// steps (no trig), a coarser capture band, and a step cap.
double walk_approx(double x, double y, support::Xoshiro256& rng) {
  double r = wall_distance(x, y);
  unsigned steps = 0;
  while (r > kCaptureEpsApprox && steps < 64) {
    // Jump along one axis by the full inscribed distance: cheap (one rng
    // draw, no sin/cos) yet still boundary-convergent.
    const std::uint64_t dir = rng.bounded(4);
    switch (dir) {
      case 0: x += r; break;
      case 1: x -= r; break;
      case 2: y += r; break;
      default: y -= r; break;
    }
    x = std::clamp(x, 0.0, 1.0);
    y = std::clamp(y, 0.0, 1.0);
    r = wall_distance(x, y);
    ++steps;
  }
  const double dx = std::min(x, 1.0 - x);
  const double dy = std::min(y, 1.0 - y);
  if (dx < dy) {
    x = x < 0.5 ? 0.0 : 1.0;
  } else {
    y = y < 0.5 ? 0.0 : 1.0;
  }
  return boundary_value(x, y);
}

/// Sample point `i` on the sub-domain (circle) boundary.
void subdomain_point(std::size_t i, std::size_t n, double& x, double& y) {
  const double theta = 2.0 * kPi * static_cast<double>(i) / static_cast<double>(n);
  x = 0.5 + kSubdomainRadius * std::cos(theta);
  y = 0.5 + kSubdomainRadius * std::sin(theta);
}

/// Accurate task body: full walk budget with exact stepping.
double estimate_accurate(std::size_t point, const Options& opt) {
  double x0, y0;
  subdomain_point(point, opt.points, x0, y0);
  auto rng = support::stream_rng(opt.common.seed, point);
  double acc = 0.0;
  for (std::size_t w = 0; w < opt.walks; ++w) {
    acc += walk_accurate(x0, y0, rng);
  }
  return acc / static_cast<double>(opt.walks);
}

/// Approximate task body: drops (1 - approx_walk_fraction) of the walks and
/// steps with the lightweight rule.
double estimate_approx(std::size_t point, const Options& opt) {
  double x0, y0;
  subdomain_point(point, opt.points, x0, y0);
  auto rng = support::stream_rng(opt.common.seed, point);
  const auto walks = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(opt.walks) * opt.approx_walk_fraction));
  double acc = 0.0;
  for (std::size_t w = 0; w < walks; ++w) {
    acc += walk_approx(x0, y0, rng);
  }
  return acc / static_cast<double>(walks);
}

/// Round-robin significance as in Sobel: spreads approximated points evenly
/// around the sub-domain boundary, avoiding the special values.
double point_significance(std::size_t point) {
  return static_cast<double>(point % 9 + 1) / 10.0;
}

}  // namespace

double ratio_for(Degree degree) noexcept {
  switch (degree) {
    case Degree::Mild: return 1.0;
    case Degree::Medium: return 0.80;
    case Degree::Aggressive: return 0.50;
  }
  return 1.0;
}

double boundary_value(double x, double y) noexcept {
  return x * x - y * y + x;  // harmonic: u_xx + u_yy = 0
}

std::vector<double> reference(const Options& options) {
  std::vector<double> u(options.points, 0.0);
  for (std::size_t p = 0; p < options.points; ++p) {
    u[p] = estimate_accurate(p, options);
  }
  return u;
}

RunResult run(const Options& options, std::vector<double>* out) {
  RunResult result;
  result.app = "mc";
  result.quality_metric = "rel.err";

  const std::vector<double> ref = reference(options);
  const double ratio = options.ratio_override >= 0.0
                           ? options.ratio_override
                           : ratio_for(options.common.degree);

  std::vector<double> estimates(options.points, 0.0);
  double* est = estimates.data();

  run_measured(options.common, result, [&](Runtime& rt) {
    const GroupId g = rt.create_group("mc", ratio);
    if (options.common.variant == Variant::Perforated) {
      // Blind perforation of the *walk* loop: every point task survives but
      // performs only ratio*walks of its random walks (accurate stepping).
      // This is the transformation a perforating compiler would apply to
      // the hot loop, and matches §4.2's observation that MC's performance
      // under the runtime policies is almost identical to blind
      // perforation.  (No out() clauses: the per-point estimate slots are
      // disjoint, so the tasks are independent — the group barrier orders
      // the final read.)
      Options perforated = options;
      perforated.walks = static_cast<std::size_t>(
          std::max(1.0, static_cast<double>(options.walks) * ratio));
      for (std::size_t p = 0; p < options.points; ++p) {
        rt.spawn(task([=] { est[p] = estimate_accurate(p, perforated); })
                     .group(g));
      }
    } else {
      for (std::size_t p = 0; p < options.points; ++p) {
        rt.spawn(task([=, &options] { est[p] = estimate_accurate(p, options); })
                     .approx([=, &options] { est[p] = estimate_approx(p, options); })
                     .significance(point_significance(p))
                     .group(g));
      }
    }
    rt.wait_group(g);
  });

  result.quality = metrics::mean_relative_error(ref, estimates);
  result.quality_aux = result.quality;
  if (out != nullptr) *out = std::move(estimates);
  return result;
}

}  // namespace sigrt::apps::mc
