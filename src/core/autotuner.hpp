// Ratio autotuner: closes the loop the paper leaves to the programmer.
//
// §2 presents the per-group ratio() as "an open parameter of a kernel or an
// entire application, which can take different values in each invocation,
// or be changed interactively by the user".  This component automates that
// interaction: given a user-supplied quality functional (lower is better,
// e.g. PSNR^-1 or relative error against a reference) and a quality bound,
// it searches for the smallest accurate-task ratio that satisfies the bound
// — the energy-minimal operating point of the quality/energy trade-off.
//
// offline() bisects over repeated kernel invocations.  Quality is monotone
// non-increasing in the ratio for the paper's policies (an invariant the
// test suite checks), so bisection converges to the boundary within
// `tolerance` in O(log 1/tolerance) invocations.  The online, between-
// requests counterpart is the serve tier's QosController.
#pragma once

#include <functional>
#include <vector>

#include "core/runtime.hpp"

namespace sigrt {

/// One probe of the quality/ratio curve.
struct TuneSample {
  double ratio = 1.0;
  double quality = 0.0;  ///< lower is better
  bool acceptable = false;
};

struct TuneResult {
  /// Smallest probed ratio whose quality met the bound (1.0 when even the
  /// fully accurate execution fails the bound — see `feasible`).
  double ratio = 1.0;
  bool feasible = false;
  std::vector<TuneSample> samples;  ///< full probe history, in probe order
};

class RatioTuner {
 public:
  /// `run_at` executes the kernel at the given ratio and returns the
  /// quality value (lower is better).
  using RunFn = std::function<double(double ratio)>;

  struct Options {
    double quality_bound = 0.05;  ///< accept iff quality <= bound
    double tolerance = 0.02;      ///< ratio resolution of the bisection
    double min_ratio = 0.0;
    double max_ratio = 1.0;
    unsigned max_probes = 16;     ///< hard cap on kernel invocations
  };

  explicit RatioTuner(Options options) : options_(options) {}

  /// Bisection search for the smallest acceptable ratio.  Assumes quality
  /// is monotone non-increasing in the ratio (the policies guarantee this
  /// statistically; see the integration tests).
  [[nodiscard]] TuneResult offline(const RunFn& run_at) const {
    TuneResult result;
    auto probe = [&](double ratio) {
      const double q = run_at(ratio);
      const bool ok = q <= options_.quality_bound;
      result.samples.push_back({ratio, q, ok});
      return ok;
    };

    double hi = options_.max_ratio;
    if (!probe(hi)) {
      // Even the most accurate allowed execution misses the bound.
      result.ratio = hi;
      result.feasible = false;
      return result;
    }
    result.feasible = true;
    result.ratio = hi;

    double lo = options_.min_ratio;
    if (probe(lo)) {
      // The cheapest execution already satisfies the bound.
      result.ratio = lo;
      return result;
    }

    unsigned probes = static_cast<unsigned>(result.samples.size());
    while (hi - lo > options_.tolerance && probes < options_.max_probes) {
      const double mid = 0.5 * (lo + hi);
      if (probe(mid)) {
        hi = mid;
        result.ratio = mid;
      } else {
        lo = mid;
      }
      ++probes;
    }
    return result;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace sigrt
