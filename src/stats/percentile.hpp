// Percentile estimation over a stream of samples.
//
// Stores every sample up to a configurable cap, then switches to uniform
// reservoir sampling (Algorithm R). Experiments in this repo produce at most
// a few million queue-delay samples per run, so the default cap keeps exact
// percentiles for typical runs while bounding memory on the long sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace pi2::stats {

class PercentileSampler {
 public:
  explicit PercentileSampler(std::size_t capacity = 1u << 21,
                             std::uint64_t seed = 0x5eedf00d);

  void add(double x);

  /// Quantile q in [0, 1], linear interpolation between order statistics.
  /// Returns 0 if no samples. On an unsorted buffer it selects the two
  /// order statistics in O(n) (reordering the buffer; const via mutable);
  /// cdf_at() and cdf_points() sort it.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double p01() const { return quantile(0.01); }
  [[nodiscard]] double p25() const { return quantile(0.25); }
  [[nodiscard]] double median() const { return quantile(0.50); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

  /// Total samples observed (not the retained count).
  [[nodiscard]] std::int64_t count() const { return seen_; }

  /// Exact mean over all observed samples (not just the retained ones).
  [[nodiscard]] double mean() const {
    return seen_ > 0 ? sum_ / static_cast<double>(seen_) : 0.0;
  }

  /// Sum of every observed sample (exact, independent of the reservoir).
  [[nodiscard]] double sum() const { return sum_; }

  /// The retained reservoir in its current order. Together with count() and
  /// sum() this is the sampler's full statistical state: quantile(), mean()
  /// and cdf_at() depend on nothing else.
  [[nodiscard]] const std::vector<double>& retained() const { return samples_; }

  /// Restores the statistical state captured by count()/sum()/retained() —
  /// the resume path rebuilds a sampler from its journaled snapshot so all
  /// derived statistics are bit-identical to the original run's.
  void restore(std::int64_t seen, double sum, std::vector<double> samples);

  /// Empirical CDF evaluated at `x`: fraction of samples <= x.
  [[nodiscard]] double cdf_at(double x) const;

  /// (value, cumulative fraction) pairs at `points` evenly spaced ranks,
  /// suitable for plotting a CDF curve (Figure 14).
  [[nodiscard]] std::vector<std::pair<double, double>> cdf_points(int points) const;

 private:
  void ensure_sorted() const;

  std::size_t capacity_;
  std::int64_t seen_ = 0;
  double sum_ = 0.0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  pi2::sim::Rng rng_;
};

}  // namespace pi2::stats
