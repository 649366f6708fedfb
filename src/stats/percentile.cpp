#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace pi2::stats {

PercentileSampler::PercentileSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity == 0 ? 1 : capacity), rng_(seed) {}

void PercentileSampler::add(double x) {
  ++seen_;
  sum_ += x;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    sorted_ = false;
    return;
  }
  // Reservoir sampling: replace a random retained sample with probability
  // capacity / seen.
  const std::uint64_t slot = rng_.uniform_below(static_cast<std::uint64_t>(seen_));
  if (slot < samples_.size()) {
    samples_[slot] = x;
    sorted_ = false;
  }
}

void PercentileSampler::restore(std::int64_t seen, double sum,
                                std::vector<double> samples) {
  seen_ = seen;
  sum_ = sum;
  samples_ = std::move(samples);
  sorted_ = false;
}

void PercentileSampler::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileSampler::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (sorted_) return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  // Select the two order statistics in O(n) rather than sort: nth_element
  // puts the lo-th in place with every larger sample after it, so the
  // hi-th is the least of those.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), nth, samples_.end());
  const double at_lo = *nth;
  const double at_hi = hi == lo ? at_lo : *std::min_element(nth + 1, samples_.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double PercentileSampler::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> PercentileSampler::cdf_points(int points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  ensure_sorted();
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / (points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

}  // namespace pi2::stats
