#include "stats/percentile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

namespace pi2::stats {
namespace {

/// Quantile of a sorted copy, by the sampler's interpolation formula.
double reference_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(PercentileSampler, SelectionMatchesSortedReference) {
  // quantile() selects order statistics without sorting; every answer must
  // equal the sorted-copy reference bit for bit, through interleaved adds,
  // cdf_at() calls (which sort) and restores.
  constexpr double kQs[] = {0.0, 0.01, 0.25, 0.5, 0.99, 1.0};
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    std::mt19937_64 rng{seed};
    PercentileSampler s;
    std::vector<double> model;
    for (int step = 0; step < 400; ++step) {
      switch (rng() % 8) {
        case 0: {  // cdf_at sorts the buffer
          if (model.empty()) break;
          const double x = static_cast<double>(rng() % 40) / 4.0;
          const auto le = std::count_if(model.begin(), model.end(),
                                        [x](double v) { return v <= x; });
          EXPECT_EQ(s.cdf_at(x),
                    static_cast<double>(le) / static_cast<double>(model.size()));
          break;
        }
        case 1: {  // restore an unsorted snapshot
          if (rng() % 4 != 0) break;
          std::shuffle(model.begin(), model.end(), rng);
          s.restore(static_cast<std::int64_t>(model.size()), 0.0, model);
          break;
        }
        case 2:
        case 3: {
          if (model.empty()) break;
          const double q = kQs[rng() % std::size(kQs)];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(s.quantile(q)),
                    std::bit_cast<std::uint64_t>(reference_quantile(model, q)))
              << "seed " << seed << " step " << step << " q " << q;
          break;
        }
        default: {  // few distinct values: many duplicates
          const int n = 1 + static_cast<int>(rng() % 5);
          for (int i = 0; i < n; ++i) {
            const double x = static_cast<double>(rng() % 40) / 4.0;
            s.add(x);
            model.push_back(x);
          }
          break;
        }
      }
    }
  }
}

TEST(PercentileSampler, EmptyReturnsZero) {
  PercentileSampler s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(PercentileSampler, ExactQuantilesOnSmallSet) {
  PercentileSampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 0.5);
  EXPECT_NEAR(s.p25(), 25.75, 0.5);
}

TEST(PercentileSampler, QuantileClampsArgument) {
  PercentileSampler s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.5), 2.0);
}

TEST(PercentileSampler, MeanIsExactEvenPastCapacity) {
  PercentileSampler s{16};
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    s.add(i);
    sum += i;
  }
  EXPECT_EQ(s.count(), 1000);
  EXPECT_NEAR(s.mean(), sum / 1000, 1e-9);
}

TEST(PercentileSampler, ReservoirApproximatesQuantiles) {
  PercentileSampler s{1000, 123};
  for (int i = 0; i < 100000; ++i) s.add(i % 1000);
  // Uniform over [0, 999]: median ~ 500 within reservoir error.
  EXPECT_NEAR(s.median(), 500.0, 60.0);
  EXPECT_NEAR(s.p99(), 990.0, 30.0);
}

TEST(PercentileSampler, InterleavedAddAndQuery) {
  PercentileSampler s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  s.add(30.0);
  EXPECT_DOUBLE_EQ(s.median(), 20.0);
}

TEST(PercentileSampler, CdfAt) {
  PercentileSampler s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(100.0), 1.0);
}

TEST(PercentileSampler, CdfPointsAreMonotone) {
  PercentileSampler s;
  for (int i = 0; i < 500; ++i) s.add((i * 37) % 100);
  const auto pts = s.cdf_points(50);
  ASSERT_EQ(pts.size(), 50u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);   // values ascend
    EXPECT_GE(pts[i].second, pts[i - 1].second);  // fractions ascend
  }
  EXPECT_DOUBLE_EQ(pts.front().second, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(PercentileSampler, CdfPointsEmptyCases) {
  PercentileSampler s;
  EXPECT_TRUE(s.cdf_points(10).empty());
  s.add(1.0);
  EXPECT_TRUE(s.cdf_points(1).empty());  // fewer than 2 points requested
}

TEST(PercentileSampler, ZeroCapacityIsUsable) {
  PercentileSampler s{0};
  s.add(1.0);
  s.add(2.0);
  EXPECT_EQ(s.count(), 2);
  EXPECT_GT(s.median(), 0.0);
}

}  // namespace
}  // namespace pi2::stats
