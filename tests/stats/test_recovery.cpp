// Recovery analyzer: the settle criterion over a list of fault windows, on
// hand-built series where every score is known.
#include "stats/recovery.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/time.hpp"
#include "stats/time_series.hpp"

namespace pi2::stats {
namespace {

using pi2::sim::from_seconds;
using pi2::sim::Time;

/// qdelay sampled every 0.5s over [0, duration]; `spike(t)` gives the value.
template <typename Fn>
TimeSeries sampled(double duration_s, Fn&& value_at) {
  TimeSeries series;
  for (double t = 0.0; t <= duration_s + 1e-9; t += 0.5) {
    series.add(from_seconds(t), value_at(t));
  }
  return series;
}

RecoveryOptions options(double duration_s) {
  RecoveryOptions opts;
  opts.band_ms = 40.0;
  opts.hold_s = 1.0;
  opts.analysis_start_s = 0.0;
  opts.duration_s = duration_s;
  return opts;
}

TEST(Recovery, NoWindowsIsUnanalyzed) {
  const TimeSeries series = sampled(10.0, [](double) { return 10.0; });
  const std::vector<Time> violations = {from_seconds(3.0), from_seconds(7.0)};
  const ResilienceReport report =
      analyze_recovery(series, {}, violations, options(10.0));
  EXPECT_FALSE(report.analyzed);
  EXPECT_EQ(report.windows, 0u);
  // Without windows every violation is quiet-time.
  EXPECT_EQ(report.violations_in_window, 0u);
  EXPECT_EQ(report.violations_outside, 2u);
}

TEST(Recovery, ScoresASingleWindow) {
  // Flat 10ms except a 100ms excursion over [6, 8): the first settle point
  // after the window [5, 6] is the t=8 sample, so recovery = 2s.
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 6.0 && t < 8.0 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{5.0, 6.0}};
  const ResilienceReport report =
      analyze_recovery(series, windows, {}, options(20.0));
  EXPECT_TRUE(report.analyzed);
  EXPECT_EQ(report.windows, 1u);
  EXPECT_EQ(report.recovered_windows, 1u);
  ASSERT_EQ(report.recovery_s.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_s[0], 2.0);
  EXPECT_DOUBLE_EQ(report.worst_recovery_s, 2.0);
  EXPECT_DOUBLE_EQ(report.mean_recovery_s, 2.0);
  EXPECT_DOUBLE_EQ(report.peak_qdelay_ms, 100.0);
  // Pre-fault steady state over [0, 5), post-fault from quiet_from = 9.
  EXPECT_DOUBLE_EQ(report.pre_fault_mean_qdelay_ms, 10.0);
  EXPECT_DOUBLE_EQ(report.post_fault_mean_qdelay_ms, 10.0);
  EXPECT_DOUBLE_EQ(report.post_fault_delta_ms, 0.0);
}

TEST(Recovery, NeverSettlingIsMinusOneAndSticky) {
  // The excursion persists to the end of the run: no settle point exists.
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 6.0 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{5.0, 6.0}};
  const ResilienceReport report =
      analyze_recovery(series, windows, {}, options(20.0));
  EXPECT_EQ(report.recovered_windows, 0u);
  ASSERT_EQ(report.recovery_s.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_s[0], -1.0);
  EXPECT_DOUBLE_EQ(report.worst_recovery_s, -1.0);
  EXPECT_DOUBLE_EQ(report.mean_recovery_s, 0.0);
}

TEST(Recovery, NextWindowBoundsTheSettleScan) {
  // Window 0's transient only clears after window 1 starts, so window 0
  // never reconverged within its own span — and the sticky -1 worst-case
  // survives window 1 recovering cleanly.
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 3.0 && t < 5.5 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{2.0, 3.0}, {5.0, 6.0}};
  const ResilienceReport report =
      analyze_recovery(series, windows, {}, options(20.0));
  EXPECT_EQ(report.windows, 2u);
  EXPECT_EQ(report.recovered_windows, 1u);
  ASSERT_EQ(report.recovery_s.size(), 2u);
  EXPECT_DOUBLE_EQ(report.recovery_s[0], -1.0);
  EXPECT_DOUBLE_EQ(report.recovery_s[1], 0.0);
  EXPECT_DOUBLE_EQ(report.worst_recovery_s, -1.0);
  EXPECT_DOUBLE_EQ(report.mean_recovery_s, 0.0);
}

TEST(Recovery, HoldMustFitBeforeTheRunEnds) {
  // In-band from t=19.8 on, but only 0.2s remain before duration 20: the
  // hold interval cannot complete, so the window counts as unsettled.
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 6.0 && t < 19.8 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{5.0, 6.0}};
  const ResilienceReport report =
      analyze_recovery(series, windows, {}, options(20.0));
  EXPECT_EQ(report.recovered_windows, 0u);
  EXPECT_DOUBLE_EQ(report.worst_recovery_s, -1.0);
}

TEST(Recovery, ViolationsSplitAcrossWindowAndQuietTime) {
  // Same shape as ScoresASingleWindow: quiet_from = 6 + 2 + 1 = 9.
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 6.0 && t < 8.0 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{5.0, 6.0}};
  const std::vector<Time> violations = {
      from_seconds(5.5),   // inside the window itself
      from_seconds(8.5),   // recovery transient, before quiet_from
      from_seconds(15.0),  // quiet time — a real failure
      from_seconds(2.0),   // before any window — also quiet time
  };
  const ResilienceReport report =
      analyze_recovery(series, windows, violations, options(20.0));
  EXPECT_EQ(report.violations_in_window, 2u);
  EXPECT_EQ(report.violations_outside, 2u);
}

TEST(Recovery, UnsettledWindowExcusesViolationsUntilItsLimit) {
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 6.0 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{5.0, 6.0}};
  // Never settles, so quiet_from extends to the run end: every violation at
  // or after the window start is excused.
  const std::vector<Time> violations = {from_seconds(18.0), from_seconds(1.0)};
  const ResilienceReport report =
      analyze_recovery(series, windows, violations, options(20.0));
  EXPECT_EQ(report.violations_in_window, 1u);
  EXPECT_EQ(report.violations_outside, 1u);
}

TEST(Recovery, ZeroWidthWindowScoresFromTheEventInstant) {
  // An instantaneous event (rate step) at t=5: the excursion runs [5, 7),
  // first settle sample at t=7 → recovery 2s measured from the event.
  const TimeSeries series = sampled(20.0, [](double t) {
    return t >= 5.0 && t < 7.0 ? 100.0 : 10.0;
  });
  const std::vector<RecoveryWindow> windows = {{5.0, 5.0}};
  const ResilienceReport report =
      analyze_recovery(series, windows, {}, options(20.0));
  EXPECT_EQ(report.recovered_windows, 1u);
  ASSERT_EQ(report.recovery_s.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_s[0], 2.0);
}

}  // namespace
}  // namespace pi2::stats
