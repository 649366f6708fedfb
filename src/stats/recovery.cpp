#include "stats/recovery.hpp"

#include <algorithm>

namespace pi2::stats {

namespace {

using pi2::sim::to_seconds;

/// First time at/after `from_s` from which the sampled qdelay stays inside
/// the band for `hold_s` seconds, as a latency relative to `from_s`; the
/// hold interval must fit before `limit_s`. -1 when the run never settles.
double settle_after_s(const TimeSeries& qdelay_ms, double from_s,
                      double limit_s, double band_ms, double hold_s) {
  const auto& pts = qdelay_ms.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double t = to_seconds(pts[i].t);
    if (t < from_s || t + hold_s > limit_s) continue;
    bool held = true;
    for (std::size_t j = i; j < pts.size(); ++j) {
      const double tj = to_seconds(pts[j].t);
      if (tj > t + hold_s) break;
      if (pts[j].value > band_ms) {
        held = false;
        break;
      }
    }
    if (held) return t - from_s;
  }
  return -1.0;
}

}  // namespace

ResilienceReport analyze_recovery(
    const TimeSeries& qdelay_ms, const std::vector<RecoveryWindow>& windows,
    const std::vector<pi2::sim::Time>& violation_times,
    const RecoveryOptions& opts) {
  ResilienceReport report;
  if (windows.empty()) {
    // No disturbances: nothing to score, and every violation is quiet-time.
    report.violations_outside = violation_times.size();
    return report;
  }
  report.analyzed = true;
  report.windows = windows.size();

  // Per-window settle scan, bounded by the next window (a window whose
  // recovery bleeds into the next disturbance never reconverged).
  // quiet_from[i] marks when window i's influence ends: the moment the hold
  // interval completed, or the next window / run end when it never settled.
  std::vector<double> quiet_from(windows.size(), 0.0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const double limit_s =
        i + 1 < windows.size() ? windows[i + 1].start_s : opts.duration_s;
    const double recovery = settle_after_s(qdelay_ms, windows[i].end_s,
                                           limit_s, opts.band_ms, opts.hold_s);
    report.recovery_s.push_back(recovery);
    if (recovery >= 0.0) {
      ++report.recovered_windows;
      report.mean_recovery_s += recovery;
      report.worst_recovery_s =
          std::max(report.worst_recovery_s, recovery);
      quiet_from[i] = windows[i].end_s + recovery + opts.hold_s;
    } else {
      report.worst_recovery_s = -1.0;
      quiet_from[i] = limit_s;
    }
  }
  if (report.recovered_windows > 0) {
    report.mean_recovery_s /= static_cast<double>(report.recovered_windows);
  }
  // A single unsettled window poisons the worst-case (sticky -1).
  if (report.recovered_windows != report.windows) {
    report.worst_recovery_s = -1.0;
  }

  report.peak_qdelay_ms = qdelay_ms.max_over(
      pi2::sim::from_seconds(windows.front().start_s),
      pi2::sim::from_seconds(opts.duration_s) + pi2::sim::Duration{1});

  if (windows.front().start_s > opts.analysis_start_s) {
    report.pre_fault_mean_qdelay_ms = qdelay_ms.mean_over(
        pi2::sim::from_seconds(opts.analysis_start_s),
        pi2::sim::from_seconds(windows.front().start_s));
  }
  const double post_from = std::min(quiet_from.back(), opts.duration_s);
  report.post_fault_mean_qdelay_ms =
      qdelay_ms.mean_over(pi2::sim::from_seconds(post_from),
                          pi2::sim::from_seconds(opts.duration_s) +
                              pi2::sim::Duration{1});
  report.post_fault_delta_ms =
      report.post_fault_mean_qdelay_ms - report.pre_fault_mean_qdelay_ms;

  for (const pi2::sim::Time at : violation_times) {
    const double t = to_seconds(at);
    bool excused = false;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (t >= windows[i].start_s && t <= quiet_from[i]) {
        excused = true;
        break;
      }
    }
    if (excused) {
      ++report.violations_in_window;
    } else {
      ++report.violations_outside;
    }
  }
  return report;
}

}  // namespace pi2::stats
