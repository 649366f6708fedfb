// Post-run resilience analyzer: how fast did the AQM re-converge after each
// scheduled disturbance?
//
// The paper's robustness claim is dynamic — PI2's linearized control returns
// to its delay target faster than PIE after load/capacity transients.
// analyze_recovery() scores any fault schedule: given the sampled queue-delay
// series and the disturbance windows (see faults::fault_windows), it scores
// each window with the settle criterion — the first time after the window
// from which qdelay stays inside the band for `hold_s` — plus the peak
// excursion, the post-fault steady-state shift, and how the invariant
// violations split across fault windows vs. quiet time. The step_response
// campaign (campaigns/fig_response.json) scores its capacity drop and rise as
// two zero-width windows; the resilience campaign scores its fault presets.
//
// The module is deliberately faults-agnostic (plain window structs, plain
// violation timestamps) so pi2_stats keeps its single pi2_sim dependency.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "stats/time_series.hpp"

namespace pi2::stats {

/// One disturbance window in run-relative seconds; zero-width for
/// instantaneous events (rate/RTT steps, loss bursts). Must be sorted by
/// start with overlaps merged (faults::fault_windows guarantees both).
struct RecoveryWindow {
  double start_s = 0.0;
  double end_s = 0.0;
};

struct RecoveryOptions {
  /// In-band means sampled qdelay <= band_ms (the drivers use 2x the AQM
  /// delay target).
  double band_ms = 40.0;
  /// Sustained time inside the band required to count as reconverged.
  double hold_s = 1.0;
  /// Pre-fault steady state is measured over [analysis_start_s, first
  /// window); the drivers pass the stats-window start to skip slow-start.
  double analysis_start_s = 0.0;
  double duration_s = 0.0;  ///< end of the run
};

/// Per-run resilience metrics. Encoded as the trailing pi2-result-v5 codec
/// section; `analyzed` is false (and everything else zero, except
/// violations_outside) for runs without fault windows.
struct ResilienceReport {
  bool analyzed = false;
  std::uint64_t windows = 0;
  std::uint64_t recovered_windows = 0;
  /// Per-window time-to-reconverge in seconds, measured from the window's
  /// end; -1 when the run never settles before the next window / run end.
  std::vector<double> recovery_s;
  /// max over windows, or -1 when any window never reconverges — the single
  /// number the fig_resilience health gate compares across AQMs.
  double worst_recovery_s = 0.0;
  double mean_recovery_s = 0.0;  ///< over recovered windows only
  /// Peak sampled qdelay at/after the first window's start.
  double peak_qdelay_ms = 0.0;
  double pre_fault_mean_qdelay_ms = 0.0;
  double post_fault_mean_qdelay_ms = 0.0;
  /// post - pre steady-state shift (a persistent regression the settle
  /// criterion alone would miss).
  double post_fault_delta_ms = 0.0;
  /// Invariant violations inside a window or its recovery transient vs.
  /// during quiet time. The health gates excuse the former and reject the
  /// latter.
  std::uint64_t violations_in_window = 0;
  std::uint64_t violations_outside = 0;

  [[nodiscard]] bool operator==(const ResilienceReport& other) const {
    return analyzed == other.analyzed && windows == other.windows &&
           recovered_windows == other.recovered_windows &&
           recovery_s == other.recovery_s &&
           worst_recovery_s == other.worst_recovery_s &&
           mean_recovery_s == other.mean_recovery_s &&
           peak_qdelay_ms == other.peak_qdelay_ms &&
           pre_fault_mean_qdelay_ms == other.pre_fault_mean_qdelay_ms &&
           post_fault_mean_qdelay_ms == other.post_fault_mean_qdelay_ms &&
           post_fault_delta_ms == other.post_fault_delta_ms &&
           violations_in_window == other.violations_in_window &&
           violations_outside == other.violations_outside;
  }
};

[[nodiscard]] ResilienceReport analyze_recovery(
    const TimeSeries& qdelay_ms, const std::vector<RecoveryWindow>& windows,
    const std::vector<pi2::sim::Time>& violation_times,
    const RecoveryOptions& opts);

}  // namespace pi2::stats
