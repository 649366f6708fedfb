// Periodic metric snapshots on the simulated clock.
//
// A Sampler walks the registry every `interval` of simulated time, appends
// each flattened metric to a per-metric stats::TimeSeries (for in-process
// consumers: plots, settle-time analysis) and forwards the snapshot to every
// attached Exporter (for on-disk artifacts). Sampling runs inside the
// simulation's event loop, so its cost and cadence are deterministic and a
// run's telemetry is byte-identical at any worker count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "stats/time_series.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"

namespace pi2::telemetry {

class Sampler {
 public:
  Sampler(MetricsRegistry& registry, pi2::sim::Duration interval);

  /// Exporters are borrowed; they must outlive the sampler's last sample.
  void add_exporter(Exporter* exporter);

  /// Schedules the periodic snapshots, first at now + interval. The chain
  /// re-arms itself until stop() or the end of the run.
  void start(pi2::sim::Simulator& sim);
  void stop();

  /// Takes one snapshot at `t` immediately (used for the final state at the
  /// end of a run). Skipped if `t` was already sampled by the periodic tick.
  void sample_at(pi2::sim::Time t);

  /// Takes the end-of-run snapshot at `t` even if the periodic tick already
  /// sampled that instant. When the run ends exactly on a tick boundary the
  /// tick may fire before the last same-timestamp events, leaving the final
  /// row stale; this re-samples so the stream always closes with the frozen
  /// end state.
  void sample_final(pi2::sim::Time t);

  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }
  [[nodiscard]] pi2::sim::Duration interval() const { return interval_; }

  /// Per-metric time series accumulated so far, keyed by metric name.
  [[nodiscard]] const std::map<std::string, stats::TimeSeries>& series() const {
    return series_;
  }

 private:
  void tick();
  void do_sample(pi2::sim::Time t);

  MetricsRegistry& registry_;
  pi2::sim::Duration interval_;
  pi2::sim::Simulator* sim_ = nullptr;
  pi2::sim::MemberEvent<Sampler, &Sampler::tick> tick_{
      pi2::sim::EventKind::kSampler, this};
  std::vector<Exporter*> exporters_;
  std::map<std::string, stats::TimeSeries> series_;
  /// Snapshot-row -> TimeSeries wiring, rebuilt only when the registry's
  /// metric set changes so the steady-state sample loop does no string
  /// lookups (map nodes are stable, the pointers stay valid).
  std::vector<stats::TimeSeries*> series_slots_;
  std::uint64_t series_layout_version_ = ~std::uint64_t{0};
  std::uint64_t samples_ = 0;
  bool sampled_any_ = false;
  pi2::sim::Time last_sample_{};
};

}  // namespace pi2::telemetry
