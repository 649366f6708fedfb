// Recorder: one run's telemetry bundle — registry + sampler + exporters +
// manifest + section profile — writing a fixed artifact set into a
// directory:
//
//   <dir>/<run_id>.jsonl          per-sample metric stream (always)
//   <dir>/<run_id>.prom           final Prometheus text snapshot (always)
//   <dir>/<run_id>.manifest.json  RunManifest (always)
//
// A caller constructs a Recorder, hands it to the experiment harness
// (DumbbellConfig::recorder), and the harness wires the pipeline probes,
// starts the sampler and finishes the artifacts when the run ends. All
// artifact bytes depend only on the simulation, never on wall clock or
// thread scheduling, so sweeps produce identical files at any --jobs value.
#pragma once

#include <memory>
#include <string>

#include "sim/simulator.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_manifest.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/scoped_timer.hpp"

namespace pi2::telemetry {

struct RecorderConfig {
  /// Artifact directory; created (recursively) if missing.
  std::string dir = ".";
  /// File stem for this run's artifacts.
  std::string run_id = "run";
  /// Simulated-time sampling cadence.
  pi2::sim::Duration interval = pi2::sim::from_millis(100);
};

class Recorder {
 public:
  explicit Recorder(RecorderConfig config);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] RunManifest& manifest() { return manifest_; }
  [[nodiscard]] Sampler& sampler() { return sampler_; }
  [[nodiscard]] SectionProfile& profile() { return profile_; }

  /// False once any exporter failed to open or write.
  [[nodiscard]] bool ok() const;

  /// First error observed across the bundle's artifacts (exporters and, at
  /// finish time, the manifest write) — path + errno, never a bare false.
  [[nodiscard]] durable::Status status() const;

  /// Starts the periodic sampling chain on `sim` (harness-called).
  void start(pi2::sim::Simulator& sim) {
    sim_ = &sim;
    sampler_.start(sim);
  }

  /// Takes the final sample at `end`, freezes bound gauges, captures the
  /// manifest's final snapshot plus the started simulator's events per
  /// kind (`sim.events.<kind>`, written once here rather than sampled) and
  /// writes every artifact. Returns false if any artifact failed.
  /// Idempotent.
  bool finish(pi2::sim::Time end);

  [[nodiscard]] const std::string& dir() const { return config_.dir; }
  [[nodiscard]] std::string jsonl_path() const { return stem() + ".jsonl"; }
  [[nodiscard]] std::string prometheus_path() const { return stem() + ".prom"; }
  [[nodiscard]] std::string manifest_path() const {
    return stem() + ".manifest.json";
  }

 private:
  [[nodiscard]] std::string stem() const { return config_.dir + "/" + config_.run_id; }

  RecorderConfig config_;
  MetricsRegistry registry_;
  RunManifest manifest_;
  SectionProfile profile_;
  std::unique_ptr<JsonlExporter> jsonl_;
  std::unique_ptr<PrometheusExporter> prometheus_;
  Sampler sampler_;
  const pi2::sim::Simulator* sim_ = nullptr;
  bool finished_ = false;
  bool finish_ok_ = false;
  durable::Status manifest_status_;  ///< outcome of the finish-time write
};

}  // namespace pi2::telemetry
