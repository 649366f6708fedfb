// Metric exporters: one interface, two wire formats.
//
//  - JsonlExporter: one flat JSON object per sample — the plotting format
//    (each line is {"t_s": ..., "<metric>": value, ...}).
//  - PrometheusExporter: text exposition format, written once at finish()
//    as the run's final scrape-style snapshot (histograms with cumulative
//    `le` buckets, counters/gauges with TYPE lines).
//
// All exporters produce byte-identical output for identical runs: metric
// iteration order is sorted (MetricsRegistry guarantees it) and numbers are
// printed with locale-independent printf formatting.
//
// Durability: the file-backed exporters write through durable::AtomicFile —
// rows land in `<path>.tmp` and the destination only appears at finish(),
// complete and fsync'd. A run killed mid-sample leaves no torn artifact,
// and every I/O failure (open, write, fsync, rename) is captured as a
// durable::Status with path + errno instead of being silently dropped.
#pragma once

#include <string>

#include "durable/atomic_file.hpp"
#include "durable/status.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace pi2::telemetry {

class Exporter {
 public:
  virtual ~Exporter() = default;

  /// False once an I/O error (or a failed open) has occurred.
  [[nodiscard]] virtual bool ok() const = 0;

  /// Called by the Sampler at every snapshot instant.
  virtual void on_sample(pi2::sim::Time t, const MetricsRegistry& registry) = 0;

  /// Called once when the run ends; commits the artifact (tmp -> final
  /// rename). Returns ok().
  virtual bool finish(const MetricsRegistry& registry) = 0;
};

/// Shared AtomicFile plumbing for the file-backed exporters.
class FileExporter : public Exporter {
 public:
  explicit FileExporter(const std::string& path) : file_(path) {}
  FileExporter(const FileExporter&) = delete;
  FileExporter& operator=(const FileExporter&) = delete;

  /// True while the artifact is healthy — including after a clean commit
  /// (an exporter that finished successfully stays ok()).
  [[nodiscard]] bool ok() const override { return file_.status().ok(); }
  /// First error observed (open, write or commit), or ok. The message
  /// carries the offending path and errno.
  [[nodiscard]] const durable::Status& status() const { return file_.status(); }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

 protected:
  /// Commits the tmp file over the destination; idempotent.
  bool commit() { return file_.commit().ok(); }
  durable::AtomicFile file_;
};

class JsonlExporter final : public FileExporter {
 public:
  explicit JsonlExporter(const std::string& path) : FileExporter(path) {}
  void on_sample(pi2::sim::Time t, const MetricsRegistry& registry) override;
  bool finish(const MetricsRegistry& registry) override;

 private:
  std::string line_;  ///< reused row buffer (one allocation per run)
};

class PrometheusExporter final : public FileExporter {
 public:
  explicit PrometheusExporter(const std::string& path) : FileExporter(path) {}
  /// Snapshot format: only the final state is exposed, so per-sample calls
  /// are no-ops.
  void on_sample(pi2::sim::Time t, const MetricsRegistry& registry) override;
  bool finish(const MetricsRegistry& registry) override;
};

/// Prometheus metric name: "link.sojourn_ms" -> "pi2_link_sojourn_ms".
[[nodiscard]] std::string prometheus_name(const std::string& name);

}  // namespace pi2::telemetry
