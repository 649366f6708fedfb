// Per-point plumbing of bench/pi2_campaign's guarded, journaled campaign
// loop (which the perfbench driver also times): the dumbbell-sweep JSON
// record (SweepPoint, SweepJsonWriter), the --inject-fail / --inject-hang
// test hooks, the watchdog/retry guard options and the per-point telemetry
// recorder config.
//
// The loop runs grid points on runner::ParallelRunner and consumes them in
// submission order on the calling thread, so tables and --json output are
// byte-identical for any --jobs. Every completed point is journaled
// (fsync'd) before it is consumed, SIGINT/SIGTERM stop the run at a point
// boundary (exit 75), --resume replays journaled points through the same
// consume path, and --json is published atomically (tmp + fsync + rename).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "durable/atomic_file.hpp"
#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "durable/shutdown.hpp"
#include "durable/status.hpp"
#include "runner/parallel_runner.hpp"
#include "sim/rng.hpp"
#include "telemetry/recorder.hpp"

namespace pi2::bench {

struct SweepPoint {
  scenario::AqmType aqm;
  MixKind mix;
  double link_mbps;
  double rtt_ms;
  scenario::RunResult result;
  std::size_t index = 0;       ///< position in the submission order
  std::uint64_t seed = 0;      ///< derived per-point RNG seed
  /// Path of the point's RunManifest ("" when --telemetry is off).
  std::string manifest_path;
};

inline const char* aqm_label(scenario::AqmType aqm) {
  return aqm == scenario::AqmType::kPie ? "PIE" : "PI2(coupled)";
}

/// Minimal JSON string escaping for error messages embedded in records.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streams one machine-readable record per sweep point as a JSON array.
/// Used by --json to make runs comparable across PRs (BENCH_sweep.json);
/// pi2_campaign writes every template's records through it.
/// Every record carries a "status" field ("ok" / "failed" / "timeout");
/// failed and timed-out points get a reduced record with the error message
/// instead of measurements, so downstream tooling can tell a missing point
/// from a zero-valued one.
///
/// The file is written through durable::AtomicFile: records accumulate in
/// `<path>.tmp` and the destination only appears on commit(). abort() (the
/// interrupted-sweep path) drops the tmp, so readers never see a torn array.
class SweepJsonWriter {
 public:
  SweepJsonWriter() = default;
  /// `with_background` adds a "background_mbps" field (aggregate goodput of
  /// the Reno background tier, packet or fluid) to each record. Off by
  /// default so baselines without a background keep their exact field set.
  explicit SweepJsonWriter(const std::string& path,
                           bool with_background = false)
      : with_background_(with_background) {
    if (path.empty()) return;
    file_ = std::make_unique<durable::AtomicFile>(path);
    if (!file_->healthy()) {
      std::fprintf(stderr, "warning: %s; no JSON written\n",
                   file_->status().message().c_str());
      file_.reset();
      return;
    }
    file_->write("[");
  }
  SweepJsonWriter(const SweepJsonWriter&) = delete;
  SweepJsonWriter& operator=(const SweepJsonWriter&) = delete;
  ~SweepJsonWriter() = default;  // un-committed AtomicFile aborts itself

  void add(const SweepPoint& p) {
    if (file_ == nullptr) return;
    const auto& c = p.result.window_counters;
    file_->printf(
        "%s\n"
        "  {\"index\": %zu, \"status\": \"ok\", \"aqm\": \"%s\", "
        "\"mix\": \"%s\", "
        "\"link_mbps\": %g, \"rtt_ms\": %g, \"seed\": %llu, "
        "\"mean_qdelay_ms\": %.6g, \"p99_qdelay_ms\": %.6g, "
        "\"utilization\": %.6g, \"signal_rate\": %.6g, "
        "\"cubic_mbps\": %.6g, \"other_mbps\": %.6g, "
        "\"enqueued\": %lld, \"forwarded\": %lld, \"aqm_dropped\": %lld, "
        "\"tail_dropped\": %lld, \"marked\": %lld, "
        "\"events_executed\": %llu, \"clamped_events\": %llu, "
        "\"invariant_violations\": %llu, \"guard_events\": %llu",
        first_ ? "" : ",", p.index, aqm_label(p.aqm), to_string(p.mix),
        p.link_mbps, p.rtt_ms, static_cast<unsigned long long>(p.seed),
        p.result.mean_qdelay_ms, p.result.p99_qdelay_ms, p.result.utilization,
        p.result.observed_signal_rate(),
        p.result.mean_goodput_mbps(tcp::CcType::kCubic),
        p.result.mean_goodput_mbps(other_cc(p.mix)),
        static_cast<long long>(c.enqueued), static_cast<long long>(c.forwarded),
        static_cast<long long>(c.aqm_dropped),
        static_cast<long long>(c.tail_dropped), static_cast<long long>(c.marked),
        static_cast<unsigned long long>(p.result.events_executed),
        static_cast<unsigned long long>(p.result.clamped_events),
        static_cast<unsigned long long>(p.result.violations.size()),
        static_cast<unsigned long long>(p.result.guard_events));
    if (with_background_) {
      // The background load is Reno at either engine tier (bench_common
      // mix_config); the aggregate rate is the mean-field quantity the two
      // renderings must agree on, so the fluid golden gates it directly.
      double background_mbps = 0.0;
      for (const auto& flow : p.result.flows) {
        if (flow.cc == tcp::CcType::kReno && !flow.is_udp) {
          background_mbps += flow.goodput_mbps * flow.count;
        }
      }
      file_->printf(", \"background_mbps\": %.6g", background_mbps);
    }
    if (!p.manifest_path.empty()) {
      file_->printf(", \"telemetry_manifest\": \"%s\"",
                    json_escape(p.manifest_path).c_str());
    }
    file_->write("}");
    first_ = false;
  }

  void add_failed(std::size_t index, scenario::AqmType aqm, MixKind mix,
                  double link_mbps, double rtt_ms, runner::TaskStatus status,
                  const std::string& message) {
    if (file_ == nullptr) return;
    file_->printf(
        "%s\n"
        "  {\"index\": %zu, \"status\": \"%s\", \"aqm\": \"%s\", "
        "\"mix\": \"%s\", \"link_mbps\": %g, \"rtt_ms\": %g, "
        "\"error\": \"%s\"}",
        first_ ? "" : ",", index, runner::to_string(status), aqm_label(aqm),
        to_string(mix), link_mbps, rtt_ms, json_escape(message).c_str());
    first_ = false;
  }

  /// Appends a record another schema writes: `emit(file, first)` is one of
  /// the campaign_templates.hpp emitters. A no-op when no JSON is written.
  template <class Emit>
  void add_record(const Emit& emit) {
    if (file_ != nullptr) emit(*file_, first_);
  }

  /// Seals the array and atomically publishes the destination file.
  bool commit() {
    if (file_ == nullptr) return true;
    file_->write("\n]\n");
    const durable::Status status = file_->commit();
    if (!status.ok()) {
      std::fprintf(stderr, "error: sweep JSON not written: %s\n",
                   status.message().c_str());
    }
    file_.reset();
    return status.ok();
  }

  /// Drops the tmp file; the destination (if any) is left untouched. Used
  /// when a sweep is interrupted so no incomplete JSON array ever exists.
  void abort() {
    if (file_ == nullptr) return;
    file_->abort();
    file_.reset();
  }

 private:
  std::unique_ptr<durable::AtomicFile> file_;
  bool first_ = true;
  bool with_background_ = false;
};

namespace detail {
/// Test hook honoring --inject-fail / --inject-hang: makes one grid point
/// misbehave so the partial-failure path can be exercised end to end. The
/// hang polls the shutdown flag so an interrupted sweep still stops at a
/// point boundary instead of waiting out the full stall.
inline void maybe_inject(const Options& opts, std::size_t i) {
  if (opts.inject_fail >= 0 &&
      static_cast<std::size_t>(opts.inject_fail) == i) {
    throw std::runtime_error("injected failure (--inject-fail " +
                             std::to_string(i) + ")");
  }
  if (opts.inject_hang >= 0 &&
      static_cast<std::size_t>(opts.inject_hang) == i) {
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(opts.hang_s));
    while (std::chrono::steady_clock::now() < end) {
      if (durable::ShutdownController::requested()) {
        throw durable::InterruptedError(
            "injected hang interrupted by shutdown request");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

inline runner::GuardOptions guard_options(const Options& opts) {
  runner::GuardOptions guard;
  guard.retry.attempt_deadline = std::chrono::milliseconds(
      static_cast<long long>(opts.deadline_s * 1000.0));
  guard.retry.max_attempts = 1 + std::max(0, opts.retries);
  guard.retry.backoff_base = std::chrono::milliseconds(opts.backoff_ms);
  guard.retry.jitter_seed = opts.seed;
  guard.cancel = durable::ShutdownController::flag();
  return guard;
}

inline std::string point_run_id(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "point_%04zu", i);
  return buf;
}

inline telemetry::RecorderConfig point_recorder_config(const Options& opts,
                                                       std::size_t i) {
  telemetry::RecorderConfig rc;
  rc.dir = opts.telemetry_dir;
  rc.run_id = point_run_id(i);
  if (opts.telemetry_interval_s > 0) {
    rc.interval = pi2::sim::from_seconds(opts.telemetry_interval_s);
  }
  return rc;
}

}  // namespace detail

}  // namespace pi2::bench
