// Metamorphic / property oracles run over every fuzzed scenario.
//
// None of these oracles knows the *right* queue delay or goodput for a
// random config — instead each checks a relation that must hold for every
// valid scenario. One driver applies them all: a dumbbell case runs as the
// one-link topology, so every check below is made per link.
//
//   conservation   — every link's books balance exactly: enqueued ==
//                    forwarded + dequeue-dropped + final backlog + the
//                    packet (0 or 1) mid-transmission at cutoff, with no
//                    slack. Stats-window counters never exceed whole-run
//                    ones. The probe bus tells the same story as the
//                    counters: links[0]'s departure probe fired once per
//                    forwarded packet, its transmitted bytes stay within
//                    the packet-size envelope of the routes crossing it, and
//                    its frozen backlog and counter gauges (later links:
//                    their "topo.<name>." gauges) equal the slice.
//   invariants     — the InvariantMonitor stayed clean, no event was
//                    clamped into the past, no link's AQM rejected a
//                    non-finite controller update, and the monitor ran.
//   fluid          — every link a fluid route crosses conserves fluid bytes
//                    (arrival == served + dropped + final backlog), never
//                    serves more than the link could carry, and ticks; other
//                    links report no fluid at all.
//   coupling-law   — disciplines implementing the paper's coupled output
//                    (PI2, coupled PI2, Curvy RED) satisfy p = (p'/k)^2 at
//                    every sampled operating point, both driven directly
//                    across queue states (every link's AQM) and in the run's
//                    final snapshot (links[0]'s aqm.* gauges).
//                    DualPI2 publishes the overload-clamped coupled law
//                    instead: p_CL = min(k * p', 1) with p_C = (p')^2, so
//                    scalable == min(k * sqrt(classic), 1) everywhere.
//   dualq          — two-queue (DualPI2) links slice every counter per band;
//                    the L + C slices must sum exactly to the aggregate
//                    counters (whole run and stats window), and band windows
//                    never exceed whole-run band totals. Single-queue links
//                    must report all-zero band slices.
//   telemetry      — the JSONL stream parses back, and its final row equals
//                    the registry's final (frozen) snapshot value for value.
//   journal        — the durable run-journal codec round-trips the result:
//                    encode -> journal record line -> parse -> decode must
//                    preserve the result_digest() fingerprint, or --resume
//                    could silently replay an altered result.
//
// Batch-level oracles (seed-stream independence, --jobs invariance) compare
// result_digest() fingerprints across executions; the digest folds every
// deterministic observable of a run into 64 bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/dumbbell.hpp"

namespace pi2::telemetry {
class MetricsRegistry;
}  // namespace pi2::telemetry

namespace pi2::topology {
struct TopologyConfig;
struct TopologyResult;
}  // namespace pi2::topology

namespace pi2::check {

struct OracleFailure {
  std::string oracle;  ///< "conservation", "invariants", "coupling-law", ...
  std::string detail;  ///< observed values, actionable
};

struct CaseOutcome {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;  ///< fingerprint of the RunResult
  std::vector<OracleFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

struct OracleOptions {
  /// Directory for the telemetry round-trip artifacts; "" disables that
  /// oracle (the other oracles still use an in-process registry).
  std::string scratch_dir;
  /// Artifact stem inside scratch_dir (defaults to "case_<index>").
  std::string run_id;
  /// Self-test hook: a non-empty name forces one synthetic failure with
  /// this oracle label, proving the failure path (shrinker, repro command)
  /// end to end without needing a real bug.
  std::string inject_failure;
};

/// Runs `config` once as the one-link topology (from_dumbbell) and applies
/// every oracle. The run itself uses a telemetry recorder (when scratch_dir
/// is set) or a bare registry, so the probe-bus cross-checks always have
/// data. The digest is result_digest() of the flattened RunResult, so it
/// equals result_digest(run_dumbbell(config)). Throws
/// std::invalid_argument on an invalid config, like run_dumbbell().
CaseOutcome run_case_oracles(const scenario::DumbbellConfig& config,
                             std::uint64_t index, const OracleOptions& options = {});

/// The same oracles for an arbitrary topology; the digest is
/// topology_result_digest() (it also folds the flow->route assignment).
CaseOutcome run_topology_case_oracles(const topology::TopologyConfig& config,
                                      std::uint64_t index,
                                      const OracleOptions& options = {});

/// 64-bit FNV-1a fingerprint of a run's deterministic observables. Two
/// executions of the same config (any thread, any batch) must agree.
[[nodiscard]] std::uint64_t result_digest(const scenario::RunResult& result);

/// Fingerprint of a TopologyResult: the flattened RunResult digest (which
/// folds every per-link slice) plus the flow->route assignment.
[[nodiscard]] std::uint64_t topology_result_digest(
    const topology::TopologyResult& result);

// Granular checks, exposed so the unit suite can exercise each oracle's
// failure detection directly. Each appends to `failures` on violation.

/// Per-link accounting of every link's slice of `result`: exact
/// conservation (enqueued == forwarded + dequeue_dropped + final backlog +
/// final in-flight), stats-window bounds, DualPI2 band slicing (L + C sums
/// and per-band window bounds; all-zero bands on single-queue links) and
/// fluid byte accounting.
void check_topology_links(const topology::TopologyConfig& config,
                          const topology::TopologyResult& result,
                          std::vector<OracleFailure>& failures);

/// Probe-bus cross-check against the frozen `registry`. links[0] owns the
/// unprefixed names: the link.sojourn_ms count equals forwarded,
/// queue.backlog_packets equals the final backlog, the six link.* counter
/// gauges match, and link.tx_bytes stays within the packet-size envelope of
/// the routes crossing it. Later links must match their
/// topo.<name>.{forwarded,marked,aqm_dropped} gauges.
void check_link_gauges(const topology::TopologyConfig& config,
                       const topology::TopologyResult& result,
                       const telemetry::MetricsRegistry& registry,
                       std::vector<OracleFailure>& failures);

/// Monitor violations, clamped events and per-link AQM guard trips must all
/// be absent, and the monitor must have run when config.check_invariants.
void check_topology_invariants(const topology::TopologyConfig& config,
                               const topology::TopologyResult& result,
                               std::vector<OracleFailure>& failures);

/// Direct-drive sampling: instantiates `aqm`'s discipline, walks the queue
/// through a deterministic ladder of delays and asserts the coupled output
/// law at every update. No-op for disciplines without the law. `where`
/// prefixes the failure detail (e.g. the link name); "" omits it.
void check_coupling_law(const scenario::AqmConfig& aqm, std::uint64_t seed,
                        const std::string& where,
                        std::vector<OracleFailure>& failures);

/// End-of-run coupling check of `aqm` on the frozen aqm.p / aqm.p_prime
/// gauges.
void check_coupling_snapshot(const scenario::AqmConfig& aqm,
                             const telemetry::MetricsRegistry& registry,
                             std::vector<OracleFailure>& failures);

/// Parses the JSONL stream at `jsonl_path` and compares its final row
/// against `registry`'s (frozen) snapshot.
void check_telemetry_roundtrip(const std::string& jsonl_path,
                               const telemetry::MetricsRegistry& registry,
                               std::vector<OracleFailure>& failures);

/// Round-trips `result` through the durable journal codec (payload + record
/// line) and compares result_digest() before and after — the property the
/// --resume machinery's byte-identical replay depends on.
void check_journal_roundtrip(const scenario::RunResult& result,
                             std::vector<OracleFailure>& failures);

}  // namespace pi2::check
