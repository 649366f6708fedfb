// The experiment harness: a dumbbell topology matching the paper's testbed
// (Figure 10) — N senders share one AQM-managed bottleneck towards their
// receivers, ACKs return over an uncongested reverse path.
//
// A DumbbellConfig describes link, buffer, AQM, flows and schedules
// (flow churn, link-rate changes); run_dumbbell() executes it and returns
// the measurements every figure in the evaluation needs: per-packet queue
// delay (series + percentiles), per-flow goodput, link utilization, and the
// AQM's internal probabilities.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/invariant_monitor.hpp"
#include "net/bottleneck_link.hpp"
#include "scenario/aqm_factory.hpp"
#include "sim/time.hpp"
#include "stats/meters.hpp"
#include "stats/percentile.hpp"
#include "stats/recovery.hpp"
#include "stats/time_series.hpp"
#include "tcp/congestion_control.hpp"

namespace pi2::net {
class PacketTrace;
}  // namespace pi2::net

namespace pi2::telemetry {
class MetricsRegistry;
class Recorder;
}  // namespace pi2::telemetry

namespace pi2::scenario {

struct TcpFlowSpec {
  tcp::CcType cc = tcp::CcType::kReno;
  int count = 1;
  pi2::sim::Time start{0};
  pi2::sim::Time stop{pi2::sim::kTimeInfinity};
  pi2::sim::Duration base_rtt = pi2::sim::from_millis(100);
  /// Gap between successive flow starts within this spec, to avoid
  /// synchronized slow starts (the testbed's natural stagger).
  pi2::sim::Duration stagger = pi2::sim::from_millis(50);
  /// Receive-window cap in segments. The default models the ~1 MB
  /// bandwidth-delay-product limit of the paper's testbed kernel
  /// (footnote 5), which bounds slow-start overshoot exactly as it did
  /// there. 0 = unlimited.
  double max_cwnd = 700.0;
  /// Transfer size in segments: a finite flow completes once this many are
  /// acknowledged, and run_topology() records when. 0 = bulk (sends until
  /// `stop`).
  std::int64_t segments = 0;
};

struct UdpFlowSpec {
  double rate_bps = 6e6;
  int count = 1;
  /// Wire size of each constant-rate datagram. The paper's unresponsive
  /// load uses MTU-sized packets; the fuzzer also exercises small ones.
  std::int32_t packet_bytes = net::kDefaultMss;
  /// ECN codepoint the sender stamps on its datagrams. DualPI2 routes
  /// ECT(1) floods into the L queue (the RFC 9332 overload scenario);
  /// Not-ECT floods stay Classic and are dropped, not marked.
  net::Ecn ecn = net::Ecn::kNotEct;
  pi2::sim::Time start{0};
  pi2::sim::Time stop{pi2::sim::kTimeInfinity};
  pi2::sim::Duration base_rtt = pi2::sim::from_millis(100);
};

/// N background flows modelled as one fluid ODE (Appendix B window
/// dynamics driven by the live AQM signal) instead of N packet senders:
/// O(1) state and one scheduler tick per fluid_dt regardless of count, so
/// 10⁵–10⁶ flows of load can share the bottleneck with a handful of
/// packet-accurate foreground flows. The congestion control picks the
/// window law and signal: Reno/Cubic-family specs integrate eq. (15)
/// against the Classic probability p, DCTCP/Scalable-family specs
/// integrate eq. (22) against the Scalable probability p'.
struct FluidFlowSpec {
  tcp::CcType cc = tcp::CcType::kReno;
  double count = 1000.0;
  pi2::sim::Duration base_rtt = pi2::sim::from_millis(100);
  std::int32_t mss_bytes = net::kDefaultMss;
  pi2::sim::Time start{0};
  pi2::sim::Time stop{pi2::sim::kTimeInfinity};
};

struct RateChange {
  pi2::sim::Time at{0};
  double rate_bps = 10e6;
};

struct DumbbellConfig {
  double link_rate_bps = 10e6;
  std::int64_t buffer_packets = 40000;  // Table 1
  AqmConfig aqm;
  std::vector<TcpFlowSpec> tcp_flows;
  std::vector<UdpFlowSpec> udp_flows;
  /// Fluid-tier background load (see FluidFlowSpec). The fluid backlog
  /// joins the AQM's queue signal and consumes link capacity, closing the
  /// loop with the packet flows.
  std::vector<FluidFlowSpec> fluid_flows;
  std::vector<RateChange> rate_changes;
  /// Integration/tick period of the fluid tier (one scheduler event per
  /// tick, shared by all fluid specs).
  pi2::sim::Duration fluid_dt = pi2::sim::from_millis(1);
  pi2::sim::Time duration{std::chrono::seconds{100}};
  /// Aggregate statistics (percentiles, means) cover [stats_start, duration);
  /// time series cover the whole run.
  pi2::sim::Time stats_start{std::chrono::seconds{0}};
  std::uint64_t seed = 1;
  /// Queue-delay / probability sampling period for the time series.
  pi2::sim::Duration sample_interval = pi2::sim::from_millis(100);
  /// Scripted impairments (rate steps/flaps, RTT steps, loss bursts, random
  /// loss, ECN bleaching, reordering) replayed by a FaultInjector. The
  /// injector's randomness comes from a stream derived from `seed`, so the
  /// same schedule + seed is byte-identical at any --jobs value. RTT steps
  /// apply to every flow's base RTT.
  faults::FaultSchedule faults;
  /// Samples the InvariantMonitor every sample_interval alongside the stats
  /// probes; violations are returned in RunResult::violations.
  bool check_invariants = true;
  /// Optional per-packet trace, attached to the bottleneck's probe bus for
  /// the whole run. Borrowed; must outlive run_dumbbell().
  net::PacketTrace* trace = nullptr;
  /// Optional telemetry recorder. run_dumbbell() wires the link/AQM/TCP/
  /// simulator probes into its registry, fills its manifest from this
  /// config, starts its sampler and finishes its artifacts at `duration`.
  /// Borrowed; must outlive run_dumbbell().
  telemetry::Recorder* recorder = nullptr;
  /// Optional bare metrics registry: wires the same pipeline probes as
  /// `recorder` but with no sampler, exporters or manifest — for in-process
  /// consumers (and the probe-overhead benchmark). Ignored when `recorder`
  /// is set (the recorder's own registry wins). Bound gauges are frozen
  /// before the probed objects go away. Borrowed; must outlive
  /// run_dumbbell().
  telemetry::MetricsRegistry* registry = nullptr;
  /// Optional graceful-shutdown flag (durable::ShutdownController::flag()).
  /// The simulator polls it at event boundaries; once set, run_dumbbell()
  /// finishes the recorder's artifacts at the stop time (manifest marked
  /// `interrupted`) and throws durable::InterruptedError — the run's results
  /// are *not* returned and must be recomputed on resume. Borrowed; must
  /// outlive run_dumbbell(). nullptr disables polling.
  const std::atomic<bool>* stop = nullptr;

  /// Returns "" when the config is well-formed, otherwise an actionable
  /// message naming the offending field and constraint. run_dumbbell()
  /// throws std::invalid_argument with this message.
  [[nodiscard]] std::string validate() const;
};

struct FlowResult {
  tcp::CcType cc{};
  bool is_udp = false;
  /// One FlowResult per fluid *spec*; goodput_mbps is then the mean over
  /// the spec's `count` modelled flows.
  bool is_fluid = false;
  /// Modelled flows behind this result: 1 for packet/UDP flows, the spec's
  /// `count` for fluid specs — goodput_mbps * count is the aggregate rate.
  double count = 1.0;
  double goodput_mbps = 0.0;  ///< mean over the stats window
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
};

/// Aggregate fluid-tier accounting over the whole run (all zero when no
/// fluid flows are configured). Conservation must hold exactly —
/// arrival == served + final_backlog — and the fuzz oracles verify it.
struct FluidStats {
  double arrival_bytes = 0.0;  ///< demand the fluid tier offered
  double served_bytes = 0.0;   ///< demand the link actually carried
  /// Demand discarded because the shared buffer was full — the fluid tier's
  /// tail-drop analog. Conservation: arrival == served + dropped + backlog.
  double dropped_bytes = 0.0;
  double final_backlog_bytes = 0.0;
  std::uint64_t ticks = 0;  ///< fluid integration steps executed
};

/// Per-link result slice carried by topology runs (journal codec v4).
/// run_dumbbell() fills exactly one slice mirroring the top-level link
/// fields; multi-link topologies (topology::to_run_result) fill one per
/// configured link. Legacy v3 payloads decode with `links` empty.
struct LinkSlice {
  std::string name;
  double mean_qdelay_ms = 0.0;
  double p99_qdelay_ms = 0.0;
  double utilization = 0.0;
  net::BottleneckLink::Counters counters;
  net::BottleneckLink::Counters window_counters;
  faults::FaultInjector::Counters fault_counters;
  std::uint64_t guard_events = 0;
  /// Queue occupancy when the run ended (conservation bookkeeping).
  std::int64_t final_backlog_packets = 0;
};

struct RunResult {
  // Queue delay.
  stats::TimeSeries qdelay_ms_series;           ///< sampled queue delay [ms]
  stats::PercentileSampler qdelay_ms_packets;   ///< per-packet sojourn [ms], stats window
  double mean_qdelay_ms = 0.0;
  double p99_qdelay_ms = 0.0;

  // AQM probabilities (sampled each sample_interval over the stats window).
  stats::TimeSeries classic_prob_series;
  stats::PercentileSampler classic_prob_samples;
  stats::PercentileSampler scalable_prob_samples;

  // Throughput / utilization.
  stats::TimeSeries total_throughput_series;  ///< Mb/s, 1 s bins
  stats::TimeSeries utilization_series;       ///< [0,1], 1 s bins
  double utilization = 0.0;                   ///< mean over stats window

  std::vector<FlowResult> flows;
  FluidStats fluid;
  /// Discrete events the run executed — a deterministic fingerprint of the
  /// whole simulation, handy for serial-vs-parallel equivalence checks.
  std::uint64_t events_executed = 0;
  /// `Simulator::at` calls that targeted the past and were clamped to now.
  /// A healthy run keeps this at 0; integration tests assert it.
  std::uint64_t clamped_events = 0;
  /// Whole-run bottleneck counters (includes the warm-up transient).
  net::BottleneckLink::Counters counters;
  /// Counters restricted to the stats window [stats_start, duration).
  net::BottleneckLink::Counters window_counters;
  /// Per-queue counter slices for multi-band AQMs (DualPI2: band_l is the
  /// Scalable L queue, band_c the Classic queue). All zero for single-queue
  /// disciplines. The check oracles enforce band_l + band_c == counters.
  net::BottleneckLink::BandCounters band_l;
  net::BottleneckLink::BandCounters band_c;
  net::BottleneckLink::BandCounters window_band_l;
  net::BottleneckLink::BandCounters window_band_c;
  /// Impairments the FaultInjector actually applied (all zero without a
  /// fault schedule).
  faults::FaultInjector::Counters fault_counters;
  /// Invariant violations the monitor observed (empty on a healthy run) and
  /// how many periodic checks ran.
  std::vector<faults::InvariantViolation> violations;
  std::uint64_t invariant_checks = 0;
  /// Non-finite controller updates rejected by the AQM's saturating guard.
  std::uint64_t guard_events = 0;
  /// Per-link slices (see LinkSlice): one for the dumbbell's bottleneck,
  /// one per link for topology runs.
  std::vector<LinkSlice> links;
  /// Recovery scoring of the primary link's fault windows (stats::
  /// analyze_recovery over the sampled qdelay series; codec v5 section).
  /// `analyzed` stays false for runs without a fault schedule.
  stats::ResilienceReport resilience;

  /// Mean goodput (Mb/s) across packet flows of a given congestion control
  /// (fluid specs are excluded — they model background load, and figures
  /// compare foreground fidelity).
  [[nodiscard]] double mean_goodput_mbps(tcp::CcType cc) const;
  /// Mean goodput (Mb/s) across UDP flows.
  [[nodiscard]] double mean_udp_goodput_mbps() const;
  /// Observed drop/mark probability (signals / arrivals) over the stats
  /// window — comparable with the steady-state laws of Appendix A.
  [[nodiscard]] double observed_signal_rate() const;
};

RunResult run_dumbbell(const DumbbellConfig& config);

}  // namespace pi2::scenario
