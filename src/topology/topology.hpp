// Declarative multi-bottleneck topologies.
//
// A TopologyConfig is a graph: named nodes, directed links (each owning its
// own AQM + params, rate, buffer, optional fault schedule and rate-change
// script), and flow specs routed along explicit node paths. run_topology()
// wires the graph into the existing Simulator — one BottleneckLink, fault
// injector and invariant monitor per link, the shared TCP/UDP/fluid
// endpoints per flow — and returns a TopologyResult with per-link and
// per-flow slices.
//
// Path semantics (store-and-forward): a packet crosses each link of its
// route in order; after an intermediate hop it propagates `LinkSpec::delay`
// to the next hop's queue. The *final* hop's propagation and the ACK return
// path are the flow's base_rtt/2 — exactly the dumbbell semantic, so a
// single-link topology reproduces run_dumbbell() event for event
// (dumbbell_adapter.hpp relies on this; the equivalence is digest-checked
// in tests and fuzzed in check_fuzz).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/invariant_monitor.hpp"
#include "net/bottleneck_link.hpp"
#include "scenario/aqm_factory.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/time.hpp"
#include "stats/percentile.hpp"
#include "stats/recovery.hpp"
#include "stats/time_series.hpp"

namespace pi2::net {
class PacketTrace;
}  // namespace pi2::net

namespace pi2::telemetry {
class MetricsRegistry;
class Recorder;
}  // namespace pi2::telemetry

namespace pi2::topology {

/// One directed, AQM-managed link of the graph.
struct LinkSpec {
  /// Optional display/telemetry name; "" derives "<from>-><to>". Must be
  /// unique when set (validate() enforces it).
  std::string name;
  std::string from;
  std::string to;
  double rate_bps = 10e6;
  std::int64_t buffer_packets = 40000;
  scenario::AqmConfig aqm;
  /// Store-and-forward propagation towards the *next* hop when a packet
  /// continues along its route. The final hop's propagation (and the ACK
  /// return) is the flow's base_rtt/2 — see the header note.
  pi2::sim::Duration delay{0};
  std::vector<scenario::RateChange> rate_changes;
  /// Per-link scripted impairments, replayed by this link's own injector
  /// from its own derived RNG stream.
  faults::FaultSchedule faults;

  [[nodiscard]] std::string display_name() const {
    return name.empty() ? from + "->" + to : name;
  }
};

/// A flow spec routed along an explicit node path (>= 2 nodes; every
/// consecutive pair must be a configured link).
struct TcpRoute {
  scenario::TcpFlowSpec spec;
  std::vector<std::string> path;
};
struct UdpRoute {
  scenario::UdpFlowSpec spec;
  std::vector<std::string> path;
};
/// Fluid specs integrate against one link's AQM signal, so their path must
/// cross exactly one link.
struct FluidRoute {
  scenario::FluidFlowSpec spec;
  std::vector<std::string> path;
};

struct TopologyConfig {
  std::vector<std::string> nodes;
  std::vector<LinkSpec> links;
  std::vector<TcpRoute> tcp_flows;
  std::vector<UdpRoute> udp_flows;
  std::vector<FluidRoute> fluid_flows;
  /// Integration/tick period of the fluid tier (one ensemble per link that
  /// carries fluid routes).
  pi2::sim::Duration fluid_dt = pi2::sim::from_millis(1);
  pi2::sim::Time duration{std::chrono::seconds{100}};
  pi2::sim::Time stats_start{std::chrono::seconds{0}};
  std::uint64_t seed = 1;
  pi2::sim::Duration sample_interval = pi2::sim::from_millis(100);
  bool check_invariants = true;
  /// Optional per-packet trace, attached to links[0] (the primary link).
  net::PacketTrace* trace = nullptr;
  /// Optional telemetry recorder / bare registry (see DumbbellConfig).
  /// links[0] owns the legacy unprefixed metric names; additional links get
  /// "topo.<link>."-prefixed gauges so single-link snapshots are unchanged.
  telemetry::Recorder* recorder = nullptr;
  telemetry::MetricsRegistry* registry = nullptr;
  const std::atomic<bool>* stop = nullptr;

  /// Returns "" when the config is well-formed, otherwise an actionable
  /// message naming the offending field and constraint (unknown node in a
  /// path, disconnected route, non-finite link params, ...).
  /// run_topology() throws std::invalid_argument with this message.
  [[nodiscard]] std::string validate() const;

  /// Index into `links` of the directed link a->b, or -1 when none exists.
  [[nodiscard]] int link_between(const std::string& a,
                                 const std::string& b) const;
};

/// Per-link measurement slice: the same quantities run_dumbbell() reports
/// for its single bottleneck, one per configured link.
struct LinkResult {
  std::string name;

  stats::TimeSeries qdelay_ms_series;
  stats::PercentileSampler qdelay_ms_packets;
  double mean_qdelay_ms = 0.0;
  double p99_qdelay_ms = 0.0;

  stats::TimeSeries classic_prob_series;
  stats::PercentileSampler classic_prob_samples;
  stats::PercentileSampler scalable_prob_samples;

  stats::TimeSeries total_throughput_series;
  stats::TimeSeries utilization_series;
  double utilization = 0.0;

  net::BottleneckLink::Counters counters;
  net::BottleneckLink::Counters window_counters;
  net::BottleneckLink::BandCounters band_l;
  net::BottleneckLink::BandCounters band_c;
  net::BottleneckLink::BandCounters window_band_l;
  net::BottleneckLink::BandCounters window_band_c;

  scenario::FluidStats fluid;
  faults::FaultInjector::Counters fault_counters;
  std::uint64_t guard_events = 0;

  /// End-of-run queue occupancy, for exact per-link conservation:
  ///   enqueued == forwarded + dequeue_dropped
  ///            + final_backlog_packets + final_transmitting.
  std::int64_t final_backlog_packets = 0;
  bool final_transmitting = false;

  /// Observed drop/mark probability over the stats window (signals /
  /// arrivals), comparable with the steady-state laws of Appendix A.
  [[nodiscard]] double observed_signal_rate() const;
};

struct TopologyResult {
  std::vector<LinkResult> links;
  /// Flow results in creation order: tcp routes (expanded per `count`),
  /// then udp routes (expanded), then one per fluid route.
  std::vector<scenario::FlowResult> flows;
  /// Parallel to `flows`: the global route index each result came from.
  /// Routes number tcp_flows first, then udp_flows, then fluid_flows.
  std::vector<std::int32_t> flow_route;
  /// Parallel to `flows`: when each finite TCP flow (TcpFlowSpec::segments
  /// > 0) had its last segment acknowledged, in seconds of simulated time;
  /// -1 for bulk, UDP and fluid flows and for finite flows that did not
  /// finish. Kept out of FlowResult, so the result codec and digest ignore
  /// it.
  std::vector<double> flow_completion_s;

  std::uint64_t events_executed = 0;
  std::uint64_t clamped_events = 0;
  /// Violations across every link's monitor, in link order; checks summed.
  std::vector<faults::InvariantViolation> violations;
  std::uint64_t invariant_checks = 0;
  /// Recovery scoring of links[0]'s fault windows against its sampled
  /// qdelay series (stats::analyze_recovery); `analyzed` stays false when
  /// the primary link has no fault schedule.
  stats::ResilienceReport resilience;

  /// Mean goodput (Mb/s) across the packet flows of one route.
  [[nodiscard]] double route_goodput_mbps(std::int32_t route) const;
};

TopologyResult run_topology(const TopologyConfig& config);

/// Flattens a TopologyResult into the legacy single-bottleneck RunResult:
/// top-level link fields come from links[0] (the primary link), and every
/// link lands in RunResult::links as a codec-v4 slice. With one link this
/// is a lossless renaming — run_dumbbell() is exactly this composition.
/// `flow_completion_s` has no RunResult field and is dropped.
[[nodiscard]] scenario::RunResult to_run_result(TopologyResult result);

}  // namespace pi2::topology
