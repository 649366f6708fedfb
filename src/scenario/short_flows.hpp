// Web-like short-flow workload: Poisson arrivals of finite TCP transfers
// with heavy-tailed (bounded-Pareto) sizes, and their flow completion times.
//
// Reproduces the paper's §6 check that "mixed short flow completion times
// with PIE, bare PIE and PI2 under both heavy and light Web-like workloads
// were essentially the same". The workload is plain config: web_flows()
// draws one finite TcpFlowSpec per arrival, run_topology() runs them next to
// any other flows, and summarize_fct() reads the completion times back.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/dumbbell.hpp"
#include "stats/percentile.hpp"
#include "topology/topology.hpp"

namespace pi2::scenario {

/// Mean of the bounded-Pareto distribution used for flow sizes.
double bounded_pareto_mean(double shape, double lo, double hi);

/// One `count = 1` copy of `flow` per Poisson arrival in [0, duration), with
/// its `start` and bounded-Pareto `segments` (shape ~ web transfers, 3..700
/// segments ~ 4.5 kB..1 MB by default) drawn so the arrivals offer
/// `offered_load` of `link_rate_bps`. The draws come from streams derived
/// from `seed`, apart from the simulator's own.
[[nodiscard]] std::vector<TcpFlowSpec> web_flows(
    const TcpFlowSpec& flow, double offered_load, double link_rate_bps,
    pi2::sim::Time duration, std::uint64_t seed, double pareto_shape = 1.2,
    std::int64_t min_segments = 3, std::int64_t max_segments = 700);

/// Completion times [ms] of the finite flows that started inside the stats
/// window and finished, all and split by size into "short" (< 100 segments)
/// and "long"; plus how many finite flows started in the run and finished.
struct FctSummary {
  stats::PercentileSampler fct_ms;
  stats::PercentileSampler fct_short_ms;
  stats::PercentileSampler fct_long_ms;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
};

[[nodiscard]] FctSummary summarize_fct(const topology::TopologyConfig& config,
                                       const topology::TopologyResult& result);

}  // namespace pi2::scenario
