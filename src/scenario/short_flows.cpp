#include "scenario/short_flows.hpp"

#include <cmath>

#include "net/packet.hpp"
#include "sim/rng.hpp"

namespace pi2::scenario {

using pi2::sim::from_seconds;
using pi2::sim::Time;
using pi2::sim::to_seconds;

double bounded_pareto_mean(double shape, double lo, double hi) {
  // E[X] for a Pareto with shape a truncated to [lo, hi].
  const double a = shape;
  const double la = std::pow(lo, a);
  const double ha = std::pow(hi, a);
  return la / (1.0 - la / ha) * (a / (a - 1.0)) *
         (1.0 / std::pow(lo, a - 1.0) - 1.0 / std::pow(hi, a - 1.0));
}

std::vector<TcpFlowSpec> web_flows(const TcpFlowSpec& flow,
                                   double offered_load, double link_rate_bps,
                                   Time duration, std::uint64_t seed,
                                   double pareto_shape,
                                   std::int64_t min_segments,
                                   std::int64_t max_segments) {
  pi2::sim::Rng arrivals{pi2::sim::Rng::derive_seed(seed, 0x3eb0)};
  pi2::sim::Rng sizes{pi2::sim::Rng::derive_seed(seed, 0x3eb1)};
  const auto lo = static_cast<double>(min_segments);
  const auto hi = static_cast<double>(max_segments);
  const double mean_bits =
      bounded_pareto_mean(pareto_shape, lo, hi) * net::kDefaultMss * 8.0;
  const double mean_gap_s = mean_bits / (offered_load * link_rate_bps);

  std::vector<TcpFlowSpec> out;
  if (!(mean_gap_s > 0.0) || !std::isfinite(mean_gap_s)) return out;
  for (Time t = from_seconds(arrivals.exponential(mean_gap_s)); t < duration;
       t += from_seconds(arrivals.exponential(mean_gap_s))) {
    TcpFlowSpec spec = flow;
    spec.count = 1;
    spec.start = t;
    spec.segments =
        static_cast<std::int64_t>(sizes.bounded_pareto(pareto_shape, lo, hi));
    out.push_back(spec);
  }
  return out;
}

FctSummary summarize_fct(const topology::TopologyConfig& config,
                         const topology::TopologyResult& result) {
  FctSummary summary;
  // TCP flows come first in `result.flows`, expanded per spec `count`.
  std::vector<int> index_in_spec(config.tcp_flows.size(), 0);
  for (std::size_t f = 0; f < result.flows.size(); ++f) {
    const auto route = static_cast<std::size_t>(result.flow_route[f]);
    if (route >= config.tcp_flows.size()) break;
    const TcpFlowSpec& spec = config.tcp_flows[route].spec;
    const Time start = spec.start + spec.stagger * index_in_spec[route]++;
    if (spec.segments == 0 || start >= config.duration) continue;
    ++summary.flows_started;
    const double completed_s = result.flow_completion_s[f];
    if (completed_s < 0.0) continue;
    ++summary.flows_completed;
    if (start >= config.stats_start) {
      const double fct = (completed_s - to_seconds(start)) * 1e3;
      summary.fct_ms.add(fct);
      (spec.segments < 100 ? summary.fct_short_ms : summary.fct_long_ms)
          .add(fct);
    }
  }
  return summary;
}

}  // namespace pi2::scenario
