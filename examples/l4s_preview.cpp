// Where PI2 went next: the DualQ Coupled AQM (DualPI2, later RFC 9332).
// The single-queue coupled AQM of the paper gives rate fairness but forces
// Scalable traffic to share the Classic queue's 20 ms of delay; the DualQ
// splits the queues — same k = 2 coupling, but DCTCP now rides a
// sub-millisecond queue while Cubic keeps its own 20 ms-target queue.
//
// This example runs the identical Cubic+DCTCP mix through both arrangements
// (run_dumbbell with the coupled single queue, then with AqmType::kDualPi2)
// and prints the delay each flow's packets actually experienced.
#include <cstdio>

#include "net/trace.hpp"
#include "scenario/dumbbell.hpp"
#include "stats/percentile.hpp"

namespace {

using namespace pi2;

scenario::DumbbellConfig cubic_dctcp_mix(double link_mbps, double rtt_ms,
                                         scenario::AqmType aqm) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.duration = sim::from_seconds(80.0);
  cfg.stats_start = sim::from_seconds(20.0);
  cfg.aqm.type = aqm;
  // Spec order fixes the flow ids: 0 = Cubic (Classic), 1 = DCTCP (Scalable).
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows = {cubic, dctcp};
  return cfg;
}

double print_rates(const scenario::RunResult& r) {
  const double cubic = r.mean_goodput_mbps(tcp::CcType::kCubic);
  const double dctcp = r.mean_goodput_mbps(tcp::CcType::kDctcp);
  const double ratio = dctcp > 0 ? cubic / dctcp : 0.0;
  std::printf("  rates: cubic %.1f, dctcp %.1f Mb/s (cubic/dctcp %.2f)\n", cubic,
              dctcp, ratio);
  return ratio;
}

}  // namespace

int main() {
  constexpr double kLinkMbps = 40.0;
  constexpr double kRttMs = 10.0;

  // Single queue (the paper's interim arrangement).
  const auto single = scenario::run_dumbbell(
      cubic_dctcp_mix(kLinkMbps, kRttMs, scenario::AqmType::kCoupledPi2));
  std::printf("Coupled PI2, single queue (the paper):\n");
  std::printf("  shared queue delay: mean %.2f ms, p99 %.2f ms\n",
              single.mean_qdelay_ms, single.p99_qdelay_ms);
  const double single_ratio = print_rates(single);

  // Dual queue: same mix, same k = 2 coupling. Each flow's queue delay comes
  // from the packet trace (Cubic departures sit in the C band, DCTCP's in L).
  auto cfg = cubic_dctcp_mix(kLinkMbps, kRttMs, scenario::AqmType::kDualPi2);
  net::PacketTrace trace{1u << 21};
  cfg.trace = &trace;
  const auto dual = scenario::run_dumbbell(cfg);
  stats::PercentileSampler l_ms;
  stats::PercentileSampler c_ms;
  for (const net::TraceRecord& rec : trace.records()) {
    if (rec.type != net::TraceEventType::kDeparture || rec.t < cfg.stats_start) {
      continue;
    }
    (rec.flow == 1 ? l_ms : c_ms).add(sim::to_millis(rec.sojourn));
  }
  std::printf("\nDualPI2 (two queues):\n");
  std::printf("  dctcp queue delay: mean %.2f ms, p99 %.2f ms\n", l_ms.mean(),
              l_ms.p99());
  std::printf("  cubic queue delay: mean %.2f ms, p99 %.2f ms\n", c_ms.mean(),
              c_ms.p99());
  const double dual_ratio = print_rates(dual);

  std::printf(
      "\nSame coupling, but the dual queue removes the Classic queue's delay\n"
      "from the Scalable flow's path entirely. Rate balance does not carry\n"
      "over: cubic/dctcp is %.2f in the single queue and %.2f in the dual\n"
      "queue (see EXPERIMENTS.md, Known deviations).\n",
      single_ratio, dual_ratio);
  return 0;
}
