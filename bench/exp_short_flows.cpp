// §6 experiment: "mixed short flow completion times with PIE, bare PIE and
// PI2 under both heavy and light Web-like workloads were essentially the
// same". Poisson arrivals, bounded-Pareto sizes, with and without
// long-running background flows, run on the topology engine as finite TCP
// flows.
//
// Exits non-zero unless, in every workload, PI2's and bare PIE's median
// short-flow FCT is within ±35% of PIE's, and every run is free of
// invariant violations, clamped events and guard trips.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "scenario/short_flows.hpp"
#include "topology/dumbbell_adapter.hpp"

int main(int argc, char** argv) {
  using namespace pi2;
  using namespace pi2::scenario;
  const auto opts = bench::parse_options(argc, argv);
  bench::print_header("§6", "short flow completion times: PIE vs bare-PIE vs PI2",
                      opts);

  struct Workload {
    const char* name;
    double load;
    int background;
  };
  const Workload workloads[] = {{"light web (30% load)", 0.3, 0},
                                {"heavy web (70% load)", 0.7, 0},
                                {"web + 2 bulk flows", 0.3, 2}};
  // The ±35% band of ShortFlows.FctComparableAcrossPieBarePieAndPi2.
  constexpr double kFctBand = 0.35;

  bool comparable = true;
  bool healthy = true;
  for (const Workload& w : workloads) {
    std::printf("\n== %s ==\n", w.name);
    std::printf("%-10s | %-26s | %-26s | %-4s | %-8s\n", "aqm",
                "short FCT p50/p90/p99 [ms]", "long FCT p50/p90/p99 [ms]",
                "n", "qdelay");
    double pie_median = 0.0;
    for (const auto aqm : {AqmType::kPie, AqmType::kBarePie, AqmType::kPi2}) {
      DumbbellConfig cfg;
      cfg.link_rate_bps = 10e6;
      cfg.aqm.type = aqm;
      cfg.aqm.ecn = false;
      cfg.duration = sim::from_seconds(opts.full ? 120.0 : 40.0);
      cfg.stats_start = sim::from_seconds(opts.full ? 20.0 : 8.0);
      cfg.seed = opts.seed;
      TcpFlowSpec flow;
      flow.cc = tcp::CcType::kCubic;
      flow.base_rtt = sim::from_millis(50);
      if (w.background > 0) {
        cfg.tcp_flows.push_back(flow);
        cfg.tcp_flows.back().count = w.background;
      }
      for (const TcpFlowSpec& web : web_flows(flow, w.load, cfg.link_rate_bps,
                                              cfg.duration, cfg.seed)) {
        cfg.tcp_flows.push_back(web);
      }
      const topology::TopologyConfig topo = topology::from_dumbbell(cfg);
      const topology::TopologyResult r = topology::run_topology(topo);
      const FctSummary s = summarize_fct(topo, r);
      // `n` is the long-flow sample count: a handful of flows per run, so
      // the long percentiles are descriptive only and gate nothing.
      std::printf(
          "%-10s | %8.0f %8.0f %8.0f | %8.0f %8.0f %8.0f | %4lld | %6.1fms\n",
          std::string(to_string(aqm)).c_str(), s.fct_short_ms.median(),
          s.fct_short_ms.quantile(0.9), s.fct_short_ms.p99(),
          s.fct_long_ms.median(), s.fct_long_ms.quantile(0.9),
          s.fct_long_ms.p99(), static_cast<long long>(s.fct_long_ms.count()),
          r.links[0].mean_qdelay_ms);

      const double median = s.fct_short_ms.median();
      if (aqm == AqmType::kPie) {
        pie_median = median;
      } else if (!(std::fabs(median / pie_median - 1.0) <= kFctBand)) {
        comparable = false;
      }
      if (!r.violations.empty() || r.clamped_events != 0 ||
          r.links[0].guard_events != 0) {
        std::printf("!! %llu violation(s), %llu clamped, %llu guard trip(s)\n",
                    static_cast<unsigned long long>(r.violations.size()),
                    static_cast<unsigned long long>(r.clamped_events),
                    static_cast<unsigned long long>(r.links[0].guard_events));
        healthy = false;
      }
    }
  }
  std::printf(
      "\n# expectation: the three AQMs give essentially the same completion\n"
      "# times in every workload (the paper saw no FCT regression from PI2).\n");
  std::printf(
      "# claim: PI2 and bare-PIE median short-flow FCT within ±%.0f%% of "
      "PIE's in every workload — %s\n",
      kFctBand * 100.0, comparable ? "PASS" : "FAIL");
  std::printf("# claim: no violations, clamped events or guard trips — %s\n",
              healthy ? "PASS" : "FAIL");
  return comparable && healthy ? 0 : 1;
}
