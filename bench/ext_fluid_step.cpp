// Extension: time-domain integration of the Appendix B fluid model — the
// third view connecting the Bode margins (fig04/fig07) to the packet
// simulator. Prints step responses for the three loop configurations at a
// stable and an unstable operating point, and exits non-zero unless every
// PI2/scalable case settles on the target and the fixed-gain PI case keeps
// the larger residual oscillation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "control/fluid_sim.hpp"

int main(int argc, char** argv) {
  using namespace pi2::control;
  const auto opts = pi2::bench::parse_options(argc, argv);
  pi2::bench::print_header("Extension",
                           "fluid-model step responses (Appendix B in time domain)",
                           opts);

  struct Case {
    const char* name;
    LoopType type;
    PiGains gains;
    double n;
    double link_mbps;
  };
  const Case cases[] = {
      {"reno fixed-PI light load (unstable)", LoopType::kRenoP,
       {0.125, 1.25, 0.032}, 2, 100},
      {"reno PI2 light load", LoopType::kRenoPSquared, {0.3125, 3.125, 0.032}, 2,
       100},
      {"reno PI2 heavy load", LoopType::kRenoPSquared, {0.3125, 3.125, 0.032}, 50,
       10},
      {"scalable PI (2x gains)", LoopType::kScalableP, {0.625, 6.25, 0.032}, 5,
       40},
  };

  constexpr double kTargetMs = 20.0;
  constexpr double kSettleToleranceMs = 1.0;
  bool settled = true;
  std::vector<double> residual_ms;
  std::printf("%-38s %-12s %-14s %-14s %-12s\n", "configuration", "peak[ms]",
              "settled[ms]", "residual[ms]", "W_end");
  for (const Case& c : cases) {
    FluidConfig cfg;
    cfg.type = c.type;
    cfg.gains = c.gains;
    cfg.n_flows = c.n;
    cfg.capacity_pps = c.link_mbps * 1e6 / 8.0 / 1500.0;
    cfg.base_rtt_s = 0.1;
    cfg.duration_s = opts.full ? 120.0 : 60.0;
    const auto trace = simulate_fluid(cfg);
    const double settled_ms = trace.settled_qdelay_s(10.0) * 1000.0;
    residual_ms.push_back(trace.residual_oscillation_s(10.0) * 1000.0);
    std::printf("%-38s %-12.1f %-14.1f %-14.1f %-12.1f\n", c.name,
                trace.peak_qdelay_s() * 1000.0, settled_ms, residual_ms.back(),
                trace.window.back());
    if (c.type != LoopType::kRenoP &&
        !(std::fabs(settled_ms - kTargetMs) <= kSettleToleranceMs)) {
      settled = false;
    }
  }

  // Load-step response of PI2 (the fluid version of Figure 13).
  std::printf("\nload step 5 -> 25 flows at t=30s (PI2, 10 Mb/s):\n");
  FluidConfig step;
  step.type = LoopType::kRenoPSquared;
  step.gains = {0.3125, 3.125, 0.032};
  step.n_flows = 5;
  step.capacity_pps = 10e6 / 8.0 / 1500.0;
  step.n_step_at_s = 30.0;
  step.n_step_to = 25.0;
  step.duration_s = opts.full ? 120.0 : 70.0;
  const auto trace = simulate_fluid(step);
  std::printf("  overshoot peak after step: %.1f ms\n",
              trace.peak_qdelay_s(30.0) * 1000.0);
  const double step_settled_ms = trace.settled_qdelay_s(10.0) * 1000.0;
  std::printf("  settled delay (last 10 s): %.1f ms\n", step_settled_ms);
  if (!(std::fabs(step_settled_ms - kTargetMs) <= kSettleToleranceMs)) {
    settled = false;
  }

  // Cases 0 and 1 share the light-load point (N = 2, 100 Mb/s).
  const bool pi_oscillates_more = residual_ms[0] > residual_ms[1];
  std::printf(
      "\n# claim: every PI2/scal-PI case and the load step settle within"
      " %.0f ms of the %.0f ms target — %s\n",
      kSettleToleranceMs, kTargetMs, settled ? "PASS" : "FAIL");
  std::printf(
      "# claim: at light load the fixed-gain PI residual exceeds PI2's"
      " (%.1f vs %.1f ms) — %s\n",
      residual_ms[0], residual_ms[1], pi_oscillates_more ? "PASS" : "FAIL");
  std::printf(
      "# (the fixed-gain PI gain margin is negative there — see fig04; PI2's\n"
      "# and scal-PI's stay positive — see fig07)\n");
  return settled && pi_oscillates_more ? 0 : 1;
}
