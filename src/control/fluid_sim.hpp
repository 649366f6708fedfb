// Time-domain integration of the paper's nonlinear fluid model
// (Appendix B, equations (15)-(18), (22) plus the PI update law) — the
// delay-differential system behind the Bode analysis.
//
// This provides a third, independent view between the frequency-domain
// margins (control/fluid_model) and the packet simulator (scenario/):
// step responses here must oscillate exactly where the margins go negative,
// and settle where they are positive.
//
// It shares its equations with the other views rather than restating them:
// the window step is control::window_step (the FluidFlowEnsemble's law) and
// the controller is aqm::PiCore (the packet AQMs' integrator). What it owns
// is the closed loop around them: the delay ring, the fluid queue (16) and
// the load step in N.
#pragma once

#include <vector>

#include "control/fluid_model.hpp"

namespace pi2::control {

struct FluidConfig {
  LoopType type = LoopType::kRenoPSquared;
  double n_flows = 5.0;          ///< N
  double capacity_pps = 833.0;   ///< C in packets/s (10 Mb/s of 1500 B)
  double base_rtt_s = 0.1;       ///< propagation part Tp of R(t)
  double target_s = 0.02;        ///< AQM delay target tau_0
  PiGains gains;
  double duration_s = 50.0;
  double dt_s = 1e-4;            ///< Euler step
  /// Optional step change of N at a given time (load step experiments).
  double n_step_at_s = -1.0;
  double n_step_to = 0.0;
  /// Classic probability cap (the PI2 overload rule); 1 = uncapped.
  double max_prob = 1.0;
};

struct FluidTrace {
  std::vector<double> t_s;
  std::vector<double> window;     ///< W(t), segments
  std::vector<double> qdelay_s;   ///< q(t)/C
  std::vector<double> prob;       ///< controller output p or p' (unsquared)

  /// Peak queue delay after `from_s`.
  [[nodiscard]] double peak_qdelay_s(double from_s = 0.0) const;
  /// Mean queue delay over the last `tail_s` seconds.
  [[nodiscard]] double settled_qdelay_s(double tail_s) const;
  /// Amplitude of residual oscillation over the last `tail_s` seconds
  /// (max - min of the queue delay).
  [[nodiscard]] double residual_oscillation_s(double tail_s) const;
};

/// Integrates the fluid model and returns the trace (sampled every ~1 ms).
FluidTrace simulate_fluid(const FluidConfig& config);

}  // namespace pi2::control
