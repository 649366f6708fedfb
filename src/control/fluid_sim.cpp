#include "control/fluid_sim.hpp"

#include <algorithm>

#include "aqm/pi_core.hpp"
#include "control/fluid_flow.hpp"

namespace pi2::control {

double FluidTrace::peak_qdelay_s(double from_s) const {
  double peak = 0.0;
  for (std::size_t i = 0; i < t_s.size(); ++i) {
    if (t_s[i] >= from_s) peak = std::max(peak, qdelay_s[i]);
  }
  return peak;
}

double FluidTrace::settled_qdelay_s(double tail_s) const {
  if (t_s.empty()) return 0.0;
  const double from = t_s.back() - tail_s;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < t_s.size(); ++i) {
    if (t_s[i] >= from) {
      sum += qdelay_s[i];
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double FluidTrace::residual_oscillation_s(double tail_s) const {
  if (t_s.empty()) return 0.0;
  const double from = t_s.back() - tail_s;
  double lo = 1e9;
  double hi = -1e9;
  for (std::size_t i = 0; i < t_s.size(); ++i) {
    if (t_s[i] >= from) {
      lo = std::min(lo, qdelay_s[i]);
      hi = std::max(hi, qdelay_s[i]);
    }
  }
  return hi > lo ? hi - lo : 0.0;
}

FluidTrace simulate_fluid(const FluidConfig& config) {
  const double dt = config.dt_s;
  const auto steps = static_cast<std::size_t>(config.duration_s / dt);

  // The loop type picks the window law and how the controller output is
  // applied: Reno sees p directly (35) or p'^2 (36), Scalable sees p' (37).
  const FluidSignal signal = config.type == LoopType::kScalableP
                                 ? FluidSignal::kScalable
                                 : FluidSignal::kClassic;
  const bool squared = config.type == LoopType::kRenoPSquared;

  // History ring for delayed terms, indexed on the dt grid. The maximum
  // delay we ever look back is base_rtt + max queueing delay; cap at 10 s.
  // p_hist holds the applied probability.
  const auto hist_len = static_cast<std::size_t>(10.0 / dt);
  std::vector<double> w_hist(hist_len, 1.0);
  std::vector<double> p_hist(hist_len, 0.0);
  std::vector<double> r_hist(hist_len, config.base_rtt_s);

  double n = config.n_flows;
  double w = 2.0;   // start near slow-start exit
  double q = 0.0;   // packets
  pi2::aqm::PiCore pi{config.gains.alpha_hz, config.gains.beta_hz,
                      config.max_prob};
  double next_update = config.gains.t_update_s;

  FluidTrace trace;
  const auto sample_every = std::max<std::size_t>(1, static_cast<std::size_t>(1e-3 / dt));
  trace.t_s.reserve(steps / sample_every + 1);

  for (std::size_t i = 0; i < steps; ++i) {
    const double t = static_cast<double>(i) * dt;
    if (config.n_step_at_s >= 0.0 && t >= config.n_step_at_s) {
      n = config.n_step_to;
    }
    const double r = q / config.capacity_pps + config.base_rtt_s;

    // Delayed values at t - R(t) (clamped to the start of the run).
    const std::size_t idx = i % hist_len;
    const double lag = std::min(r, t);
    const auto lag_steps = static_cast<std::size_t>(lag / dt);
    const std::size_t lag_idx = (i + hist_len - lag_steps) % hist_len;
    w = window_step(signal, w, r, w_hist[lag_idx], r_hist[lag_idx],
                    p_hist[lag_idx], dt);

    // Queue dynamics (equation (16)), non-negative.
    const double dq = n * w / r - config.capacity_pps;
    q = std::max(q + dq * dt, 0.0);

    // PI update (equation (4)) every t_update.
    if (t >= next_update) {
      pi.update(q / config.capacity_pps, config.target_s);
      next_update += config.gains.t_update_s;
    }
    const double prob = pi.prob();

    w_hist[idx] = w;
    p_hist[idx] = squared ? prob * prob : prob;
    r_hist[idx] = r;

    if (i % sample_every == 0) {
      trace.t_s.push_back(t);
      trace.window.push_back(w);
      trace.qdelay_s.push_back(q / config.capacity_pps);
      trace.prob.push_back(prob);
    }
  }
  return trace;
}

}  // namespace pi2::control
