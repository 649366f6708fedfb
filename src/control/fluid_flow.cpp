#include "control/fluid_flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pi2::control {

using pi2::sim::from_seconds;
using pi2::sim::to_seconds;

FluidFlowEnsemble::FluidFlowEnsemble(pi2::sim::Simulator& sim, Config config)
    : sim_(sim), config_(config) {
  if (!(config_.dt_s > 0.0 && config_.dt_s <= kMaxLagS)) {
    throw std::invalid_argument(
        "FluidFlowEnsemble: dt_s must lie in (0, kMaxLagS]");
  }
  hist_len_ = static_cast<std::size_t>(kMaxLagS / config_.dt_s) + 1;
}

std::size_t FluidFlowEnsemble::add_spec(const FluidFlowSpec& spec) {
  if (started_) {
    throw std::logic_error("FluidFlowEnsemble: add_spec after start");
  }
  // DumbbellConfig::validate() covers scenario-level specs; validating here
  // too keeps the ensemble safe for standalone users (tests, benches).
  if (!(spec.count >= 0.0) || !std::isfinite(spec.count)) {
    throw std::invalid_argument("FluidFlowSpec: count must be finite and >= 0");
  }
  if (!(spec.base_rtt_s > 0.0) || !std::isfinite(spec.base_rtt_s)) {
    throw std::invalid_argument(
        "FluidFlowSpec: base_rtt_s must be finite and > 0");
  }
  if (!(spec.mss_bytes > 0.0) || !std::isfinite(spec.mss_bytes)) {
    throw std::invalid_argument(
        "FluidFlowSpec: mss_bytes must be finite and > 0");
  }
  if (!(spec.start_s >= 0.0) || !(spec.stop_s > spec.start_s)) {
    throw std::invalid_argument(
        "FluidFlowSpec: need start_s >= 0 and stop_s > start_s");
  }
  SpecState s;
  s.spec = spec;
  s.w = std::max(spec.initial_window, 1.0);
  // Pre-fill the rings with the initial state so early lag lookups (before
  // one RTT of history exists) see the starting conditions.
  s.w_hist.assign(hist_len_, s.w);
  s.p_hist.assign(hist_len_, 0.0);
  s.r_hist.assign(hist_len_, std::max(spec.base_rtt_s, 1e-6));
  specs_.push_back(std::move(s));
  return specs_.size() - 1;
}

void FluidFlowEnsemble::start() {
  if (started_) return;
  if (!sources_.classic_probability || !sources_.scalable_probability ||
      !sources_.queue_delay_s) {
    throw std::logic_error("FluidFlowEnsemble: sources not set before start");
  }
  started_ = true;
  sim_.arm(tick_, sim_.now() + from_seconds(config_.dt_s));
}

void FluidFlowEnsemble::advance(SpecState& s, double now_s, double p_classic,
                                double p_scalable, double qdelay_s) {
  const bool active = now_s >= s.spec.start_s && now_s < s.spec.stop_s;
  const std::size_t idx = ticks_ % hist_len_;
  if (!active) {
    // Inactive specs idle at their initial conditions so a later start (or
    // a stop/restart in fuzzed configs) begins from a clean slate.
    s.w = std::max(s.spec.initial_window, 1.0);
    s.rate_bps = 0.0;
    s.w_hist[idx] = s.w;
    s.p_hist[idx] = 0.0;
    s.r_hist[idx] = std::max(s.spec.base_rtt_s, 1e-6);
    return;
  }

  const double r = std::max(s.spec.base_rtt_s + qdelay_s, 1e-6);
  const double p =
      s.spec.signal == FluidSignal::kClassic ? p_classic : p_scalable;

  // Delayed terms at t - R(t), clamped to both the spec's own lifetime and
  // the ring depth.
  const double lag = std::min({r, now_s - s.spec.start_s, kMaxLagS});
  const auto lag_steps = std::min(
      static_cast<std::size_t>(lag / config_.dt_s), hist_len_ - 1);
  const std::size_t lag_idx = (ticks_ + hist_len_ - lag_steps) % hist_len_;
  const double w_lag = s.w_hist[lag_idx];
  const double p_lag = s.p_hist[lag_idx];
  const double r_lag = s.r_hist[lag_idx];

  // Reno halves the window once per congested RTT (eq. 15); a Scalable flow
  // takes one 1/2-segment decrease per mark (eq. 22).
  s.w = window_step(s.spec.signal, s.w, r, w_lag, r_lag, p_lag, config_.dt_s);
  s.rate_bps = s.spec.count * s.w * s.spec.mss_bytes * 8.0 / r;

  s.w_hist[idx] = s.w;
  s.p_hist[idx] = p;
  s.r_hist[idx] = r;
}

void FluidFlowEnsemble::tick() {
  const double now_s = to_seconds(sim_.now());
  const double p_classic = sources_.classic_probability();
  const double p_scalable = sources_.scalable_probability();
  const double qdelay_s = sources_.queue_delay_s();

  double aggregate = 0.0;
  for (SpecState& s : specs_) {
    advance(s, now_s, p_classic, p_scalable, qdelay_s);
    aggregate += s.rate_bps;
  }
  ++ticks_;
  aggregate_bps_ = aggregate;
  if (sink_) sink_(aggregate);
  sim_.arm(tick_, sim_.now() + from_seconds(config_.dt_s));
}

double FluidFlowEnsemble::window(std::size_t spec_index) const {
  assert(spec_index < specs_.size());
  return specs_[spec_index].w;
}

double FluidFlowEnsemble::spec_rate_bps(std::size_t spec_index) const {
  assert(spec_index < specs_.size());
  return specs_[spec_index].rate_bps;
}

double FluidFlowEnsemble::active_flow_count() const {
  const double now_s = to_seconds(sim_.now());
  double n = 0.0;
  for (const SpecState& s : specs_) {
    if (now_s >= s.spec.start_s && now_s < s.spec.stop_s) n += s.spec.count;
  }
  return n;
}

std::size_t FluidFlowEnsemble::state_bytes_per_spec() const {
  return sizeof(SpecState) + 3 * hist_len_ * sizeof(double);
}

double FluidFlowEnsemble::fixed_point_window(FluidSignal signal,
                                             double probability) {
  if (!(probability > 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  // dW = 0 in steady state (W = W_lag, R = R_lag):
  //   Classic:  1/R = W²p / 2R  =>  W = sqrt(2/p)
  //   Scalable: 1/R = Wp' / 2R  =>  W = 2/p'
  return signal == FluidSignal::kClassic ? std::sqrt(2.0 / probability)
                                         : 2.0 / probability;
}

}  // namespace pi2::control
