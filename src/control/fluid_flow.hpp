// First-class fluid flows: the Appendix B window equations integrated live
// against a bottleneck's p/p' signal, as an event-driven ensemble.
//
// Where control/fluid_sim integrates the whole closed loop offline (its own
// fluid queue, driving an aqm::PiCore), a FluidFlowEnsemble integrates
// *only* the window dynamics and leaves queue and controller to the packet
// simulation it is embedded in: each tick it reads the live AQM
// probabilities and queue delay through caller-supplied sources, advances
// every spec's window ODE, and reports the aggregate arrival rate to a sink.
// That makes a spec of N homogeneous flows cost one ODE state and one
// scheduler event per tick — O(1) in N — so thousands to millions of
// background flows can share a bottleneck with a handful of full packet
// flows (fidelity foreground, fluid load).
//
// Signal routing follows the paper's architecture: Reno-family flows react
// to the Classic signal p (which a PI2 coupling already squares, p=(p'/k)²),
// Scalable-family flows react to the linear signal p' — equations (15) and
// (22) with the probability sourced from the live qdisc instead of a
// modelled controller.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/simulator.hpp"

namespace pi2::control {

/// Which AQM output a fluid spec's window law consumes.
enum class FluidSignal {
  kClassic,   ///< p: Reno-family multiplicative decrease, eq. (15)
  kScalable,  ///< p': Scalable-family per-mark decrease, eq. (22)
};

/// One Euler step of the Appendix B window ODE, floored at one segment:
///   Classic  (eq. 15): dW = 1/R - W(t) W(t-R) p(t-R) / 2R(t-R)
///   Scalable (eq. 22): dW = 1/R - W(t-R) p(t-R) / 2R(t-R)
/// `p_lag` is the probability the flows actually saw, already squared for a
/// PI2 Classic signal. The one implementation of the window laws: both the
/// live ensemble below and the closed-loop integrator (control/fluid_sim)
/// step through it.
inline double window_step(FluidSignal signal, double w, double r, double w_lag,
                          double r_lag, double p_lag, double dt_s) {
  double dw;
  if (signal == FluidSignal::kClassic) {
    dw = 1.0 / r - 0.5 * w * (w_lag / r_lag) * p_lag;
  } else {
    dw = 1.0 / r - 0.5 * (w_lag / r_lag) * p_lag;
  }
  return std::max(w + dw * dt_s, 1.0);
}

/// N homogeneous fluid flows sharing one window ODE (the Appendix B
/// aggregation): one state per spec, whatever the count.
struct FluidFlowSpec {
  FluidSignal signal = FluidSignal::kClassic;
  double count = 1000.0;      ///< N
  double base_rtt_s = 0.1;    ///< propagation part of R(t)
  double mss_bytes = 1500.0;  ///< segment size the window is denominated in
  double start_s = 0.0;
  double stop_s = std::numeric_limits<double>::infinity();
  double initial_window = 2.0;  ///< W at start (near slow-start exit)
};

class FluidFlowEnsemble {
 public:
  struct Config {
    /// Euler step and tick period: one scheduler event per dt regardless of
    /// spec count or N.
    double dt_s = 1e-3;
    /// Depth of the per-spec history rings for the delayed terms
    /// W(t-R), p(t-R), R(t-R); lags beyond this clamp to the oldest entry.
    double max_lag_s = 2.0;
  };

  /// Live signals read at every tick. All three must be set before start().
  struct Sources {
    std::function<double()> classic_probability;
    std::function<double()> scalable_probability;
    std::function<double()> queue_delay_s;
  };

  FluidFlowEnsemble(pi2::sim::Simulator& sim, Config config);

  /// Adds a spec before start(). Returns its index.
  std::size_t add_spec(const FluidFlowSpec& spec);

  void set_sources(Sources sources) { sources_ = std::move(sources); }

  /// Called once per tick, after the windows advanced, with the aggregate
  /// arrival rate in bits/s (sum over active specs of N·W·mss·8/R).
  void set_tick_sink(std::function<void(double aggregate_bps)> sink) {
    sink_ = std::move(sink);
  }

  /// Schedules the periodic tick. Ticks run until the simulation ends.
  void start();

  [[nodiscard]] double aggregate_rate_bps() const { return aggregate_bps_; }
  [[nodiscard]] double window(std::size_t spec_index) const;
  /// Demand (bits/s) spec `i` contributed to the last aggregate.
  [[nodiscard]] double spec_rate_bps(std::size_t spec_index) const;
  [[nodiscard]] std::size_t spec_count() const { return specs_.size(); }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  /// Sum of `count` over currently-active specs.
  [[nodiscard]] double active_flow_count() const;
  /// Bytes of ODE + history state held per spec (bytes-per-flow accounting:
  /// divide by the spec's count).
  [[nodiscard]] std::size_t state_bytes_per_spec() const;

  /// Closed-form steady state of the window ODE under a constant
  /// probability: dW = 0 gives W = sqrt(2/p) for the Classic law and
  /// W = 2/p' for the Scalable law. Used by the step-input convergence
  /// tests.
  [[nodiscard]] static double fixed_point_window(FluidSignal signal,
                                                 double probability);

 private:
  struct SpecState {
    FluidFlowSpec spec;
    double w = 2.0;
    double rate_bps = 0.0;
    /// History rings on the dt grid, indexed by tick count.
    std::vector<double> w_hist;
    std::vector<double> p_hist;
    std::vector<double> r_hist;
  };

  void tick();
  void advance(SpecState& s, double now_s, double p_classic, double p_scalable,
               double qdelay_s);

  pi2::sim::Simulator& sim_;
  Config config_;
  Sources sources_;
  std::function<void(double)> sink_;
  std::vector<SpecState> specs_;
  std::size_t hist_len_ = 0;
  std::uint64_t ticks_ = 0;
  double aggregate_bps_ = 0.0;
  bool started_ = false;
  pi2::sim::MemberEvent<FluidFlowEnsemble, &FluidFlowEnsemble::tick> tick_{
      pi2::sim::EventKind::kFluidTick, this};
};

}  // namespace pi2::control
