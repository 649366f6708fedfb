// PIE — Proportional Integral controller Enhanced (Pan et al. 2013,
// RFC 8033), as implemented in the Linux sch_pie qdisc the paper compares
// against.
//
// Enhancements over plain PI, all reproduced here and individually
// switchable so bare-PIE (the paper's heuristic-free control) and ablations
// can share the code:
//  * queue measured in units of time, via a departure-rate estimator;
//  * stepped autotune scaling of the PI gains with the magnitude of p
//    (the lookup table the paper shows tracks sqrt(2p), Figure 5);
//  * burst allowance after idle periods;
//  * "safeguard" suppression of drops when p < 20% and delay < target/2;
//  * ECN marking only while p <= 10%, dropping above;
//  * delta clamp of 2% when p >= 10%, and delta = 2% when delay > 250 ms;
//  * multiplicative decay of p while the queue is idle.
#pragma once

#include "aqm/pi_core.hpp"
#include "net/queue_discipline.hpp"
#include "sim/time.hpp"

namespace pi2::aqm {

class PieAqm : public net::QueueDiscipline {
 public:
  struct Params {
    pi2::sim::Duration target = pi2::sim::from_millis(20);    // Table 1
    pi2::sim::Duration t_update = pi2::sim::from_millis(32);  // paper figures
    double alpha_hz = 2.0 / 16.0;  // Table 1
    double beta_hz = 20.0 / 16.0;  // Table 1
    pi2::sim::Duration burst_allowance = pi2::sim::from_millis(100);
    bool ecn = true;
    /// Above this probability ECN-capable packets are dropped, not marked
    /// (Linux default 0.1). The paper's coexistence runs rework this rule;
    /// set to 1.0 to always mark.
    double ecn_drop_threshold = 0.1;
    bool autotune = true;    ///< the stepped gain-scaling table
    bool heuristics = true;  ///< false = bare-PIE
    /// Estimate the drain rate from departures (Linux behaviour). When
    /// false, the true link rate from the QueueView is used directly.
    bool departure_rate_estimation = true;
  };

  PieAqm();
  explicit PieAqm(Params params) : params_(params), pi_(params.alpha_hz, params.beta_hz) {}

  /// Makes a bare-PIE configuration: core PI + autotune, heuristics off.
  static Params bare_params();

  /// The stepped autotune factor from RFC 8033 / Linux (Figure 5).
  static double tune_factor(double prob);

  void install(pi2::sim::Simulator& sim, const net::QueueView& view) override;
  Verdict enqueue(const net::Packet& packet) override;
  void dequeue_bytes_hook(std::int64_t bytes);  // departure-rate estimator
  Verdict dequeue(const net::Packet& packet) override;

  [[nodiscard]] double classic_probability() const override { return pi_.prob(); }
  [[nodiscard]] std::uint64_t guard_events() const override { return pi_.guard_events(); }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] double qdelay_estimate_s() const;

 private:
  void update();
  void schedule_update();
  void tick();

  Params params_;
  PiCore pi_;
  pi2::sim::MemberEvent<PieAqm, &PieAqm::tick> tick_{
      pi2::sim::EventKind::kAqmTick, this};
  double burst_allowance_s_ = 0.0;
  bool had_first_packet_ = false;

  // Departure-rate estimator (Linux: dq_threshold of 16 KB per sample).
  static constexpr std::int64_t kDqThresholdBytes = 16 * 1024;
  bool measuring_ = false;
  pi2::sim::Time measure_start_{};
  std::int64_t measure_bytes_ = 0;
  double avg_drain_rate_Bps_ = 0.0;  // bytes per second; 0 = no estimate yet
};

}  // namespace pi2::aqm
