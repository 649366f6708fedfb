// The PI-controlled single-queue disciplines: plain PI, PI2 and coupled PI2.
//
// All three are one linear PI controller (paper equation (4), aqm::PiCore)
// driving a pseudo-probability p', followed by an output stage that `law`
// selects (aqm/think.hpp rolls the dice):
//
//   kLinear   every packet:          signal iff Y < p'           P = p'
//   kSquared  every packet:          signal iff max(Y1, Y2) < p' P = (p')^2
//   kCoupled  ECT(1)/CE (Scalable):  signal iff Y < p'           P = p'
//             ECT(0), Not-ECT:       signal iff max(Y1, Y2) < p'/k
//                                                                P = (p'/k)^2
//
// kLinear is plain PI (Hollot et al. 2002): with Classic TCP the unstable
// "pi" curve of Figure 6, with DCTCP the inherently linear "scal pi" of
// Figure 7. kSquared is PI2 (Figure 8): squaring counterbalances the
// square-root law of Classic TCP (W ~ 1/sqrt(p)), flattening the loop gain
// in p' so that constant gains work over the whole load range, 2.5x PIE's
// base values without instability (§4, Appendix B). kCoupled is Figure 9:
// the Classic probability p_c = (p'/k)^2 of equation (14) equalizes
// steady-state rates between DCTCP and Cubic/CReno; k defaults to 2 (derived
// ~1.19, validated empirically as 2, also the optimal gain ratio, §4).
//
// A signalled packet is marked when `ecn` is set and it is ECN-capable, and
// dropped otherwise.
//
// Overload: p' is capped so that the applied Classic probability never
// exceeds max_classic_prob (paper §5: 25%) — at max_classic_prob itself
// (linear), its root (squared) or min(1, k * root) (coupled: with the
// defaults 100% Scalable marking and 25% Classic drop). Beyond it the queue
// grows and tail-drop takes over, which also controls unresponsive traffic.
#pragma once

#include "aqm/pi_core.hpp"
#include "net/queue_discipline.hpp"
#include "sim/time.hpp"

namespace pi2::core {

class Pi2Aqm : public net::QueueDiscipline {
 public:
  enum class Law { kLinear, kSquared, kCoupled };

  /// Defaults are PI2's (Figure 8); pi_params() and coupled_params() give
  /// the other laws' Table 1 defaults.
  struct Params {
    Law law = Law::kSquared;
    pi2::sim::Duration target = pi2::sim::from_millis(20);
    pi2::sim::Duration t_update = pi2::sim::from_millis(32);
    /// 2.5x the PIE base gains (paper Figures 6/7: alpha = 0.3125 Hz,
    /// beta = 3.125 Hz), safe because the PI2 gain margin is flat.
    double alpha_hz = 0.3125;
    double beta_hz = 3.125;
    bool ecn = true;  ///< mark ECN-capable packets instead of dropping
    double k = 2.0;   ///< kCoupled only: Scalable/Classic coupling factor
    /// Overload cap on the applied Classic probability.
    double max_classic_prob = pi2::aqm::kDefaultMaxClassicProb;
  };

  /// Plain PI: PIE's base gains (0.125/1.25 Hz) and no overload cap.
  [[nodiscard]] static Params pi_params();
  /// PI2 (Figure 8): the Params defaults.
  [[nodiscard]] static Params pi2_params() { return Params{}; }
  /// Coupled PI2 (Table 1, "PI/PI2 + DCTCP"): alpha = 10/16 Hz,
  /// beta = 100/16 Hz — double the Classic PI2 gains, matching k = 2.
  [[nodiscard]] static Params coupled_params();

  Pi2Aqm();
  explicit Pi2Aqm(Params params);

  void install(pi2::sim::Simulator& sim, const net::QueueView& view) override;
  Verdict enqueue(const net::Packet& packet) override;

  /// The applied Classic probability: p', (p')^2 or (p'/k)^2.
  [[nodiscard]] double classic_probability() const override;
  /// The controller's linear pseudo-probability p'.
  [[nodiscard]] double scalable_probability() const override { return pi_.prob(); }
  [[nodiscard]] std::uint64_t guard_events() const override { return pi_.guard_events(); }
  [[nodiscard]] const Params& params() const { return params_; }

 private:
  void schedule_update();

  Params params_;
  pi2::aqm::PiCore pi_;
};

}  // namespace pi2::core
