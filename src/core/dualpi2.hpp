// DualPI2 — the DualQ Coupled AQM the paper names as its deployment goal
// (references [12]/[13], later standardized as RFC 9332).
//
// Two queues share one link:
//   L queue: Scalable traffic (ECT(1)/CE). Immediate (unsmoothed) native
//            marking from a sojourn-time ramp (saturated once the L backlog
//            reaches `l_thresh` packets), combined with the coupled
//            probability p_CL = min(k * p', 1) from the Classic controller:
//            p_L = max(native, p_CL).
//   C queue: Classic traffic. PI controller on the C-queue delay produces
//            p'; Classic packets are dropped/marked with (p')^2.
// A time-shifted FIFO scheduler gives the L queue a head start of `t_shift`
// without starving the C queue: a C head packet waits at most t_shift plus
// one L service time beyond an L head of equal age.
//
// Overload protection (RFC 9332 §4.2.3, Linux sch_pi2 `l_drop`): once the
// coupled probability k*p' reaches l_drop/100, ECN marking is no longer a
// sufficient signal (an unresponsive ECT(1) flood ignores CE), so the L
// queue switches from marking to squared-probability dropping — and
// ECN-capable Classic packets are dropped instead of marked — until k*p'
// falls back below half the threshold (hysteresis). p' itself is capped at
// sqrt(max_classic_prob) so the applied Classic probability never exceeds
// the paper's 25% overload cap; beyond that the shared buffer tail-drops,
// attributed per queue.
//
// One front: DualPi2Qdisc, a first-class QueueDiscipline. The owning
// BottleneckLink keeps band 0 (L) and band 1 (C) FIFOs, the shared buffer
// limit, the serialization and the per-band counters; the discipline
// classifies by ECT codepoint, schedules via the time-shifted comparison and
// delegates every signalling decision to a DualPi2Core, which tests may also
// drive directly.
#pragma once

#include <cstdint>

#include "aqm/pi_core.hpp"
#include "net/packet.hpp"
#include "net/queue_discipline.hpp"
#include "sim/simulator.hpp"

namespace pi2::core {

/// DualPI2 knobs (the link rate and shared buffer belong to the owning
/// BottleneckLink). Defaults follow the Linux sch_pi2 reference
/// parameterization (k 2, t_shift 30ms, l_drop 100, l_thresh 3000) with this
/// repo's PI gains/target.
struct DualPi2Params {
  pi2::sim::Duration target = pi2::sim::from_millis(20);  ///< C-queue target
  pi2::sim::Duration t_update = pi2::sim::from_millis(32);
  double alpha_hz = 0.625;
  double beta_hz = 6.25;
  double k = 2.0;  ///< coupling factor: p_CL = k * p'
  double max_classic_prob = pi2::aqm::kDefaultMaxClassicProb;
  /// Native L-queue ramp: marking rises linearly from 0 at `l_min_th`
  /// to 1 at `l_min_th + l_range` of sojourn time.
  pi2::sim::Duration l_min_th = pi2::sim::from_millis(1);
  pi2::sim::Duration l_range = pi2::sim::from_millis(1);
  /// Scheduler time shift in favour of the L queue.
  pi2::sim::Duration t_shift = pi2::sim::from_millis(30);
  /// Overload switchover threshold as a percentage of coupled probability:
  /// marking turns into dropping once k*p' >= l_drop_percent/100. The
  /// sch_pi2 default (100) engages exactly when the coupling saturates.
  double l_drop_percent = 100.0;
  /// L backlog (in packets) that saturates the native ramp to 1 regardless
  /// of sojourn time — a count-based backstop against sojourn-blind floods.
  std::int64_t l_thresh_packets = 3000;
};

/// Controller + signalling policy behind the qdisc. Holds the PI state, the
/// overload hysteresis, and the per-packet decision helpers.
class DualPi2Core {
 public:
  enum class Signal { kNone, kMark, kDrop };

  explicit DualPi2Core(const DualPi2Params& params);

  /// One PI tick on the Classic queue delay (head sojourn, seconds),
  /// followed by the overload hysteresis. Non-finite samples are rejected
  /// by the PiCore guards.
  void update(double c_delay_s);

  /// Decision for an arriving Classic packet: squared probability via the
  /// double roll max(Y1,Y2) < p'. Under overload ECN capability is ignored
  /// and the packet is dropped, not marked.
  Signal classic_signal(pi2::sim::Rng& rng, bool ecn_capable);

  /// Decision for a departing L packet: p_L = max(native, k*p') marking,
  /// switched to squared-probability dropping under overload (survivors
  /// still carry the mark).
  Signal l_signal(pi2::sim::Rng& rng, double sojourn_s,
                  std::int64_t l_backlog_packets);

  /// Native sojourn-ramp probability, saturated at `l_thresh` packets of L
  /// backlog. A non-finite sojourn is guarded to 0 and counted.
  [[nodiscard]] double l_native(double sojourn_s,
                                std::int64_t l_backlog_packets);

  [[nodiscard]] double p_prime() const { return pi_.prob(); }
  /// Applied Classic probability p_C = (p')^2.
  [[nodiscard]] double p_classic() const { return pi_.prob() * pi_.prob(); }
  /// Coupled L probability p_CL = min(k * p', 1).
  [[nodiscard]] double p_coupled() const;
  [[nodiscard]] bool overloaded() const { return overloaded_; }
  [[nodiscard]] std::uint64_t guard_events() const {
    return pi_.guard_events() + guard_events_;
  }
  [[nodiscard]] const DualPi2Params& params() const { return params_; }

 private:
  DualPi2Params params_;
  pi2::aqm::PiCore pi_;
  bool overloaded_ = false;
  std::uint64_t guard_events_ = 0;
};

/// First-class DualPI2 queue discipline. The owning queue keeps two FIFO
/// bands — band 0 is L (Scalable), band 1 is C (Classic) — and consults
/// select_band() for the time-shifted scheduling decision. Classic signals
/// apply at enqueue, L signals at dequeue (immediate sojourn marking).
class DualPi2Qdisc final : public net::QueueDiscipline {
 public:
  using Params = DualPi2Params;
  static constexpr std::size_t kLBand = 0;
  static constexpr std::size_t kCBand = 1;

  DualPi2Qdisc() : DualPi2Qdisc(Params{}) {}
  explicit DualPi2Qdisc(Params params) : params_(params), core_(params) {}

  void install(pi2::sim::Simulator& sim, const net::QueueView& view) override;

  [[nodiscard]] std::size_t band_count() const override { return 2; }
  [[nodiscard]] std::size_t classify(const net::Packet& packet) const override {
    return net::is_scalable(packet.ecn) ? kLBand : kCBand;
  }
  [[nodiscard]] std::size_t select_band() override;

  Verdict enqueue(const net::Packet& packet) override;
  Verdict dequeue_band(const net::Packet& packet, std::size_t band) override;

  /// The applied Classic probability p_C = (p')^2.
  [[nodiscard]] double classic_probability() const override {
    return core_.p_classic();
  }
  /// The coupled L probability p_CL = min(k * p', 1) (the native ramp is
  /// per-packet and not part of the gauge).
  [[nodiscard]] double scalable_probability() const override {
    return core_.p_coupled();
  }
  [[nodiscard]] double coupling_factor() const override { return params_.k; }
  [[nodiscard]] std::uint64_t guard_events() const override {
    return core_.guard_events();
  }
  [[nodiscard]] bool overloaded() const { return core_.overloaded(); }
  [[nodiscard]] double p_prime() const { return core_.p_prime(); }
  [[nodiscard]] const Params& params() const { return params_; }

 private:
  void schedule_update();
  void update();

  Params params_;
  DualPi2Core core_;
  pi2::sim::MemberEvent<DualPi2Qdisc, &DualPi2Qdisc::update> update_event_{
      pi2::sim::EventKind::kAqmTick, this};
};

}  // namespace pi2::core
