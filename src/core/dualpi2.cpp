#include "core/dualpi2.hpp"

#include <algorithm>
#include <cmath>

#include "aqm/think.hpp"

namespace pi2::core {

using pi2::sim::to_seconds;

// --- DualPi2Core -------------------------------------------------------------

DualPi2Core::DualPi2Core(const DualPi2Params& params)
    : params_(params),
      // p' is the base probability: Classic applies (p')^2, L applies k*p'.
      // Capping p' at sqrt(max_classic_prob) bounds the applied Classic
      // probability at the overload cap (with the defaults k*p' then
      // saturates at exactly 2*sqrt(0.25) = 1).
      pi_(params.alpha_hz, params.beta_hz,
          std::sqrt(std::clamp(params.max_classic_prob, 0.0, 1.0))) {}

double DualPi2Core::p_coupled() const {
  return std::min(params_.k * pi_.prob(), 1.0);
}

void DualPi2Core::update(double c_delay_s) {
  pi_.update(c_delay_s, to_seconds(params_.target));
  // Overload hysteresis on the coupled probability: engage at the l_drop
  // threshold, re-arm only once the controller has backed off to half of
  // it, so the switchover cannot chatter around the boundary.
  const double engage = params_.l_drop_percent / 100.0;
  if (engage <= 0.0) {
    overloaded_ = true;  // l_drop 0: always in drop mode
    return;
  }
  const double coupled = params_.k * pi_.prob();
  if (!overloaded_) {
    if (coupled >= engage) overloaded_ = true;
  } else if (coupled < 0.5 * engage) {
    overloaded_ = false;
  }
}

double DualPi2Core::l_native(double sojourn_s, std::int64_t l_backlog_packets) {
  if (!std::isfinite(sojourn_s)) {
    ++guard_events_;
    sojourn_s = 0.0;
  }
  if (params_.l_thresh_packets > 0 &&
      l_backlog_packets >= params_.l_thresh_packets) {
    return 1.0;
  }
  const double min_th = to_seconds(params_.l_min_th);
  const double range = std::max(to_seconds(params_.l_range), 1e-9);
  return std::clamp((sojourn_s - min_th) / range, 0.0, 1.0);
}

DualPi2Core::Signal DualPi2Core::classic_signal(pi2::sim::Rng& rng,
                                                bool ecn_capable) {
  // "Think twice to drop": P[signal] = (p')^2.
  if (!aqm::think_twice(rng, pi_.prob())) return Signal::kNone;
  if (!ecn_capable || overloaded_) return Signal::kDrop;
  return Signal::kMark;
}

DualPi2Core::Signal DualPi2Core::l_signal(pi2::sim::Rng& rng, double sojourn_s,
                                          std::int64_t l_backlog_packets) {
  const double p_l = std::max(l_native(sojourn_s, l_backlog_packets), p_coupled());
  if (overloaded_) {
    // RFC 9332 overload: ECN marking is no longer sufficient (the flood may
    // ignore CE), so the L queue drops with the same squared probability
    // the Classic queue applies; survivors still carry the mark.
    if (aqm::think_twice(rng, pi_.prob())) return Signal::kDrop;
  }
  return aqm::think_once(rng, p_l) ? Signal::kMark : Signal::kNone;
}

// --- DualPi2Qdisc ------------------------------------------------------------

namespace {

net::QueueDiscipline::Verdict verdict(DualPi2Core::Signal signal) {
  switch (signal) {
    case DualPi2Core::Signal::kMark:
      return net::QueueDiscipline::Verdict::kMark;
    case DualPi2Core::Signal::kDrop:
      return net::QueueDiscipline::Verdict::kDrop;
    case DualPi2Core::Signal::kNone:
      break;
  }
  return net::QueueDiscipline::Verdict::kAccept;
}

}  // namespace

void DualPi2Qdisc::install(pi2::sim::Simulator& sim, const net::QueueView& view) {
  QueueDiscipline::install(sim, view);
  schedule_update();
}

void DualPi2Qdisc::schedule_update() {
  sim().arm(update_event_, sim().now() + params_.t_update);
}

void DualPi2Qdisc::update() {
  // The PI controller regulates the Classic queue's delay, measured as the
  // sojourn of the head packet (as Linux sch_dualpi2 does). Backlog/rate
  // would under-estimate it: C drains at less than the full link rate
  // while the scheduler favours L, and the controller must see that wait.
  core_.update(to_seconds(view().band_head_sojourn(kCBand)));
  schedule_update();
}

std::size_t DualPi2Qdisc::select_band() {
  const net::QueueView& v = view();
  if (v.band_backlog_packets(kLBand) == 0) return kCBand;
  if (v.band_backlog_packets(kCBand) == 0) return kLBand;
  return v.band_head_sojourn(kLBand) + params_.t_shift >=
                 v.band_head_sojourn(kCBand)
             ? kLBand
             : kCBand;
}

DualPi2Qdisc::Verdict DualPi2Qdisc::enqueue(const net::Packet& packet) {
  if (net::is_scalable(packet.ecn)) return Verdict::kAccept;  // signalled at dequeue
  return verdict(core_.classic_signal(rng(), net::ecn_capable(packet.ecn)));
}

DualPi2Qdisc::Verdict DualPi2Qdisc::dequeue_band(const net::Packet& packet,
                                                 std::size_t band) {
  if (band != kLBand) return Verdict::kAccept;  // C was signalled at enqueue
  const double sojourn_s = to_seconds(sim().now() - packet.enqueued_at);
  // The head packet has already left the band's FIFO, so the view's count
  // excludes it; add it back for the l_thresh comparison.
  const std::int64_t l_backlog = view().band_backlog_packets(kLBand) + 1;
  return verdict(core_.l_signal(rng(), sojourn_s, l_backlog));
}

}  // namespace pi2::core
