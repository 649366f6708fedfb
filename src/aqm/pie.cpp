#include "aqm/pie.hpp"

#include <algorithm>

namespace pi2::aqm {

using pi2::sim::Duration;
using pi2::sim::from_millis;
using pi2::sim::to_seconds;

PieAqm::PieAqm() : PieAqm(Params{}) {}

PieAqm::Params PieAqm::bare_params() {
  Params p;
  p.heuristics = false;
  p.ecn_drop_threshold = 1.0;
  return p;
}

double PieAqm::tune_factor(double prob) {
  // RFC 8033 / Linux sch_pie stepped scaling, extended down to 0.0001%
  // after the IETF review the paper cites.
  if (prob < 0.000001) return 1.0 / 2048.0;
  if (prob < 0.00001) return 1.0 / 512.0;
  if (prob < 0.0001) return 1.0 / 128.0;
  if (prob < 0.001) return 1.0 / 32.0;
  if (prob < 0.01) return 1.0 / 8.0;
  if (prob < 0.1) return 1.0 / 2.0;
  return 1.0;
}

void PieAqm::install(pi2::sim::Simulator& sim, const net::QueueView& view) {
  QueueDiscipline::install(sim, view);
  burst_allowance_s_ = params_.heuristics ? to_seconds(params_.burst_allowance) : 0.0;
  schedule_update();
}

void PieAqm::schedule_update() { sim().arm(tick_, sim().now() + params_.t_update); }

void PieAqm::tick() {
  update();
  schedule_update();
}

double PieAqm::qdelay_estimate_s() const {
  const auto backlog = static_cast<double>(view().backlog_bytes());
  if (params_.departure_rate_estimation && avg_drain_rate_Bps_ > 0.0) {
    return backlog / avg_drain_rate_Bps_;
  }
  return backlog / (view().link_rate_bps() / 8.0);
}

void PieAqm::update() {
  const double qdelay = qdelay_estimate_s();
  const double target = to_seconds(params_.target);
  const double prob = pi_.prob();

  double dp = pi_.delta(qdelay, target);
  if (params_.autotune) dp *= tune_factor(prob);

  if (params_.heuristics) {
    // Delta clamp: in the high-probability regime limit the step to 2%.
    if (prob >= 0.1 && dp > 0.02) dp = 0.02;
    // Very large delay: push up by a fixed 2%.
    if (qdelay > 0.25) dp = 0.02;
  }

  pi_.integrate(dp, qdelay);

  if (params_.heuristics) {
    // Idle decay (Linux: p *= 1 - 1/64 when delay is zero twice in a row).
    if (qdelay == 0.0 && pi_.prev_qdelay_s() == 0.0) pi_.decay(0.98);

    // Burst allowance drains every interval and re-arms when the queue has
    // fully calmed down.
    if (burst_allowance_s_ > 0.0) {
      burst_allowance_s_ =
          std::max(0.0, burst_allowance_s_ - to_seconds(params_.t_update));
    }
    if (pi_.prob() == 0.0 && qdelay < target / 2.0 &&
        pi_.prev_qdelay_s() < target / 2.0 && view().backlog_bytes() == 0) {
      burst_allowance_s_ = to_seconds(params_.burst_allowance);
    }
  }
}

PieAqm::Verdict PieAqm::enqueue(const net::Packet& packet) {
  had_first_packet_ = true;
  const double prob = pi_.prob();

  if (params_.heuristics) {
    if (burst_allowance_s_ > 0.0) return Verdict::kAccept;
    // Safeguard: no drops while the controller is barely active and the
    // queue is below half the target.
    if (pi_.prev_qdelay_s() < to_seconds(params_.target) / 2.0 && prob < 0.2) {
      return Verdict::kAccept;
    }
    // Do not drop when the queue holds less than two packets' worth.
    if (view().backlog_bytes() < 2 * packet.size) return Verdict::kAccept;
  }

  if (rng().uniform() >= prob) return Verdict::kAccept;

  if (params_.ecn && net::ecn_capable(packet.ecn) &&
      prob <= params_.ecn_drop_threshold) {
    return Verdict::kMark;
  }
  return Verdict::kDrop;
}

void PieAqm::dequeue_bytes_hook(std::int64_t bytes) {
  if (!params_.departure_rate_estimation) return;
  if (!measuring_) {
    if (view().backlog_bytes() >= kDqThresholdBytes) {
      measuring_ = true;
      measure_start_ = sim().now();
      measure_bytes_ = 0;
    }
    return;
  }
  measure_bytes_ += bytes;
  if (measure_bytes_ >= kDqThresholdBytes) {
    const double elapsed = to_seconds(sim().now() - measure_start_);
    if (elapsed > 0.0) {
      const double sample = static_cast<double>(measure_bytes_) / elapsed;
      // EWMA with weight 1/2 (Linux).
      avg_drain_rate_Bps_ =
          avg_drain_rate_Bps_ > 0.0 ? 0.5 * avg_drain_rate_Bps_ + 0.5 * sample : sample;
    }
    measuring_ = false;
  }
}

PieAqm::Verdict PieAqm::dequeue(const net::Packet& packet) {
  dequeue_bytes_hook(packet.size);
  return Verdict::kAccept;
}

}  // namespace pi2::aqm
