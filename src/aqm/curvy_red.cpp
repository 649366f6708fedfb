#include "aqm/curvy_red.hpp"

#include <algorithm>

#include "aqm/think.hpp"
#include "sim/time.hpp"

namespace pi2::aqm {

using pi2::sim::to_seconds;

CurvyRedAqm::CurvyRedAqm() : CurvyRedAqm(Params{}) {}

double CurvyRedAqm::scalable_probability() const {
  const double start = to_seconds(params_.ramp_start);
  const double range = std::max(to_seconds(params_.ramp_range), 1e-9);
  return std::clamp((avg_qdelay_s_ - start) / range, 0.0, 1.0);
}

double CurvyRedAqm::classic_probability() const {
  const double root = scalable_probability() / params_.k;
  return root * root;
}

CurvyRedAqm::Verdict CurvyRedAqm::enqueue(const net::Packet& packet) {
  avg_qdelay_s_ = (1.0 - params_.weight) * avg_qdelay_s_ +
                  params_.weight * to_seconds(view().queue_delay());

  const double p_s = scalable_probability();
  if (net::is_scalable(packet.ecn)) {
    return think_once(rng(), p_s) ? Verdict::kMark : Verdict::kAccept;
  }
  if (!think_twice(rng(), p_s / params_.k)) return Verdict::kAccept;
  if (params_.ecn && net::ecn_capable(packet.ecn)) return Verdict::kMark;
  return Verdict::kDrop;
}

}  // namespace pi2::aqm
