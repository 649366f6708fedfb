#include "core/pi2.hpp"

#include <algorithm>
#include <cmath>

#include "aqm/think.hpp"

namespace pi2::core {

using pi2::sim::to_seconds;

namespace {

/// The cap on p' that holds the applied Classic probability at
/// max_classic_prob.
double p_prime_cap(const Pi2Aqm::Params& params) {
  const double cap = std::clamp(params.max_classic_prob, 0.0, 1.0);
  switch (params.law) {
    case Pi2Aqm::Law::kLinear:
      return cap;
    case Pi2Aqm::Law::kSquared:
      return std::sqrt(cap);
    case Pi2Aqm::Law::kCoupled:
      return std::min(1.0, params.k * std::sqrt(cap));
  }
  return cap;
}

}  // namespace

Pi2Aqm::Params Pi2Aqm::pi_params() {
  Params p;
  p.law = Law::kLinear;
  p.alpha_hz = 0.125;
  p.beta_hz = 1.25;
  p.max_classic_prob = 1.0;
  return p;
}

Pi2Aqm::Params Pi2Aqm::coupled_params() {
  Params p;
  p.law = Law::kCoupled;
  p.alpha_hz = 0.625;
  p.beta_hz = 6.25;
  return p;
}

Pi2Aqm::Pi2Aqm() : Pi2Aqm(Params{}) {}

Pi2Aqm::Pi2Aqm(Params params)
    : params_(params), pi_(params.alpha_hz, params.beta_hz, p_prime_cap(params)) {}

void Pi2Aqm::install(pi2::sim::Simulator& sim, const net::QueueView& view) {
  QueueDiscipline::install(sim, view);
  schedule_update();
}

void Pi2Aqm::schedule_update() {
  sim().after(params_.t_update, [this] {
    pi_.update(to_seconds(view().queue_delay()), to_seconds(params_.target));
    schedule_update();
  });
}

double Pi2Aqm::classic_probability() const {
  const double p_prime = pi_.prob();
  switch (params_.law) {
    case Law::kLinear:
      return p_prime;
    case Law::kSquared:
      return p_prime * p_prime;
    case Law::kCoupled: {
      const double root = p_prime / params_.k;
      return root * root;
    }
  }
  return p_prime;
}

Pi2Aqm::Verdict Pi2Aqm::enqueue(const net::Packet& packet) {
  const double p_prime = pi_.prob();
  bool signal = false;
  switch (params_.law) {
    case Law::kLinear:
      signal = aqm::think_once(rng(), p_prime);
      break;
    case Law::kSquared:
      signal = aqm::think_twice(rng(), p_prime);
      break;
    case Law::kCoupled:
      signal = net::is_scalable(packet.ecn)
                   ? aqm::think_once(rng(), p_prime)
                   : aqm::think_twice(rng(), p_prime / params_.k);
      break;
  }
  if (!signal) return Verdict::kAccept;
  if (params_.ecn && net::ecn_capable(packet.ecn)) return Verdict::kMark;
  return Verdict::kDrop;
}

}  // namespace pi2::core
