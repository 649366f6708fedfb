#include "scenario/aqm_factory.hpp"

#include "aqm/codel.hpp"
#include "aqm/curvy_red.hpp"
#include "aqm/pie.hpp"
#include "aqm/red.hpp"
#include "aqm/step_marker.hpp"
#include "core/dualpi2.hpp"
#include "core/pi2.hpp"

namespace pi2::scenario {

std::string_view to_string(AqmType type) {
  switch (type) {
    case AqmType::kFifo: return "fifo";
    case AqmType::kPie: return "pie";
    case AqmType::kBarePie: return "bare-pie";
    case AqmType::kPi: return "pi";
    case AqmType::kPi2: return "pi2";
    case AqmType::kCoupledPi2: return "coupled-pi2";
    case AqmType::kRed: return "red";
    case AqmType::kCodel: return "codel";
    case AqmType::kCurvyRed: return "curvy-red";
    case AqmType::kStep: return "step";
    case AqmType::kDualPi2: return "dualpi2";
  }
  return "?";
}

std::optional<AqmType> aqm_from_string(std::string_view name) {
  // kFifo and kDualPi2 are the enum's first and last members.
  for (int i = 0; i <= static_cast<int>(AqmType::kDualPi2); ++i) {
    const auto type = static_cast<AqmType>(i);
    if (to_string(type) == name) return type;
  }
  return std::nullopt;
}

std::unique_ptr<net::QueueDiscipline> AqmConfig::make() const {
  switch (type) {
    case AqmType::kFifo:
      return std::make_unique<net::FifoTailDrop>();
    case AqmType::kPie:
    case AqmType::kBarePie: {
      aqm::PieAqm::Params p =
          type == AqmType::kBarePie ? aqm::PieAqm::bare_params() : aqm::PieAqm::Params{};
      p.target = target;
      p.t_update = t_update;
      if (alpha_hz) p.alpha_hz = *alpha_hz;
      if (beta_hz) p.beta_hz = *beta_hz;
      p.ecn = ecn;
      if (ecn_drop_threshold) p.ecn_drop_threshold = *ecn_drop_threshold;
      return std::make_unique<aqm::PieAqm>(p);
    }
    case AqmType::kPi:
    case AqmType::kPi2:
    case AqmType::kCoupledPi2: {
      core::Pi2Aqm::Params p = type == AqmType::kPi    ? core::Pi2Aqm::pi_params()
                               : type == AqmType::kPi2 ? core::Pi2Aqm::pi2_params()
                                                       : core::Pi2Aqm::coupled_params();
      p.target = target;
      p.t_update = t_update;
      if (alpha_hz) p.alpha_hz = *alpha_hz;
      if (beta_hz) p.beta_hz = *beta_hz;
      p.k = coupling_k;
      // Plain PI has no overload cap, and Figure 9's coupled queue marks
      // every ECN-capable packet whatever `ecn` says.
      if (type != AqmType::kPi) p.max_classic_prob = max_classic_prob;
      if (type != AqmType::kCoupledPi2) p.ecn = ecn;
      return std::make_unique<core::Pi2Aqm>(p);
    }
    case AqmType::kRed: {
      aqm::RedAqm::Params p;
      p.ecn = ecn;
      return std::make_unique<aqm::RedAqm>(p);
    }
    case AqmType::kCodel: {
      aqm::CodelAqm::Params p;
      p.ecn = ecn;
      return std::make_unique<aqm::CodelAqm>(p);
    }
    case AqmType::kCurvyRed: {
      aqm::CurvyRedAqm::Params p;
      p.k = coupling_k;
      p.ecn = ecn;
      return std::make_unique<aqm::CurvyRedAqm>(p);
    }
    case AqmType::kStep: {
      aqm::StepMarkerAqm::Params p;
      p.threshold = target;  // reuse the target knob as the step threshold
      return std::make_unique<aqm::StepMarkerAqm>(p);
    }
    case AqmType::kDualPi2: {
      core::DualPi2Qdisc::Params p;
      p.target = target;
      p.t_update = t_update;
      if (alpha_hz) p.alpha_hz = *alpha_hz;
      if (beta_hz) p.beta_hz = *beta_hz;
      p.k = coupling_k;
      p.max_classic_prob = max_classic_prob;
      p.t_shift = t_shift;
      p.l_drop_percent = l_drop_percent;
      p.l_thresh_packets = l_thresh_packets;
      return std::make_unique<core::DualPi2Qdisc>(p);
    }
  }
  return std::make_unique<net::FifoTailDrop>();
}

}  // namespace pi2::scenario
