// Uniform configuration + factory for every queue discipline in the repo,
// so experiment configs can name an AQM and tweak the knobs that the paper
// varies (target delay, gains, ECN handling, coupling factor).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "aqm/pi_core.hpp"
#include "net/queue_discipline.hpp"
#include "sim/time.hpp"

namespace pi2::scenario {

enum class AqmType {
  kFifo,        ///< tail-drop only
  kPie,         ///< full Linux PIE (all heuristics)
  kBarePie,     ///< PIE minus heuristics (autotune kept)
  kPi,          ///< plain PI, fixed gains, probability applied directly
  kPi2,         ///< the paper's contribution (squared output)
  kCoupledPi2,  ///< single-queue coupled PI2/PI (Figure 9)
  kRed,
  kCodel,
  kCurvyRed,  ///< the DualQ draft's coupled RED-like example ([13])
  kStep,      ///< DCTCP's instantaneous step marker (Appendix A, eq (12))
  kDualPi2,   ///< DualQ Coupled AQM (RFC 9332) with overload protection
};

[[nodiscard]] std::string_view to_string(AqmType type);

/// The inverse of to_string(AqmType); nullopt for a name no type carries.
[[nodiscard]] std::optional<AqmType> aqm_from_string(std::string_view name);

struct AqmConfig {
  AqmType type = AqmType::kPi2;
  pi2::sim::Duration target = pi2::sim::from_millis(20);
  pi2::sim::Duration t_update = pi2::sim::from_millis(32);
  /// Gain overrides; when unset, each AQM's paper-default gains apply
  /// (PIE/PI 0.125/1.25, PI2 0.3125/3.125, coupled 0.625/6.25).
  std::optional<double> alpha_hz;
  std::optional<double> beta_hz;
  bool ecn = true;
  /// PIE only: probability above which ECN traffic is dropped, not marked.
  std::optional<double> ecn_drop_threshold;
  double coupling_k = 2.0;  ///< coupled PI2 / DualPI2 only
  /// PI2 family overload cap.
  double max_classic_prob = pi2::aqm::kDefaultMaxClassicProb;
  /// DualPI2 only: time-shifted scheduler credit for the L queue.
  pi2::sim::Duration t_shift = pi2::sim::from_millis(30);
  /// DualPI2 only: overload switchover threshold in percent of the coupled
  /// probability k*p' (sch_pi2 default 100: engage when it saturates).
  double l_drop_percent = 100.0;
  /// DualPI2 only: L backlog in packets that saturates the native ramp.
  std::int64_t l_thresh_packets = 3000;

  /// Builds the configured discipline.
  [[nodiscard]] std::unique_ptr<net::QueueDiscipline> make() const;
};

}  // namespace pi2::scenario
