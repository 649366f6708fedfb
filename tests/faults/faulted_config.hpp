// A dumbbell run with one fault of every kind, overlapping windows
// included: the shared config of the fault-determinism suite and the
// pinned result digests.
#pragma once

#include <cstdint>

#include "scenario/dumbbell.hpp"

namespace pi2::faults {

inline scenario::DumbbellConfig faulted_config(std::uint64_t seed) {
  using pi2::sim::from_millis;
  using pi2::sim::from_seconds;
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  cfg.duration = from_seconds(8);
  cfg.stats_start = from_seconds(2);
  cfg.seed = seed;
  cfg.aqm.type = scenario::AqmType::kCoupledPi2;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = from_millis(30);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = from_millis(30);
  cfg.tcp_flows = {cubic, dctcp};
  cfg.faults.rate_step(from_seconds(3), 4e6)
      .rate_flap(from_seconds(4), from_seconds(6), 2e6, 10e6, from_millis(500))
      .rtt_step(from_seconds(5), from_millis(60))
      .burst_loss(from_seconds(2), 10)
      .random_loss(from_seconds(2.5), from_seconds(3.5), 0.02)
      .ecn_bleach(from_seconds(4), from_seconds(6), 0.3)
      .reorder(from_seconds(6), from_seconds(7), 0.05, from_millis(2));
  return cfg;
}

}  // namespace pi2::faults
