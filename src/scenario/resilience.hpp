// Per-point scenario of the resilience campaign (fault presets x fluid
// background vs recovery time): the one builder pi2_campaign, perfbench and
// the check_fuzz campaign slice all run.
#pragma once

#include <cstdint>

#include "faults/fault_presets.hpp"
#include "faults/fault_schedule.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/time.hpp"

namespace pi2::scenario {

/// The preset/literal scaling context for one resilience campaign: faults
/// scale to the expansion's link rate, base RTT and (override-adjusted)
/// duration, so the same spec stresses quick, full and smoke runs alike.
inline faults::PresetContext resilience_fault_context(double link_mbps,
                                                      double rtt_ms,
                                                      double total_s) {
  faults::PresetContext ctx;
  ctx.link_bps = link_mbps * 1e6;
  ctx.base_rtt = pi2::sim::from_millis(rtt_ms);
  ctx.duration = pi2::sim::from_seconds(total_s);
  return ctx;
}

/// Foreground is the coexistence pair (1 Cubic + 1 DCTCP) every AQM on the
/// grid can govern; the fluid tier renders the `fluid_flows` background as
/// one modelled-Reno ensemble, exactly the --fluid-background idiom.
inline DumbbellConfig resilience_config(AqmType aqm,
                                        const faults::FaultSchedule& schedule,
                                        double fluid_flows, double link_mbps,
                                        double rtt_ms, double total_s,
                                        double stats_start_s,
                                        std::uint64_t seed) {
  DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = aqm;
  cfg.aqm.ecn = true;
  cfg.duration = pi2::sim::from_seconds(total_s);
  cfg.stats_start = pi2::sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  cfg.faults = schedule;
  TcpFlowSpec flow;
  flow.base_rtt = pi2::sim::from_millis(rtt_ms);
  flow.cc = tcp::CcType::kCubic;
  cfg.tcp_flows.push_back(flow);
  flow.cc = tcp::CcType::kDctcp;
  cfg.tcp_flows.push_back(flow);
  if (fluid_flows > 0) {
    FluidFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = fluid_flows;
    bg.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.fluid_flows.push_back(bg);
  }
  return cfg;
}

}  // namespace pi2::scenario
