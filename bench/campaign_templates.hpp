// Per-point builders for the campaign templates (overload, parking lot,
// RTT mix, resilience, step response): scenario config construction, the
// printed table row, the --json record, and the health predicates.
// bench/pi2_campaign runs them; perfbench/driver.cpp calls the same
// builders so the benchmark times the path campaign users run.
//
// Format strings here are the committed golden baselines' schema; change
// them only together with tests/golden/*.json.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "faults/fault_presets.hpp"
#include "sweep.hpp"
#include "topology/topology.hpp"

namespace pi2::bench {

/// Maps a campaign-spec axis value onto an AqmType. Names follow
/// scenario::to_string(AqmType); callers pass validated spec values.
inline scenario::AqmType aqm_from_name(const std::string& name) {
  using scenario::AqmType;
  if (name == "fifo") return AqmType::kFifo;
  if (name == "pie") return AqmType::kPie;
  if (name == "bare-pie") return AqmType::kBarePie;
  if (name == "pi") return AqmType::kPi;
  if (name == "pi2") return AqmType::kPi2;
  if (name == "coupled-pi2") return AqmType::kCoupledPi2;
  if (name == "red") return AqmType::kRed;
  if (name == "codel") return AqmType::kCodel;
  if (name == "curvy-red") return AqmType::kCurvyRed;
  if (name == "step") return AqmType::kStep;
  return AqmType::kDualPi2;
}

inline MixKind mix_from_name(const std::string& name) {
  return name == "cubic/dctcp" ? MixKind::kCubicVsDctcp
                               : MixKind::kCubicVsEcnCubic;
}

inline net::Ecn ecn_from_name(const std::string& name) {
  if (name == "ect0") return net::Ecn::kEct0;
  if (name == "ect1") return net::Ecn::kEct1;
  return net::Ecn::kNotEct;
}

/// The machinery half of every figure's health check: a clean run has no
/// invariant violations, no clamped events and no guard trips.
inline bool machinery_healthy(const scenario::RunResult& result) {
  return result.violations.empty() && result.clamped_events == 0 &&
         result.guard_events == 0;
}

// ---- overload (RFC 9332 §4.2 UDP floods vs DualPI2) ------------------------

inline scenario::DumbbellConfig overload_config(net::Ecn ecn, double udp_mult,
                                                double link_mbps, double rtt_ms,
                                                double total_s,
                                                double stats_start_s,
                                                std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = scenario::AqmType::kDualPi2;
  // RFC 9332 overload protection assumes the Classic drop probability can
  // ramp all the way to 1: a 2x unresponsive flood needs 50%+ drop to keep
  // the queue governed, which the paper's single-queue 25% cap
  // (kDefaultMaxClassicProb) would forbid.
  cfg.aqm.max_classic_prob = 1.0;
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(dctcp);
  scenario::UdpFlowSpec flood;
  flood.rate_bps = udp_mult * cfg.link_rate_bps;
  flood.ecn = ecn;
  flood.base_rtt = sim::from_millis(rtt_ms);
  cfg.udp_flows.push_back(flood);
  return cfg;
}

inline void overload_print_row(const char* ecn_name, double udp_mult,
                               const scenario::RunResult& result) {
  const auto& l = result.window_band_l;
  const auto& c = result.window_band_c;
  std::printf(
      "%-9s %-9.2f %-7.2f %-7.2f %-7.2f %-9.2f %-9.2f %5lld/%-5lld "
      "%5lld/%-5lld %4lld/%-4lld %-7llu\n",
      ecn_name, udp_mult, result.mean_goodput_mbps(tcp::CcType::kCubic),
      result.mean_goodput_mbps(tcp::CcType::kDctcp),
      result.mean_udp_goodput_mbps(), result.mean_qdelay_ms,
      result.p99_qdelay_ms, static_cast<long long>(l.marked),
      static_cast<long long>(l.aqm_dropped), static_cast<long long>(c.marked),
      static_cast<long long>(c.aqm_dropped),
      static_cast<long long>(l.tail_dropped),
      static_cast<long long>(c.tail_dropped),
      static_cast<unsigned long long>(result.guard_events));
}

inline void overload_json_record(durable::AtomicFile& json, bool& first,
                                 std::size_t index, const char* ecn_name,
                                 std::uint64_t seed, double link_mbps,
                                 double rtt_ms, double udp_mult,
                                 const scenario::RunResult& result) {
  const auto& l = result.window_band_l;
  const auto& c = result.window_band_c;
  json.printf(
      "%s\n  {\"index\": %zu, \"status\": \"ok\", \"ecn\": \"%s\", "
      "\"seed\": %llu, \"link_mbps\": %.6g, \"rtt_ms\": %.6g, "
      "\"udp_mult\": %.6g, "
      "\"cubic_mbps\": %.6g, \"dctcp_mbps\": %.6g, \"udp_mbps\": %.6g, "
      "\"utilization\": %.6g, \"mean_qdelay_ms\": %.6g, "
      "\"p99_qdelay_ms\": %.6g, "
      "\"l_enqueued\": %lld, \"l_marked\": %lld, \"l_dropped\": %lld, "
      "\"l_tail_dropped\": %lld, "
      "\"c_enqueued\": %lld, \"c_marked\": %lld, \"c_dropped\": %lld, "
      "\"c_tail_dropped\": %lld, "
      "\"invariant_violations\": %llu, \"guard_events\": %llu}",
      first ? "" : ",", index, ecn_name,
      static_cast<unsigned long long>(seed), link_mbps, rtt_ms, udp_mult,
      result.mean_goodput_mbps(tcp::CcType::kCubic),
      result.mean_goodput_mbps(tcp::CcType::kDctcp),
      result.mean_udp_goodput_mbps(), result.utilization,
      result.mean_qdelay_ms, result.p99_qdelay_ms,
      static_cast<long long>(l.enqueued), static_cast<long long>(l.marked),
      static_cast<long long>(l.aqm_dropped),
      static_cast<long long>(l.tail_dropped),
      static_cast<long long>(c.enqueued), static_cast<long long>(c.marked),
      static_cast<long long>(c.aqm_dropped),
      static_cast<long long>(c.tail_dropped),
      static_cast<unsigned long long>(result.violations.size()),
      static_cast<unsigned long long>(result.guard_events));
  first = false;
}

inline void overload_json_failed(durable::AtomicFile& json, bool& first,
                                 std::size_t index, runner::TaskStatus status,
                                 const char* ecn_name, double udp_mult) {
  json.printf("%s\n  {\"index\": %zu, \"status\": \"%s\", "
              "\"ecn\": \"%s\", \"udp_mult\": %.3g}",
              first ? "" : ",", index, runner::to_string(status), ecn_name,
              udp_mult);
  first = false;
}

// ---- parking lot (long flow vs per-hop cross flows) ------------------------

/// The N-hop parking lot: nodes n0..nN, one long Cubic flow over the whole
/// chain, one Cubic cross flow per hop, every hop the same rate and AQM.
inline topology::TopologyConfig parking_lot_config(
    scenario::AqmType aqm, int hops, double link_mbps, double rtt_ms,
    double total_s, double stats_start_s, std::uint64_t seed) {
  topology::TopologyConfig cfg;
  for (int i = 0; i <= hops; ++i) {
    cfg.nodes.push_back("n" + std::to_string(i));
  }
  for (int i = 0; i < hops; ++i) {
    topology::LinkSpec link;
    link.from = cfg.nodes[static_cast<std::size_t>(i)];
    link.to = cfg.nodes[static_cast<std::size_t>(i) + 1];
    link.rate_bps = link_mbps * 1e6;
    link.aqm.type = aqm;
    link.aqm.ecn = true;
    cfg.links.push_back(link);
  }
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.count = 1;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  topology::TcpRoute longflow;
  longflow.spec = cubic;
  longflow.path = cfg.nodes;
  cfg.tcp_flows.push_back(longflow);
  for (int i = 0; i < hops; ++i) {
    topology::TcpRoute cross;
    cross.spec = cubic;
    cross.path = {cfg.nodes[static_cast<std::size_t>(i)],
                  cfg.nodes[static_cast<std::size_t>(i) + 1]};
    cfg.tcp_flows.push_back(cross);
  }
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  return cfg;
}

struct ParkingSummary {
  double long_mbps = 0;
  double cross_mbps = 0;
  double ratio = 0;
  double util_min = 1.0;
};

/// Flow order is the route order: flows[0] is the long flow, flows[1..hops]
/// the cross flows.
inline ParkingSummary parking_summary(const scenario::RunResult& result,
                                      int hops) {
  ParkingSummary s;
  s.long_mbps = result.flows[0].goodput_mbps;
  double cross_sum = 0.0;
  for (int h = 0; h < hops; ++h) {
    cross_sum += result.flows[static_cast<std::size_t>(h) + 1].goodput_mbps;
  }
  s.cross_mbps = cross_sum / hops;
  s.ratio = s.cross_mbps > 0 ? s.long_mbps / s.cross_mbps : 0.0;
  for (const auto& link : result.links) {
    if (link.utilization < s.util_min) s.util_min = link.utilization;
  }
  return s;
}

inline void parking_print_row(const char* aqm_name, int hops,
                              const ParkingSummary& s,
                              const scenario::RunResult& result) {
  char qdelay_col[64] = "";
  char marks_col[64] = "";
  std::size_t q_at = 0;
  std::size_t m_at = 0;
  for (const auto& link : result.links) {
    q_at += static_cast<std::size_t>(std::snprintf(
        qdelay_col + q_at, sizeof(qdelay_col) - q_at, "%s%.2f",
        q_at == 0 ? "" : "/", link.mean_qdelay_ms));
    m_at += static_cast<std::size_t>(std::snprintf(
        marks_col + m_at, sizeof(marks_col) - m_at, "%s%lld",
        m_at == 0 ? "" : "/",
        static_cast<long long>(link.counters.marked +
                               link.counters.aqm_dropped)));
  }
  std::printf("%-12s %-5d %-7.2f %-7.2f %-7.2f %-8.3f %-21s %-21s\n",
              aqm_name, hops, s.long_mbps, s.cross_mbps, s.ratio, s.util_min,
              qdelay_col, marks_col);
}

inline void parking_json_record(durable::AtomicFile& json, bool& first,
                                std::size_t index, const char* aqm_name,
                                int hops, std::uint64_t seed, double link_mbps,
                                double rtt_ms, const ParkingSummary& s,
                                const scenario::RunResult& result) {
  json.printf(
      "%s\n  {\"index\": %zu, \"status\": \"ok\", \"aqm\": \"%s\", "
      "\"hops\": %d, \"seed\": %llu, \"link_mbps\": %.6g, "
      "\"rtt_ms\": %.6g, "
      "\"long_mbps\": %.6g, \"cross_mbps\": %.6g, \"ratio\": %.6g, "
      "\"util_min\": %.6g",
      first ? "" : ",", index, aqm_name, hops,
      static_cast<unsigned long long>(seed), link_mbps, rtt_ms, s.long_mbps,
      s.cross_mbps, s.ratio, s.util_min);
  for (std::size_t h = 0; h < result.links.size(); ++h) {
    const auto& link = result.links[h];
    json.printf(
        ", \"hop%zu_qdelay_ms\": %.6g, \"hop%zu_marked\": %lld, "
        "\"hop%zu_dropped\": %lld",
        h, link.mean_qdelay_ms, h,
        static_cast<long long>(link.counters.marked), h,
        static_cast<long long>(link.counters.aqm_dropped));
  }
  json.printf(", \"invariant_violations\": %llu, "
              "\"guard_events\": %llu}",
              static_cast<unsigned long long>(result.violations.size()),
              static_cast<unsigned long long>(result.guard_events));
  first = false;
}

inline void parking_json_failed(durable::AtomicFile& json, bool& first,
                                std::size_t index, runner::TaskStatus status,
                                const char* aqm_name, int hops) {
  json.printf("%s\n  {\"index\": %zu, \"status\": \"%s\", "
              "\"aqm\": \"%s\", \"hops\": %d}",
              first ? "" : ",", index, runner::to_string(status), aqm_name,
              hops);
  first = false;
}

/// Headline check: beyond one hop the long flow must not out-throughput the
/// cross flows. Prints the diagnostic (part of the table's stdout schema) and
/// returns false when violated.
inline bool parking_check_headline(int hops, const ParkingSummary& s) {
  if (hops > 1 && s.long_mbps >= s.cross_mbps) {
    std::printf("# UNHEALTHY: long flow (%.2f Mb/s) >= cross mean "
                "(%.2f Mb/s) over %d hops\n",
                s.long_mbps, s.cross_mbps, hops);
    return false;
  }
  return true;
}

// ---- RTT mix (10/50/100 ms branches sharing one bottleneck) ----------------

inline constexpr double kBranchRttMs[] = {10.0, 50.0, 100.0};
inline constexpr std::size_t kBranches = 3;
inline constexpr int kFlowsPerBranch = 2;  // 1 Cubic + 1 DCTCP

/// Branch topology: r10/r50/r100 -> agg over FIFO access links, agg -> sink
/// over the AQM bottleneck. The bottleneck is links[0], so it owns the
/// flattened result's top-level series and telemetry scope.
inline topology::TopologyConfig rtt_mix_config(scenario::AqmType aqm,
                                               double link_mbps, double total_s,
                                               double stats_start_s,
                                               std::uint64_t seed) {
  topology::TopologyConfig cfg;
  cfg.nodes = {"agg", "sink", "r10", "r50", "r100"};
  topology::LinkSpec bottleneck;
  bottleneck.name = "bottleneck";
  bottleneck.from = "agg";
  bottleneck.to = "sink";
  bottleneck.rate_bps = link_mbps * 1e6;
  bottleneck.aqm.type = aqm;
  bottleneck.aqm.ecn = true;
  cfg.links.push_back(bottleneck);
  for (std::size_t b = 0; b < kBranches; ++b) {
    topology::LinkSpec access;
    access.from = cfg.nodes[2 + b];
    access.to = "agg";
    access.rate_bps = 40e6;  // never the bottleneck
    access.aqm.type = scenario::AqmType::kFifo;
    cfg.links.push_back(access);
  }
  for (std::size_t b = 0; b < kBranches; ++b) {
    const std::vector<std::string> path = {cfg.nodes[2 + b], "agg", "sink"};
    scenario::TcpFlowSpec cubic;
    cubic.cc = tcp::CcType::kCubic;
    cubic.count = 1;
    cubic.base_rtt = sim::from_millis(kBranchRttMs[b]);
    cfg.tcp_flows.push_back({cubic, path});
    scenario::TcpFlowSpec dctcp;
    dctcp.cc = tcp::CcType::kDctcp;
    dctcp.count = 1;
    dctcp.base_rtt = sim::from_millis(kBranchRttMs[b]);
    cfg.tcp_flows.push_back({dctcp, path});
  }
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  return cfg;
}

struct RttMixSummary {
  double branch_mbps[kBranches] = {};
  double ratio = 0;  ///< 10 ms / 100 ms branch goodput
  double jain = 0;
};

/// Flow order is the route order: branch b owns flows[2b] (Cubic) and
/// flows[2b+1] (DCTCP).
inline RttMixSummary rtt_mix_summary(const scenario::RunResult& result) {
  RttMixSummary s;
  for (std::size_t b = 0; b < kBranches; ++b) {
    for (int f = 0; f < kFlowsPerBranch; ++f) {
      s.branch_mbps[b] +=
          result.flows[b * kFlowsPerBranch + static_cast<std::size_t>(f)]
              .goodput_mbps;
    }
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double g : s.branch_mbps) {
    sum += g;
    sum_sq += g * g;
  }
  s.jain = sum_sq > 0 ? (sum * sum) / (kBranches * sum_sq) : 0.0;
  s.ratio = s.branch_mbps[2] > 0 ? s.branch_mbps[0] / s.branch_mbps[2] : 0.0;
  return s;
}

inline void rtt_mix_print_row(const char* aqm_name, const RttMixSummary& s,
                              const scenario::RunResult& result) {
  std::printf("%-12s %-8.2f %-8.2f %-8.2f %-9.2f %-6.3f %-8.2f %-8.2f\n",
              aqm_name, s.branch_mbps[0], s.branch_mbps[1], s.branch_mbps[2],
              s.ratio, s.jain, result.mean_qdelay_ms, result.p99_qdelay_ms);
}

inline void rtt_mix_json_record(durable::AtomicFile& json, bool& first,
                                std::size_t index, const char* aqm_name,
                                std::uint64_t seed, double link_mbps,
                                const RttMixSummary& s,
                                const scenario::RunResult& result) {
  json.printf(
      "%s\n  {\"index\": %zu, \"status\": \"ok\", \"aqm\": \"%s\", "
      "\"seed\": %llu, \"link_mbps\": %.6g, "
      "\"rtt10_mbps\": %.6g, \"rtt50_mbps\": %.6g, "
      "\"rtt100_mbps\": %.6g, \"ratio_10_100\": %.6g, "
      "\"jain\": %.6g, \"utilization\": %.6g, "
      "\"mean_qdelay_ms\": %.6g, \"p99_qdelay_ms\": %.6g, "
      "\"marked\": %lld, \"aqm_dropped\": %lld, "
      "\"invariant_violations\": %llu, \"guard_events\": %llu}",
      first ? "" : ",", index, aqm_name,
      static_cast<unsigned long long>(seed), link_mbps, s.branch_mbps[0],
      s.branch_mbps[1], s.branch_mbps[2], s.ratio, s.jain, result.utilization,
      result.mean_qdelay_ms, result.p99_qdelay_ms,
      static_cast<long long>(result.counters.marked),
      static_cast<long long>(result.counters.aqm_dropped),
      static_cast<unsigned long long>(result.violations.size()),
      static_cast<unsigned long long>(result.guard_events));
  first = false;
}

/// The reduced record of a failed point keyed by its AQM alone (the RTT mix
/// and step-response grids).
inline void aqm_json_failed(durable::AtomicFile& json, bool& first,
                            std::size_t index, runner::TaskStatus status,
                            const char* aqm_name) {
  json.printf("%s\n  {\"index\": %zu, \"status\": \"%s\", \"aqm\": \"%s\"}",
              first ? "" : ",", index, runner::to_string(status), aqm_name);
  first = false;
}

/// Liveness check: every branch must get a share. Prints the starved-branch
/// diagnostics and returns false when violated.
inline bool rtt_mix_check_branches(const RttMixSummary& s) {
  bool ok = true;
  for (std::size_t b = 0; b < kBranches; ++b) {
    if (s.branch_mbps[b] <= 0.0) {
      std::printf("# UNHEALTHY: branch %zu starved (%.3f Mb/s)\n", b,
                  s.branch_mbps[b]);
      ok = false;
    }
  }
  return ok;
}

// ---- resilience (fault presets x fluid background vs recovery time) --------

/// The preset/literal scaling context for one resilience campaign: faults
/// scale to the expansion's link rate, base RTT and (override-adjusted)
/// duration, so the same spec stresses quick, full and smoke runs alike.
inline faults::PresetContext resilience_fault_context(double link_mbps,
                                                      double rtt_ms,
                                                      double total_s) {
  faults::PresetContext ctx;
  ctx.link_bps = link_mbps * 1e6;
  ctx.base_rtt = sim::from_millis(rtt_ms);
  ctx.duration = sim::from_seconds(total_s);
  return ctx;
}

/// Foreground is the coexistence pair (1 Cubic + 1 DCTCP) every AQM on the
/// grid can govern; the fluid tier renders the `fluid_flows` background as
/// one modelled-Reno ensemble, exactly the --fluid-background idiom.
inline scenario::DumbbellConfig resilience_config(
    scenario::AqmType aqm, const faults::FaultSchedule& schedule,
    double fluid_flows, double link_mbps, double rtt_ms, double total_s,
    double stats_start_s, std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = aqm;
  cfg.aqm.ecn = true;
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  cfg.faults = schedule;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(dctcp);
  if (fluid_flows > 0) {
    scenario::FluidFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = fluid_flows;
    bg.base_rtt = sim::from_millis(rtt_ms);
    cfg.fluid_flows.push_back(bg);
  }
  return cfg;
}

inline void resilience_print_row(const char* aqm_name, const char* fault,
                                 double fluid_flows,
                                 const scenario::RunResult& result) {
  const stats::ResilienceReport& rr = result.resilience;
  std::printf(
      "%-12s %-16s %-8.0f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f %-7.3f "
      "%llu/%llu\n",
      aqm_name, fault, fluid_flows, rr.worst_recovery_s, rr.mean_recovery_s,
      rr.peak_qdelay_ms, rr.post_fault_delta_ms, result.mean_qdelay_ms,
      result.utilization,
      static_cast<unsigned long long>(rr.violations_in_window),
      static_cast<unsigned long long>(rr.violations_outside));
}

inline void resilience_json_record(durable::AtomicFile& json, bool& first,
                                   std::size_t index, const char* aqm_name,
                                   const char* fault, double fluid_flows,
                                   std::uint64_t seed, double link_mbps,
                                   double rtt_ms,
                                   const scenario::RunResult& result) {
  const stats::ResilienceReport& rr = result.resilience;
  json.printf(
      "%s\n  {\"index\": %zu, \"status\": \"ok\", \"aqm\": \"%s\", "
      "\"fault\": \"%s\", \"fluid_flows\": %.6g, \"seed\": %llu, "
      "\"link_mbps\": %.6g, \"rtt_ms\": %.6g, "
      "\"windows\": %llu, \"recovered_windows\": %llu, "
      "\"worst_recovery_s\": %.6g, \"mean_recovery_s\": %.6g, "
      "\"peak_qdelay_ms\": %.6g, \"post_fault_delta_ms\": %.6g, "
      "\"mean_qdelay_ms\": %.6g, \"p99_qdelay_ms\": %.6g, "
      "\"utilization\": %.6g, \"fault_dropped\": %lld, "
      "\"violations_in_window\": %llu, \"violations_outside\": %llu, "
      "\"invariant_violations\": %llu, \"guard_events\": %llu}",
      first ? "" : ",", index, aqm_name, fault, fluid_flows,
      static_cast<unsigned long long>(seed), link_mbps, rtt_ms,
      static_cast<unsigned long long>(rr.windows),
      static_cast<unsigned long long>(rr.recovered_windows),
      rr.worst_recovery_s, rr.mean_recovery_s, rr.peak_qdelay_ms,
      rr.post_fault_delta_ms, result.mean_qdelay_ms, result.p99_qdelay_ms,
      result.utilization, static_cast<long long>(result.counters.fault_dropped),
      static_cast<unsigned long long>(rr.violations_in_window),
      static_cast<unsigned long long>(rr.violations_outside),
      static_cast<unsigned long long>(result.violations.size()),
      static_cast<unsigned long long>(result.guard_events));
  first = false;
}

inline void resilience_json_failed(durable::AtomicFile& json, bool& first,
                                   std::size_t index, runner::TaskStatus status,
                                   const char* aqm_name, const char* fault,
                                   double fluid_flows) {
  json.printf("%s\n  {\"index\": %zu, \"status\": \"%s\", \"aqm\": \"%s\", "
              "\"fault\": \"%s\", \"fluid_flows\": %.6g}",
              first ? "" : ",", index, runner::to_string(status), aqm_name,
              fault, fluid_flows);
  first = false;
}

/// Per-point machinery gate for faulted runs: clamp/guard trips stay fatal,
/// but invariant violations are only fatal *outside* a fault window or its
/// recovery transient (the analyzer's in/out split).
inline bool resilience_machinery_healthy(const scenario::RunResult& result) {
  if (result.clamped_events != 0 || result.guard_events != 0) return false;
  if (result.resilience.violations_outside != 0) {
    std::printf("# UNHEALTHY: %llu invariant violation(s) outside any fault "
                "window\n",
                static_cast<unsigned long long>(
                    result.resilience.violations_outside));
    return false;
  }
  return true;
}

/// Cross-point gate for the paper's robustness headline: on every fault
/// preset of the grid, PI2's worst time-to-reconverge must not exceed
/// PIE's. Scores aggregate as the max across the fluid axis, with a
/// never-recovered window (-1) counting as +inf.
struct ResilienceGate {
  struct Cell {
    double pi2 = 0.0;
    double pie = 0.0;
    bool has_pi2 = false;
    bool has_pie = false;
  };
  std::map<std::string, Cell> by_fault;

  static double settled_or_inf(double worst_recovery_s) {
    return worst_recovery_s < 0.0
               ? std::numeric_limits<double>::infinity()
               : worst_recovery_s;
  }

  void record(const std::string& fault, const std::string& aqm,
              double worst_recovery_s) {
    Cell& cell = by_fault[fault];
    const double score = settled_or_inf(worst_recovery_s);
    if (aqm == "coupled-pi2" || aqm == "pi2") {
      cell.pi2 = cell.has_pi2 ? std::max(cell.pi2, score) : score;
      cell.has_pi2 = true;
    } else if (aqm == "pie") {
      cell.pie = cell.has_pie ? std::max(cell.pie, score) : score;
      cell.has_pie = true;
    }
  }

  /// Prints per-preset diagnostics; false when any preset has PI2 slower.
  [[nodiscard]] bool check() const {
    bool ok = true;
    for (const auto& [fault, cell] : by_fault) {
      if (!cell.has_pi2 || !cell.has_pie) continue;
      if (cell.pi2 > cell.pie) {
        std::printf("# UNHEALTHY: %s: PI2 worst recovery %.2f s > PIE "
                    "%.2f s\n",
                    fault.c_str(), cell.pi2, cell.pie);
        ok = false;
      }
    }
    return ok;
  }
};

// ---- step response (the section 4.4 capacity step, PI2 vs PIE) -------------

/// Settle criterion of the step response: queue delay back inside twice the
/// 20 ms target and held there for 2 s (0.5 s on runs shorter than 30 s).
inline constexpr double kStepBandMs = 2.0 * 20.0;
inline double step_hold_s(double total_s) {
  return total_s >= 30.0 ? 2.0 : 0.5;
}

/// 4 Cubic flows; the bottleneck drops to a quarter of its rate at T/3 and
/// recovers at 2T/3, replayed by the FaultInjector.
inline scenario::DumbbellConfig step_response_config(
    scenario::AqmType aqm, double link_mbps, double rtt_ms, double total_s,
    double stats_start_s, std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = aqm;
  cfg.aqm.ecn_drop_threshold = 1.0;
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.count = 4;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  cfg.faults.rate_step(sim::from_seconds(total_s / 3.0), cfg.link_rate_bps / 4)
      .rate_step(sim::from_seconds(2.0 * total_s / 3.0), cfg.link_rate_bps);
  return cfg;
}

struct StepSummary {
  double settle_drop_s = -1;  ///< -1 = never settled before the rise
  double settle_rise_s = -1;  ///< -1 = never settled before the run end
  double peak_qdelay_ms = 0;  ///< from the drop on
};

/// Scores both steps as zero-width recovery windows in one analyzer pass.
inline StepSummary step_summary(const scenario::RunResult& result,
                                double total_s) {
  const double down_s = total_s / 3.0;
  const double up_s = 2.0 * total_s / 3.0;
  stats::RecoveryOptions opts;
  opts.band_ms = kStepBandMs;
  opts.hold_s = step_hold_s(total_s);
  opts.duration_s = total_s;
  const stats::ResilienceReport rr = stats::analyze_recovery(
      result.qdelay_ms_series, {{down_s, down_s}, {up_s, up_s}}, {}, opts);
  return {rr.recovery_s[0], rr.recovery_s[1], rr.peak_qdelay_ms};
}

/// The ResilienceGate key under which each point's settle_drop_s is scored.
inline constexpr const char* kStepGateKey = "capacity_drop";

/// The responsiveness headline, printed when both AQMs settled after the
/// drop (the gate itself scores a never-settled run as +inf).
inline void step_print_headline(const ResilienceGate& gate) {
  const auto it = gate.by_fault.find(kStepGateKey);
  if (it == gate.by_fault.end()) return;
  const ResilienceGate::Cell& cell = it->second;
  if (!cell.has_pi2 || !cell.has_pie || std::isinf(cell.pi2) ||
      std::isinf(cell.pie)) {
    return;
  }
  std::printf("# PI2 settles %.2f s after the 4x drop vs PIE %.2f s (%s)\n",
              cell.pi2, cell.pie,
              cell.pi2 <= cell.pie ? "PI2 at least as fast" : "PIE faster here");
}

inline void step_print_row(const char* aqm_label, const StepSummary& s,
                           const scenario::RunResult& result) {
  std::printf("%-14s %-16.2f %-16.2f %-12.1f %-12llu %-8llu\n", aqm_label,
              s.settle_drop_s, s.settle_rise_s, s.peak_qdelay_ms,
              static_cast<unsigned long long>(result.violations.size()),
              static_cast<unsigned long long>(result.guard_events));
}

inline void step_json_record(durable::AtomicFile& json, bool& first,
                             std::size_t index, const char* aqm_label,
                             std::uint64_t seed, const StepSummary& s,
                             const scenario::RunResult& result) {
  json.printf(
      "%s\n  {\"index\": %zu, \"status\": \"ok\", \"aqm\": \"%s\", "
      "\"seed\": %llu, "
      "\"settle_drop_s\": %.6g, \"settle_rise_s\": %.6g, "
      "\"peak_qdelay_ms\": %.6g, \"mean_qdelay_ms\": %.6g, "
      "\"utilization\": %.6g, "
      "\"events_executed\": %llu, \"clamped_events\": %llu, "
      "\"invariant_violations\": %llu, \"guard_events\": %llu}",
      first ? "" : ",", index, aqm_label,
      static_cast<unsigned long long>(seed), s.settle_drop_s, s.settle_rise_s,
      s.peak_qdelay_ms, result.mean_qdelay_ms, result.utilization,
      static_cast<unsigned long long>(result.events_executed),
      static_cast<unsigned long long>(result.clamped_events),
      static_cast<unsigned long long>(result.violations.size()),
      static_cast<unsigned long long>(result.guard_events));
  first = false;
}

/// The step's machinery gate: a clean run whose injector applied exactly the
/// two rate changes. Whether and when a run settles is the experiment's
/// finding, gated across points by ResilienceGate instead.
inline bool step_machinery_healthy(const char* aqm_label,
                                   const scenario::RunResult& result) {
  if (result.fault_counters.rate_changes != 2) {
    std::printf("!! %s: expected 2 rate changes, injector applied %llu\n",
                aqm_label,
                static_cast<unsigned long long>(
                    result.fault_counters.rate_changes));
    return false;
  }
  return machinery_healthy(result);
}

}  // namespace pi2::bench
