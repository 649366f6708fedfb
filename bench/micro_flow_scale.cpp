// Flow-scale benchmark: events/s and state bytes-per-flow for the hybrid
// fluid/packet engine at N ∈ {10², 10³, 10⁴, 10⁵} background flows, against
// the pure-packet rendering of the same scenario at N ∈ {10², 10³}.
//
// Each mixed point runs two foreground packet flows (cubic + dctcp, full
// per-packet fidelity, batched ACK clock) over a PI2 bottleneck plus one
// fluid spec of N modelled Reno flows; the pure-packet points render the N
// background flows as real TCP senders instead. The link is provisioned
// ~150 kb/s per background flow (floor 100 Mb/s) so the fluid windows sit
// near their fixed point rather than pinned at the floor.
//
// The headline metric is scheduler events per *simulated* second — a
// deterministic fingerprint, so the ≥10× acceptance gate below is CI-safe
// (wall-clock is reported but never gated). Pure-packet event cost scales
// ~linearly in N (every flow is ACK-clocked and carries its own timers), so
// the 10⁵-flow pure-packet cost is extrapolated from the 10³ measurement as
// ev_s(10³) × 100; the gate requires that extrapolation to be ≥10× the
// measured mixed-engine cost at the largest N actually run.
//
//   micro_flow_scale [--smoke] [--seed N] [--json PATH]
//
// --smoke caps the grid at N ≤ 10³ and shortens the runs (CI); the gate
// still extrapolates both sides to 10⁵, which is fair because the fluid
// tier's cost is N-independent by construction (one ODE state and one tick
// event per spec). Run it by hand; --json keeps the per-N records.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "control/fluid_flow.hpp"
#include "scenario/dumbbell.hpp"
#include "tcp/endpoint.hpp"

namespace {

using pi2::scenario::DumbbellConfig;
using pi2::scenario::RunResult;

constexpr double kGateMinRatio = 10.0;
constexpr double kExtrapolatedN = 1e5;
constexpr double kPacketBaselineN = 1e3;
/// Link provisioning per background flow; keeps per-flow fair share just
/// above the minimum-window floor (1500·8/0.1 s = 120 kb/s at W=1).
constexpr double kPerFlowBps = 150e3;

struct Point {
  int n_background = 0;
  std::uint64_t events = 0;
  double sim_s = 0;
  double wall_s = 0;
  double events_per_sim_s = 0;
  double state_bytes_per_flow = 0;
  double utilization = 0;
};

DumbbellConfig base_config(int n_background, const pi2::bench::Options& opts) {
  DumbbellConfig cfg;
  cfg.link_rate_bps = std::max(100e6, n_background * kPerFlowBps);
  cfg.duration = pi2::sim::from_seconds(opts.duration_s_override > 0
                                            ? opts.duration_s_override
                                            : 10.0);
  cfg.stats_start = pi2::sim::from_seconds(
      opts.stats_start_s_override > 0 ? opts.stats_start_s_override : 2.0);
  cfg.seed = opts.seed;
  cfg.aqm.type = pi2::scenario::AqmType::kPi2;
  cfg.aqm.ecn_drop_threshold = 1.0;
  // Foreground: the fidelity tier. Two full packet flows.
  pi2::scenario::TcpFlowSpec cubic;
  cubic.cc = pi2::tcp::CcType::kCubic;
  cubic.base_rtt = pi2::sim::from_millis(100);
  cfg.tcp_flows.push_back(cubic);
  pi2::scenario::TcpFlowSpec dctcp;
  dctcp.cc = pi2::tcp::CcType::kDctcp;
  dctcp.base_rtt = pi2::sim::from_millis(100);
  cfg.tcp_flows.push_back(dctcp);
  return cfg;
}

/// Fluid-tier state bytes per modelled flow: the per-spec ODE + history
/// rings amortized over the spec's count. Computed from a throwaway ensemble
/// configured exactly like run_dumbbell's.
double fluid_bytes_per_flow(int n_background, const DumbbellConfig& cfg) {
  pi2::sim::Simulator sim;
  pi2::control::FluidFlowEnsemble::Config fc;
  fc.dt_s = pi2::sim::to_seconds(cfg.fluid_dt);
  pi2::control::FluidFlowEnsemble ensemble{sim, fc};
  pi2::control::FluidFlowSpec spec;
  spec.count = n_background;
  ensemble.add_spec(spec);
  return static_cast<double>(ensemble.state_bytes_per_spec()) / n_background;
}

/// Packet-tier state bytes per flow: endpoint objects plus the FlowTable's
/// hot/cold entries. sizeof-based lower bound (excludes in-flight packets
/// and heap-owned per-flow containers), which is the flattering direction
/// for the baseline.
double packet_bytes_per_flow() {
  return static_cast<double>(sizeof(pi2::tcp::TcpSender) +
                             sizeof(pi2::tcp::TcpReceiver) + 1 /* Kind */ +
                             2 * sizeof(void*) /* cold-entry bookkeeping */);
}

Point run_point(const DumbbellConfig& cfg, int n_background,
                double bytes_per_flow) {
  const auto wall_start = std::chrono::steady_clock::now();
  const RunResult result = pi2::scenario::run_dumbbell(cfg);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  Point p;
  p.n_background = n_background;
  p.events = result.events_executed;
  p.sim_s = pi2::sim::to_seconds(cfg.duration);
  p.wall_s = wall.count();
  p.events_per_sim_s = static_cast<double>(result.events_executed) / p.sim_s;
  p.state_bytes_per_flow = bytes_per_flow;
  p.utilization = result.utilization;
  return p;
}

void print_table(const char* title, const std::vector<Point>& points) {
  std::printf("\n%s\n", title);
  std::printf("%10s %14s %16s %14s %10s %8s\n", "N", "events", "events/sim-s",
              "state B/flow", "wall s", "util");
  for (const auto& p : points) {
    std::printf("%10d %14llu %16.0f %14.1f %10.2f %8.3f\n", p.n_background,
                static_cast<unsigned long long>(p.events), p.events_per_sim_s,
                p.state_bytes_per_flow, p.wall_s, p.utilization);
  }
}

void write_points(std::FILE* f, const char* key,
                  const std::vector<Point>& points) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "    {\"n_background\": %d, \"events_executed\": %llu, "
                 "\"sim_s\": %g, \"events_per_sim_s\": %.1f, "
                 "\"state_bytes_per_flow\": %.2f, \"wall_s\": %.3f, "
                 "\"utilization\": %.4f}%s\n",
                 p.n_background, static_cast<unsigned long long>(p.events),
                 p.sim_s, p.events_per_sim_s, p.state_bytes_per_flow, p.wall_s,
                 p.utilization, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
}

}  // namespace

int main(int argc, char** argv) {
  pi2::bench::Options opts = pi2::bench::parse_options(argc, argv);
  const bool smoke = opts.grid_cap > 0;  // set by --smoke

  std::vector<int> mixed_grid = {100, 1000, 10000, 100000};
  std::vector<int> packet_grid = {100, static_cast<int>(kPacketBaselineN)};
  if (smoke) mixed_grid = {100, 1000};

  std::printf("# micro_flow_scale — hybrid fluid/packet engine scale\n");
  std::printf("# mode: %s, seed %llu\n", smoke ? "smoke" : "full",
              static_cast<unsigned long long>(opts.seed));

  std::vector<Point> mixed;
  for (int n : mixed_grid) {
    DumbbellConfig cfg = base_config(n, opts);
    pi2::scenario::FluidFlowSpec bg;
    bg.cc = pi2::tcp::CcType::kReno;
    bg.count = n;
    bg.base_rtt = pi2::sim::from_millis(100);
    cfg.fluid_flows.push_back(bg);
    mixed.push_back(run_point(cfg, n, fluid_bytes_per_flow(n, cfg)));
    std::printf("mixed    N=%-7d done (%.2f wall s)\n", n,
                mixed.back().wall_s);
  }

  std::vector<Point> packet;
  for (int n : packet_grid) {
    DumbbellConfig cfg = base_config(n, opts);
    pi2::scenario::TcpFlowSpec bg;
    bg.cc = pi2::tcp::CcType::kReno;
    bg.count = n;
    bg.base_rtt = pi2::sim::from_millis(100);
    cfg.tcp_flows.push_back(bg);
    packet.push_back(run_point(cfg, n, packet_bytes_per_flow()));
    std::printf("packet   N=%-7d done (%.2f wall s)\n", n,
                packet.back().wall_s);
  }

  print_table("mixed engine (2 packet foreground + N fluid background)",
              mixed);
  print_table("pure packet (2 foreground + N packet background)", packet);

  // Acceptance gate: extrapolated pure-packet cost at 10⁵ flows vs the
  // measured mixed cost at the largest N run. Pure-packet events scale
  // ~linearly in N (per-flow ACK clock + timers); the fluid tier is O(1)
  // in N, so extrapolating the *mixed* side from a smaller N is a no-op.
  const Point& packet_base = packet.back();  // always N = kPacketBaselineN
  const Point& mixed_top = mixed.back();
  const double extrapolated_packet_ev_s =
      packet_base.events_per_sim_s *
      (kExtrapolatedN / packet_base.n_background);
  const double ratio = extrapolated_packet_ev_s / mixed_top.events_per_sim_s;
  const bool pass = ratio >= kGateMinRatio;

  std::printf(
      "\nextrapolated pure-packet events/sim-s at N=%g: %.0f "
      "(from N=%d × %.0f)\n",
      kExtrapolatedN, extrapolated_packet_ev_s, packet_base.n_background,
      kExtrapolatedN / packet_base.n_background);
  std::printf("mixed events/sim-s at N=%d: %.0f\n", mixed_top.n_background,
              mixed_top.events_per_sim_s);
  std::printf("ratio: %.1f× (gate: >= %.0f×) — %s\n", ratio, kGateMinRatio,
              pass ? "PASS" : "FAIL");

  if (!opts.json_path.empty()) {
    std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", opts.json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"suite\": \"micro_flow_scale\",\n"
                    "  \"mode\": \"%s\",\n",
                 smoke ? "smoke" : "full");
    write_points(f, "mixed", mixed);
    write_points(f, "pure_packet", packet);
    std::fprintf(f,
                 "  \"extrapolated_n\": %g,\n"
                 "  \"extrapolated_packet_events_per_sim_s\": %.1f,\n"
                 "  \"events_ratio\": %.2f,\n"
                 "  \"gate_min_ratio\": %g,\n"
                 "  \"gate\": \"%s\"\n}\n",
                 kExtrapolatedN, extrapolated_packet_ev_s, ratio,
                 kGateMinRatio, pass ? "pass" : "fail");
    std::fclose(f);
    std::printf("wrote %s\n", opts.json_path.c_str());
  }
  return pass ? 0 : 1;
}
