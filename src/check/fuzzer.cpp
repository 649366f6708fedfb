#include "check/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/rng.hpp"

namespace pi2::check {

using pi2::sim::Duration;
using pi2::sim::Rng;
using pi2::sim::Time;
using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::to_millis;
using pi2::sim::to_seconds;

namespace {

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&options)[N]) {
  return options[rng.uniform_below(N)];
}

bool chance(Rng& rng, double p) { return rng.uniform() < p; }

/// The AQM pool. The coupled disciplines are drawn more often because the
/// coupling-law, dualq and overload oracles only bite there.
scenario::AqmType draw_aqm(Rng& rng) {
  static constexpr scenario::AqmType kPool[] = {
      scenario::AqmType::kCoupledPi2, scenario::AqmType::kCoupledPi2,
      scenario::AqmType::kDualPi2,    scenario::AqmType::kDualPi2,
      scenario::AqmType::kPi2,        scenario::AqmType::kPi2,
      scenario::AqmType::kPie,        scenario::AqmType::kBarePie,
      scenario::AqmType::kPi,         scenario::AqmType::kRed,
      scenario::AqmType::kCodel,      scenario::AqmType::kCurvyRed,
      scenario::AqmType::kStep,       scenario::AqmType::kFifo,
  };
  return pick(rng, kPool);
}

tcp::CcType draw_cc(Rng& rng) {
  static constexpr tcp::CcType kPool[] = {
      tcp::CcType::kReno,   tcp::CcType::kCubic,    tcp::CcType::kEcnCubic,
      tcp::CcType::kDctcp,  tcp::CcType::kScalable, tcp::CcType::kRelentless,
  };
  return pick(rng, kPool);
}

void draw_faults(Rng& rng, double duration_s, faults::FaultSchedule& out) {
  const int n = static_cast<int>(rng.uniform_below(3)) + 1;
  // Draw kinds without replacement: windowed events of the same kind must
  // not overlap (FaultSchedule::validate(duration)), and distinct kinds per
  // schedule keeps every draw trivially valid.
  bool used[7] = {};
  for (int i = 0; i < n; ++i) {
    const Time at = from_seconds(rng.uniform(0.0, duration_s * 0.8));
    const Time until =
        at + from_seconds(rng.uniform(0.05, duration_s * 0.5) + 1e-3);
    std::uint64_t kind = rng.uniform_below(7);
    while (used[kind]) kind = (kind + 1) % 7;
    used[kind] = true;
    switch (kind) {
      case 0:
        out.rate_step(at, rng.uniform(1e6, 20e6));
        break;
      case 1:
        out.rate_flap(at, until, rng.uniform(1e6, 5e6), rng.uniform(5e6, 20e6),
                      from_millis(rng.uniform(20.0, 200.0)));
        break;
      case 2:
        out.rtt_step(at, from_millis(rng.uniform(2.0, 150.0)));
        break;
      case 3:
        out.burst_loss(at, static_cast<int>(rng.uniform_below(20)) + 1);
        break;
      case 4:
        out.random_loss(at, until, rng.uniform(1e-3, 0.05));
        break;
      case 5:
        out.ecn_bleach(at, until, rng.uniform(0.05, 1.0));
        break;
      default:
        out.reorder(at, until, rng.uniform(0.01, 0.2),
                    from_millis(rng.uniform(0.5, 20.0)));
        break;
    }
  }
}

}  // namespace

scenario::DumbbellConfig ScenarioFuzzer::make_config(std::uint64_t index) const {
  Rng rng{Rng::derive_seed(options_.base_seed, index)};
  scenario::DumbbellConfig cfg;
  cfg.seed = Rng::derive_seed(options_.base_seed, index);

  const double duration_s =
      rng.uniform(1.0, options_.max_duration_s > 1.0 ? options_.max_duration_s : 1.5);
  cfg.duration = from_seconds(duration_s);
  cfg.stats_start = from_seconds(duration_s * rng.uniform(0.1, 0.5));
  cfg.sample_interval = from_millis(rng.uniform(10.0, 100.0));

  static constexpr double kLinkMbps[] = {1, 2, 4, 8, 12, 20};
  cfg.link_rate_bps = pick(rng, kLinkMbps) * 1e6;
  static constexpr std::int64_t kBuffers[] = {25, 100, 1000, 40000};
  cfg.buffer_packets = pick(rng, kBuffers);

  cfg.aqm.type = draw_aqm(rng);
  cfg.aqm.target = from_millis(rng.uniform(2.0, 40.0));
  cfg.aqm.t_update = from_millis(rng.uniform(4.0, 64.0));
  cfg.aqm.ecn = chance(rng, 0.8);
  cfg.aqm.coupling_k = rng.uniform(1.0, 4.0);
  cfg.aqm.max_classic_prob = rng.uniform(0.1, 1.0);
  if (chance(rng, 0.2)) cfg.aqm.alpha_hz = rng.uniform(0.05, 2.0);
  if (chance(rng, 0.2)) cfg.aqm.beta_hz = rng.uniform(0.5, 20.0);
  if (chance(rng, 0.3)) cfg.aqm.ecn_drop_threshold = rng.uniform(0.0, 1.0);
  // DualPI2 knobs (drawn for every case; only kDualPi2 consumes them).
  cfg.aqm.t_shift = from_millis(rng.uniform(0.0, 60.0));
  if (chance(rng, 0.4)) cfg.aqm.l_drop_percent = rng.uniform(2.0, 60.0);
  if (chance(rng, 0.25)) {
    cfg.aqm.l_thresh_packets = static_cast<std::int64_t>(rng.uniform_below(64)) + 1;
  }
  const bool dualq = cfg.aqm.type == scenario::AqmType::kDualPi2;

  const int tcp_specs = static_cast<int>(rng.uniform_below(3));
  for (int i = 0; i < tcp_specs; ++i) {
    scenario::TcpFlowSpec spec;
    spec.cc = draw_cc(rng);
    spec.count = static_cast<int>(rng.uniform_below(3)) + 1;
    spec.base_rtt = from_millis(rng.uniform(2.0, 150.0));
    spec.stagger = from_millis(rng.uniform(0.0, 100.0));
    spec.start = from_seconds(rng.uniform(0.0, duration_s / 2.0));
    if (chance(rng, 0.3)) {
      spec.stop = spec.start + from_seconds(rng.uniform(0.2, duration_s));
    }
    static constexpr double kCwndCaps[] = {0.0, 50.0, 700.0};
    spec.max_cwnd = pick(rng, kCwndCaps);
    cfg.tcp_flows.push_back(spec);
  }

  // DualPI2 cases always get at least one UDP spec so the unresponsive
  // overload machinery (L-queue flood routing, l_drop switchover) is hit.
  const int udp_specs =
      static_cast<int>(rng.uniform_below(cfg.tcp_flows.empty() ? 2 : 3)) +
      (dualq ? 1 : 0);
  for (int i = 0; i < udp_specs; ++i) {
    scenario::UdpFlowSpec spec;
    // Usually below capacity; occasionally an unresponsive overload — and
    // for DualPI2, often and up to 2x the link (the RFC 9332 campaign).
    spec.rate_bps =
        cfg.link_rate_bps *
        (chance(rng, dualq ? 0.5 : 0.2) ? rng.uniform(1.0, dualq ? 2.0 : 1.5)
                                        : rng.uniform(0.05, 0.6));
    spec.count = 1;
    // Spread floods across codepoints: Not-ECT stays Classic (drop-only),
    // ECT(1) floods the L queue, ECT(0) is the ECN-capable Classic case.
    static constexpr net::Ecn kCodepoints[] = {net::Ecn::kNotEct, net::Ecn::kNotEct,
                                               net::Ecn::kEct0, net::Ecn::kEct1,
                                               net::Ecn::kEct1};
    spec.ecn = pick(rng, kCodepoints);
    spec.base_rtt = from_millis(rng.uniform(2.0, 150.0));
    spec.start = from_seconds(rng.uniform(0.0, duration_s / 2.0));
    if (chance(rng, 0.3)) {
      spec.stop = spec.start + from_seconds(rng.uniform(0.2, duration_s));
    }
    static constexpr std::int32_t kPacketBytes[] = {200, 576, 1500};
    spec.packet_bytes = pick(rng, kPacketBytes);
    cfg.udp_flows.push_back(spec);
  }

  // Fluid-mix cases: ~1 in 3 runs adds fluid background specs so the fluid
  // conservation oracle and the hybrid coupling path see random operating
  // points. Counts reach into the thousands — cheap by construction.
  if (chance(rng, 0.35)) {
    const int fluid_specs = static_cast<int>(rng.uniform_below(2)) + 1;
    for (int i = 0; i < fluid_specs; ++i) {
      scenario::FluidFlowSpec spec;
      spec.cc = draw_cc(rng);
      static constexpr double kCounts[] = {1, 10, 100, 1000, 5000};
      spec.count = pick(rng, kCounts);
      spec.base_rtt = from_millis(rng.uniform(2.0, 150.0));
      spec.start = from_seconds(rng.uniform(0.0, duration_s / 2.0));
      if (chance(rng, 0.3)) {
        spec.stop = spec.start + from_seconds(rng.uniform(0.2, duration_s));
      }
      cfg.fluid_flows.push_back(spec);
    }
    static constexpr double kFluidDtMs[] = {0.5, 1.0, 2.0, 5.0};
    cfg.fluid_dt = from_millis(pick(rng, kFluidDtMs));
  }

  const int rate_changes = static_cast<int>(rng.uniform_below(3));
  for (int i = 0; i < rate_changes; ++i) {
    scenario::RateChange change;
    change.at = from_seconds(rng.uniform(0.0, duration_s));
    change.rate_bps = rng.uniform(1e6, 20e6);
    cfg.rate_changes.push_back(change);
  }

  if (options_.allow_faults && chance(rng, 0.5)) {
    draw_faults(rng, duration_s, cfg.faults);
  }

  if (std::string error = cfg.validate(); !error.empty()) {
    throw std::logic_error("ScenarioFuzzer produced an invalid config (case " +
                           std::to_string(index) + "): " + error);
  }
  return cfg;
}

topology::TopologyConfig ScenarioFuzzer::make_topology_config(
    std::uint64_t index) const {
  // Offset the derivation index so topology case i never shares a stream
  // with dumbbell case i of the same batch.
  const std::uint64_t seed =
      Rng::derive_seed(options_.base_seed, (1ull << 32) + index);
  Rng rng{seed};
  topology::TopologyConfig cfg;
  cfg.seed = seed;

  const double max_s =
      options_.max_duration_s > 1.0
          ? (options_.max_duration_s < 2.5 ? options_.max_duration_s : 2.5)
          : 1.5;
  const double duration_s = rng.uniform(1.0, max_s);
  cfg.duration = from_seconds(duration_s);
  cfg.stats_start = from_seconds(duration_s * rng.uniform(0.1, 0.4));
  cfg.sample_interval = from_millis(rng.uniform(20.0, 100.0));

  // A chain of 2-4 links, each with its own AQM, rate, buffer and faults.
  const int hops = static_cast<int>(rng.uniform_below(3)) + 2;
  for (int i = 0; i <= hops; ++i) {
    cfg.nodes.push_back(std::string("n").append(std::to_string(i)));
  }
  for (int i = 0; i < hops; ++i) {
    topology::LinkSpec link;
    link.from = cfg.nodes[static_cast<std::size_t>(i)];
    link.to = cfg.nodes[static_cast<std::size_t>(i) + 1];
    static constexpr double kLinkMbps[] = {2, 4, 8, 12, 20};
    link.rate_bps = pick(rng, kLinkMbps) * 1e6;
    static constexpr std::int64_t kBuffers[] = {50, 200, 1000, 40000};
    link.buffer_packets = pick(rng, kBuffers);
    link.delay = from_millis(rng.uniform(0.0, 10.0));
    link.aqm.type = draw_aqm(rng);
    link.aqm.target = from_millis(rng.uniform(2.0, 40.0));
    link.aqm.t_update = from_millis(rng.uniform(4.0, 64.0));
    link.aqm.ecn = chance(rng, 0.8);
    link.aqm.coupling_k = rng.uniform(1.0, 4.0);
    link.aqm.max_classic_prob = rng.uniform(0.1, 1.0);
    link.aqm.t_shift = from_millis(rng.uniform(0.0, 60.0));
    if (chance(rng, 0.4)) link.aqm.l_drop_percent = rng.uniform(2.0, 60.0);
    if (chance(rng, 0.2)) {
      scenario::RateChange change;
      change.at = from_seconds(rng.uniform(0.0, duration_s));
      change.rate_bps = rng.uniform(1e6, 20e6);
      link.rate_changes.push_back(change);
    }
    if (options_.allow_faults && chance(rng, 0.4)) {
      draw_faults(rng, duration_s, link.faults);
    }
    cfg.links.push_back(std::move(link));
  }

  const auto path_of = [&cfg](int a, int b) {
    std::vector<std::string> path;
    for (int i = a; i <= b; ++i) {
      path.push_back(cfg.nodes[static_cast<std::size_t>(i)]);
    }
    return path;
  };

  // One long flow crossing every hop (the parking-lot victim), then per-hop
  // cross traffic so every link sees its own load.
  {
    topology::TcpRoute route;
    route.spec.cc = draw_cc(rng);
    route.spec.count = static_cast<int>(rng.uniform_below(2)) + 1;
    route.spec.base_rtt = from_millis(rng.uniform(5.0, 100.0));
    route.path = path_of(0, hops);
    cfg.tcp_flows.push_back(std::move(route));
  }
  for (int i = 0; i < hops; ++i) {
    if (!chance(rng, 0.6)) continue;
    topology::TcpRoute route;
    route.spec.cc = draw_cc(rng);
    route.spec.count = static_cast<int>(rng.uniform_below(2)) + 1;
    route.spec.base_rtt = from_millis(rng.uniform(5.0, 100.0));
    route.spec.start = from_seconds(rng.uniform(0.0, duration_s / 2.0));
    route.path = path_of(i, i + 1);
    cfg.tcp_flows.push_back(std::move(route));
  }

  // Optional unresponsive UDP load over a sub-path of the chain.
  if (chance(rng, 0.4)) {
    const int a = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(hops)));
    const int b = a + 1 +
                  static_cast<int>(rng.uniform_below(
                      static_cast<std::uint64_t>(hops - a)));
    double min_rate = cfg.links[static_cast<std::size_t>(a)].rate_bps;
    for (int i = a; i < b; ++i) {
      min_rate = std::min(min_rate,
                          cfg.links[static_cast<std::size_t>(i)].rate_bps);
    }
    topology::UdpRoute route;
    route.spec.rate_bps = min_rate * rng.uniform(0.05, 0.8);
    route.spec.count = 1;
    static constexpr net::Ecn kCodepoints[] = {net::Ecn::kNotEct,
                                               net::Ecn::kEct0, net::Ecn::kEct1};
    route.spec.ecn = pick(rng, kCodepoints);
    route.spec.base_rtt = from_millis(rng.uniform(2.0, 100.0));
    static constexpr std::int32_t kPacketBytes[] = {200, 576, 1500};
    route.spec.packet_bytes = pick(rng, kPacketBytes);
    route.path = path_of(a, b);
    cfg.udp_flows.push_back(std::move(route));
  }

  // Optional fluid ensemble on one link (fluid routes are single-hop).
  if (chance(rng, 0.3)) {
    const int a = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(hops)));
    topology::FluidRoute route;
    route.spec.cc = draw_cc(rng);
    static constexpr double kCounts[] = {1, 10, 100, 1000};
    route.spec.count = pick(rng, kCounts);
    route.spec.base_rtt = from_millis(rng.uniform(2.0, 100.0));
    route.path = path_of(a, a + 1);
    cfg.fluid_flows.push_back(std::move(route));
    static constexpr double kFluidDtMs[] = {0.5, 1.0, 2.0};
    cfg.fluid_dt = from_millis(pick(rng, kFluidDtMs));
  }

  if (std::string error = cfg.validate(); !error.empty()) {
    throw std::logic_error(
        "ScenarioFuzzer produced an invalid topology (case " +
        std::to_string(index) + "): " + error);
  }
  return cfg;
}

std::string ScenarioFuzzer::describe(const scenario::DumbbellConfig& config) {
  int tcp = 0;
  for (const auto& f : config.tcp_flows) tcp += f.count;
  int udp = 0;
  for (const auto& f : config.udp_flows) udp += f.count;
  double fluid = 0;
  for (const auto& f : config.fluid_flows) fluid += f.count;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "aqm=%s link=%.3gMbps buf=%lld dur=%.2fs tcp=%d udp=%d "
                "fluid=%g rate_changes=%zu faults=%zu seed=%llu",
                std::string(scenario::to_string(config.aqm.type)).c_str(),
                config.link_rate_bps / 1e6,
                static_cast<long long>(config.buffer_packets),
                to_seconds(config.duration), tcp, udp, fluid,
                config.rate_changes.size(),
                config.faults.events.size(),
                static_cast<unsigned long long>(config.seed));
  return buf;
}

std::string ScenarioFuzzer::describe(const topology::TopologyConfig& config) {
  std::string links;
  for (const auto& link : config.links) {
    char part[64];
    std::snprintf(part, sizeof part, "%s%s@%.3gMbps", links.empty() ? "" : ",",
                  std::string(scenario::to_string(link.aqm.type)).c_str(),
                  link.rate_bps / 1e6);
    links += part;
  }
  int tcp = 0;
  for (const auto& r : config.tcp_flows) tcp += r.spec.count;
  int udp = 0;
  for (const auto& r : config.udp_flows) udp += r.spec.count;
  double fluid = 0;
  for (const auto& r : config.fluid_flows) fluid += r.spec.count;
  std::size_t fault_events = 0;
  for (const auto& link : config.links) fault_events += link.faults.events.size();
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "links=%zu [%s] dur=%.2fs tcp=%d udp=%d fluid=%g faults=%zu "
                "seed=%llu",
                config.links.size(), links.c_str(),
                to_seconds(config.duration), tcp, udp, fluid, fault_events,
                static_cast<unsigned long long>(config.seed));
  return buf;
}

std::string ScenarioFuzzer::repro_command(std::uint64_t index) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "check_fuzz --seed %llu --case %llu",
                static_cast<unsigned long long>(options_.base_seed),
                static_cast<unsigned long long>(index));
  return buf;
}

std::string ScenarioFuzzer::topology_repro_command(std::uint64_t index) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "check_fuzz --seed %llu --topo-case %llu",
                static_cast<unsigned long long>(options_.base_seed),
                static_cast<unsigned long long>(index));
  return buf;
}

}  // namespace pi2::check
