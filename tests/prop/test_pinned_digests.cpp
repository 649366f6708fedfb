// Pinned result digests: byte identity of the packet path as a unit test.
//
// Each case runs one fixed config and compares check::result_digest() (or
// topology_result_digest() for a multi-link route) with a value recorded
// from an earlier build. A refactor of the per-packet path (packet layout,
// pipes, congestion-control arithmetic) that changes any observable result
// by a single bit fails here. A change meant to alter results re-pins the
// values and says why.
//
// The pins assume gcc 12 on x86-64 (libm, FP contraction and -O flags all
// reach the digest); another toolchain may legitimately differ.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>

#include "check/oracles.hpp"
#include "faults/faulted_config.hpp"
#include "scenario/dumbbell.hpp"
#include "topology/topology.hpp"

namespace pi2::check {
namespace {

using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using scenario::AqmType;
using scenario::DumbbellConfig;
using scenario::TcpFlowSpec;
using tcp::CcType;

void expect_pinned(const std::string& name, std::uint64_t actual,
                   std::uint64_t pinned) {
  EXPECT_EQ(actual, pinned) << name << ": digest 0x" << std::hex << actual
                            << ", pinned 0x" << pinned;
}

DumbbellConfig two_flows(AqmType aqm, CcType a, CcType b) {
  DumbbellConfig cfg;
  cfg.seed = 1;
  cfg.aqm.type = aqm;
  TcpFlowSpec first;
  first.cc = a;
  TcpFlowSpec second = first;
  second.cc = b;
  cfg.tcp_flows = {first, second};
  return cfg;
}

// The SchedulerCounts point: fig15 quick, coupled PI2, 40 Mb/s, 20 ms.
TEST(PinnedDigests, CoupledPi2CubicDctcp) {
  DumbbellConfig cfg = two_flows(AqmType::kCoupledPi2, CcType::kCubic, CcType::kDctcp);
  cfg.link_rate_bps = 40e6;
  cfg.duration = from_seconds(40.0);
  cfg.stats_start = from_seconds(15.0);
  cfg.aqm.ecn_drop_threshold = 1.0;
  for (TcpFlowSpec& flow : cfg.tcp_flows) flow.base_rtt = from_millis(20);
  expect_pinned("coupled_pi2_cubic_dctcp",
                result_digest(scenario::run_dumbbell(cfg)), 0xb46f7f9636829d43ull);
}

TEST(PinnedDigests, PieCubicEcnCubic) {
  DumbbellConfig cfg = two_flows(AqmType::kPie, CcType::kCubic, CcType::kEcnCubic);
  cfg.link_rate_bps = 4e6;
  cfg.duration = from_seconds(30.0);
  cfg.stats_start = from_seconds(10.0);
  cfg.aqm.ecn = true;
  for (TcpFlowSpec& flow : cfg.tcp_flows) flow.base_rtt = from_millis(5);
  expect_pinned("pie_cubic_ecn_cubic",
                result_digest(scenario::run_dumbbell(cfg)), 0x8505ace01ad82557ull);
}

TEST(PinnedDigests, DualPi2RenoScalable) {
  DumbbellConfig cfg = two_flows(AqmType::kDualPi2, CcType::kReno, CcType::kScalable);
  cfg.link_rate_bps = 20e6;
  cfg.duration = from_seconds(20.0);
  cfg.stats_start = from_seconds(5.0);
  for (TcpFlowSpec& flow : cfg.tcp_flows) flow.base_rtt = from_millis(10);
  expect_pinned("dualpi2_reno_scalable",
                result_digest(scenario::run_dumbbell(cfg)), 0xb77fa3a47fa80979ull);
}

// One fault of every kind: the reorder holds packets in the link's own
// delay pipe and the RTT step moves both flows to new half-RTT pipes.
TEST(PinnedDigests, FaultedCoupledPi2) {
  expect_pinned("faulted_coupled_pi2",
                result_digest(scenario::run_dumbbell(faults::faulted_config(7))),
                0x744cd0a192cafc40ull);
}

TEST(PinnedDigests, UdpOverTwoLinks) {
  topology::TopologyConfig cfg;
  cfg.nodes = {"a", "b", "c"};
  const auto add_link = [&cfg](std::size_t hop, double rate_bps) {
    topology::LinkSpec link;
    link.from = cfg.nodes[hop];
    link.to = cfg.nodes[hop + 1];
    link.rate_bps = rate_bps;
    link.delay = from_millis(3);
    link.aqm.type = AqmType::kPi2;
    cfg.links.push_back(link);
  };
  add_link(0, 10e6);
  add_link(1, 8e6);
  topology::UdpRoute udp;
  udp.spec.rate_bps = 9e6;
  udp.spec.base_rtt = from_millis(20);
  udp.path = cfg.nodes;
  cfg.udp_flows.push_back(udp);
  cfg.duration = from_seconds(10.0);
  cfg.stats_start = from_seconds(2.0);
  cfg.seed = 1;
  expect_pinned("udp_over_two_links",
                topology_result_digest(topology::run_topology(cfg)), 0x81f80571e3a8a65full);
}

}  // namespace
}  // namespace pi2::check
