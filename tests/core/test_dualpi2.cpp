// DualPI2 on its production path: a BottleneckLink whose two FIFO bands are
// scheduled and signalled by a DualPi2Qdisc. Departures are told apart by
// flow id (L traffic rides kLFlow, C traffic kCFlow); per-queue state comes
// from the link's band counters and QueueView band accessors.
#include "core/dualpi2.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/bottleneck_link.hpp"
#include "sim/simulator.hpp"

namespace pi2::core {
namespace {

using pi2::net::BottleneckLink;
using pi2::net::Ecn;
using pi2::net::Packet;
using pi2::sim::Duration;
using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::Simulator;

constexpr std::int32_t kLFlow = 1;
constexpr std::int32_t kCFlow = 2;

Packet packet_with(Ecn ecn) {
  Packet p;
  p.flow = net::is_scalable(ecn) ? kLFlow : kCFlow;
  p.ecn = ecn;
  return p;
}

BottleneckLink::Config link_config(double rate_bps,
                                   std::int64_t buffer_packets = 40000) {
  BottleneckLink::Config config;
  config.rate_bps = rate_bps;
  config.buffer_packets = buffer_packets;
  return config;
}

/// Queue delay a band's backlog represents at the full link rate.
Duration band_delay(const BottleneckLink& link, std::size_t band) {
  return from_seconds(static_cast<double>(link.band_backlog_bytes(band)) * 8.0 /
                      link.link_rate_bps());
}

TEST(DualPi2, ClassifiesByEcnCodepoint) {
  Simulator sim{1};
  BottleneckLink link{sim, link_config(40e6), std::make_unique<DualPi2Qdisc>()};
  link.send(packet_with(Ecn::kEct1));
  link.send(packet_with(Ecn::kNotEct));
  link.send(packet_with(Ecn::kEct0));
  link.send(packet_with(Ecn::kCe));
  // ECT(1) + CE
  EXPECT_EQ(link.band_counters(DualPi2Qdisc::kLBand).enqueued, 2);
  // Not-ECT + ECT(0)
  EXPECT_EQ(link.band_counters(DualPi2Qdisc::kCBand).enqueued, 2);
}

TEST(DualPi2, DeliversBothClasses) {
  Simulator sim{1};
  BottleneckLink link{sim, link_config(40e6), std::make_unique<DualPi2Qdisc>()};
  int l = 0;
  int c = 0;
  link.add_departure_probe([&](const Packet& p, Duration) {
    (p.flow == kLFlow ? l : c) += 1;
  });
  for (int i = 0; i < 10; ++i) {
    link.send(packet_with(Ecn::kEct1));
    link.send(packet_with(Ecn::kNotEct));
  }
  sim.run_until(from_seconds(5));
  EXPECT_EQ(l, 10);
  EXPECT_EQ(c, 10);
  EXPECT_EQ(link.band_counters(DualPi2Qdisc::kLBand).forwarded, 10);
  EXPECT_EQ(link.band_counters(DualPi2Qdisc::kCBand).forwarded, 10);
}

TEST(DualPi2, LQueueGetsPriorityUnderTimeShift) {
  Simulator sim{1};
  // 10 ms per packet.
  BottleneckLink link{sim, link_config(1.2e6), std::make_unique<DualPi2Qdisc>()};
  std::vector<bool> order;
  link.add_departure_probe([&](const Packet& p, Duration) {
    order.push_back(p.flow == kLFlow);
  });
  // Fill C first, then L: with the 30 ms time shift, L packets jump ahead of
  // the queued C packets.
  for (int i = 0; i < 5; ++i) link.send(packet_with(Ecn::kNotEct));
  for (int i = 0; i < 5; ++i) link.send(packet_with(Ecn::kEct1));
  sim.run_until(from_seconds(5));
  ASSERT_EQ(order.size(), 10u);
  // First departure is C (transmission already started), then L drains.
  EXPECT_FALSE(order[0]);
  for (std::size_t i = 1; i <= 5; ++i) EXPECT_TRUE(order[i]) << i;
}

TEST(DualPi2, NativeRampMarksLongSojourns) {
  Simulator sim{1};
  // 10 ms per packet: sojourn quickly exceeds 2 ms.
  BottleneckLink link{sim, link_config(1.2e6), std::make_unique<DualPi2Qdisc>()};
  int marked = 0;
  link.add_departure_probe([&](const Packet& p, Duration) {
    if (p.flow == kLFlow && p.ecn == Ecn::kCe) ++marked;
  });
  for (int i = 0; i < 20; ++i) link.send(packet_with(Ecn::kEct1));
  sim.run_until(from_seconds(5));
  // Every packet past the first few has sojourn > l_min_th + l_range.
  EXPECT_GT(marked, 10);
  EXPECT_EQ(link.band_counters(DualPi2Qdisc::kLBand).marked, marked);
}

TEST(DualPi2, NoMarksWhenIdleAndShallow) {
  Simulator sim{1};
  // 0.12 ms per packet: far below the ramp.
  BottleneckLink link{sim, link_config(100e6), std::make_unique<DualPi2Qdisc>()};
  int marked = 0;
  link.add_departure_probe([&](const Packet& p, Duration) {
    if (p.flow == kLFlow && p.ecn == Ecn::kCe) ++marked;
  });
  for (int i = 0; i < 10; ++i) {
    link.send(packet_with(Ecn::kEct1));
    sim.run_until(sim.now() + from_millis(10));  // drain: zero queue
  }
  EXPECT_EQ(marked, 0);
}

TEST(DualPi2, SharedBufferTailDrops) {
  Simulator sim{1};
  BottleneckLink link{sim, link_config(1e6, 5), std::make_unique<DualPi2Qdisc>()};
  for (int i = 0; i < 20; ++i) link.send(packet_with(Ecn::kEct1));
  EXPECT_GT(link.counters().tail_dropped, 0);
  // The shared-buffer drops are attributed to the band the packets joined.
  EXPECT_EQ(link.band_counters(DualPi2Qdisc::kLBand).tail_dropped,
            link.counters().tail_dropped);
}

TEST(DualPi2, QueueDelaysAreTrackedSeparately) {
  Simulator sim{1};
  BottleneckLink link{sim, link_config(1.2e6), std::make_unique<DualPi2Qdisc>()};
  for (int i = 0; i < 10; ++i) link.send(packet_with(Ecn::kNotEct));
  EXPECT_GT(band_delay(link, DualPi2Qdisc::kCBand), from_millis(50));
  EXPECT_EQ(band_delay(link, DualPi2Qdisc::kLBand), from_millis(0));
  // The head-sojourn view the scheduler compares ages with the C backlog
  // while the empty L band stays at zero.
  sim.run_until(from_millis(50));
  EXPECT_GE(link.band_head_sojourn(DualPi2Qdisc::kCBand), from_millis(50));
  EXPECT_EQ(link.band_head_sojourn(DualPi2Qdisc::kLBand), from_millis(0));
}

TEST(DualPi2, CoupledProbabilityReachesLQueue) {
  // Sustain a deep C queue so the PI controller raises p'; L packets must
  // then see coupled marking k*p' even with tiny L sojourn.
  Simulator sim{1};
  BottleneckLink link{sim, link_config(2e6), std::make_unique<DualPi2Qdisc>()};
  const auto& qdisc = static_cast<const DualPi2Qdisc&>(link.qdisc());
  int l_marked = 0;
  int l_total = 0;
  link.add_departure_probe([&](const Packet& p, Duration) {
    if (p.flow == kLFlow) {
      ++l_total;
      if (p.ecn == Ecn::kCe) ++l_marked;
    }
  });
  // Keep the C queue loaded for 10 s while trickling L packets.
  std::function<void()> feed = [&] {
    for (int i = 0; i < 20; ++i) link.send(packet_with(Ecn::kNotEct));
    link.send(packet_with(Ecn::kEct1));
    if (sim.now() < from_seconds(10)) sim.after(from_millis(100), feed);
  };
  sim.after(from_millis(0), feed);
  // Sample p' while the C queue is still loaded (it rightly collapses to
  // zero once the feed stops and the queue drains).
  sim.run_until(from_seconds(9));
  const double p_prime_loaded = qdisc.p_prime();
  sim.run_until(from_seconds(11));
  ASSERT_GT(l_total, 50);
  EXPECT_GT(p_prime_loaded, 0.0);
  EXPECT_GT(l_marked, 0);
}

}  // namespace
}  // namespace pi2::core
