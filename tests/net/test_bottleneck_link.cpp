#include "net/bottleneck_link.hpp"
#include "net/delay_pipe.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace pi2::net {
namespace {

using pi2::sim::from_seconds;
using pi2::sim::Simulator;
using pi2::sim::Time;

Packet packet_of(std::int32_t flow, std::int32_t size = kDefaultMss) {
  Packet p;
  p.flow = flow;
  p.size = size;
  return p;
}

BottleneckLink::Config config_with(double rate_bps, std::int64_t buffer = 100) {
  BottleneckLink::Config c;
  c.rate_bps = rate_bps;
  c.buffer_packets = buffer;
  return c;
}

TEST(BottleneckLink, DeliversAtSerializationRate) {
  Simulator sim;
  // 12 kbit packet at 12 kb/s -> exactly 1 s per packet.
  BottleneckLink link{sim, config_with(12000.0), std::make_unique<FifoTailDrop>()};
  std::vector<Time> deliveries;
  CallbackSink rx_sink{[&](Packet) { deliveries.push_back(sim.now()); }};
  link.set_sink(rx_sink);
  link.send(packet_of(0, 1500));
  link.send(packet_of(0, 1500));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_seconds(1.0));
  EXPECT_EQ(deliveries[1], from_seconds(2.0));
}

TEST(BottleneckLink, PreservesFifoOrder) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1e6), std::make_unique<FifoTailDrop>()};
  std::vector<std::int64_t> seqs;
  CallbackSink rx_sink{[&](Packet p) { seqs.push_back(p.seq); }};
  link.set_sink(rx_sink);
  for (int i = 0; i < 10; ++i) {
    Packet p = packet_of(0);
    p.seq = i;
    link.send(p);
  }
  sim.run();
  ASSERT_EQ(seqs.size(), 10u);
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
}

TEST(BottleneckLink, TailDropsWhenBufferFull) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1e6, 5), std::make_unique<FifoTailDrop>()};
  int delivered = 0;
  CallbackSink rx_sink{[&](Packet) { ++delivered; }};
  link.set_sink(rx_sink);
  for (int i = 0; i < 10; ++i) link.send(packet_of(0));
  sim.run();
  // One in transmission + 5 buffered; the rest tail-dropped.
  EXPECT_EQ(delivered, 6);
  EXPECT_EQ(link.counters().tail_dropped, 4);
}

TEST(BottleneckLink, QueueDelayTracksBacklog) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1.2e6), std::make_unique<FifoTailDrop>()};
  for (int i = 0; i < 11; ++i) link.send(packet_of(0, 1500));
  // Head packet is in transmission (not counted); 10 * 1500 B * 8 / 1.2 Mb/s
  // = 100 ms of backlog.
  EXPECT_EQ(link.backlog_packets(), 10);
  EXPECT_NEAR(pi2::sim::to_millis(link.queue_delay()), 100.0, 0.5);
}

TEST(BottleneckLink, RateChangeAppliesToNextTransmission) {
  Simulator sim;
  BottleneckLink link{sim, config_with(12000.0), std::make_unique<FifoTailDrop>()};
  std::vector<Time> deliveries;
  CallbackSink rx_sink{[&](Packet) { deliveries.push_back(sim.now()); }};
  link.set_sink(rx_sink);
  link.send(packet_of(0, 1500));  // 1 s at 12 kb/s
  link.send(packet_of(0, 1500));
  sim.at(from_seconds(0.5), [&] { link.set_rate_bps(24000.0); });
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_seconds(1.0));   // unchanged mid-flight
  EXPECT_EQ(deliveries[1], from_seconds(1.5));   // second at doubled rate
}

TEST(BottleneckLink, BusyProbeCoversTransmissions) {
  Simulator sim;
  BottleneckLink link{sim, config_with(12000.0), std::make_unique<FifoTailDrop>()};
  // Each departure ends the busy interval that began at tx_started().
  double busy_s = 0.0;
  CallbackSink rx_sink{[&](const Packet&) {
    busy_s += pi2::sim::to_seconds(sim.now() - link.tx_started());
  }};
  link.set_sink(rx_sink);
  link.send(packet_of(0, 1500));
  link.send(packet_of(0, 1500));
  sim.run();
  EXPECT_NEAR(busy_s, 2.0, 1e-9);
}

TEST(BottleneckLink, DeparatureProbeReportsSojourn) {
  Simulator sim;
  BottleneckLink link{sim, config_with(12000.0), std::make_unique<FifoTailDrop>()};
  std::vector<double> sojourns;
  link.add_departure_probe([&](const Packet&, pi2::sim::Duration d) {
    sojourns.push_back(pi2::sim::to_seconds(d));
  });
  link.send(packet_of(0, 1500));
  link.send(packet_of(0, 1500));
  sim.run();
  ASSERT_EQ(sojourns.size(), 2u);
  EXPECT_NEAR(sojourns[0], 1.0, 1e-9);  // serialization only
  EXPECT_NEAR(sojourns[1], 2.0, 1e-9);  // 1 s wait + 1 s serialization
}

// Disciplines used to exercise the verdict plumbing.
class AlwaysDrop final : public QueueDiscipline {
 public:
  Verdict enqueue(const Packet&) override { return Verdict::kDrop; }
};

class AlwaysMark final : public QueueDiscipline {
 public:
  Verdict enqueue(const Packet&) override { return Verdict::kMark; }
};

class DropOddAtDequeue final : public QueueDiscipline {
 public:
  Verdict enqueue(const Packet&) override { return Verdict::kAccept; }
  Verdict dequeue(const Packet& p) override {
    return (p.seq % 2 == 1) ? Verdict::kDrop : Verdict::kAccept;
  }
};

TEST(BottleneckLink, AqmDropVerdictDiscards) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1e6), std::make_unique<AlwaysDrop>()};
  int delivered = 0;
  CallbackSink rx_sink{[&](Packet) { ++delivered; }};
  link.set_sink(rx_sink);
  link.send(packet_of(0));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.counters().aqm_dropped, 1);
}

TEST(BottleneckLink, AqmMarkVerdictSetsCe) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1e6), std::make_unique<AlwaysMark>()};
  Ecn seen = Ecn::kNotEct;
  CallbackSink rx_sink{[&](Packet p) { seen = p.ecn; }};
  link.set_sink(rx_sink);
  Packet p = packet_of(0);
  p.ecn = Ecn::kEct0;
  link.send(p);
  sim.run();
  EXPECT_EQ(seen, Ecn::kCe);
  EXPECT_EQ(link.counters().marked, 1);
}

TEST(BottleneckLink, DequeueDropSkipsToNextPacket) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1e6), std::make_unique<DropOddAtDequeue>()};
  std::vector<std::int64_t> seqs;
  CallbackSink rx_sink{[&](Packet p) { seqs.push_back(p.seq); }};
  link.set_sink(rx_sink);
  for (int i = 0; i < 6; ++i) {
    Packet p = packet_of(0);
    p.seq = i;
    link.send(p);
  }
  sim.run();
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{0, 2, 4}));
  EXPECT_EQ(link.counters().aqm_dropped, 3);
}

TEST(BottleneckLink, DropProbeDistinguishesReasons) {
  Simulator sim;
  BottleneckLink link{sim, config_with(1e6, 1), std::make_unique<FifoTailDrop>()};
  int tail = 0;
  link.add_drop_probe([&](const Packet&, DropReason r) {
    if (r == DropReason::kTailDrop) ++tail;
  });
  for (int i = 0; i < 5; ++i) link.send(packet_of(0));
  sim.run();
  EXPECT_EQ(tail, 3);
}

TEST(DelayPipe, DelaysDeliveryByExactAmount) {
  Simulator sim;
  DelayPipe pipe{sim, from_seconds(0.05)};
  Time delivered{};
  CallbackSink rx_sink{[&](Packet) { delivered = sim.now(); }};
  pipe.set_sink(rx_sink);
  sim.at(from_seconds(1.0), [&] { pipe.send(Packet{}); });
  sim.run();
  EXPECT_EQ(delivered, from_seconds(1.05));
}

TEST(DelayPipe, PreservesOrderForEqualDelays) {
  Simulator sim;
  DelayPipe pipe{sim, from_seconds(0.01)};
  std::vector<std::int64_t> seqs;
  CallbackSink rx_sink{[&](Packet p) { seqs.push_back(p.seq); }};
  pipe.set_sink(rx_sink);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.seq = i;
    pipe.send(p);
  }
  sim.run();
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace pi2::net
