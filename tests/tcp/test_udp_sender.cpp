#include "tcp/udp_sender.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace pi2::tcp {
namespace {

using pi2::sim::from_seconds;
using pi2::sim::Simulator;

TEST(UdpSender, SendsAtConfiguredRate) {
  Simulator sim;
  UdpSender::Config config;
  config.rate_bps = 6e6;
  config.packet_bytes = 1500;
  UdpSender udp{sim, config};
  std::int64_t bytes = 0;
  net::CallbackSink out_sink{[&](net::Packet p) { bytes += p.size; }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(10.0));
  // 6 Mb/s for 10 s = 7.5 MB.
  EXPECT_NEAR(static_cast<double>(bytes) * 8.0 / 10.0, 6e6, 6e6 * 0.01);
}

TEST(UdpSender, EvenlySpacedPackets) {
  Simulator sim;
  UdpSender::Config config;
  config.rate_bps = 1.2e6;  // 1500 B -> 10 ms spacing
  UdpSender udp{sim, config};
  std::vector<pi2::sim::Time> times;
  net::CallbackSink out_sink{[&](net::Packet) { times.push_back(sim.now()); }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(0.1));
  ASSERT_GE(times.size(), 3u);
  const auto gap = times[1] - times[0];
  EXPECT_EQ(gap, times[2] - times[1]);
  EXPECT_NEAR(pi2::sim::to_millis(gap), 10.0, 0.01);
}

TEST(UdpSender, StopHaltsAndStartResumesIdempotently) {
  Simulator sim;
  UdpSender udp{sim, UdpSender::Config{}};
  int sent = 0;
  net::CallbackSink out_sink{[&](net::Packet) { ++sent; }};
  udp.set_output(out_sink);
  udp.start();
  udp.start();  // idempotent: no double timers
  sim.run_until(from_seconds(0.01));
  const int after_10ms = sent;
  udp.stop();
  sim.run_until(from_seconds(1.0));
  EXPECT_EQ(sent, after_10ms);
}

TEST(UdpSender, PacketsCarryConfiguredEcnAndFlow) {
  Simulator sim;
  UdpSender::Config config;
  config.flow = 7;
  config.ecn = net::Ecn::kEct1;
  UdpSender udp{sim, config};
  net::Packet seen;
  net::CallbackSink out_sink{[&](net::Packet p) { seen = p; }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(0.001));
  EXPECT_EQ(seen.flow, 7);
  EXPECT_EQ(seen.ecn, net::Ecn::kEct1);
}

TEST(UdpSender, OddRatePacingIntervalIsExactBitMath) {
  Simulator sim;
  UdpSender::Config config;
  config.rate_bps = 1e6;
  config.packet_bytes = 576;  // 576 B at 1 Mb/s -> 4.608 ms spacing
  UdpSender udp{sim, config};
  std::vector<pi2::sim::Time> times;
  net::CallbackSink out_sink{[&](net::Packet) { times.push_back(sim.now()); }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(0.05));
  ASSERT_GE(times.size(), 4u);
  for (std::size_t i = 2; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], times[1] - times[0]);
  }
  EXPECT_NEAR(pi2::sim::to_millis(times[1] - times[0]), 4.608, 1e-6);
}

TEST(UdpSender, PacketBytesSetsSizeAndPreservesBitRate) {
  Simulator sim;
  UdpSender::Config config;
  config.rate_bps = 2e6;
  config.packet_bytes = 200;  // small datagrams: more packets, same bit-rate
  UdpSender udp{sim, config};
  std::int64_t bytes = 0;
  std::int64_t packets = 0;
  net::CallbackSink out_sink{[&](net::Packet p) {
    EXPECT_EQ(p.size, 200);
    bytes += p.size;
    ++packets;
  }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(5.0));
  EXPECT_NEAR(static_cast<double>(bytes) * 8.0 / 5.0, 2e6, 2e6 * 0.01);
  // 2 Mb/s / (200 B * 8) = 1250 packets/s.
  EXPECT_NEAR(static_cast<double>(packets) / 5.0, 1250.0, 15.0);
}

TEST(UdpSender, RestartAfterStopResumesWithContinuedSequence) {
  Simulator sim;
  UdpSender::Config config;
  config.rate_bps = 1.2e6;  // 10 ms spacing
  UdpSender udp{sim, config};
  std::vector<std::int64_t> seqs;
  net::CallbackSink out_sink{[&](net::Packet p) { seqs.push_back(p.seq); }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(0.05));
  udp.stop();
  const auto paused_at = seqs.size();
  sim.run_until(from_seconds(0.5));
  EXPECT_EQ(seqs.size(), paused_at);
  udp.start();
  sim.run_until(from_seconds(0.6));
  ASSERT_GT(seqs.size(), paused_at);
  // The sequence stream continues where it left off, no reset and no gap.
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
}

TEST(UdpSender, SpacingAccumulatesNoDrift) {
  Simulator sim;
  UdpSender::Config config;
  config.rate_bps = 1.2e6;  // exactly 10 ms per 1500 B packet
  UdpSender udp{sim, config};
  std::int64_t packets = 0;
  net::CallbackSink out_sink{[&](net::Packet) { ++packets; }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(10.0));
  // Ticks at 0, 10 ms, ..., < 10 s: exactly 1000 sends if the schedule does
  // not drift (a cumulative rounding error of one interval would show here).
  EXPECT_NEAR(static_cast<double>(packets), 1000.0, 1.0);
}

TEST(UdpSender, SequenceNumbersIncrease) {
  Simulator sim;
  UdpSender udp{sim, UdpSender::Config{}};
  std::vector<std::int64_t> seqs;
  net::CallbackSink out_sink{[&](net::Packet p) { seqs.push_back(p.seq); }};
  udp.set_output(out_sink);
  udp.start();
  sim.run_until(from_seconds(0.02));
  ASSERT_GE(seqs.size(), 2u);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
}

}  // namespace
}  // namespace pi2::tcp
