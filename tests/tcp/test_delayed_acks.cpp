#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "tcp/endpoint.hpp"

namespace pi2::tcp {
namespace {

using pi2::net::Ecn;
using pi2::net::Packet;
using pi2::sim::from_millis;
using pi2::sim::Simulator;

Packet data(std::int64_t seq, Ecn ecn = Ecn::kNotEct) {
  Packet p;
  p.flow = 0;
  p.seq = seq;
  p.ecn = ecn;
  return p;
}

TEST(DelayedAcks, AcksEverySecondSegment) {
  Simulator sim{1};
  TcpReceiver::Options options;
  options.delayed_acks = true;
  TcpReceiver receiver{sim, 0, options};
  int acks = 0;
  net::CallbackSink ack_sink{[&](Packet) { ++acks; }};
  receiver.set_ack_path(ack_sink);
  for (int i = 0; i < 10; ++i) receiver.on_data(data(i));
  EXPECT_EQ(acks, 5);
}

TEST(DelayedAcks, TimerFlushesOddSegment) {
  Simulator sim{1};
  TcpReceiver::Options options;
  options.delayed_acks = true;
  TcpReceiver receiver{sim, 0, options};
  std::int64_t last_ack = -1;
  net::CallbackSink ack_sink{[&](Packet a) { last_ack = a.ack_seq; }};
  receiver.set_ack_path(ack_sink);
  receiver.on_data(data(0));  // held back
  EXPECT_EQ(last_ack, -1);
  sim.run_until(from_millis(50));  // past the 40 ms delack timeout
  EXPECT_EQ(last_ack, 1);
}

TEST(DelayedAcks, OutOfOrderAckedImmediately) {
  Simulator sim{1};
  TcpReceiver::Options options;
  options.delayed_acks = true;
  TcpReceiver receiver{sim, 0, options};
  int acks = 0;
  net::CallbackSink ack_sink{[&](Packet) { ++acks; }};
  receiver.set_ack_path(ack_sink);
  receiver.on_data(data(1));  // gap -> immediate dup ACK
  EXPECT_EQ(acks, 1);
  receiver.on_data(data(2));  // still a gap
  EXPECT_EQ(acks, 2);
}

TEST(DelayedAcks, CeMarkedAckedImmediately) {
  // DCTCP's accurate feedback cannot be delayed: the CE state of each
  // packet must be echoed before it is aggregated away.
  Simulator sim{1};
  TcpReceiver::Options options;
  options.delayed_acks = true;
  TcpReceiver receiver{sim, 0, options};
  int acks = 0;
  bool last_echo = false;
  net::CallbackSink ack_sink{[&](Packet a) {
    ++acks;
    last_echo = a.ce_echo;
  }};
  receiver.set_ack_path(ack_sink);
  receiver.on_data(data(0, Ecn::kCe));
  EXPECT_EQ(acks, 1);
  EXPECT_TRUE(last_echo);
}

TEST(DelayedAcks, DisabledMeansAckPerSegment) {
  Simulator sim{1};
  TcpReceiver receiver{sim, 0};
  int acks = 0;
  net::CallbackSink ack_sink{[&](Packet) { ++acks; }};
  receiver.set_ack_path(ack_sink);
  for (int i = 0; i < 7; ++i) receiver.on_data(data(i));
  EXPECT_EQ(acks, 7);
}

TEST(DelayedAcks, EndToEndTransferStillCompletes) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  config.total_segments = 200;
  TcpSender sender{sim, config, make_reno()};
  TcpReceiver::Options options;
  options.delayed_acks = true;
  TcpReceiver receiver{sim, 0, options};
  bool completed = false;
  sender.set_completion_callback([&] { completed = true; });
  net::CallbackSink out_sink{[&](Packet p) {
    sim.after(from_millis(10), [&receiver, p] { receiver.on_data(p); });
  }};
  sender.set_output(out_sink);
  net::CallbackSink ack_sink{[&](Packet a) {
    sim.after(from_millis(10), [&sender, a] { sender.on_ack(a); });
  }};
  receiver.set_ack_path(ack_sink);
  sender.start();
  sim.run_until(from_millis(60000));
  EXPECT_TRUE(completed);
  EXPECT_EQ(receiver.rcv_nxt(), 200);
}

TEST(DelayedAcks, HalvesAckTrafficWithoutSlowingGrowth) {
  // The congestion controls use appropriate byte counting (growth driven by
  // segments ACKed, not ACK arrivals), so delayed ACKs halve the reverse-
  // path packet count while leaving the window trajectory intact.
  auto run = [](bool delack) {
    Simulator sim{1};
    TcpSender::Config config;
    config.flow = 0;
    config.max_cwnd = 500;
    TcpSender sender{sim, config, make_reno()};
    TcpReceiver::Options options;
    options.delayed_acks = delack;
    TcpReceiver receiver{sim, 0, options};
    std::int64_t acks = 0;
    net::CallbackSink out_sink{[&sim, &receiver](Packet p) {
      sim.after(from_millis(10), [&receiver, p] { receiver.on_data(p); });
    }};
    sender.set_output(out_sink);
    net::CallbackSink ack_sink{[&sim, &sender, &acks](Packet a) {
      ++acks;
      sim.after(from_millis(10), [&sender, a] { sender.on_ack(a); });
    }};
    receiver.set_ack_path(ack_sink);
    sender.start();
    sim.run_until(from_millis(400));
    return std::pair{acks, sender.cc().cwnd()};
  };
  const auto [acks_delack, cwnd_delack] = run(true);
  const auto [acks_per_pkt, cwnd_per_pkt] = run(false);
  EXPECT_LT(acks_delack, acks_per_pkt * 6 / 10);  // ~half the ACKs
  EXPECT_NEAR(cwnd_delack, cwnd_per_pkt, cwnd_per_pkt * 0.2);
}

}  // namespace
}  // namespace pi2::tcp
