// Edge cases of the sender state machine: RTO backoff, rewind/ACK races,
// completion under loss, idempotent lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "tcp/endpoint.hpp"
#include "tcp/reno.hpp"

namespace pi2::tcp {
namespace {

using pi2::net::Packet;
using pi2::sim::from_millis;
using pi2::sim::Simulator;

TEST(SenderEdges, RtoBacksOffExponentiallyInBlackhole) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  TcpSender sender{sim, config, make_reno()};
  std::vector<pi2::sim::Time> sends;
  net::CallbackSink out_sink{[&](Packet) { sends.push_back(sim.now()); }};
  sender.set_output(out_sink);
  sender.start();
  sim.run_until(from_millis(30000));
  // Initial window, then one retransmission per RTO; gaps must grow.
  ASSERT_GE(sender.timeouts(), 3);
  std::vector<double> gaps;
  for (std::size_t i = 11; i < sends.size(); ++i) {
    gaps.push_back(pi2::sim::to_seconds(sends[i] - sends[i - 1]));
  }
  ASSERT_GE(gaps.size(), 2u);
  for (std::size_t i = 1; i < gaps.size(); ++i) {
    EXPECT_GT(gaps[i], gaps[i - 1] * 1.5);
  }
}

TEST(SenderEdges, RtoBackoffTimesMatchLdexp) {
  // One segment in flight. Its ACK after an odd RTT seeds srtt/rttvar, then
  // every packet is lost: each retransmission goes out as its RTO fires, and
  // the firing times must equal the std::ldexp backoff bit for bit.
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  config.max_cwnd = 1.0;
  TcpSender sender{sim, config, make_reno()};
  std::vector<pi2::sim::Time> sends;
  net::CallbackSink out_sink{[&](Packet) { sends.push_back(sim.now()); }};
  sender.set_output(out_sink);
  const pi2::sim::Time acked_at = pi2::sim::from_seconds(0.0937123);
  sim.at(acked_at, [&sender] {
    Packet ack;
    ack.flow = 0;
    ack.is_ack = true;
    ack.ack_seq = 1;
    ack.sent_at = pi2::sim::Time{0};
    sender.on_ack(ack);
  });
  sender.start();
  sim.run_until(pi2::sim::from_seconds(120.0));
  // sends: seq 0 at t=0, seq 1 at the ACK, then one per timeout.
  ASSERT_GE(sends.size(), 10u);
  ASSERT_EQ(sends[1], acked_at);
  const double sample = pi2::sim::to_seconds(acked_at);
  const double base =
      std::max(sample + 4.0 * (sample / 2.0), pi2::sim::to_seconds(kMinRto));
  pi2::sim::Time expected = acked_at + pi2::sim::from_seconds(base);
  for (int k = 1; k <= 8; ++k) {
    EXPECT_EQ(sends[static_cast<std::size_t>(k) + 1], expected) << "timeout " << k;
    expected += pi2::sim::from_seconds(std::ldexp(base, std::min(k, 6)));
  }
  EXPECT_GE(sender.timeouts(), 8);
}

TEST(SenderEdges, BackoffResetsOnProgress) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  TcpSender sender{sim, config, make_reno()};
  bool blackhole = true;
  TcpReceiver receiver{0};
  net::CallbackSink ack_sink{[&](Packet a) {
    sim.after(from_millis(10), [&sender, a] { sender.on_ack(a); });
  }};
  receiver.set_ack_path(ack_sink);
  net::CallbackSink out_sink{[&](Packet p) {
    if (!blackhole) {
      sim.after(from_millis(10), [&receiver, p] { receiver.on_data(p); });
    }
  }};
  sender.set_output(out_sink);
  sender.start();
  sim.run_until(from_millis(5000));
  const auto timeouts_during_blackhole = sender.timeouts();
  ASSERT_GE(timeouts_during_blackhole, 2);
  blackhole = false;
  sim.run_until(from_millis(15000));
  // Once the path heals, the flow makes progress and stops timing out.
  EXPECT_GT(sender.snd_una(), 0);
  EXPECT_LE(sender.timeouts(), timeouts_during_blackhole + 2);
}

TEST(SenderEdges, AckBeyondRewoundSndNxtDoesNotResendOldData) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  TcpSender sender{sim, config, make_reno()};
  std::vector<std::int64_t> sent_seqs;
  net::CallbackSink out_sink{[&](Packet p) { sent_seqs.push_back(p.seq); }};
  sender.set_output(out_sink);
  sender.start();                      // sends 0..9
  sim.run_until(from_millis(1500));    // RTO fires, go-back-N to 0
  ASSERT_GE(sender.timeouts(), 1);
  // Now a cumulative ACK for everything up to 10 arrives (the originals
  // made it after all).
  Packet ack;
  ack.is_ack = true;
  ack.ack_seq = 10;
  ack.sent_at = sim.now() - from_millis(20);
  sent_seqs.clear();
  sender.on_ack(ack);
  // Whatever is sent next must be new data (seq >= 10), never a re-send of
  // ACKed segments.
  for (const auto seq : sent_seqs) EXPECT_GE(seq, 10);
  EXPECT_EQ(sender.snd_una(), 10);
  EXPECT_GE(sender.snd_nxt(), 10);
}

TEST(SenderEdges, StartIsIdempotent) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  TcpSender sender{sim, config, make_reno()};
  int sends = 0;
  net::CallbackSink out_sink{[&](Packet) { ++sends; }};
  sender.set_output(out_sink);
  sender.start();
  sender.start();
  sim.run_until(from_millis(1));
  EXPECT_EQ(sends, 10);  // one initial window, not two
}

TEST(SenderEdges, StopPreventsRtoFiring) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  TcpSender sender{sim, config, make_reno()};
  net::CallbackSink out_sink{[](Packet) {}};
  sender.set_output(out_sink);
  sender.start();
  sender.stop();
  sim.run_until(from_millis(10000));
  EXPECT_EQ(sender.timeouts(), 0);
}

TEST(SenderEdges, FiniteFlowCompletesDespiteLossOfLastSegment) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  config.total_segments = 20;
  TcpSender sender{sim, config, make_reno()};
  TcpReceiver receiver{0};
  bool completed = false;
  sender.set_completion_callback([&] { completed = true; });
  int drops_left = 1;
  net::CallbackSink out_sink{[&](Packet p) {
    if (p.seq == 19 && !p.retransmit && drops_left-- > 0) return;  // tail loss
    sim.after(from_millis(10), [&receiver, p] { receiver.on_data(p); });
  }};
  sender.set_output(out_sink);
  net::CallbackSink ack_sink{[&](Packet a) {
    sim.after(from_millis(10), [&sender, a] { sender.on_ack(a); });
  }};
  receiver.set_ack_path(ack_sink);
  sender.start();
  sim.run_until(from_millis(30000));
  // Tail loss cannot produce 3 dup ACKs; only the RTO can recover it.
  EXPECT_TRUE(completed);
  EXPECT_GE(sender.timeouts(), 1);
}

TEST(SenderEdges, AcksAfterCompletionAreIgnored) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  config.total_segments = 5;
  TcpSender sender{sim, config, make_reno()};
  TcpReceiver receiver{0};
  int completions = 0;
  sender.set_completion_callback([&] { ++completions; });
  net::CallbackSink out_sink{[&](Packet p) {
    sim.after(from_millis(10), [&receiver, p] { receiver.on_data(p); });
  }};
  sender.set_output(out_sink);
  net::CallbackSink ack_sink{[&](Packet a) {
    sim.after(from_millis(10), [&sender, a] { sender.on_ack(a); });
  }};
  receiver.set_ack_path(ack_sink);
  sender.start();
  sim.run_until(from_millis(5000));
  ASSERT_EQ(completions, 1);
  Packet stray;
  stray.is_ack = true;
  stray.ack_seq = 5;
  stray.sent_at = sim.now();
  sender.on_ack(stray);  // must not crash or re-complete
  EXPECT_EQ(completions, 1);
}

TEST(SenderEdges, RtoFiresAtLatestDeadline) {
  // Every new ACK re-arms the RTO. After the path goes dark the timeout
  // must fire exactly one RTO after the last re-arm, not after the first.
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  config.max_cwnd = 10;
  TcpSender sender{sim, config, make_reno()};
  TcpReceiver receiver{0};
  bool blackhole = false;
  pi2::sim::Time last_rearm{};
  net::CallbackSink out_sink{[&](Packet p) {
    if (blackhole) return;
    sim.after(from_millis(10), [&receiver, p] { receiver.on_data(p); });
  }};
  sender.set_output(out_sink);
  net::CallbackSink ack_sink{[&](Packet a) {
    sim.after(from_millis(10), [&, a] {
      if (blackhole) return;
      if (a.ack_seq > sender.snd_una()) last_rearm = sim.now();
      sender.on_ack(a);
    });
  }};
  receiver.set_ack_path(ack_sink);
  sender.start();
  sim.run_until(from_millis(2000));
  ASSERT_GT(sender.snd_una(), 100);
  ASSERT_EQ(sender.timeouts(), 0);
  blackhole = true;
  // A constant 20 ms RTT keeps srtt + 4 rttvar under the 200 ms floor, so
  // the RTO is exactly kMinRto.
  sim.run_until(last_rearm + kMinRto - pi2::sim::Duration{1});
  EXPECT_EQ(sender.timeouts(), 0);
  sim.run_until(last_rearm + kMinRto);
  EXPECT_EQ(sender.timeouts(), 1);
  EXPECT_GT(last_rearm, from_millis(1900));
}

}  // namespace
}  // namespace pi2::tcp
