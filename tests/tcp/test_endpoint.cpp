#include "tcp/endpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "sim/simulator.hpp"
#include "tcp/cubic.hpp"
#include "tcp/dctcp.hpp"
#include "tcp/reno.hpp"

namespace pi2::tcp {
namespace {

using pi2::net::Ecn;
using pi2::net::Packet;
using pi2::sim::from_millis;
using pi2::sim::Simulator;
using pi2::sim::Time;

/// Direct sender<->receiver harness over a fixed-delay channel with
/// test-controlled loss and marking.
class Harness {
 public:
  explicit Harness(std::unique_ptr<CongestionControl> cc,
                   std::int64_t total_segments = -1)
      : sim_(1), receiver_(0) {
    TcpSender::Config config;
    config.flow = 0;
    config.total_segments = total_segments;
    // The harness channel has no bandwidth limit; cap the window so slow
    // start cannot double itself into millions of in-flight segments.
    config.max_cwnd = 5000.0;
    sender_ = std::make_unique<TcpSender>(sim_, config, std::move(cc));
    sender_->set_output(output_);
    receiver_.set_ack_path(ack_path_);
  }

  Simulator& sim() { return sim_; }
  TcpSender& sender() { return *sender_; }
  TcpReceiver& receiver() { return receiver_; }

  void drop_first_transmission_of(std::int64_t seq) { drop_seqs_.insert(seq); }
  void mark_everything(bool on) { mark_all_ = on; }

  std::int64_t delivered() const {
    return receiver_.delivered_bytes() / net::kDefaultMss;
  }
  std::int64_t data_sent() const { return data_sent_; }
  const Packet& last_ack() const { return last_ack_; }

 private:
  Simulator sim_;
  std::unique_ptr<TcpSender> sender_;
  TcpReceiver receiver_;
  std::set<std::int64_t> drop_seqs_;
  bool mark_all_ = false;
  std::int64_t data_sent_ = 0;
  std::int64_t dropped_ = 0;
  Packet last_ack_;
  net::CallbackSink output_{[this](Packet p) {
    ++data_sent_;
    if (drop_seqs_.erase(p.seq) > 0 && p.retransmit == false) {
      ++dropped_;
      return;  // lost on the forward path
    }
    if (mark_all_ && p.ecn != Ecn::kNotEct) p.ecn = Ecn::kCe;
    sim_.after(from_millis(10), [this, p] { receiver_.on_data(p); });
  }};
  net::CallbackSink ack_path_{[this](const Packet& a) {
    last_ack_ = a;
    sim_.after(from_millis(10), [this, a] { sender_->on_ack(a); });
  }};
};

TEST(TcpEndpoint, TransfersFiniteFlowCompletely) {
  Harness h{make_reno(), 100};
  bool completed = false;
  h.sender().set_completion_callback([&] { completed = true; });
  h.sender().start();
  h.sim().run_until(from_millis(60000));
  EXPECT_TRUE(completed);
  EXPECT_EQ(h.delivered(), 100);
  EXPECT_EQ(h.receiver().rcv_nxt(), 100);
}

TEST(TcpEndpoint, InitialWindowIsSentImmediately) {
  Harness h{make_reno()};
  h.sender().start();
  // Before any ACK returns (RTT = 20 ms), exactly IW segments are out.
  h.sim().run_until(from_millis(5));
  EXPECT_EQ(h.data_sent(), static_cast<std::int64_t>(kInitialWindow));
}

TEST(TcpEndpoint, AckClockGrowsWindowInSlowStart) {
  Harness h{make_reno()};
  h.sender().start();
  h.sim().run_until(from_millis(100));  // ~5 RTTs
  EXPECT_GT(h.sender().cc().cwnd(), 100.0);
}

TEST(TcpEndpoint, SingleLossTriggersFastRetransmitNotTimeout) {
  Harness h{make_reno(), 2000};
  h.drop_first_transmission_of(50);
  h.sender().start();
  h.sim().run_until(from_millis(20000));
  EXPECT_EQ(h.receiver().rcv_nxt(), 2000);
  EXPECT_GE(h.sender().retransmits(), 1);
  EXPECT_EQ(h.sender().timeouts(), 0);
}

TEST(TcpEndpoint, MultipleLossesInWindowRecoverViaPartialAcks) {
  Harness h{make_reno(), 2000};
  h.drop_first_transmission_of(60);
  h.drop_first_transmission_of(61);
  h.drop_first_transmission_of(70);
  h.sender().start();
  h.sim().run_until(from_millis(30000));
  EXPECT_EQ(h.receiver().rcv_nxt(), 2000);
  EXPECT_GE(h.sender().retransmits(), 3);
}

TEST(TcpEndpoint, LossHalvesRenoWindow) {
  // Compare against a loss-free control at the same simulated time: the
  // slow-start race makes absolute before/after comparisons meaningless.
  Harness lossy{make_reno()};
  Harness control{make_reno()};
  lossy.drop_first_transmission_of(5000);
  lossy.sender().start();
  control.sender().start();
  lossy.sim().run_until(from_millis(400));
  control.sim().run_until(from_millis(400));
  EXPECT_LT(lossy.sender().cc().cwnd(), control.sender().cc().cwnd() * 0.75);
  EXPECT_FALSE(lossy.sender().cc().in_slow_start());
  EXPECT_TRUE(control.sender().cc().in_slow_start());
}

TEST(TcpEndpoint, RecoveryExitsWhenRecoverPointAcked) {
  Harness h{make_reno(), 3000};
  h.drop_first_transmission_of(100);
  h.sender().start();
  h.sim().run_until(from_millis(30000));
  EXPECT_FALSE(h.sender().in_recovery());
  EXPECT_EQ(h.receiver().rcv_nxt(), 3000);
}

TEST(TcpEndpoint, RttIsEstimatedFromEchoedTimestamps) {
  Harness h{make_reno()};
  h.sender().start();
  h.sim().run_until(from_millis(500));
  EXPECT_NEAR(h.sender().smoothed_rtt_s(), 0.020, 0.005);
}

TEST(TcpEndpoint, StopHaltsTransmission) {
  Harness h{make_reno()};
  h.sender().start();
  h.sim().run_until(from_millis(100));
  h.sender().stop();
  const auto sent = h.data_sent();
  h.sim().run_until(from_millis(2000));
  EXPECT_EQ(h.data_sent(), sent);
}

TEST(TcpEndpoint, ClassicEcnEchoReducesEcnCubicOncePerRtt) {
  Harness h{make_ecn_cubic()};
  h.sender().start();
  h.sim().run_until(from_millis(300));
  h.mark_everything(true);
  h.sim().run_until(from_millis(400));  // several RTTs of solid marking
  // One reduction per RTT (not per packet): over ~5 marked RTTs the window
  // shrinks by at most 0.7^5, while per-packet reactions would floor it.
  const double after = h.sender().cc().cwnd();
  EXPECT_FALSE(h.sender().cc().in_slow_start());
  EXPECT_GT(after, kMinWindow);
  h.sim().run_until(from_millis(1000));
  // Sustained marking keeps pulling it down towards the floor.
  EXPECT_LT(h.sender().cc().cwnd(), after);
}

TEST(TcpEndpoint, EceLatchesUntilCwr) {
  Harness h{make_ecn_cubic()};
  h.sender().start();
  h.sim().run_until(from_millis(200));
  h.mark_everything(true);
  h.sim().run_until(from_millis(240));
  EXPECT_TRUE(h.last_ack().ece);
  h.mark_everything(false);
  // The latch clears once the sender's CWR-flagged packet arrives.
  h.sim().run_until(from_millis(400));
  EXPECT_FALSE(h.last_ack().ece);
}

TEST(TcpEndpoint, DctcpSeesPerPacketCeEcho) {
  Harness h{make_dctcp()};
  h.sender().start();
  h.sim().run_until(from_millis(200));
  h.mark_everything(true);
  h.sim().run_until(from_millis(260));
  EXPECT_TRUE(h.last_ack().ce_echo);
  h.mark_everything(false);
  h.sim().run_until(from_millis(320));
  // Accurate feedback: echo drops immediately with the marking, no latch.
  EXPECT_FALSE(h.last_ack().ce_echo);
}

TEST(TcpEndpoint, DctcpPacketsCarryEct1) {
  Harness h{make_dctcp()};
  Ecn seen = Ecn::kNotEct;
  // Re-wire output to observe the codepoint.
  net::CallbackSink out_sink{[&](Packet p) { seen = p.ecn; }};
  h.sender().set_output(out_sink);
  h.sender().start();
  h.sim().run_until(from_millis(1));
  EXPECT_EQ(seen, Ecn::kEct1);
}

TEST(TcpEndpoint, ReorderingIsAbsorbedByReceiver) {
  TcpReceiver receiver{0};
  std::int64_t acked = -1;
  net::CallbackSink ack_sink{[&](Packet a) { acked = a.ack_seq; }};
  receiver.set_ack_path(ack_sink);
  Packet p;
  p.flow = 0;
  p.seq = 1;
  receiver.on_data(p);  // out of order
  EXPECT_EQ(acked, 0);
  p.seq = 0;
  receiver.on_data(p);  // fills the hole
  EXPECT_EQ(acked, 2);
}

TEST(TcpEndpoint, DuplicateDataIsAckedButNotRedelivered) {
  TcpReceiver receiver{0};
  std::int64_t acked = -1;
  net::CallbackSink ack_sink{[&](Packet a) { acked = a.ack_seq; }};
  receiver.set_ack_path(ack_sink);
  Packet p;
  p.flow = 0;
  p.seq = 0;
  receiver.on_data(p);
  receiver.on_data(p);  // duplicate
  EXPECT_EQ(receiver.delivered_bytes(), p.size);
  EXPECT_EQ(acked, 1);
}

/// The receiver as it was with a std::set out-of-order store, ACK logic
/// included, as an oracle for the contiguous store.
class SetReceiver {
 public:
  void on_data(const Packet& data) {
    const bool was_ce = data.ecn == Ecn::kCe;
    if (was_ce) ece_latched_ = true;
    if (data.cwr) ece_latched_ = false;
    const bool in_order = data.seq == rcv_nxt_;
    if (in_order) {
      ++rcv_nxt_;
      delivered_bytes += data.size;
      while (!out_of_order_.empty() && *out_of_order_.begin() == rcv_nxt_) {
        out_of_order_.erase(out_of_order_.begin());
        ++rcv_nxt_;
        delivered_bytes += data.size;
      }
    } else if (data.seq > rcv_nxt_) {
      out_of_order_.insert(data.seq);
    }
    Packet ack;
    ack.flow = data.flow;
    ack.is_ack = true;
    ack.size = net::kAckBytes;
    ack.ack_seq = rcv_nxt_;
    ack.ece = ece_latched_;
    ack.ce_echo = was_ce;
    ack.sent_at = data.sent_at;
    acks.push_back(ack);
  }

  std::vector<Packet> acks;
  std::int64_t delivered_bytes = 0;

 private:
  std::int64_t rcv_nxt_ = 0;
  std::set<std::int64_t> out_of_order_;
  bool ece_latched_ = false;
};

TEST(TcpEndpoint, OutOfOrderStoreMatchesSetReference) {
  // Random arrival orders: windows of segments shuffled, some lost and
  // retransmitted later, some duplicated or re-sent after delivery.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng{seed};
    std::vector<Packet> arrivals;
    std::vector<std::int64_t> lost;
    const std::int64_t total = 300;
    for (std::int64_t base = 0; base < total; base += 16) {
      std::vector<std::int64_t> window;
      for (std::int64_t seq = base; seq < std::min(base + 16, total); ++seq) {
        if (rng() % 8 == 0) {
          lost.push_back(seq);
        } else {
          window.push_back(seq);
        }
        if (rng() % 10 == 0) window.push_back(seq);  // duplicate
      }
      if (!lost.empty() && rng() % 3 == 0) {  // a retransmission lands
        window.push_back(lost.front());
        lost.erase(lost.begin());
      }
      if (rng() % 4 == 0 && base > 0) {
        window.push_back(static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(base)));
      }
      std::shuffle(window.begin(), window.end(), rng);
      for (const std::int64_t seq : window) {
        Packet p;
        p.flow = 0;
        p.seq = seq;
        p.ecn = rng() % 6 == 0 ? Ecn::kCe : Ecn::kEct0;
        p.cwr = rng() % 9 == 0;
        p.sent_at = Time{static_cast<std::int64_t>(arrivals.size())};
        arrivals.push_back(p);
      }
    }
    for (const std::int64_t seq : lost) {
      Packet p;
      p.flow = 0;
      p.seq = seq;
      p.retransmit = true;
      p.sent_at = Time{static_cast<std::int64_t>(arrivals.size())};
      arrivals.push_back(p);
    }
    TcpReceiver receiver{0};
    std::vector<Packet> acks;
    net::CallbackSink ack_sink{[&](const Packet& a) { acks.push_back(a); }};
    receiver.set_ack_path(ack_sink);
    SetReceiver reference;
    for (const Packet& p : arrivals) {
      receiver.on_data(p);
      reference.on_data(p);
    }
    ASSERT_EQ(acks.size(), reference.acks.size()) << "seed " << seed;
    for (std::size_t i = 0; i < acks.size(); ++i) {
      const Packet& a = acks[i];
      const Packet& b = reference.acks[i];
      ASSERT_TRUE(a.ack_seq == b.ack_seq && a.ece == b.ece &&
                  a.ce_echo == b.ce_echo && a.sent_at == b.sent_at)
          << "seed " << seed << " ack " << i;
    }
    EXPECT_EQ(receiver.rcv_nxt(), total) << "seed " << seed;
    EXPECT_EQ(receiver.delivered_bytes(), reference.delivered_bytes);
  }
}

TEST(TcpEndpoint, AcksEverySegment) {
  TcpReceiver receiver{0};
  int acks = 0;
  net::CallbackSink ack_sink{[&](Packet) { ++acks; }};
  receiver.set_ack_path(ack_sink);
  for (int i = 0; i < 7; ++i) {
    Packet p;
    p.flow = 0;
    p.seq = i;
    receiver.on_data(p);
  }
  EXPECT_EQ(acks, 7);
}

TEST(TcpEndpoint, RtoRecoversTotalLossOfWindow) {
  Harness h{make_reno(), 300};
  // Drop the entire initial window so no dup ACKs can arrive at all.
  for (std::int64_t s = 0; s < 10; ++s) h.drop_first_transmission_of(s);
  h.sender().start();
  h.sim().run_until(from_millis(60000));
  EXPECT_EQ(h.receiver().rcv_nxt(), 300);
  EXPECT_GE(h.sender().timeouts(), 1);
}

TEST(TcpEndpoint, CompletionFiresExactlyOnce) {
  Harness h{make_reno(), 50};
  int completions = 0;
  h.sender().set_completion_callback([&] { ++completions; });
  h.sender().start();
  h.sim().run_until(from_millis(20000));
  EXPECT_EQ(completions, 1);
}

TEST(TcpEndpoint, MaxCwndCapsInflight) {
  Simulator sim{1};
  TcpSender::Config config;
  config.flow = 0;
  config.max_cwnd = 4.0;
  TcpSender sender{sim, config, make_reno()};
  std::int64_t sent = 0;
  net::CallbackSink out_sink{[&](Packet) { ++sent; }};
  sender.set_output(out_sink);
  sender.start();
  sim.run_until(from_millis(50));
  EXPECT_EQ(sent, 4);
}

}  // namespace
}  // namespace pi2::tcp
