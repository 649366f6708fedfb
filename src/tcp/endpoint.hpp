// TCP sender and receiver endpoints.
//
// A deliberately compact but faithful transport model: ACK-clocked window
// transmission, slow start / congestion avoidance via the plugged-in
// CongestionControl, NewReno fast retransmit & recovery on three duplicate
// ACKs, go-back-N retransmission timeouts with exponential backoff, Classic
// ECN echo with CWR latching (RFC 3168), and DCTCP's accurate per-packet CE
// feedback. SACK is intentionally absent — the evaluated steady-state
// behaviour does not depend on it, and NewReno partial-ACK recovery handles
// multi-drop windows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/congestion_control.hpp"

namespace pi2::tcp {

/// Minimum retransmission timeout (Linux: 200 ms).
inline constexpr pi2::sim::Duration kMinRto = std::chrono::milliseconds{200};

class TcpSender {
 public:
  struct Config {
    std::int32_t flow = 0;
    std::int32_t mss_bytes = net::kDefaultMss;
    /// Total segments to send; negative means unbounded (bulk flow).
    std::int64_t total_segments = -1;
    /// Cap on cwnd in segments (receive-window stand-in); <= 0: unlimited.
    double max_cwnd = 0.0;
  };

  TcpSender(pi2::sim::Simulator& sim, Config config,
            std::unique_ptr<CongestionControl> cc);

  /// Where data packets go (the bottleneck queue).
  void set_output(std::function<void(net::Packet)> output) {
    output_ = std::move(output);
  }

  /// Invoked when the last segment of a finite flow is cumulatively ACKed.
  void set_completion_callback(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  /// Begins transmitting (schedules the first window immediately).
  void start();

  /// Stops transmitting new data and cancels timers (flow churn tests).
  void stop();

  /// ACK input from the network.
  void on_ack(const net::Packet& ack);

  [[nodiscard]] const CongestionControl& cc() const { return *cc_; }
  [[nodiscard]] double smoothed_rtt_s() const { return srtt_s_; }
  [[nodiscard]] std::int64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::int64_t timeouts() const { return timeouts_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::int64_t snd_una() const { return snd_una_; }
  [[nodiscard]] std::int64_t snd_nxt() const { return snd_nxt_; }
  [[nodiscard]] bool in_recovery() const { return in_recovery_; }

 private:
  void maybe_send();
  void transmit(std::int64_t seq, bool is_retransmit);
  void arm_rto();
  void on_rto();
  [[nodiscard]] pi2::sim::Duration rto() const;
  [[nodiscard]] std::int64_t inflight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] double effective_window() const;
  [[nodiscard]] bool all_data_sent() const {
    return config_.total_segments >= 0 && snd_nxt_ >= config_.total_segments;
  }

  pi2::sim::Simulator& sim_;
  Config config_;
  std::unique_ptr<CongestionControl> cc_;
  std::function<void(net::Packet)> output_;
  std::function<void()> on_complete_;

  bool running_ = false;
  bool completed_ = false;
  std::int64_t snd_una_ = 0;  // first unacknowledged segment
  std::int64_t snd_nxt_ = 0;  // next new segment to send

  // Fast recovery (NewReno).
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;  // recovery ends when snd_una_ passes this
  int dup_acks_ = 0;

  // RTT estimation (RFC 6298).
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  bool rtt_valid_ = false;

  // ECN (Classic): one response per RTT, CWR signalling to the receiver.
  pi2::sim::Time ecn_cwr_until_{};
  bool send_cwr_ = false;

  pi2::sim::Timer rto_timer_;
  int backoff_ = 0;

  std::int64_t segments_sent_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t timeouts_ = 0;
};

class TcpReceiver {
 public:
  struct Options {
    /// Delayed ACKs (RFC 1122): acknowledge every 2nd in-order segment, or
    /// after `delack_timeout`. Out-of-order data and CE-marked segments are
    /// ACKed immediately (duplicate-ACK loss detection and DCTCP's accurate
    /// feedback both require it). Default off: one ACK per segment, which
    /// matches the window laws of Appendix A exactly.
    bool delayed_acks = false;
    int ack_every = 2;
    pi2::sim::Duration delack_timeout = pi2::sim::from_millis(40);
  };

  TcpReceiver(pi2::sim::Simulator& sim, std::int32_t flow)
      : TcpReceiver(sim, flow, Options{}) {}
  TcpReceiver(pi2::sim::Simulator& sim, std::int32_t flow, Options options)
      : sim_(sim),
        flow_(flow),
        options_(options),
        delack_timer_(sim, pi2::sim::EventKind::kDelayedAck, [this] {
          emit_ack(/*ce_echo=*/false, pending_sent_at_);
        }) {}

  /// Where ACKs go (the reverse-path delay pipe back to the sender).
  void set_ack_path(std::function<void(net::Packet)> path) {
    ack_path_ = std::move(path);
  }

  /// Observer for every in-order delivered segment (goodput accounting).
  void set_delivery_probe(std::function<void(const net::Packet&)> probe) {
    delivery_probe_ = std::move(probe);
  }

  /// Data input from the network.
  void on_data(const net::Packet& data);

  [[nodiscard]] std::int64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::int64_t ce_received() const { return ce_received_; }

 private:
  void emit_ack(bool ce_echo, pi2::sim::Time data_sent_at);

  pi2::sim::Simulator& sim_;
  std::int32_t flow_;
  Options options_;
  std::function<void(net::Packet)> ack_path_;
  std::function<void(const net::Packet&)> delivery_probe_;

  std::int64_t rcv_nxt_ = 0;
  std::set<std::int64_t> out_of_order_;
  bool ece_latched_ = false;  // Classic ECN: echo until CWR seen
  std::int64_t ce_received_ = 0;

  // Delayed-ACK state.
  int unacked_segments_ = 0;
  pi2::sim::Timer delack_timer_;
  pi2::sim::Time pending_sent_at_{};
};

}  // namespace pi2::tcp
