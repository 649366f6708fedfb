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
//
// Both endpoints hand packets on through borrowed net::PacketSink
// references (the sender's data to the bottleneck, the receiver's ACKs to
// the reverse path); neither runs a type-erased callback per packet. The
// receiver counts its in-order delivered bytes itself (goodput).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_sink.hpp"
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

  /// Where data packets go (the bottleneck queue). Borrowed.
  void set_output(net::PacketSink& output) { output_ = &output; }

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
  net::PacketSink* output_ = nullptr;
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
  /// One ACK per arriving segment, which matches the window laws of
  /// Appendix A exactly.
  explicit TcpReceiver(std::int32_t flow) : flow_(flow) {}

  /// Where ACKs go (the reverse-path delay pipe back to the sender).
  /// Borrowed.
  void set_ack_path(net::PacketSink& path) { ack_path_ = &path; }

  /// Data input from the network.
  void on_data(const net::Packet& data);

  [[nodiscard]] std::int64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::int64_t ce_received() const { return ce_received_; }
  /// Bytes delivered in order so far (goodput): each segment counts the
  /// size of the packet whose arrival delivered it.
  [[nodiscard]] std::int64_t delivered_bytes() const { return delivered_bytes_; }

 private:
  void emit_ack(bool ce_echo, pi2::sim::Time data_sent_at);
  [[nodiscard]] bool has_gap() const { return ooo_head_ < out_of_order_.size(); }
  void hold_out_of_order(std::int64_t seq);

  std::int32_t flow_;
  net::PacketSink* ack_path_ = nullptr;

  std::int64_t rcv_nxt_ = 0;
  std::int64_t delivered_bytes_ = 0;
  /// Segments received beyond a hole: sorted, distinct, all > rcv_nxt_,
  /// live from index ooo_head_ on. Arrivals usually append; the hole
  /// filling pops from the front.
  std::vector<std::int64_t> out_of_order_;
  std::size_t ooo_head_ = 0;
  bool ece_latched_ = false;  // Classic ECN: echo until CWR seen
  std::int64_t ce_received_ = 0;
};

}  // namespace pi2::tcp
