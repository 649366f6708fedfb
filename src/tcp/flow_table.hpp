// Struct-of-arrays flow state for the scenario hot path.
//
// The per-packet work in the topology engine touches a few facts about a
// flow: its half-RTT (to schedule the propagation hop), whether it is UDP
// (to pick delivery handling), its endpoints (to hand data and ACKs over)
// and, for UDP, its delivered-byte count. With the AoS layout
// (vector<unique_ptr<FlowContext>>) each lookup chases a pointer into a
// ~200-byte heap object, so at 10⁴+ flows the delivery path is a cache
// miss per packet. FlowTable splits the state: the hot facts live in dense
// parallel arrays indexed by flow id, read through inline accessors;
// everything touched only at setup/collection time (endpoint ownership,
// congestion-control tag, stats snapshots) lives in a cold deque the hot
// path never reads.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "tcp/congestion_control.hpp"

namespace pi2::tcp {

class TcpSender;
class TcpReceiver;
class UdpSender;

class FlowTable {
 public:
  enum class Kind : std::uint8_t { kTcp, kUdp };

  FlowTable();
  ~FlowTable();
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Adds a flow; returns its id (dense, starting at 0 — also the Packet
  /// `flow` field).
  std::int32_t add_tcp(CcType cc, pi2::sim::Duration base_rtt,
                       std::unique_ptr<TcpSender> sender,
                       std::unique_ptr<TcpReceiver> receiver);
  std::int32_t add_udp(pi2::sim::Duration base_rtt,
                       std::unique_ptr<UdpSender> udp);

  [[nodiscard]] std::size_t size() const { return kind_.size(); }
  [[nodiscard]] bool contains(std::int32_t flow) const {
    return flow >= 0 && static_cast<std::size_t>(flow) < kind_.size();
  }

  // Hot path: dense array reads, no pointer chase.
  [[nodiscard]] Kind kind(std::int32_t flow) const {
    return kind_[static_cast<std::size_t>(flow)];
  }
  [[nodiscard]] pi2::sim::Duration half_rtt(std::int32_t flow) const {
    return half_rtt_[static_cast<std::size_t>(flow)];
  }
  /// The flow's endpoints; nullptr for a UDP flow.
  [[nodiscard]] TcpSender* sender(std::int32_t flow) {
    return senders_[static_cast<std::size_t>(flow)];
  }
  [[nodiscard]] const TcpSender* sender(std::int32_t flow) const {
    return senders_[static_cast<std::size_t>(flow)];
  }
  [[nodiscard]] TcpReceiver* receiver(std::int32_t flow) {
    return receivers_[static_cast<std::size_t>(flow)];
  }
  /// Counts a UDP packet delivered to its destination.
  void count_udp_delivery(std::int32_t flow, std::int32_t bytes) {
    udp_delivered_bytes_[static_cast<std::size_t>(flow)] += bytes;
  }

  [[nodiscard]] pi2::sim::Duration base_rtt(std::int32_t flow) const {
    return half_rtt(flow) * 2;
  }
  /// Fault-injected RTT step of one flow.
  void set_base_rtt(std::int32_t flow, pi2::sim::Duration rtt) {
    half_rtt_[static_cast<std::size_t>(flow)] = rtt / 2;
  }

  // Cold path (setup / stats collection).
  [[nodiscard]] UdpSender* udp(std::int32_t flow);
  [[nodiscard]] CcType cc(std::int32_t flow) const;
  /// Bytes delivered to the flow's destination so far (goodput): the TCP
  /// receiver's in-order bytes, or the UDP packets' bytes.
  [[nodiscard]] std::int64_t delivered_bytes(std::int32_t flow) const;
  [[nodiscard]] std::int64_t& bytes_at_stats_start(std::int32_t flow);

  [[nodiscard]] std::int64_t total_retransmits() const;
  [[nodiscard]] std::int64_t total_timeouts() const;

 private:
  struct Cold {
    CcType cc{};
    std::unique_ptr<TcpSender> sender;
    std::unique_ptr<TcpReceiver> receiver;
    std::unique_ptr<UdpSender> udp;
    std::int64_t bytes_at_stats_start = 0;
  };

  // Hot arrays, parallel, indexed by flow id.
  std::vector<pi2::sim::Duration> half_rtt_;
  std::vector<Kind> kind_;
  std::vector<TcpSender*> senders_;
  std::vector<TcpReceiver*> receivers_;
  std::vector<std::int64_t> udp_delivered_bytes_;
  // Cold state; deque so entries stay put as flows are added.
  std::deque<Cold> cold_;
};

}  // namespace pi2::tcp
