// Struct-of-arrays flow state for the scenario hot path.
//
// The per-packet work in the topology engine touches exactly two facts
// about a flow: its half-RTT (to schedule the propagation hop) and whether
// it is UDP (to pick delivery handling). With the AoS layout
// (vector<unique_ptr<FlowContext>>) each lookup chases a pointer into a
// ~200-byte heap object, so at 10⁴+ flows the delivery path is a cache
// miss per packet. FlowTable splits the state: the two hot facts live in
// dense parallel arrays indexed by flow id, everything touched only at
// setup/collection time (endpoints, meters, congestion-control tag) lives
// in a cold deque the hot path never reads.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "stats/meters.hpp"
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

  [[nodiscard]] pi2::sim::Duration base_rtt(std::int32_t flow) const {
    return half_rtt(flow) * 2;
  }
  /// Fault-injected RTT step: applies to every flow.
  void set_all_base_rtt(pi2::sim::Duration rtt);
  /// RTT step scoped to one flow (per-link faults in multi-link topologies).
  void set_base_rtt(std::int32_t flow, pi2::sim::Duration rtt) {
    half_rtt_[static_cast<std::size_t>(flow)] = rtt / 2;
  }

  // Cold path (setup / stats collection).
  [[nodiscard]] TcpSender* sender(std::int32_t flow);
  [[nodiscard]] const TcpSender* sender(std::int32_t flow) const;
  [[nodiscard]] TcpReceiver* receiver(std::int32_t flow);
  [[nodiscard]] UdpSender* udp(std::int32_t flow);
  [[nodiscard]] CcType cc(std::int32_t flow) const;
  [[nodiscard]] stats::RateMeter& goodput(std::int32_t flow);
  [[nodiscard]] std::int64_t& bytes_at_stats_start(std::int32_t flow);

  [[nodiscard]] std::int64_t total_retransmits() const;
  [[nodiscard]] std::int64_t total_timeouts() const;

 private:
  struct Cold {
    CcType cc{};
    std::unique_ptr<TcpSender> sender;
    std::unique_ptr<TcpReceiver> receiver;
    std::unique_ptr<UdpSender> udp;
    stats::RateMeter goodput;
    std::int64_t bytes_at_stats_start = 0;
  };

  // Hot arrays, parallel, indexed by flow id.
  std::vector<pi2::sim::Duration> half_rtt_;
  std::vector<Kind> kind_;
  // Cold state; deque so entries stay put as flows are added.
  std::deque<Cold> cold_;
};

}  // namespace pi2::tcp
