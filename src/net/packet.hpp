// The simulated packet.
//
// One struct serves both data segments and ACKs; a real header would be a
// union but the simulator favours a flat, trivially-copyable record (packets
// are passed by value through queues and links).
#pragma once

#include <cstdint>

#include "net/ecn.hpp"
#include "sim/time.hpp"

namespace pi2::net {

inline constexpr std::int32_t kDefaultMss = 1500;  ///< bytes on the wire
inline constexpr std::int32_t kAckBytes = 64;

struct Packet {
  std::int32_t flow = -1;     ///< flow identifier (index into the scenario's flow table)
  std::int32_t size = kDefaultMss;  ///< wire size in bytes
  std::int64_t seq = 0;       ///< data: segment sequence number (in MSS units)
  std::int64_t ack_seq = 0;   ///< cumulative ACK: next expected segment

  pi2::sim::Time sent_at{};      ///< stamped by the sender; echoed in the ACK
  pi2::sim::Time enqueued_at{};  ///< stamped by the bottleneck queue

  Ecn ecn = Ecn::kNotEct;
  bool is_ack = false;
  bool ece = false;           ///< Classic ECN echo (RFC 3168 ECE flag)
  bool ce_echo = false;       ///< accurate per-packet CE echo (DCTCP feedback)
  bool retransmit = false;    ///< data: this segment is a retransmission
  bool cwr = false;           ///< data: Congestion Window Reduced (stops ECE echo)
};

// Widest fields first, so a packet carries no padding holes and a delay
// pipe entry (due, seq, packet) fills one 64-byte cache line.
static_assert(sizeof(Packet) == 48);

}  // namespace pi2::net
