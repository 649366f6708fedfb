// Fixed-delay pipe: propagation and the uncongested reverse path.
//
// A delay line sorted by (due time, tie-break seq) whose head is one event
// source, armed at the head packet's (due, seq). send() reserves the seq a
// per-packet event would have taken, so deliveries interleave with all
// other events exactly as one event per packet would, while the heap holds
// one entry per pipe and nothing captures a Packet. Sends land at the tail
// in O(1) unless a shorter per-packet delay (the link's reorder hold) moves
// them forward; a new head moves the armed source in place. Delivery is one
// virtual call on the pipe's PacketSink (a borrowed reference that must
// outlive the pipe's pending deliveries).
//
// A pipe is itself a PacketSink that delays what it receives by its own
// delay, so a fixed-delay hop (a half-RTT bucket) is wired straight in as
// a link's or receiver's output.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_sink.hpp"
#include "sim/simulator.hpp"

namespace pi2::net {

class DelayPipe final : public PacketSink {
 public:
  DelayPipe(pi2::sim::Simulator& sim, pi2::sim::Duration delay)
      : sim_(sim), delay_(delay) {}

  /// Where delivered packets go. Borrowed; without a sink they vanish.
  void set_sink(PacketSink& sink) { sink_ = &sink; }

  /// Packets accepted but not yet delivered.
  [[nodiscard]] std::size_t in_flight() const { return size_; }

  void send(const Packet& packet) { send(packet, delay_); }
  void receive(const Packet& packet) override { send(packet); }

  /// Delivers `packet` to the sink after `delay` instead of the pipe's own.
  void send(const Packet& packet, pi2::sim::Duration delay) {
    const pi2::sim::Time due = sim_.now() + delay;
    std::size_t pos = size_;
    while (pos > 0 && at(pos - 1).due > due) --pos;
    insert(pos, Entry{due, sim_.reserve_seq(), packet});
    if (pos == 0) arm_head();
  }

 private:
  struct Entry {
    pi2::sim::Time due;
    std::uint64_t seq;
    Packet packet;
  };
  static_assert(sizeof(Entry) == 64);

  /// Ring buffer of capacity 2^k; index 0 is the head. (std::deque frees
  /// and reallocates a block every few packets; that ran ~8% slower.)
  Entry& at(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }

  void insert(std::size_t pos, const Entry& entry) {
    if (size_ == ring_.size()) grow();
    for (std::size_t i = size_; i > pos; --i) at(i) = at(i - 1);
    at(pos) = entry;
    ++size_;
  }

  void grow() {
    std::vector<Entry> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = at(i);
    ring_ = std::move(bigger);
    head_ = 0;
  }

  void arm_head() {
    const Entry& head = at(0);
    sim_.arm(head_event_, head.due, head.seq);
  }

  /// Delivers the head packet, then re-arms for the next head unless a
  /// send from inside the sink already did.
  void fire() {
    // A copy: the sink may send into this pipe and move the ring.
    const Packet packet = at(0).packet;
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    if (sink_ != nullptr) sink_->receive(packet);
    if (size_ > 0 && !head_event_.armed()) arm_head();
  }

  pi2::sim::Simulator& sim_;
  pi2::sim::Duration delay_;
  PacketSink* sink_ = nullptr;
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  pi2::sim::MemberEvent<DelayPipe, &DelayPipe::fire> head_event_{
      pi2::sim::EventKind::kPipe, this};
};

}  // namespace pi2::net
