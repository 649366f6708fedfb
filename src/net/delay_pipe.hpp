// Fixed-delay pipe: propagation and the uncongested reverse path.
//
// A delay line sorted by (due time, tie-break seq) whose head is one event
// source, armed at the head packet's (due, seq). send() reserves the seq a
// per-packet event would have taken, so deliveries interleave with all
// other events exactly as one event per packet would, while the heap holds
// one entry per pipe and nothing captures a Packet. Sends land at the tail
// in O(1) unless a shorter delay (an RTT step) moves them forward; a new
// head moves the armed source in place.
//
// quantum > 0 rounds due times up to the quantum grid (ACK-clock batching):
// a packet whose rounded due time matches a batch still in the pipe joins
// it, in arrival order and under the batch's seq, and each batch is
// delivered by one event, never before any of its packets' exact due times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace pi2::net {

class DelayPipe {
 public:
  using Sink = std::function<void(Packet)>;

  DelayPipe(pi2::sim::Simulator& sim, pi2::sim::Duration delay,
            pi2::sim::Duration quantum = {})
      : sim_(sim), delay_(delay), quantum_(quantum) {}

  DelayPipe(const DelayPipe&) = delete;
  DelayPipe& operator=(const DelayPipe&) = delete;

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Packets accepted but not yet delivered.
  [[nodiscard]] std::size_t in_flight() const { return size_; }

  void send(Packet packet) { send(std::move(packet), delay_); }

  /// Delivers `packet` to the sink after `delay` instead of the pipe's own.
  void send(Packet packet, pi2::sim::Duration delay) {
    const pi2::sim::Time due = quantize(sim_.now() + delay);
    std::size_t pos = size_;
    while (pos > 0 && at(pos - 1).due > due) --pos;
    const bool joins = quantum_.count() > 0 && pos > 0 &&
                       at(pos - 1).due == due && at(pos - 1).seq != flushing_;
    const std::uint64_t seq = joins ? at(pos - 1).seq : sim_.reserve_seq();
    insert(pos, Entry{due, seq, std::move(packet)});
    if (pos == 0) arm_head();
  }

 private:
  struct Entry {
    pi2::sim::Time due;
    std::uint64_t seq;
    Packet packet;
  };
  static constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};

  [[nodiscard]] pi2::sim::Time quantize(pi2::sim::Time due) const {
    if (quantum_.count() <= 0) return due;
    // Round up: a batch must never deliver before its packets' exact due
    // times (that would hand a receiver a packet from its own future).
    const std::int64_t q = quantum_.count();
    return pi2::sim::Time{(due.count() + q - 1) / q * q};
  }

  /// Ring buffer of capacity 2^k; index 0 is the head. (std::deque frees
  /// and reallocates a block every few packets; that ran ~8% slower.)
  Entry& at(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }

  void insert(std::size_t pos, Entry entry) {
    if (size_ == ring_.size()) grow();
    for (std::size_t i = size_; i > pos; --i) at(i) = std::move(at(i - 1));
    at(pos) = std::move(entry);
    ++size_;
  }

  void grow() {
    std::vector<Entry> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(at(i));
    ring_ = std::move(bigger);
    head_ = 0;
  }

  void arm_head() {
    const Entry& head = at(0);
    sim_.arm(head_event_, head.due, head.seq);
  }

  /// Delivers the head packet, or the head batch, then re-arms for the next
  /// head unless a send from inside the sink already did.
  void fire() {
    flushing_ = at(0).seq;
    do {
      Packet packet = std::move(at(0).packet);
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      if (sink_) sink_(std::move(packet));
    } while (size_ > 0 && at(0).seq == flushing_);
    flushing_ = kNoBatch;
    if (size_ > 0 && !head_event_.armed()) arm_head();
  }

  pi2::sim::Simulator& sim_;
  pi2::sim::Duration delay_;
  pi2::sim::Duration quantum_;
  Sink sink_;
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  /// Batch being delivered; packets sent meanwhile must not join it.
  std::uint64_t flushing_ = kNoBatch;
  pi2::sim::MemberEvent<DelayPipe, &DelayPipe::fire> head_event_{
      pi2::sim::EventKind::kPipe, this};
};

}  // namespace pi2::net
