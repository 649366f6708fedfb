// Order-exactness of the delay pipe: one pending event per pipe must
// deliver exactly where one event per packet would have.
#include "net/delay_pipe.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace pi2::net {
namespace {

using pi2::sim::Duration;
using pi2::sim::from_millis;
using pi2::sim::Simulator;
using pi2::sim::Time;

using Trace = std::vector<std::pair<Time, std::int64_t>>;

/// Random sends with random per-packet delays, a delay decrease halfway,
/// and unrelated events on the same instants (id < 0). With
/// `per_packet` every packet is its own sim.after event (the reference);
/// otherwise it goes through one DelayPipe.
Trace delivery_trace(bool per_packet, std::uint64_t seed) {
  Simulator sim;
  std::mt19937_64 rng{seed};
  Trace trace;
  DelayPipe pipe{sim, Duration{40}};
  CallbackSink rx_sink{[&](Packet p) { trace.emplace_back(sim.now(), p.seq); }};
  pipe.set_sink(rx_sink);
  Duration delay{40};
  std::int64_t next_id = 0;
  for (int i = 0; i < 300; ++i) {
    sim.at(Time{static_cast<std::int64_t>(rng() % 300)}, [&] {
      trace.emplace_back(sim.now(), -1 - next_id);
      if (sim.now() >= Time{150}) delay = Duration{15};  // RTT step down
      const int burst = static_cast<int>(rng() % 3);
      for (int k = 0; k < burst; ++k) {
        Packet p;
        p.seq = next_id++;
        // Mostly the current delay; sometimes a shorter or longer one.
        const std::uint64_t pick = rng() % 4;
        const Duration d = pick == 0   ? Duration{static_cast<std::int64_t>(rng() % 20)}
                           : pick == 1 ? delay + Duration{static_cast<std::int64_t>(rng() % 5)}
                                       : delay;
        if (per_packet) {
          sim.after(d, [&trace, &sim, p] { trace.emplace_back(sim.now(), p.seq); });
        } else {
          pipe.send(p, d);
        }
      }
      // An unrelated event scheduled after those packets, often on one of
      // their delivery instants: it must run after them there.
      const std::int64_t marker = -100000 - next_id;
      sim.after(delay - Duration{static_cast<std::int64_t>(rng() % 3)},
                [&trace, &sim, marker] { trace.emplace_back(sim.now(), marker); });
    });
  }
  sim.run();
  EXPECT_EQ(pipe.in_flight(), 0u);
  return trace;
}

TEST(DelayPipe, MatchesPerPacketEventsUnderRandomDelays) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trace reference = delivery_trace(true, seed);
    const Trace piped = delivery_trace(false, seed);
    ASSERT_EQ(piped, reference) << "seed " << seed;
  }
}

TEST(DelayPipe, ShorterDelayOvertakesTheHead) {
  Simulator sim;
  DelayPipe pipe{sim, from_millis(50)};
  Trace trace;
  CallbackSink rx_sink{[&](Packet p) { trace.emplace_back(sim.now(), p.seq); }};
  pipe.set_sink(rx_sink);
  Packet a;
  a.seq = 1;
  pipe.send(a);
  Packet b;
  b.seq = 2;
  pipe.send(b, from_millis(10));
  sim.run();
  EXPECT_EQ(trace, (Trace{{from_millis(10), 2}, {from_millis(50), 1}}));
}

TEST(DelayPipe, HeapHoldsOneEntryPerPipe) {
  Simulator sim;
  DelayPipe pipe{sim, from_millis(20)};
  int delivered = 0;
  CallbackSink rx_sink{[&](Packet) { ++delivered; }};
  pipe.set_sink(rx_sink);
  for (int i = 0; i < 1000; ++i) {
    sim.at(Time{from_millis(1) * i / 100}, [&] { pipe.send(Packet{}); });
  }
  sim.run_until(from_millis(15));
  EXPECT_EQ(pipe.in_flight(), 1000u);
  EXPECT_EQ(sim.scheduler().heap_size(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(sim.scheduler().cancelled(), 0u);
}

TEST(DelayPipe, QuantumDeliversOneEventPerQuantumInArrivalOrder) {
  Simulator sim;
  const Duration delay = from_millis(25);
  DelayPipe pipe{sim, delay, from_millis(10)};
  std::vector<std::int64_t> order;
  std::vector<Time> at;
  CallbackSink rx_sink{[&](Packet p) {
    // Never earlier than the exact due time.
    EXPECT_GE(sim.now(), p.sent_at + delay) << "packet " << p.seq;
    order.push_back(p.seq);
    at.push_back(sim.now());
  }};
  pipe.set_sink(rx_sink);
  for (int i = 0; i < 20; ++i) {
    sim.at(from_millis(i), [&, i] {
      Packet p;
      p.seq = i;
      p.sent_at = sim.now();
      pipe.send(p);
    });
  }
  sim.run();
  std::vector<std::int64_t> expected_order(20);
  for (int i = 0; i < 20; ++i) expected_order[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected_order);
  // Exact dues 25..44 ms round up to the 30, 40 and 50 ms boundaries.
  for (int i = 0; i < 20; ++i) {
    const Time want = i <= 5 ? from_millis(30) : i <= 15 ? from_millis(40) : from_millis(50);
    EXPECT_EQ(at[static_cast<std::size_t>(i)], want) << "packet " << i;
  }
  // 20 send events + one delivery event per quantum.
  EXPECT_EQ(sim.events_executed(), 23u);
}

TEST(DelayPipe, QuantumBatchKeepsItsPlaceAmongSameInstantEvents) {
  // A batch is ordered by the tie-break number of the packet that opened
  // it: events scheduled for the batch's instant before that packet was
  // sent run first, later ones after.
  Simulator sim;
  DelayPipe pipe{sim, from_millis(5), from_millis(10)};
  std::vector<int> order;
  CallbackSink rx_sink{[&](Packet p) { order.push_back(static_cast<int>(p.seq)); }};
  pipe.set_sink(rx_sink);
  sim.at(from_millis(10), [&] { order.push_back(-1); });
  Packet p;
  p.seq = 1;
  pipe.send(p);  // due 5 ms, delivered at the 10 ms boundary
  sim.at(from_millis(10), [&] { order.push_back(-2); });
  sim.at(from_millis(2), [&] {
    Packet q;
    q.seq = 2;
    pipe.send(q);  // joins the open batch
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 1, 2, -2}));
}

}  // namespace
}  // namespace pi2::net
