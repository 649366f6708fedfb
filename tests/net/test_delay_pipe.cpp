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

}  // namespace
}  // namespace pi2::net
