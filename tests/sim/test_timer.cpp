#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace pi2::sim {
namespace {

TEST(Timer, FiresAtDeadline) {
  Simulator sim;
  std::vector<Time> fired;
  Timer timer{sim, [&] { fired.push_back(sim.now()); }};
  timer.arm(Time{100});
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{Time{100}}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, LaterDeadlineKeepsThePendingEvent) {
  Simulator sim;
  std::vector<Time> fired;
  Timer timer{sim, [&] { fired.push_back(sim.now()); }};
  timer.arm(Time{100});
  timer.arm(Time{200});
  timer.arm(Time{300});
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{Time{300}}));
  // One push for the first arm, one for the early wake's re-schedule.
  EXPECT_EQ(sim.scheduler().scheduled(), 2u);
  EXPECT_EQ(sim.scheduler().cancelled(), 0u);
}

TEST(Timer, SoonerDeadlineReschedules) {
  Simulator sim;
  std::vector<Time> fired;
  Timer timer{sim, [&] { fired.push_back(sim.now()); }};
  timer.arm(Time{300});
  timer.arm(Time{100});
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{Time{100}}));
  EXPECT_EQ(sim.scheduler().cancelled(), 1u);
}

TEST(Timer, CancelDisarms) {
  Simulator sim;
  int fired = 0;
  Timer timer{sim, [&] { ++fired; }};
  timer.arm(Time{100});
  timer.arm(Time{200});
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  sim.run();
  EXPECT_EQ(fired, 0);
  timer.arm(Time{400});  // re-usable after a cancel
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time{400});
}

TEST(Timer, CallbackMayRearm) {
  Simulator sim;
  std::vector<Time> fired;
  Timer* self = nullptr;
  Timer timer{sim, [&] {
                fired.push_back(sim.now());
                if (fired.size() < 3) self->arm(sim.now() + Duration{50});
              }};
  self = &timer;
  timer.arm(Time{10});
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{Time{10}, Time{60}, Time{110}}));
}

/// Random re-arms, cancels and unrelated same-instant events; returns the
/// (time, id) trace, with id -1 for the timer's callback. `lazy` drives a
/// Timer, otherwise the cancel-and-reschedule code a Timer replaces.
std::vector<std::pair<Time, int>> rearm_trace(bool lazy, std::uint64_t seed) {
  Simulator sim;
  std::mt19937_64 rng{seed};
  std::vector<std::pair<Time, int>> trace;
  const auto on_fire = [&] { trace.emplace_back(sim.now(), -1); };
  Timer timer{sim, on_fire};
  EventHandle reference;
  const auto arm = [&](Time deadline) {
    if (lazy) {
      timer.arm(deadline);
    } else {
      reference.cancel();
      reference = sim.at(deadline, on_fire);
    }
  };
  const auto cancel = [&] { lazy ? timer.cancel() : reference.cancel(); };
  for (int id = 0; id < 400; ++id) {
    sim.at(Time{static_cast<std::int64_t>(rng() % 200)}, [&, id] {
      trace.emplace_back(sim.now(), id);
      const std::uint64_t action = rng() % 8;
      if (action == 0) {
        cancel();
      } else if (action < 7) {
        // Small delays land on the same instants as other events.
        arm(sim.now() + Duration{static_cast<std::int64_t>(rng() % 12)});
      }
      // An unrelated event scheduled after the re-arm, often on the
      // deadline's instant: it must run after the timer there.
      const int marker = -1000 - id;
      sim.after(Duration{static_cast<std::int64_t>(rng() % 12)},
                [&trace, &sim, marker] { trace.emplace_back(sim.now(), marker); });
    });
  }
  sim.run();
  return trace;
}

TEST(Timer, MatchesCancelAndRescheduleOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto reference = rearm_trace(false, seed);
    const auto lazy = rearm_trace(true, seed);
    ASSERT_EQ(lazy, reference) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pi2::sim
