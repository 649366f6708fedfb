#include "faults/fault_presets.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pi2::faults {
namespace {

using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::to_seconds;

PresetContext ctx_20s() {
  PresetContext ctx;
  ctx.link_bps = 10e6;
  ctx.base_rtt = from_millis(100);
  ctx.duration = from_seconds(20);
  return ctx;
}

TEST(FaultPresets, NamesAreStableAndRecognized) {
  const auto& names = preset_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "none");
  for (const std::string& name : names) {
    EXPECT_TRUE(is_preset(name)) << name;
    FaultSchedule s;
    EXPECT_EQ(preset(name, ctx_20s(), &s), "") << name;
    EXPECT_EQ(s.validate(ctx_20s().duration), "") << name;
  }
  EXPECT_FALSE(is_preset("rate_step_5x"));
}

TEST(FaultPresets, NoneIsEmpty) {
  FaultSchedule s;
  ASSERT_EQ(preset("none", ctx_20s(), &s), "");
  EXPECT_TRUE(s.empty());
}

TEST(FaultPresets, RateStepScalesToLinkAndDuration) {
  FaultSchedule s;
  ASSERT_EQ(preset("rate_step_4x", ctx_20s(), &s), "");
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kRateStep);
  EXPECT_EQ(s.events[0].at, from_seconds(0.4 * 20));
  EXPECT_DOUBLE_EQ(s.events[0].rate_bps, 2.5e6);  // link/4
  EXPECT_EQ(s.events[1].at, from_seconds(0.7 * 20));
  EXPECT_DOUBLE_EQ(s.events[1].rate_bps, 10e6);  // restore
}

TEST(FaultPresets, RttFlapScalesToBaseRtt) {
  FaultSchedule s;
  ASSERT_EQ(preset("rtt_flap", ctx_20s(), &s), "");
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kRttStep);
  EXPECT_EQ(s.events[0].rtt, from_millis(300));  // 3x base
  EXPECT_EQ(s.events[1].rtt, from_millis(100));  // restore
}

TEST(FaultPresets, UnknownPresetNamesTheKnownOnes) {
  FaultSchedule s;
  const std::string msg = preset("nope", ctx_20s(), &s);
  EXPECT_NE(msg.find("unknown fault preset 'nope'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rate_step_4x"), std::string::npos) << msg;
}

TEST(FaultPresets, ResolveParsesInlineLiteral) {
  FaultSchedule s;
  ASSERT_EQ(resolve_schedule("rate_step@0.5:rate=0.5;random_loss@0.1..0.3:p=0.01",
                             ctx_20s(), &s),
            "");
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].at, from_seconds(10));
  EXPECT_DOUBLE_EQ(s.events[0].rate_bps, 5e6);
  EXPECT_EQ(s.events[1].kind, FaultKind::kRandomLoss);
  EXPECT_EQ(s.events[1].at, from_seconds(2));
  EXPECT_EQ(s.events[1].until, from_seconds(6));
  EXPECT_DOUBLE_EQ(s.events[1].probability, 0.01);
}

TEST(FaultPresets, LiteralDefaultsApplyWhenParamsOmitted) {
  FaultSchedule s;
  ASSERT_EQ(resolve_schedule("reorder@0.2..0.4", ctx_20s(), &s), "");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_DOUBLE_EQ(s.events[0].probability, 0.05);
  EXPECT_EQ(s.events[0].extra_delay, from_millis(5));
}

TEST(FaultPresets, LiteralErrorsNameTheEventAndConstraint) {
  FaultSchedule s;
  const struct {
    const char* literal;
    const char* needle;
  } cases[] = {
      {"bogus@0.5", "unknown kind 'bogus'"},
      // A bare name with no '@' routes to the preset branch (see
      // ResolveRejectsNonLiteralNonPreset); a missing '@' inside a literal
      // names the event that lacks it.
      {"rate_step@0.2:rate=0.5;oops", "event #1: expected `kind@start`"},
      {"rate_step@1.5", "`start` must be a duration fraction in [0, 1)"},
      {"random_loss@0.5", "needs a window"},
      {"rate_step@0.2..0.4", "takes a single `@start` time"},
      {"random_loss@0.4..0.2:p=0.01", "`end` must be a duration fraction"},
      {"rate_step@0.5:speed=2", "has no key 'speed'"},
      {"rate_step@0.5:rate=fast", "`rate` must be a number"},
      {"rate_step@0.5:rate=0", "`rate_bps` must be > 0"},
  };
  for (const auto& c : cases) {
    const std::string msg = resolve_schedule(c.literal, ctx_20s(), &s);
    EXPECT_NE(msg.find(c.needle), std::string::npos)
        << c.literal << " -> " << msg;
  }
}

TEST(FaultPresets, LiteralNumbersMustBeFiniteAndInRange) {
  // Numbers parse whole and finite (no inf, nan or hex floats), and a burst
  // length must fit an int before it is converted to one.
  FaultSchedule s;
  const struct {
    const char* literal;
    const char* message;
  } cases[] = {
      {"burst_loss@0.5:packets=1e10",
       "fault literal event #0: `packets` must lie in [1, 2147483647] "
       "(got 1e+10)"},
      {"burst_loss@0.5:packets=inf",
       "fault literal event #0: `packets` must be a number (got "
       "'packets=inf')"},
      {"burst_loss@0.5:packets=nan",
       "fault literal event #0: `packets` must be a number (got "
       "'packets=nan')"},
      {"rate_step@0.2;rate_step@nan",
       "fault literal event #1: `start` must be a number (got 'nan')"},
      {"rate_step@0x0.8",
       "fault literal event #0: `start` must be a number (got '0x0.8')"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(resolve_schedule(c.literal, ctx_20s(), &s), c.message)
        << c.literal;
  }
}

TEST(FaultPresets, ResolveRejectsNonLiteralNonPreset) {
  FaultSchedule s;
  const std::string msg = resolve_schedule("gibberish", ctx_20s(), &s);
  EXPECT_NE(msg.find("unknown fault preset 'gibberish'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("inline literal"), std::string::npos) << msg;
}

TEST(FaultPresets, WindowsMergeOverlapsAndClampToDuration) {
  FaultSchedule s;
  s.random_loss(from_seconds(2), from_seconds(6), 0.01);
  s.ecn_bleach(from_seconds(4), from_seconds(10), 1.0);  // overlaps the loss
  s.rate_step(from_seconds(15), 5e6);
  const auto windows = fault_windows(s, from_seconds(20));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].end_s, 10.0);  // merged
  EXPECT_DOUBLE_EQ(windows[1].start_s, 15.0);
  EXPECT_DOUBLE_EQ(windows[1].end_s, 15.0);  // instantaneous

  FaultSchedule past;
  past.reorder(from_seconds(18), from_seconds(30), 0.05, from_millis(5));
  const auto clamped = fault_windows(past, from_seconds(20));
  ASSERT_EQ(clamped.size(), 1u);
  EXPECT_DOUBLE_EQ(clamped[0].end_s, 20.0);  // clamped to the run
}

TEST(FaultPresets, WindowsOfInstantaneousPresetAreZeroWidth) {
  FaultSchedule s;
  ASSERT_EQ(preset("rate_step_4x", ctx_20s(), &s), "");
  const auto windows = fault_windows(s, from_seconds(20));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].start_s, 8.0);
  EXPECT_DOUBLE_EQ(windows[0].end_s, 8.0);
  EXPECT_DOUBLE_EQ(windows[1].start_s, 14.0);
  EXPECT_DOUBLE_EQ(windows[1].end_s, 14.0);
}

}  // namespace
}  // namespace pi2::faults
