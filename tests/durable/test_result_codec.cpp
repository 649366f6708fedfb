// RunResult codec: a decoded result must be indistinguishable from the
// original for everything a resumed or merged campaign prints or records —
// exact bit patterns, not approximately-equal doubles.
#include "durable/result_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "check/oracles.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/time.hpp"

namespace pi2::durable {
namespace {

bool same_bits(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

scenario::RunResult small_real_result() {
  scenario::DumbbellConfig cfg;
  cfg.duration = pi2::sim::from_seconds(2.0);
  cfg.stats_start = pi2::sim::from_seconds(0.5);
  cfg.seed = 7;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.count = 2;
  cubic.base_rtt = pi2::sim::from_millis(10);
  cfg.tcp_flows.push_back(cubic);
  return scenario::run_dumbbell(cfg);
}

TEST(ResultCodec, RealRunRoundtripsWithIdenticalDigest) {
  const scenario::RunResult original = small_real_result();
  const std::string payload = encode_result(original);
  EXPECT_EQ(payload.find('\n'), std::string::npos)
      << "payload must be journal-line safe";

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(payload, decoded).ok());

  // The oracle digest folds every deterministic observable of a run; equal
  // digests mean downstream consumers cannot tell the copies apart.
  EXPECT_EQ(check::result_digest(decoded), check::result_digest(original));

  // Spot-check the fields the figure printers and --json records read.
  EXPECT_TRUE(same_bits(decoded.mean_qdelay_ms, original.mean_qdelay_ms));
  EXPECT_TRUE(same_bits(decoded.p99_qdelay_ms, original.p99_qdelay_ms));
  EXPECT_TRUE(same_bits(decoded.utilization, original.utilization));
  EXPECT_EQ(decoded.events_executed, original.events_executed);
  EXPECT_EQ(decoded.window_counters.forwarded, original.window_counters.forwarded);
  EXPECT_EQ(decoded.window_counters.marked, original.window_counters.marked);
  ASSERT_EQ(decoded.flows.size(), original.flows.size());
  for (std::size_t i = 0; i < decoded.flows.size(); ++i) {
    EXPECT_TRUE(same_bits(decoded.flows[i].goodput_mbps,
                          original.flows[i].goodput_mbps));
  }
  ASSERT_EQ(decoded.qdelay_ms_series.points().size(),
            original.qdelay_ms_series.points().size());
  for (std::size_t i = 0; i < decoded.qdelay_ms_series.points().size(); ++i) {
    EXPECT_EQ(decoded.qdelay_ms_series.points()[i].t,
              original.qdelay_ms_series.points()[i].t);
    EXPECT_TRUE(same_bits(decoded.qdelay_ms_series.points()[i].value,
                          original.qdelay_ms_series.points()[i].value));
  }
  // Per-packet sampler: count and sum survive (quantiles deliberately
  // don't; see the codec header).
  EXPECT_EQ(decoded.qdelay_ms_packets.count(), original.qdelay_ms_packets.count());
  EXPECT_TRUE(same_bits(decoded.qdelay_ms_packets.mean(),
                        original.qdelay_ms_packets.mean()));
  EXPECT_EQ(decoded.classic_prob_samples.count(),
            original.classic_prob_samples.count());
}

TEST(ResultCodec, AwkwardDoublesRoundTripExactly) {
  scenario::RunResult result;
  result.mean_qdelay_ms = 0.1;  // not representable exactly: bit test matters
  result.p99_qdelay_ms = -0.0;
  result.utilization = std::numeric_limits<double>::denorm_min();
  scenario::FlowResult flow;
  flow.goodput_mbps = std::numeric_limits<double>::infinity();
  result.flows.push_back(flow);

  scenario::RunResult decoded;
  const std::string payload = encode_result(result);
  ASSERT_TRUE(decode_result(payload, decoded).ok());
  EXPECT_TRUE(same_bits(decoded.mean_qdelay_ms, 0.1));
  EXPECT_TRUE(same_bits(decoded.p99_qdelay_ms, -0.0));
  EXPECT_TRUE(same_bits(decoded.utilization,
                        std::numeric_limits<double>::denorm_min()));
  ASSERT_EQ(decoded.flows.size(), 1u);
  EXPECT_TRUE(same_bits(decoded.flows[0].goodput_mbps,
                        std::numeric_limits<double>::infinity()));
}

TEST(ResultCodec, BandCountersSurviveTheTrip) {
  scenario::RunResult result;
  result.band_l.enqueued = 101;
  result.band_l.forwarded = 90;
  result.band_l.marked = 7;
  result.band_l.aqm_dropped = 11;
  result.band_l.tail_dropped = 3;
  result.band_l.dequeue_dropped = 5;
  result.band_c.enqueued = 202;
  result.band_c.dequeue_dropped = 1;
  result.window_band_l.marked = 4;
  result.window_band_c.tail_dropped = 2;

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(encode_result(result), decoded).ok());
  EXPECT_EQ(decoded.band_l.enqueued, 101);
  EXPECT_EQ(decoded.band_l.forwarded, 90);
  EXPECT_EQ(decoded.band_l.marked, 7);
  EXPECT_EQ(decoded.band_l.aqm_dropped, 11);
  EXPECT_EQ(decoded.band_l.tail_dropped, 3);
  EXPECT_EQ(decoded.band_l.dequeue_dropped, 5);
  EXPECT_EQ(decoded.band_c.enqueued, 202);
  EXPECT_EQ(decoded.band_c.dequeue_dropped, 1);
  EXPECT_EQ(decoded.window_band_l.marked, 4);
  EXPECT_EQ(decoded.window_band_c.tail_dropped, 2);
  // The digest folds the band slices, so altering one must change it.
  scenario::RunResult tweaked = result;
  tweaked.window_band_c.tail_dropped = 0;
  EXPECT_NE(check::result_digest(tweaked), check::result_digest(result));
  EXPECT_EQ(check::result_digest(decoded), check::result_digest(result));
}

TEST(ResultCodec, LinkSlicesSurviveTheTrip) {
  scenario::RunResult result;
  scenario::LinkSlice a;
  a.name = "bottleneck";
  a.mean_qdelay_ms = 14.25;
  a.p99_qdelay_ms = 33.5;
  a.utilization = 0.875;
  a.counters.enqueued = 1000;
  a.counters.forwarded = 990;
  a.counters.dequeue_dropped = 1;
  a.window_counters.forwarded = 600;
  a.fault_counters.dropped = 2;
  a.fault_counters.rtt_changes = 1;
  a.guard_events = 3;
  a.final_backlog_packets = 9;
  scenario::LinkSlice b;
  b.name = "n1->n2";
  b.counters.marked = 55;
  result.links.push_back(a);
  result.links.push_back(b);

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(encode_result(result), decoded).ok());
  ASSERT_EQ(decoded.links.size(), 2u);
  EXPECT_EQ(decoded.links[0].name, "bottleneck");
  EXPECT_TRUE(same_bits(decoded.links[0].mean_qdelay_ms, 14.25));
  EXPECT_TRUE(same_bits(decoded.links[0].p99_qdelay_ms, 33.5));
  EXPECT_TRUE(same_bits(decoded.links[0].utilization, 0.875));
  EXPECT_EQ(decoded.links[0].counters.enqueued, 1000);
  EXPECT_EQ(decoded.links[0].counters.forwarded, 990);
  EXPECT_EQ(decoded.links[0].counters.dequeue_dropped, 1);
  EXPECT_EQ(decoded.links[0].window_counters.forwarded, 600);
  EXPECT_EQ(decoded.links[0].fault_counters.dropped, 2);
  EXPECT_EQ(decoded.links[0].fault_counters.rtt_changes, 1);
  EXPECT_EQ(decoded.links[0].guard_events, 3u);
  EXPECT_EQ(decoded.links[0].final_backlog_packets, 9);
  EXPECT_EQ(decoded.links[1].name, "n1->n2");
  EXPECT_EQ(decoded.links[1].counters.marked, 55);

  // The digest folds the link slices: altering one must change it, and the
  // decoded copy must be indistinguishable from the original.
  scenario::RunResult tweaked = result;
  tweaked.links[1].counters.marked = 54;
  EXPECT_NE(check::result_digest(tweaked), check::result_digest(result));
  EXPECT_EQ(check::result_digest(decoded), check::result_digest(result));
}

TEST(ResultCodec, V3PayloadsStayReadable) {
  // A payload captured from the v3 encoder (before the links section
  // existed). It must keep decoding — resumed sweeps replay old journals —
  // and surface an empty links vector, exactly what a v3-era single-link
  // run carried.
  const std::string v3_payload =
      "pi2-result-v3 3039 1 28 2 3e8 3de 7 3 37 2 1 3e8 3de 7 3 37 2 1 258 "
      "255 32 0 0 0 190 189 5 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0 1 0 "
      "4136e36000000000 413312d000000000 40fe848000000000 40fe848000000000 "
      "fa0 402c800000000000 4040c00000000000 3fec000000000000 1 3b9aca00 "
      "4029000000000000 1 77359400 3fa0000000000000 1 b2d05e00 "
      "4023000000000000 1 b2d05e00 3fe8000000000000 1 3fa0000000000000 1 "
      "3fa0000000000000 1 3fd0000000000000 1 3fd0000000000000 2 "
      "403c800000000000 2 1 0 0 3ff0000000000000 4013000000000000 3 1 3 0 1 "
      "4059000000000000 3fb0000000000000 0 0 1 12a05f200 c "
      "636f6e736572766174696f6e a 6f6666206279206f6e65";

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(v3_payload, decoded).ok());
  EXPECT_TRUE(decoded.links.empty());
  EXPECT_EQ(decoded.events_executed, 12345u);
  EXPECT_EQ(decoded.clamped_events, 1u);
  EXPECT_EQ(decoded.invariant_checks, 40u);
  EXPECT_EQ(decoded.counters.enqueued, 1000);
  EXPECT_EQ(decoded.counters.forwarded, 990);
  EXPECT_EQ(decoded.counters.marked, 55);
  EXPECT_EQ(decoded.band_l.enqueued, 600);
  EXPECT_EQ(decoded.band_c.enqueued, 400);
  EXPECT_TRUE(same_bits(decoded.mean_qdelay_ms, 14.25));
  EXPECT_TRUE(same_bits(decoded.p99_qdelay_ms, 33.5));
  EXPECT_TRUE(same_bits(decoded.utilization, 0.875));
  EXPECT_TRUE(same_bits(decoded.fluid.arrival_bytes, 1.5e6));
  EXPECT_EQ(decoded.fluid.ticks, 4000u);
  ASSERT_EQ(decoded.qdelay_ms_series.points().size(), 1u);
  EXPECT_TRUE(same_bits(decoded.qdelay_ms_series.points()[0].value, 12.5));
  ASSERT_EQ(decoded.flows.size(), 2u);
  EXPECT_EQ(decoded.flows[0].cc, tcp::CcType::kCubic);
  EXPECT_TRUE(same_bits(decoded.flows[0].goodput_mbps, 4.75));
  EXPECT_TRUE(decoded.flows[1].is_fluid);
  ASSERT_EQ(decoded.violations.size(), 1u);
  EXPECT_EQ(decoded.violations[0].check, "conservation");
  EXPECT_EQ(decoded.violations[0].detail, "off by one");

  // Re-encoding a v3-decoded result produces a v5 payload (with an empty
  // links section and a default resilience section) that decodes to the
  // same digest.
  scenario::RunResult again;
  const std::string v5_payload = encode_result(decoded);
  EXPECT_EQ(v5_payload.rfind("pi2-result-v5", 0), 0u);
  ASSERT_TRUE(decode_result(v5_payload, again).ok());
  EXPECT_EQ(check::result_digest(again), check::result_digest(decoded));

  // A v3 payload with trailing bytes (e.g. a glued links section) is still
  // structural damage, not silently accepted.
  EXPECT_FALSE(decode_result(v3_payload + " 1", decoded).ok());
}

TEST(ResultCodec, ResilienceReportSurvivesTheTrip) {
  scenario::RunResult result;
  stats::ResilienceReport& rr = result.resilience;
  rr.analyzed = true;
  rr.windows = 3;
  rr.recovered_windows = 2;
  rr.recovery_s = {0.6, -1.0, 1.25};
  rr.worst_recovery_s = -1.0;
  rr.mean_recovery_s = 0.925;
  rr.peak_qdelay_ms = 180.5;
  rr.pre_fault_mean_qdelay_ms = 19.75;
  rr.post_fault_mean_qdelay_ms = 21.5;
  rr.post_fault_delta_ms = 1.75;
  rr.violations_in_window = 4;
  rr.violations_outside = 1;

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(encode_result(result), decoded).ok());
  EXPECT_TRUE(decoded.resilience == result.resilience);

  // The digest folds the report, so altering any score must change it.
  scenario::RunResult tweaked = result;
  tweaked.resilience.worst_recovery_s = 2.0;
  EXPECT_NE(check::result_digest(tweaked), check::result_digest(result));
  tweaked = result;
  tweaked.resilience.recovery_s[1] = 0.5;
  EXPECT_NE(check::result_digest(tweaked), check::result_digest(result));
  EXPECT_EQ(check::result_digest(decoded), check::result_digest(result));
}

TEST(ResultCodec, V4PayloadsStayReadable) {
  // A v4 payload is exactly a v5 payload minus the trailing resilience
  // section; build one from the encoder and re-badge the magic. It must
  // keep decoding — resumed sweeps replay v4-era journals — and surface the
  // default (unanalyzed) report.
  scenario::RunResult result;
  result.events_executed = 42;
  result.counters.enqueued = 7;
  scenario::LinkSlice link;
  link.name = "bottleneck";
  link.counters.enqueued = 7;
  result.links.push_back(std::move(link));

  const std::string v5_payload = encode_result(result);
  ASSERT_EQ(v5_payload.rfind("pi2-result-v5", 0), 0u);
  const std::string default_resilience_section =
      " 0 0 0 0000000000000000 0000000000000000 0000000000000000"
      " 0000000000000000 0000000000000000 0000000000000000 0 0 0";
  ASSERT_GE(v5_payload.size(), default_resilience_section.size());
  ASSERT_EQ(v5_payload.substr(v5_payload.size() -
                              default_resilience_section.size()),
            default_resilience_section)
      << "encoder no longer ends with the default resilience section; "
         "update this synthesizer";
  const std::string v4_payload =
      "pi2-result-v4" +
      v5_payload.substr(std::strlen("pi2-result-v5"),
                        v5_payload.size() - std::strlen("pi2-result-v5") -
                            default_resilience_section.size());

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(v4_payload, decoded).ok());
  EXPECT_FALSE(decoded.resilience.analyzed);
  EXPECT_TRUE(decoded.resilience == stats::ResilienceReport{});
  EXPECT_EQ(decoded.events_executed, 42u);
  ASSERT_EQ(decoded.links.size(), 1u);
  EXPECT_EQ(decoded.links[0].name, "bottleneck");
  EXPECT_EQ(check::result_digest(decoded), check::result_digest(result));

  // A v4 payload with trailing bytes (e.g. a glued resilience section) is
  // still structural damage, not silently accepted.
  EXPECT_FALSE(decode_result(v4_payload + " 1", decoded).ok());
}

TEST(ResultCodec, ViolationsSurviveTheTrip) {
  scenario::RunResult result;
  faults::InvariantViolation violation;
  violation.at = pi2::sim::from_millis(1234);
  violation.check = "backlog";
  violation.detail = "negative backlog: -1 bytes";
  result.violations.push_back(violation);

  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(encode_result(result), decoded).ok());
  ASSERT_EQ(decoded.violations.size(), 1u);
  EXPECT_EQ(decoded.violations[0].at, violation.at);
  EXPECT_EQ(decoded.violations[0].check, "backlog");
  EXPECT_EQ(decoded.violations[0].detail, "negative backlog: -1 bytes");
}

TEST(ResultCodec, StructuralDamageIsCorruptNeverGarbage) {
  scenario::RunResult decoded;
  EXPECT_EQ(decode_result("", decoded).code(), StatusCode::kCorrupt);
  EXPECT_EQ(decode_result("wrong-magic 1 2 3", decoded).code(),
            StatusCode::kCorrupt);

  const scenario::RunResult blank;
  const std::string payload = encode_result(blank);
  // Truncations at every prefix must fail structurally, not crash or
  // half-populate.
  for (std::size_t cut = 0; cut + 1 < payload.size(); cut += 7) {
    scenario::RunResult victim;
    EXPECT_FALSE(decode_result(payload.substr(0, cut), victim).ok())
        << "truncation at " << cut << " must be rejected";
  }
  // Trailing garbage is also structural damage.
  EXPECT_FALSE(decode_result(payload + " deadbeef", decoded).ok());
}

TEST(ResultCodec, EmptyResultRoundtrips) {
  const scenario::RunResult empty;
  scenario::RunResult decoded;
  ASSERT_TRUE(decode_result(encode_result(empty), decoded).ok());
  EXPECT_EQ(check::result_digest(decoded), check::result_digest(empty));
}

}  // namespace
}  // namespace pi2::durable
