// Oracle unit tests: each check must pass on healthy inputs AND detect the
// corruption it exists for (an oracle that can't fail verifies nothing).
#include "check/oracles.hpp"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "check/fuzzer.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"
#include "topology/dumbbell_adapter.hpp"
#include "topology/topology.hpp"

namespace pi2::check {
namespace {

scenario::DumbbellConfig small_config(scenario::AqmType aqm) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  cfg.duration = sim::from_seconds(2.0);
  cfg.stats_start = sim::from_seconds(0.5);
  cfg.aqm.type = aqm;
  scenario::TcpFlowSpec flow;
  flow.cc = tcp::CcType::kCubic;
  flow.count = 2;
  flow.base_rtt = sim::from_millis(20);
  cfg.tcp_flows.push_back(flow);
  return cfg;
}

/// A zero-count result with one slice per configured link.
topology::TopologyResult empty_result(const topology::TopologyConfig& cfg) {
  topology::TopologyResult result;
  for (const auto& link : cfg.links) {
    result.links.emplace_back().name = link.display_name();
  }
  return result;
}

bool has_detail(const std::vector<OracleFailure>& failures,
                const std::string& needle) {
  for (const auto& f : failures) {
    if (f.detail.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// a -> b (PI2) -> c (DualPI2), one TCP route across both links.
topology::TopologyConfig two_link_config() {
  topology::TopologyConfig cfg;
  cfg.nodes = {"a", "b", "c"};
  topology::LinkSpec ab;
  ab.from = "a";
  ab.to = "b";
  ab.aqm.type = scenario::AqmType::kPi2;
  topology::LinkSpec bc = ab;
  bc.from = "b";
  bc.to = "c";
  bc.aqm.type = scenario::AqmType::kDualPi2;
  cfg.links = {ab, bc};
  topology::TcpRoute route;
  route.spec.cc = tcp::CcType::kCubic;
  route.path = {"a", "b", "c"};
  cfg.tcp_flows.push_back(route);
  return cfg;
}

/// Books that balance on both links of two_link_config().
topology::TopologyResult healthy_two_link_result(
    const topology::TopologyConfig& cfg) {
  topology::TopologyResult result = empty_result(cfg);
  for (auto& link : result.links) {
    link.counters = {.enqueued = 100, .forwarded = 90, .aqm_dropped = 4,
                     .tail_dropped = 2, .marked = 6, .fault_dropped = 1,
                     .dequeue_dropped = 3};
    link.window_counters = {.enqueued = 50, .forwarded = 45, .aqm_dropped = 2,
                            .tail_dropped = 1, .marked = 3, .fault_dropped = 0,
                            .dequeue_dropped = 1};
    link.final_backlog_packets = 6;
    link.final_transmitting = true;
  }
  auto& dualq = result.links[1];
  dualq.band_l = {.enqueued = 60, .forwarded = 55, .marked = 5,
                  .aqm_dropped = 1, .tail_dropped = 1, .dequeue_dropped = 0};
  dualq.band_c = {.enqueued = 40, .forwarded = 35, .marked = 1,
                  .aqm_dropped = 3, .tail_dropped = 1, .dequeue_dropped = 3};
  dualq.window_band_l = {.enqueued = 30, .forwarded = 27, .marked = 2,
                         .aqm_dropped = 1, .tail_dropped = 0,
                         .dequeue_dropped = 0};
  dualq.window_band_c = {.enqueued = 20, .forwarded = 18, .marked = 1,
                         .aqm_dropped = 1, .tail_dropped = 1,
                         .dequeue_dropped = 1};
  return result;
}

/// A frozen registry whose probe-bus metrics agree with `result`.
telemetry::MetricsRegistry mirrored_registry(
    const topology::TopologyResult& result) {
  telemetry::MetricsRegistry registry;
  const auto& c = result.links[0].counters;
  auto& sojourn = registry.histogram("link.sojourn_ms");
  for (std::int64_t i = 0; i < c.forwarded; ++i) sojourn.record(1.0);
  registry.counter("link.tx_bytes")
      .inc(static_cast<std::uint64_t>(c.forwarded * net::kDefaultMss));
  registry.gauge("queue.backlog_packets")
      .set(static_cast<double>(result.links[0].final_backlog_packets));
  registry.gauge("link.enqueued").set(static_cast<double>(c.enqueued));
  registry.gauge("link.forwarded").set(static_cast<double>(c.forwarded));
  registry.gauge("link.aqm_dropped").set(static_cast<double>(c.aqm_dropped));
  registry.gauge("link.tail_dropped").set(static_cast<double>(c.tail_dropped));
  registry.gauge("link.marked").set(static_cast<double>(c.marked));
  registry.gauge("link.fault_dropped").set(static_cast<double>(c.fault_dropped));
  const auto& c1 = result.links[1].counters;
  const std::string prefix = "topo." + result.links[1].name + ".";
  registry.gauge(prefix + "backlog_packets")
      .set(static_cast<double>(result.links[1].final_backlog_packets));
  registry.gauge(prefix + "enqueued").set(static_cast<double>(c1.enqueued));
  registry.gauge(prefix + "forwarded").set(static_cast<double>(c1.forwarded));
  registry.gauge(prefix + "aqm_dropped").set(static_cast<double>(c1.aqm_dropped));
  registry.gauge(prefix + "tail_dropped").set(static_cast<double>(c1.tail_dropped));
  registry.gauge(prefix + "marked").set(static_cast<double>(c1.marked));
  registry.gauge(prefix + "fault_dropped")
      .set(static_cast<double>(c1.fault_dropped));
  return registry;
}

TEST(Oracles, CleanRunPassesAllOracles) {
  const auto outcome = run_case_oracles(small_config(scenario::AqmType::kCoupledPi2), 0);
  for (const auto& f : outcome.failures) {
    ADD_FAILURE() << "[" << f.oracle << "] " << f.detail;
  }
  EXPECT_NE(outcome.digest, 0u);
}

TEST(Oracles, DigestIsDeterministicAcrossRuns) {
  const auto cfg = small_config(scenario::AqmType::kPi2);
  const auto a = run_case_oracles(cfg, 0);
  const auto b = run_case_oracles(cfg, 0);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Oracles, DigestSeesCounterChanges) {
  scenario::RunResult a;
  a.counters.forwarded = 100;
  scenario::RunResult b = a;
  b.counters.forwarded = 101;
  EXPECT_NE(result_digest(a), result_digest(b));
  scenario::RunResult c = a;
  c.mean_qdelay_ms = 1e-9;
  EXPECT_NE(result_digest(a), result_digest(c));
}

TEST(Oracles, InjectedFailureSurfaces) {
  OracleOptions options;
  options.inject_failure = "injected";
  const auto outcome =
      run_case_oracles(small_config(scenario::AqmType::kPie), 3, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.failures.back().oracle, "injected");
}

TEST(Oracles, ConservationDetectsMissingMetrics) {
  // An empty registry means the probe wiring never happened: the oracle must
  // say so rather than silently pass.
  const auto cfg = topology::from_dumbbell(small_config(scenario::AqmType::kPi2));
  auto result = empty_result(cfg);
  result.links[0].counters.forwarded = 10;
  telemetry::MetricsRegistry empty;
  std::vector<OracleFailure> failures;
  check_link_gauges(cfg, result, empty, failures);
  EXPECT_FALSE(failures.empty());
}

TEST(Oracles, ConservationDetectsCounterDrift) {
  const auto cfg = topology::from_dumbbell(small_config(scenario::AqmType::kPi2));
  auto result = empty_result(cfg);
  result.links[0].counters.enqueued = 50;
  result.links[0].counters.forwarded = 10;  // 40 packets unaccounted for
  telemetry::MetricsRegistry registry;
  registry.histogram("link.sojourn_ms");  // count 0 != forwarded 10
  registry.gauge("queue.backlog_packets").set(0.0);
  std::vector<OracleFailure> failures;
  check_link_gauges(cfg, result, registry, failures);
  check_topology_links(cfg, result, failures);
  EXPECT_TRUE(has_detail(failures, "departure-probe"));
  EXPECT_TRUE(has_detail(failures, "residual 40"));
}

TEST(Oracles, InvariantsCleanDetectsClampsGuardsAndViolations) {
  const auto cfg = topology::from_dumbbell(small_config(scenario::AqmType::kPi2));
  {
    auto result = empty_result(cfg);
    result.invariant_checks = 5;
    result.clamped_events = 1;
    std::vector<OracleFailure> failures;
    check_topology_invariants(cfg, result, failures);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].oracle, "invariants");
  }
  {
    auto result = empty_result(cfg);
    result.invariant_checks = 5;
    result.links[0].guard_events = 2;
    std::vector<OracleFailure> failures;
    check_topology_invariants(cfg, result, failures);
    EXPECT_EQ(failures.size(), 1u);
  }
  {
    auto result = empty_result(cfg);
    result.invariant_checks = 5;
    result.violations.push_back({sim::from_seconds(1.0), "prob-finite", "p=nan"});
    std::vector<OracleFailure> failures;
    check_topology_invariants(cfg, result, failures);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("prob-finite"), std::string::npos);
  }
  {
    // check_invariants enabled but the monitor never ran: suspicious.
    const auto result = empty_result(cfg);
    std::vector<OracleFailure> failures;
    check_topology_invariants(cfg, result, failures);
    EXPECT_EQ(failures.size(), 1u);
  }
}

TEST(Oracles, CouplingLawHoldsForCoupledDisciplines) {
  for (const auto type : {scenario::AqmType::kPi2, scenario::AqmType::kCoupledPi2,
                          scenario::AqmType::kCurvyRed}) {
    auto cfg = small_config(type);
    cfg.aqm.coupling_k = 2.0;
    std::vector<OracleFailure> failures;
    check_coupling_law(cfg.aqm, cfg.seed, "", failures);
    for (const auto& f : failures) {
      ADD_FAILURE() << scenario::to_string(type) << ": " << f.detail;
    }
  }
}

TEST(Oracles, CouplingLawSkipsUncoupledDisciplines) {
  for (const auto type : {scenario::AqmType::kPie, scenario::AqmType::kFifo,
                          scenario::AqmType::kCodel}) {
    const auto cfg = small_config(type);
    std::vector<OracleFailure> failures;
    check_coupling_law(cfg.aqm, cfg.seed, "", failures);
    EXPECT_TRUE(failures.empty());
  }
}

TEST(Oracles, CouplingSnapshotDetectsDecoupledGauges) {
  auto cfg = small_config(scenario::AqmType::kCoupledPi2);
  cfg.aqm.coupling_k = 2.0;
  telemetry::MetricsRegistry registry;
  registry.gauge("aqm.p_prime").set(0.4);
  registry.gauge("aqm.p").set(0.04);  // (0.4/2)^2 = 0.04: consistent
  std::vector<OracleFailure> failures;
  check_coupling_snapshot(cfg.aqm, registry, failures);
  EXPECT_TRUE(failures.empty());

  registry.gauge("aqm.p").set(0.05);  // decoupled
  check_coupling_snapshot(cfg.aqm, registry, failures);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].oracle, "coupling-law");
}

// The per-link checks over hand-built two-link results: each fault below
// sits where only the per-link path looks (a later link's band windows,
// every link's mirrored gauges, links[0]'s sojourn probe).

TEST(Oracles, LinkChecksPassAHealthyTwoLinkResult) {
  const auto cfg = two_link_config();
  const auto result = healthy_two_link_result(cfg);
  std::vector<OracleFailure> failures;
  check_topology_links(cfg, result, failures);
  check_link_gauges(cfg, result, mirrored_registry(result), failures);
  for (const auto& f : failures) ADD_FAILURE() << "[" << f.oracle << "] " << f.detail;
}

TEST(Oracles, LinkChecksDetectBandWindowAboveWholeOnSecondLink) {
  const auto cfg = two_link_config();
  auto result = healthy_two_link_result(cfg);
  // Move one window AQM drop from C to L: the L + C sums still match, but
  // L's window now exceeds L's whole-run count.
  result.links[1].window_band_l.aqm_dropped += 1;
  result.links[1].window_band_c.aqm_dropped -= 1;
  std::vector<OracleFailure> failures;
  check_topology_links(cfg, result, failures);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].oracle, "dualq");
  EXPECT_NE(failures[0].detail.find("link b->c: band L window aqm_dropped 2"),
            std::string::npos)
      << failures[0].detail;
}

TEST(Oracles, LinkGaugesDetectPrimaryCounterDrift) {
  const auto cfg = two_link_config();
  const auto result = healthy_two_link_result(cfg);
  for (const char* name :
       {"link.tail_dropped", "link.fault_dropped", "link.enqueued"}) {
    telemetry::MetricsRegistry registry = mirrored_registry(result);
    registry.gauge(name).set(registry.gauge(name).value() + 1.0);
    std::vector<OracleFailure> failures;
    check_link_gauges(cfg, result, registry, failures);
    ASSERT_EQ(failures.size(), 1u) << name;
    EXPECT_NE(failures[0].detail.find(std::string("gauge ") + name),
              std::string::npos)
        << failures[0].detail;
  }
}

TEST(Oracles, LinkGaugesDetectLaterLinkDrift) {
  // links[1] mirrors the same six counters and its backlog as
  // "topo.b->c.*" gauges; drift in any of them is a lying probe.
  const auto cfg = two_link_config();
  const auto result = healthy_two_link_result(cfg);
  telemetry::MetricsRegistry registry = mirrored_registry(result);
  const std::string prefix = "topo." + result.links[1].name + ".";
  for (const char* name : {"tail_dropped", "backlog_packets"}) {
    auto& gauge = registry.gauge(prefix + name);
    gauge.set(gauge.value() + 1.0);
  }
  std::vector<OracleFailure> failures;
  check_link_gauges(cfg, result, registry, failures);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_TRUE(has_detail(failures, "gauge " + prefix + "tail_dropped = 3"));
  EXPECT_TRUE(has_detail(failures, "gauge " + prefix + "backlog_packets = 7"));
}

TEST(Oracles, LinkGaugesDetectSojournCountMismatch) {
  const auto cfg = two_link_config();
  const auto result = healthy_two_link_result(cfg);
  telemetry::MetricsRegistry registry = mirrored_registry(result);
  registry.histogram("link.sojourn_ms").record(1.0);  // one departure too many
  std::vector<OracleFailure> failures;
  check_link_gauges(cfg, result, registry, failures);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].detail.find("departure-probe count"), std::string::npos)
      << failures[0].detail;
}

TEST(Oracles, TelemetryRoundtripMatchesAndDetectsDrift) {
  const std::string path = ::testing::TempDir() + "/roundtrip.jsonl";
  telemetry::MetricsRegistry registry;
  registry.counter("x").inc(5);
  registry.gauge("y").set(1.5);

  {
    std::ofstream out{path};
    out << "{\"t_s\": 0.5, \"x\": 2, \"y\": 0.1}\n";
    out << "{\"t_s\": 1.0, \"x\": 5, \"y\": 1.5}\n";
  }
  std::vector<OracleFailure> failures;
  check_telemetry_roundtrip(path, registry, failures);
  for (const auto& f : failures) ADD_FAILURE() << f.detail;

  {
    std::ofstream out{path};
    out << "{\"t_s\": 1.0, \"x\": 6, \"y\": 1.5}\n";  // x drifted
  }
  failures.clear();
  check_telemetry_roundtrip(path, registry, failures);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].detail.find("metric x"), std::string::npos);

  {
    std::ofstream out{path};
    out << "{\"t_s\": 1.0, \"x\": 5}\n";  // y missing
  }
  failures.clear();
  check_telemetry_roundtrip(path, registry, failures);
  EXPECT_FALSE(failures.empty());
}

TEST(Oracles, ScratchDirEnablesTelemetryOracle) {
  OracleOptions options;
  options.scratch_dir = ::testing::TempDir() + "/oracle_scratch";
  options.run_id = "unit";
  const auto outcome =
      run_case_oracles(small_config(scenario::AqmType::kCoupledPi2), 0, options);
  for (const auto& f : outcome.failures) {
    ADD_FAILURE() << "[" << f.oracle << "] " << f.detail;
  }
  // The artifact set must actually exist for the oracle to have run.
  std::ifstream jsonl{options.scratch_dir + "/unit.jsonl"};
  EXPECT_TRUE(jsonl.good());
}

TEST(Oracles, FuzzedCasesAreCleanAtUnitScale) {
  // A miniature of the check_fuzz_smoke ctest, inside the unit suite so a
  // plain `ctest -R test_check` still exercises end-to-end cases.
  const ScenarioFuzzer fuzzer;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto cfg = fuzzer.make_config(i);
    const auto outcome = run_case_oracles(cfg, i);
    for (const auto& f : outcome.failures) {
      ADD_FAILURE() << "case " << i << " ("
                    << ScenarioFuzzer::describe(cfg) << "): [" << f.oracle
                    << "] " << f.detail;
    }
  }
}

}  // namespace
}  // namespace pi2::check
