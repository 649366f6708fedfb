// Probe-bus overhead microbenchmark: the telemetry subsystem's budget is
// <5% of end-to-end experiment wall clock (EXPERIMENTS.md,
// "Observability"). Measured three ways:
//
//  - a full dumbbell scenario (PI2 AQM, 2 cubic flows) with no recorder vs
//    a full Recorder attached — the pair the <5% budget is defined over,
//  - a bare send -> transmit -> deliver cycle through a FIFO BottleneckLink
//    with probes detached vs attached — the synthetic worst case (the
//    baseline cycle does almost nothing, so this ratio is an upper bound
//    on per-packet probe cost, not the budget metric), and
//  - the raw ProbeBus fan-out cost per departure event at 0/1/4 subscribers.
//
// Run it by hand; the dumbbell telemetry/baseline ratio is the number to
// compare across changes.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>

#include "net/bottleneck_link.hpp"
#include "net/probe_bus.hpp"
#include "scenario/aqm_factory.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace pi2;

constexpr double kRateBps = 1e9;
// At 1 Gb/s a default-MSS packet serializes in ~12 us; stepping the clock
// 20 us per iteration drains each packet before the next send.
constexpr sim::Duration kStep = sim::from_seconds(20e-6);

/// One send -> transmit -> sink cycle per iteration. `attach_telemetry`
/// toggles the full per-packet telemetry load (sojourn histogram + tx-bytes
/// counter on the departure probe; the bound gauges cost nothing here, they
/// are only read at sampling instants).
void run_link_cycle(benchmark::State& state, bool attach_telemetry) {
  sim::Simulator sim{1};
  net::BottleneckLink::Config config;
  config.rate_bps = kRateBps;
  config.buffer_packets = 64;
  scenario::AqmConfig aqm;
  aqm.type = scenario::AqmType::kFifo;
  net::BottleneckLink link{sim, config, aqm.make()};
  std::int64_t delivered = 0;
  net::CallbackSink count{[&delivered](const net::Packet&) { ++delivered; }};
  link.set_sink(count);

  telemetry::MetricsRegistry registry;
  if (attach_telemetry) telemetry::attach_link_probes(registry, link);

  net::Packet packet;
  packet.flow = 0;
  packet.size = net::kDefaultMss;
  for (auto _ : state) {
    ++packet.seq;
    link.send(packet);
    sim.run_until(sim.now() + kStep);
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["forwarded"] =
      static_cast<double>(link.counters().forwarded);
}

void BM_LinkCycle_ProbesDetached(benchmark::State& state) {
  run_link_cycle(state, false);
}
BENCHMARK(BM_LinkCycle_ProbesDetached);

void BM_LinkCycle_TelemetryAttached(benchmark::State& state) {
  run_link_cycle(state, true);
}
BENCHMARK(BM_LinkCycle_TelemetryAttached);

/// End-to-end budget pairs: a short dumbbell run (PI2 AQM, 4 cubic flows,
/// 5 s simulated — sized like a real smoke-grid point) in three modes:
///
///  - kDetached: no telemetry at all (baseline),
///  - kProbesAttached: pipeline probes wired into a bare MetricsRegistry —
///    the attached-vs-detached pair the <5% hot-path budget is defined
///    over (per-packet instrumentation, no artifact pipeline),
///  - kFullRecorder: a complete Recorder with the default 100 ms sampling
///    cadence and all on-disk artifacts, reported separately (this pays
///    for the JSONL stream; its relative cost shrinks on full-length runs
///    as the fixed artifact cost amortizes).
enum class DumbbellMode { kDetached, kProbesAttached, kFullRecorder };

void run_dumbbell_cycle(benchmark::State& state, DumbbellMode mode) {
  double sink = 0;
  for (auto _ : state) {
    scenario::DumbbellConfig cfg;
    cfg.link_rate_bps = 40e6;
    cfg.duration = sim::from_seconds(5.0);
    cfg.stats_start = sim::from_seconds(0.5);
    cfg.seed = 42;
    scenario::TcpFlowSpec flows;
    flows.cc = tcp::CcType::kCubic;
    flows.count = 4;
    flows.base_rtt = sim::from_millis(10);
    cfg.tcp_flows.push_back(flows);
    telemetry::MetricsRegistry registry;
    std::unique_ptr<telemetry::Recorder> recorder;
    if (mode == DumbbellMode::kProbesAttached) {
      cfg.registry = &registry;
    } else if (mode == DumbbellMode::kFullRecorder) {
      telemetry::RecorderConfig rc;
      rc.dir = (std::filesystem::temp_directory_path() /
                "pi2_micro_probe_overhead")
                   .string();  // overwritten every iteration
      rc.run_id = "bench";
      recorder = std::make_unique<telemetry::Recorder>(rc);
      cfg.recorder = recorder.get();
    }
    const scenario::RunResult result = scenario::run_dumbbell(cfg);
    sink += result.mean_qdelay_ms;
  }
  benchmark::DoNotOptimize(sink);
}

void BM_DumbbellRun_Baseline(benchmark::State& state) {
  run_dumbbell_cycle(state, DumbbellMode::kDetached);
}
BENCHMARK(BM_DumbbellRun_Baseline)->Unit(benchmark::kMillisecond);

void BM_DumbbellRun_ProbesAttached(benchmark::State& state) {
  run_dumbbell_cycle(state, DumbbellMode::kProbesAttached);
}
BENCHMARK(BM_DumbbellRun_ProbesAttached)->Unit(benchmark::kMillisecond);

void BM_DumbbellRun_FullRecorder(benchmark::State& state) {
  run_dumbbell_cycle(state, DumbbellMode::kFullRecorder);
}
BENCHMARK(BM_DumbbellRun_FullRecorder)->Unit(benchmark::kMillisecond);

/// Raw bus fan-out: cost of emit_departure with N trivial subscribers.
void run_bus_emit(benchmark::State& state, int subscribers) {
  net::ProbeBus bus;
  std::uint64_t sink = 0;
  for (int i = 0; i < subscribers; ++i) {
    bus.add_departure([&sink](const net::Packet& p, sim::Duration) {
      sink += static_cast<std::uint64_t>(p.size);
    });
  }
  net::Packet packet;
  packet.size = net::kDefaultMss;
  for (auto _ : state) {
    bus.emit_departure(packet, sim::Duration{0});
  }
  benchmark::DoNotOptimize(sink);
}

void BM_BusEmit_0Subscribers(benchmark::State& state) { run_bus_emit(state, 0); }
BENCHMARK(BM_BusEmit_0Subscribers);

void BM_BusEmit_1Subscriber(benchmark::State& state) { run_bus_emit(state, 1); }
BENCHMARK(BM_BusEmit_1Subscriber);

void BM_BusEmit_4Subscribers(benchmark::State& state) { run_bus_emit(state, 4); }
BENCHMARK(BM_BusEmit_4Subscribers);

/// The telemetry departure probe's own body (histogram record + counter
/// bump), isolated from the link machinery.
void BM_TelemetryDepartureProbeBody(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram& sojourn = registry.histogram(
      "link.sojourn_ms", telemetry::Histogram::Config{1e-3, 1e5, 8});
  telemetry::Counter& tx_bytes = registry.counter("link.tx_bytes");
  double value = 0.013;
  for (auto _ : state) {
    sojourn.record(value);
    tx_bytes.inc(net::kDefaultMss);
    value = value < 10.0 ? value * 1.01 : 0.013;
  }
  benchmark::DoNotOptimize(sojourn.count());
}
BENCHMARK(BM_TelemetryDepartureProbeBody);

}  // namespace

BENCHMARK_MAIN();
