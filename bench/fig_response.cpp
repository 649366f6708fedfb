// Responsiveness to a capacity step (the paper's section 4.4 regime): the
// bottleneck drops from 40 to 10 Mb/s mid-run — a 4x capacity loss — then
// recovers, and we measure how long each AQM needs to bring the queue delay
// back to its 20 ms target band.
//
// The step is expressed as a FaultSchedule (two kRateStep events) replayed
// by the FaultInjector, and both runs execute through the guarded runner
// with the InvariantMonitor sampling alongside the stats probes — this
// binary doubles as the end-to-end exercise of the fault-injection
// subsystem (ctest: fault_injection_smoke).
//
// Like the sweep binaries, runs are durable: each completed AQM run is
// journaled (fsync'd) before its row prints, SIGINT/SIGTERM stop at a run
// boundary (exit 75), --resume replays journaled runs byte-identically, and
// --json is written atomically.
//
// Headline: PI2's linearized law keeps its gain correct at high p, so it
// re-converges after the drop at least as fast as PIE.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sweep.hpp"

namespace {

using namespace pi2;
using namespace pi2::bench;

double duration_s(const Options& opts) {
  if (opts.duration_s_override > 0) return opts.duration_s_override;
  return opts.full ? 60.0 : 30.0;
}

/// First time after `step_at` from which the sampled queue delay stays
/// inside the settle band for `hold` seconds; returns the settle latency in
/// seconds, or -1 when the run never settles.
double settle_after_s(const stats::TimeSeries& qdelay_ms, double step_at_s,
                      double window_end_s, double band_ms, double hold_s) {
  const auto& pts = qdelay_ms.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double t = sim::to_seconds(pts[i].t);
    if (t < step_at_s || t + hold_s > window_end_s) continue;
    bool held = true;
    for (std::size_t j = i; j < pts.size(); ++j) {
      const double tj = sim::to_seconds(pts[j].t);
      if (tj > t + hold_s) break;
      if (pts[j].value > band_ms) {
        held = false;
        break;
      }
    }
    if (held) return t - step_at_s;
  }
  return -1.0;
}

/// Campaign digest for the response experiment: everything the two runs'
/// results depend on.
std::uint64_t response_campaign_key(const Options& opts, double total_s) {
  durable::Fnv1a h;
  h.mix_string("pi2-response-campaign-v1");
  h.mix_u64(opts.seed);
  h.mix_double(total_s);
  return h.state;
}

std::uint64_t response_point_key(std::size_t index, scenario::AqmType aqm,
                                 std::uint64_t derived_seed) {
  durable::Fnv1a h;
  h.mix_string("pi2-response-point-v1");
  h.mix_u64(index);
  h.mix_u64(static_cast<std::uint64_t>(aqm));
  h.mix_u64(derived_seed);
  return h.state;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse_options(argc, argv);
  print_header("Responsiveness", "40 -> 10 -> 40 Mb/s capacity step, PI2 vs PIE",
               opts);
  durable::ShutdownController::install();

  const double total_s = duration_s(opts);
  const double down_s = total_s / 3.0;
  const double up_s = 2.0 * total_s / 3.0;
  const double hold_s = total_s >= 30.0 ? 2.0 : 0.5;
  const double target_ms = 20.0;
  const double band_ms = 2.0 * target_ms;  // "re-converged": within 2x target
  const std::vector<scenario::AqmType> aqms{scenario::AqmType::kCoupledPi2,
                                            scenario::AqmType::kPie};

  std::printf("# step down at %.1f s, step up at %.1f s; settle = qdelay "
              "held <= %.0f ms for %.1f s\n",
              down_s, up_s, band_ms, hold_s);
  std::printf("%-14s %-16s %-16s %-12s %-12s %-8s\n", "aqm",
              "settle_drop[s]", "settle_rise[s]", "peak[ms]", "invariants",
              "guards");

  const runner::ParallelRunner pool{opts.jobs};
  bool healthy = true;
  std::vector<double> settle_drop(aqms.size(), -1.0);
  const bool telemetry_on = !opts.telemetry_dir.empty();

  const std::uint64_t campaign = response_campaign_key(opts, total_s);
  const std::string journal_file = bench::detail::journal_path(opts);
  std::vector<std::uint64_t> keys(aqms.size());
  for (std::size_t i = 0; i < aqms.size(); ++i) {
    keys[i] = response_point_key(i, aqms[i], sim::Rng::derive_seed(opts.seed, i));
  }

  // --resume: replay journaled runs through the unchanged print path.
  std::vector<std::unique_ptr<scenario::RunResult>> replay(aqms.size());
  bool journal_keep = false;
  if (opts.resume) {
    const durable::LoadedJournal loaded =
        durable::load_journal(journal_file, campaign);
    if (loaded.exists && !loaded.header_ok) {
      std::fprintf(stderr,
                   "resume: journal %s is from a different campaign; "
                   "ignoring it\n",
                   journal_file.c_str());
    }
    if (loaded.header_ok) {
      journal_keep = true;
      std::size_t replayed = 0;
      for (std::size_t i = 0; i < aqms.size(); ++i) {
        const auto it = loaded.points.find(keys[i]);
        if (it == loaded.points.end()) continue;
        auto result = std::make_unique<scenario::RunResult>();
        if (durable::decode_result(it->second, *result).ok()) {
          replay[i] = std::move(result);
          ++replayed;
        }
      }
      std::fprintf(stderr, "resume: replaying %zu of %zu run(s) from %s\n",
                   replayed, aqms.size(), journal_file.c_str());
    }
  }
  durable::JournalWriter journal{journal_file, campaign, journal_keep};

  // --json: one flat record per AQM with the settle metrics, in the same
  // array-of-flat-objects format the sweep binaries use (and the golden
  // comparator parses). Written atomically; aborted on interrupt.
  std::unique_ptr<durable::AtomicFile> json;
  bool json_first = true;
  if (!opts.json_path.empty()) {
    json = std::make_unique<durable::AtomicFile>(opts.json_path);
    if (!json->healthy()) {
      std::fprintf(stderr, "warning: %s; no JSON written\n",
                   json->status().message().c_str());
      json.reset();
    } else {
      json->write("[");
    }
  }

  // shared_ptr, not unique_ptr: the runner's commit closure is a
  // std::function, which must stay copy-constructible.
  struct PointOutcome {
    scenario::RunResult result;
    std::shared_ptr<telemetry::Recorder> recorder;
  };

  std::size_t interrupted_points = 0;
  runner::GuardOptions guard;
  guard.cancel = durable::ShutdownController::flag();

  const auto report = pool.run_ordered_guarded<PointOutcome>(
      aqms.size(),
      [&](std::size_t i) {
        if (replay[i] != nullptr) {
          PointOutcome outcome;
          outcome.result = *replay[i];
          return outcome;
        }
        scenario::DumbbellConfig cfg;
        cfg.link_rate_bps = 40e6;
        cfg.aqm.type = aqms[i];
        cfg.aqm.ecn_drop_threshold = 1.0;
        cfg.duration = sim::from_seconds(total_s);
        cfg.stats_start = sim::from_seconds(total_s / 10.0);
        cfg.seed = sim::Rng::derive_seed(opts.seed, i);
        cfg.stop = durable::ShutdownController::flag();
        scenario::TcpFlowSpec cubic;
        cubic.cc = tcp::CcType::kCubic;
        cubic.count = 4;
        cubic.base_rtt = sim::from_millis(10);
        cfg.tcp_flows.push_back(cubic);
        cfg.faults.rate_step(sim::from_seconds(down_s), 10e6)
            .rate_step(sim::from_seconds(up_s), 40e6);
        PointOutcome outcome;
        if (telemetry_on) {
          outcome.recorder = std::make_shared<telemetry::Recorder>(
              bench::detail::point_recorder_config(opts, i));
          cfg.recorder = outcome.recorder.get();
        }
        outcome.result = scenario::run_dumbbell(cfg);
        return outcome;
      },
      [&](std::size_t i, runner::TaskStatus status, PointOutcome* outcome) {
        if (status == runner::TaskStatus::kInterrupted) {
          ++interrupted_points;
          return;
        }
        if (status != runner::TaskStatus::kOk || outcome == nullptr) {
          std::printf("%-14s point %s\n", aqm_label(aqms[i]),
                      runner::to_string(status));
          if (json != nullptr) {
            json->printf("%s\n  {\"index\": %zu, \"status\": \"%s\", "
                         "\"aqm\": \"%s\"}",
                         json_first ? "" : ",", i, runner::to_string(status),
                         aqm_label(aqms[i]));
            json_first = false;
          }
          healthy = false;
          return;
        }
        scenario::RunResult* result = &outcome->result;
        if (replay[i] == nullptr && journal.healthy()) {
          (void)journal.append_point(keys[i],
                                     durable::encode_result(*result));
        }
        if (outcome->recorder != nullptr) {
          std::printf("# telemetry: %s\n",
                      outcome->recorder->manifest_path().c_str());
          outcome->recorder.reset();
        } else if (telemetry_on && replay[i] != nullptr) {
          // Replayed runs re-use the interrupted run's artifacts; the path
          // is deterministic, so the printed line matches the original.
          std::printf("# telemetry: %s/%s.manifest.json\n",
                      opts.telemetry_dir.c_str(),
                      bench::detail::point_run_id(i).c_str());
        }
        const double drop = settle_after_s(result->qdelay_ms_series, down_s,
                                           up_s, band_ms, hold_s);
        const double rise = settle_after_s(result->qdelay_ms_series, up_s,
                                           total_s, band_ms, hold_s);
        settle_drop[i] = drop;
        double peak = 0.0;
        for (const auto& p : result->qdelay_ms_series.points()) {
          if (sim::to_seconds(p.t) >= down_s && p.value > peak) peak = p.value;
        }
        std::printf("%-14s %-16.2f %-16.2f %-12.1f %-12llu %-8llu\n",
                    aqm_label(aqms[i]), drop, rise, peak,
                    static_cast<unsigned long long>(result->violations.size()),
                    static_cast<unsigned long long>(result->guard_events));
        if (json != nullptr) {
          json->printf(
              "%s\n  {\"index\": %zu, \"status\": \"ok\", \"aqm\": \"%s\", "
              "\"seed\": %llu, "
              "\"settle_drop_s\": %.6g, \"settle_rise_s\": %.6g, "
              "\"peak_qdelay_ms\": %.6g, \"mean_qdelay_ms\": %.6g, "
              "\"utilization\": %.6g, "
              "\"events_executed\": %llu, \"clamped_events\": %llu, "
              "\"invariant_violations\": %llu, \"guard_events\": %llu}",
              json_first ? "" : ",", i, aqm_label(aqms[i]),
              static_cast<unsigned long long>(sim::Rng::derive_seed(opts.seed, i)),
              drop, rise, peak, result->mean_qdelay_ms, result->utilization,
              static_cast<unsigned long long>(result->events_executed),
              static_cast<unsigned long long>(result->clamped_events),
              static_cast<unsigned long long>(result->violations.size()),
              static_cast<unsigned long long>(result->guard_events));
          json_first = false;
        }
        if (result->fault_counters.rate_changes != 2) {
          std::printf("!! %s: expected 2 rate changes, injector applied %llu\n",
                      aqm_label(aqms[i]),
                      static_cast<unsigned long long>(
                          result->fault_counters.rate_changes));
          healthy = false;
        }
        // Whether/when a run settles is the experiment's *finding* (short
        // smoke windows legitimately never settle); health is only about
        // the machinery.
        if (!result->violations.empty() || result->clamped_events != 0) {
          healthy = false;
        }
      },
      guard);

  if (durable::ShutdownController::requested()) {
    if (journal.healthy()) {
      (void)journal.append_interrupted(
          "signal " +
          std::to_string(durable::ShutdownController::signal_number()));
    }
    if (json != nullptr) json->abort();
    std::fprintf(stderr,
                 "response: interrupted — %zu run(s) unfinished; re-run with "
                 "--resume to finish (journal: %s)\n",
                 interrupted_points, journal_file.c_str());
    return durable::ShutdownController::kExitInterrupted;
  }
  if (json != nullptr) {
    json->write("\n]\n");
    const durable::Status status = json->commit();
    if (!status.ok()) {
      std::fprintf(stderr, "error: JSON not written: %s\n",
                   status.message().c_str());
    }
  }

  if (report.all_ok() && healthy && settle_drop[0] >= 0 &&
      settle_drop[1] >= 0) {
    std::printf("\n# PI2 settles %.2f s after the 4x drop vs PIE %.2f s (%s)\n",
                settle_drop[0], settle_drop[1],
                settle_drop[0] <= settle_drop[1] ? "PI2 at least as fast"
                                                 : "PIE faster here");
  }
  std::printf("# points ok: %zu/%zu\n", report.ok_count(),
              report.status.size());
  return report.all_ok() && healthy ? 0 : 1;
}
