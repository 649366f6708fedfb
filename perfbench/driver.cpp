// perf_driver: the workload runner behind perfbench/run.py.
//
// Runs one workload in-process through the public calls pi2_campaign makes
// for a campaign grid: campaign::load_spec/validate/expand, the per-point
// builders of bench/bench_common.hpp and bench/campaign_templates.hpp,
// runner::ParallelRunner::run_ordered_guarded, scenario::run_dumbbell,
// durable::encode_result + JournalWriter::append_point, and the --json
// record writers. A *pass* is one whole campaign (set-up, every point,
// journal, JSON); a run repeats passes over the committed reference seeds
// for --seconds and reports per-pass statistics.
//
//   perf_driver --workload W --seed N --seconds S --trace 0|1 [--commit C]
//   perf_driver --emit W --campaign-seed K --json PATH --journal PATH
//   perf_driver --write-reference
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced passes (on the telemetry workload also
// passes without the recorder), prints the per-layer table and metrics, and
// writes every span to .bench_work/<workload>/spans.jsonl when it ends.
//
// Every pass is checked: each point's --json record against the committed
// reference (perfbench/reference/<workload>/seed<K>.json) under
// check_golden's standard bands, failed or timed-out points, the resilience
// health gates, and the deterministic counts, which must repeat exactly for
// a seed within a run and between --jobs 1 and --jobs 2. Exit codes: 2 usage
// or set-up error, 3 a count changed (named on stderr), 4 sanitizer build
// refused, 75 interrupted. The last stdout line of a measuring run is its
// result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "build_info.hpp"
#include "campaign/spec.hpp"
#include "campaign_templates.hpp"
#include "check/golden.hpp"
#include "telemetry/run_manifest.hpp"
#include "tracer.hpp"

namespace {

using namespace pi2;
using namespace pi2::bench;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::Tracer;
namespace fs = std::filesystem;

// ---- workloads -------------------------------------------------------------

/// Each workload is a closed batch: `jobs` workers each take the next point
/// only after finishing the previous one. Why each exists: BENCHMARK.json.
struct Workload {
  const char* name;
  const char* spec;       ///< campaign spec, relative to the checkout root
  unsigned jobs;
  int packet_background;  ///< extra packet Reno flows per point
  bool telemetry;         ///< a full telemetry::Recorder per point
};

constexpr Workload kWorkloads[] = {
    {"packet_grid", "campaigns/fig15.json", 2, 0, false},
    {"fluid_faults", "campaigns/fig_resilience.json", 2, 0, false},
    {"bdp_flows_telemetry", "perfbench/specs/bdp_flows.json", 1, 100, true},
};

/// Campaign seeds with committed reference records. A run cycles through
/// all of them from where its --seed points, a whole cycle at a time, so
/// every run measures the same inputs in a seed-chosen order.
constexpr std::uint64_t kCampaignSeeds[] = {1, 2, 3};
constexpr std::size_t kSeedCount = std::size(kCampaignSeeds);

/// A run stops starting passes after this long even if its last cycle is
/// unfinished, so it always ends well inside its time limit.
constexpr double kHardStopS = 120.0;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string work_dir(const Workload& w) {
  return std::string(".bench_work/") + w.name;
}

std::string reference_path(const Workload& w, std::uint64_t seed) {
  return std::string("perfbench/reference/") + w.name + "/seed" +
         std::to_string(seed) + ".json";
}

// ---- per-point counts ------------------------------------------------------

/// Counts that must repeat exactly for one seed and recorder setting.
enum CountIndex : std::size_t {
  kEvents,
  kForwarded,
  kDrops,
  kMarked,
  kRetransmits,
  kTimeouts,
  kFluidTicks,
  kFaultsApplied,
  kInvariantChecks,
  kExactCountN
};
constexpr const char* kExactCountNames[kExactCountN] = {
    "sim.events",  "net.forwarded",  "net.drops",
    "net.marked",  "tcp.retransmits", "tcp.timeouts",
    "fluid.ticks", "faults.applied", "faults.invariant_checks"};

struct PointCounts {
  bool ok = false;  ///< the point completed; failed points carry no counts
  std::array<std::uint64_t, kExactCountN> exact{};
  std::uint64_t clamped = 0;
  std::uint64_t guard_events = 0;
  std::uint64_t violations = 0;
  std::uint64_t signals = 0;   ///< stats-window AQM drops + marks
  std::uint64_t arrivals = 0;  ///< stats-window enqueued + AQM drops
  double fluid_arrival_bytes = 0.0;
  double fluid_served_bytes = 0.0;
};

std::uint64_t as_count(std::int64_t v) {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(v, 0));
}

PointCounts count_point(const scenario::RunResult& r) {
  std::int64_t forwarded = 0;
  std::int64_t drops = 0;
  std::int64_t marked = 0;
  for (const scenario::LinkSlice& link : r.links) {  // every bottleneck
    forwarded += link.counters.forwarded;
    drops += link.counters.aqm_dropped + link.counters.tail_dropped;
    marked += link.counters.marked;
  }
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  for (const scenario::FlowResult& flow : r.flows) {
    retransmits += flow.retransmits;
    timeouts += flow.timeouts;
  }
  const auto& f = r.fault_counters;
  const auto& window = r.window_counters;
  PointCounts c;
  c.ok = true;
  c.exact[kEvents] = r.events_executed;
  c.exact[kForwarded] = as_count(forwarded);
  c.exact[kDrops] = as_count(drops);
  c.exact[kMarked] = as_count(marked);
  c.exact[kRetransmits] = as_count(retransmits);
  c.exact[kTimeouts] = as_count(timeouts);
  c.exact[kFluidTicks] = r.fluid.ticks;
  c.exact[kFaultsApplied] = as_count(f.dropped + f.bleached + f.reordered +
                                     f.rate_changes + f.rtt_changes);
  c.exact[kInvariantChecks] = r.invariant_checks;
  c.clamped = r.clamped_events;
  c.guard_events = r.guard_events;
  c.violations = r.violations.size();
  c.signals = as_count(window.aqm_dropped + window.marked);
  c.arrivals = as_count(window.enqueued + window.aqm_dropped);
  c.fluid_arrival_bytes = r.fluid.arrival_bytes;
  c.fluid_served_bytes = r.fluid.served_bytes;
  return c;
}

/// Exits 3, naming the count, when two passes over the same inputs differ.
void require_same_counts(const std::vector<PointCounts>& first,
                         const std::vector<PointCounts>& again,
                         const std::string& what) {
  for (std::size_t i = 0; i < std::min(first.size(), again.size()); ++i) {
    if (!first[i].ok || !again[i].ok) continue;
    for (std::size_t k = 0; k < kExactCountN; ++k) {
      if (first[i].exact[k] == again[i].exact[k]) continue;
      std::fprintf(stderr,
                   "perf_driver: count %s changed at point %zu (%s): %llu "
                   "then %llu\n",
                   kExactCountNames[k], i, what.c_str(),
                   static_cast<unsigned long long>(first[i].exact[k]),
                   static_cast<unsigned long long>(again[i].exact[k]));
      std::exit(3);
    }
  }
}

// ---- the campaign path -----------------------------------------------------

/// Maps a point's axis values onto its scenario config exactly as
/// pi2_campaign's run_point does, for the two templates benchmarked here.
struct TemplateView {
  const campaign::Expansion& x;
  int aqm = -1, cc_mix = -1, rate = -1, rtt = -1, fault = -1, fluid = -1;
  std::map<std::string, faults::FaultSchedule> schedules;

  explicit TemplateView(const campaign::Expansion& expansion) : x(expansion) {
    using campaign::TemplateId;
    if (x.template_id != TemplateId::kDumbbellSweep &&
        x.template_id != TemplateId::kResilience) {
      throw std::runtime_error(std::string("template ") +
                               campaign::to_string(x.template_id) +
                               " is not benchmarked");
    }
    aqm = x.axis_of("aqm");
    cc_mix = x.axis_of("cc_mix");
    rate = x.axis_of("rate_mbps");
    rtt = x.axis_of("rtt_ms");
    fault = x.axis_of("fault_schedule");
    fluid = x.axis_of("fluid_flows");
    if (fault < 0) return;
    const faults::PresetContext ctx =
        resilience_fault_context(x.link_mbps, x.rtt_ms, x.duration_s);
    for (const auto& value : x.axes[static_cast<std::size_t>(fault)].values) {
      faults::FaultSchedule schedule;
      const std::string err =
          faults::resolve_schedule(value.text, ctx, &schedule);
      if (!err.empty()) throw std::runtime_error(value.text + ": " + err);
      schedules.emplace(value.text, std::move(schedule));
    }
  }

  [[nodiscard]] bool resilience() const {
    return x.template_id == campaign::TemplateId::kResilience;
  }
  [[nodiscard]] const std::string& text(const campaign::CampaignPoint& p,
                                        int axis) const {
    return p.values[static_cast<std::size_t>(axis)].text;
  }
  [[nodiscard]] double num(const campaign::CampaignPoint& p, int axis) const {
    return p.values[static_cast<std::size_t>(axis)].number;
  }

  [[nodiscard]] scenario::DumbbellConfig build(const campaign::CampaignPoint& p,
                                               const Options& opts) const {
    if (resilience()) {
      return resilience_config(aqm_from_name(text(p, aqm)),
                               schedules.at(text(p, fault)), num(p, fluid),
                               x.link_mbps, x.rtt_ms, x.duration_s,
                               x.stats_start_s, p.seed);
    }
    auto cfg = mix_config(aqm_from_name(text(p, aqm)),
                          mix_from_name(text(p, cc_mix)), num(p, rate),
                          num(p, rtt), opts);
    cfg.seed = p.seed;
    return cfg;
  }
};

/// The --json writers pi2_campaign uses for these templates: the figs
/// 15-18 record schema for the dumbbell sweep, the resilience emitters
/// through an AtomicFile otherwise.
class RecordSink {
 public:
  RecordSink(const TemplateView& view, const Options& opts) : v_(view) {
    if (!v_.resilience()) {
      sweep_ = std::make_unique<SweepJsonWriter>(
          opts.json_path,
          opts.packet_background > 0 || opts.fluid_background > 0);
      return;
    }
    json_ = std::make_unique<durable::AtomicFile>(opts.json_path);
    if (!json_->healthy()) {
      throw std::runtime_error("json: " + json_->status().message());
    }
    json_->write("[");
  }

  /// Writes the point's record; false when it fails its health check.
  bool record(const campaign::CampaignPoint& p,
              const scenario::RunResult& result,
              const std::string& manifest_path) {
    if (!v_.resilience()) {
      const SweepPoint point{aqm_from_name(v_.text(p, v_.aqm)),
                             mix_from_name(v_.text(p, v_.cc_mix)),
                             v_.num(p, v_.rate),
                             v_.num(p, v_.rtt),
                             result,
                             p.index,
                             p.seed,
                             manifest_path};
      sweep_->add(point);
      return true;
    }
    const std::string& aqm = v_.text(p, v_.aqm);
    const std::string& fault = v_.text(p, v_.fault);
    resilience_json_record(*json_, first_, p.index, aqm.c_str(),
                           fault.c_str(), v_.num(p, v_.fluid), p.seed,
                           v_.x.link_mbps, v_.x.rtt_ms, result);
    gate_.record(fault, aqm, result.resilience.worst_recovery_s);
    return resilience_machinery_healthy(result);
  }

  void failed(const campaign::CampaignPoint& p, runner::TaskStatus status,
              const std::string& message) {
    const std::string& aqm = v_.text(p, v_.aqm);
    if (!v_.resilience()) {
      sweep_->add_failed(p.index, aqm_from_name(aqm),
                         mix_from_name(v_.text(p, v_.cc_mix)),
                         v_.num(p, v_.rate), v_.num(p, v_.rtt), status,
                         message);
      return;
    }
    resilience_json_failed(*json_, first_, p.index, status, aqm.c_str(),
                           v_.text(p, v_.fault).c_str(), v_.num(p, v_.fluid));
  }

  bool commit() {
    if (sweep_ != nullptr) return sweep_->commit();
    json_->write("\n]\n");
    return json_->commit().ok();
  }

  /// The resilience template's cross-point gate (PI2 recovers no slower
  /// than PIE on every fault preset); vacuously true for the sweep.
  [[nodiscard]] bool gate_ok() const { return gate_.check(); }

 private:
  const TemplateView& v_;
  std::unique_ptr<SweepJsonWriter> sweep_;
  std::unique_ptr<durable::AtomicFile> json_;
  bool first_ = true;
  ResilienceGate gate_;
};

struct PassConfig {
  const Workload* w = nullptr;
  std::uint64_t campaign_seed = 1;
  unsigned jobs = 1;
  bool telemetry = false;
  std::string json_path;
  std::string journal_path;
  std::string telemetry_dir;
};

struct PassResult {
  std::uint32_t id = 0;
  double start_s = 0.0;  ///< tracer clock
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< pass start -> first point dispatched
  double cpu_s = 0.0;    ///< user + system, every thread
  std::uint64_t forwarded = 0;  ///< data packets through every bottleneck
  std::size_t attempts = 0;     ///< point attempts, retries included
  std::vector<PointCounts> counts;  ///< by point index
  std::vector<bool> bad;  ///< failed, timed out, unhealthy or out of band
  bool gate_ok = true;
  bool outputs_ok = true;  ///< journal, JSON and telemetry all written
  std::uintmax_t journal_bytes = 0;
  std::uintmax_t telemetry_bytes = 0;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    total += file_bytes(entry.path().string());
  }
  return total;
}

/// One whole campaign, as pi2_campaign runs it: spec -> expansion -> guarded
/// ordered fan-out -> journal + JSON record per point -> commit.
PassResult run_pass(const PassConfig& pc, std::uint32_t pass_id) {
  Tracer& tracer = Tracer::get();
  tracer.set_pass(pass_id);
  if (pc.telemetry) fs::remove_all(pc.telemetry_dir);
  PassResult r;
  r.id = pass_id;
  const double cpu_start = cpu_seconds();
  r.start_s = tracer.now();
  {
    campaign::CampaignSpec spec;
    std::string err;
    {
      ScopedSpan span{"campaign.load_spec"};
      err = campaign::load_spec(pc.w->spec, spec);
    }
    if (err.empty()) {
      ScopedSpan span{"campaign.validate"};
      err = spec.validate();
    }
    if (!err.empty()) throw std::runtime_error(err);

    Options opts;
    opts.argv0 = "perf_driver";
    opts.seed = pc.campaign_seed;
    opts.jobs = pc.jobs;
    opts.json_path = pc.json_path;
    opts.packet_background = pc.w->packet_background;
    if (pc.telemetry) opts.telemetry_dir = pc.telemetry_dir;

    campaign::ExpandOptions eo;
    eo.use_seed = true;
    eo.seed = pc.campaign_seed;
    campaign::Expansion x;
    {
      ScopedSpan span{"campaign.expand"};
      x = campaign::expand(spec, eo);
    }
    const std::size_t n = x.points.size();
    if (n == 0) throw std::runtime_error("campaign expands to 0 points");

    std::optional<TemplateView> view;
    {
      ScopedSpan span{"bench.preflight"};
      view.emplace(x);
    }
    std::optional<durable::JournalWriter> journal;
    {
      ScopedSpan span{"durable.open_journal"};
      journal.emplace(pc.journal_path, x.digest, /*keep_existing=*/false);
      if (!journal->healthy()) {
        throw std::runtime_error("journal: " + journal->status().message());
      }
      durable::ShardInfo shard;
      shard.present = true;
      shard.campaign = x.name;
      shard.digest = x.digest;
      shard.lo = 0;
      shard.hi = n;
      (void)journal->append_shard(shard);
    }
    std::optional<RecordSink> sink;
    {
      ScopedSpan span{"bench.open_output"};
      sink.emplace(*view, opts);
    }

    const runner::ParallelRunner pool{opts.jobs};
    const bool telemetry_on = !opts.telemetry_dir.empty();
    telemetry::MetricsRegistry aggregate;
    struct PointOutcome {
      scenario::RunResult result;
      std::shared_ptr<telemetry::Recorder> recorder;
    };
    std::mutex error_mutex;
    std::vector<std::string> last_error(n);  // guarded by error_mutex
    std::atomic<std::size_t> attempts{0};
    std::once_flag dispatched;
    bool journal_ok = true;
    r.counts.assign(n, {});
    r.bad.assign(n, false);
    {
      ScopedSpan runner_span{"runner.run_ordered_guarded"};
      const std::uint32_t runner_id = runner_span.id();
      pool.run_ordered_guarded<PointOutcome>(
          n,
          [&](std::size_t j) {
            std::call_once(dispatched,
                           [&] { r.setup_s = tracer.now() - r.start_s; });
            attempts.fetch_add(1, std::memory_order_relaxed);
            const auto point = static_cast<std::int64_t>(j);
            ScopedSpan task{"runner.task", point, runner_id};
            try {
              PointOutcome outcome;
              scenario::DumbbellConfig cfg;
              {
                ScopedSpan span{"bench.build_config", point};
                cfg = view->build(x.points[j], opts);
                cfg.stop = durable::ShutdownController::flag();
              }
              if (telemetry_on) {
                ScopedSpan span{"telemetry.open_recorder", point};
                outcome.recorder = std::make_shared<telemetry::Recorder>(
                    detail::point_recorder_config(opts, j));
                cfg.recorder = outcome.recorder.get();
              }
              {
                ScopedSpan span{"scenario.run_dumbbell", point};
                outcome.result = scenario::run_dumbbell(cfg);
              }
              return outcome;
            } catch (const std::exception& ex) {
              const std::lock_guard<std::mutex> lock{error_mutex};
              last_error[j] = ex.what();
              throw;
            }
          },
          [&](std::size_t j, runner::TaskStatus status,
              PointOutcome* outcome) {
            const campaign::CampaignPoint& p = x.points[j];
            const auto point = static_cast<std::int64_t>(j);
            if (status != runner::TaskStatus::kOk || outcome == nullptr) {
              r.bad[j] = true;
              if (status == runner::TaskStatus::kInterrupted) return;
              std::string message = "wall-clock deadline exceeded";
              if (status != runner::TaskStatus::kTimeout) {
                const std::lock_guard<std::mutex> lock{error_mutex};
                message =
                    last_error[j].empty() ? "unknown error" : last_error[j];
              }
              ScopedSpan span{"bench.record", point};
              sink->failed(p, status, message);
              return;
            }
            // Journal before the record, as pi2_campaign does.
            std::string payload;
            {
              ScopedSpan span{"durable.encode_result", point};
              payload = durable::encode_result(outcome->result);
            }
            {
              ScopedSpan span{"durable.append_point", point};
              journal_ok =
                  journal->append_point(p.key, payload).ok() && journal_ok;
            }
            std::string manifest_path;
            if (outcome->recorder != nullptr) {
              ScopedSpan span{"telemetry.aggregate", point};
              manifest_path = outcome->recorder->manifest_path();
              aggregate.merge_from(outcome->recorder->registry());
              outcome->recorder.reset();
            }
            {
              ScopedSpan span{"bench.record", point};
              if (!sink->record(p, outcome->result, manifest_path)) {
                r.bad[j] = true;
              }
            }
            r.counts[j] = count_point(outcome->result);
            r.forwarded += r.counts[j].exact[kForwarded];
          },
          detail::guard_options(opts));
    }
    {
      ScopedSpan span{"bench.commit"};
      r.outputs_ok = sink->commit() && journal_ok;
    }
    if (telemetry_on) {
      ScopedSpan span{"telemetry.export"};
      telemetry::PrometheusExporter exporter{opts.telemetry_dir +
                                             "/sweep_aggregate.prom"};
      aggregate.freeze_gauges();
      r.outputs_ok = exporter.finish(aggregate) && r.outputs_ok;
    }
    r.gate_ok = sink->gate_ok();
    r.attempts = attempts.load();
  }  // journal, output and runner state are released inside the pass
  r.wall_s = tracer.now() - r.start_s;
  r.cpu_s = cpu_seconds() - cpu_start;
  r.journal_bytes = file_bytes(pc.journal_path);
  if (pc.telemetry) r.telemetry_bytes = directory_bytes(pc.telemetry_dir);
  return r;
}

/// Compares the pass's --json records with the committed reference under
/// check_golden's standard bands and marks every point outside them.
void check_against_reference(const PassConfig& pc, PassResult& r) {
  check::GoldenOptions options = check::default_golden_options();
  // A pass without its recorder has no manifest path to compare.
  if (pc.w->telemetry && !pc.telemetry) {
    options.ignore_fields.emplace_back("telemetry_manifest");
  }
  const std::vector<std::string> mismatches = check::compare_golden(
      reference_path(*pc.w, pc.campaign_seed), pc.json_path, options);
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "perf_driver: %s seed %llu: %s\n", pc.w->name,
                 static_cast<unsigned long long>(pc.campaign_seed), m.c_str());
    unsigned long index = 0;
    if (std::sscanf(m.c_str(), "record %lu", &index) == 1 &&
        index < r.bad.size()) {
      r.bad[index] = true;
    } else {  // structural mismatch: no record can be trusted
      r.bad.assign(r.bad.size(), true);
    }
  }
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

template <typename T, typename F>
double median_of(const std::vector<T>& items, F f) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const T& item : items) v.push_back(f(item));
  return median(std::move(v));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- layer accounting from spans -------------------------------------------

constexpr const char* kLayers[] = {"campaign", "runner",   "bench",
                                   "scenario", "durable", "telemetry"};

/// What one traced pass's spans say. A span's self time is its duration
/// minus the spans it caused on the same thread; runner.task spans run on
/// workers, so with --jobs > 1 the runner span's self time is the main
/// thread's dispatch and wait time.
struct PassLayers {
  std::map<std::string, double> self_s;  ///< by layer
  std::map<std::string, double> call_s;  ///< total duration by span name
  double covered_s = 0.0;       ///< main-thread root spans
  std::vector<double> point_s;  ///< scenario.run_dumbbell durations
  double busy_frac = 0.0;       ///< task time / (jobs x runner span)
  double tail_idle_s = 0.0;     ///< per worker: last task end -> runner end
};

PassLayers analyze_pass(const std::vector<Span>& all, std::uint32_t pass,
                        std::uint32_t main_thread, unsigned jobs) {
  std::vector<const Span*> spans;
  std::unordered_map<std::uint32_t, const Span*> by_id;
  for (const Span& s : all) {
    if (s.pass != pass) continue;
    spans.push_back(&s);
    by_id.emplace(s.id, &s);
  }
  std::unordered_map<std::uint32_t, double> child_s;
  for (const Span* s : spans) {
    const auto parent = by_id.find(s->parent);
    if (parent != by_id.end() && parent->second->thread == s->thread) {
      child_s[s->parent] += s->end_s - s->start_s;
    }
  }
  PassLayers out;
  const Span* runner_span = nullptr;
  double busy_s = 0.0;
  std::map<std::uint32_t, double> last_task_end;  // by thread
  for (const Span* s : spans) {
    const double d = s->end_s - s->start_s;
    const std::string name = s->name;
    out.self_s[name.substr(0, name.find('.'))] += d - child_s[s->id];
    out.call_s[name] += d;
    if (s->parent == 0 && s->thread == main_thread) out.covered_s += d;
    if (name == "scenario.run_dumbbell") out.point_s.push_back(d);
    if (name == "runner.run_ordered_guarded") runner_span = s;
    if (name == "runner.task") {
      busy_s += d;
      double& end = last_task_end[s->thread];
      end = std::max(end, s->end_s);
    }
  }
  if (runner_span != nullptr) {
    const double span_s = runner_span->end_s - runner_span->start_s;
    out.busy_frac = ratio(busy_s, static_cast<double>(jobs) * span_s);
    for (const auto& [thread, end] : last_task_end) {
      out.tail_idle_s += runner_span->end_s - end;
    }
  }
  return out;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-26s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr ||
         telemetry::build_flags_string().find("sanitize=") !=
             std::string::npos;
#endif
}

std::string stamp_json(const Workload& w, std::uint64_t seed, double seconds,
                       bool trace, const std::string& commit) {
  char host[256] = "unknown";
  if (gethostname(host, sizeof host - 1) != 0) std::strcpy(host, "unknown");
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"commit\": \"%s\", \"host\": \"%s\", \"nproc\": %u, \"build\": "
      "\"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"sanitizer\": "
      "\"%s\", \"workload\": \"%s\", \"jobs\": %u, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}",
      json_escape(commit).c_str(), json_escape(host).c_str(),
      std::thread::hardware_concurrency(),
      json_escape(telemetry::build_flags_string()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      sanitizer_build() ? "yes" : "none", w.name, w.jobs,
      static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  return buf;
}

// ---- modes -----------------------------------------------------------------

PassConfig base_config(const Workload& w, std::uint64_t campaign_seed) {
  PassConfig pc;
  pc.w = &w;
  pc.campaign_seed = campaign_seed;
  pc.jobs = w.jobs;
  pc.telemetry = w.telemetry;
  pc.json_path = work_dir(w) + "/pass.json";
  pc.journal_path = work_dir(w) + "/pass.journal";
  pc.telemetry_dir = work_dir(w) + "/telemetry";
  fs::create_directories(work_dir(w));
  return pc;
}

enum class Mode { kUntraced, kTraced, kNoRecorder };

int measure(const Workload& w, std::uint64_t seed, double seconds, bool trace,
            const std::string& commit) {
  for (const std::uint64_t s : kCampaignSeeds) {
    if (!fs::is_regular_file(reference_path(w, s))) {
      std::fprintf(stderr, "perf_driver: missing reference %s\n",
                   reference_path(w, s).c_str());
      return 2;
    }
  }
  const std::string stamp = stamp_json(w, seed, seconds, trace, commit);
  std::printf("# stamp: %s\n", stamp.c_str());
  if (sanitizer_build()) {
    std::fprintf(stderr,
                 "perf_driver: refusing to report timings from a sanitizer "
                 "build\n");
    return 4;
  }
  Tracer& tracer = Tracer::get();
  const std::uint32_t main_thread = Tracer::thread_id();
  const std::size_t start = seed % kSeedCount;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool gates_ok = true;
  std::uint32_t next_pass = 1;
  // The first pass of each (campaign seed, recorder) pair; every later pass
  // over the same inputs must repeat its counts exactly.
  std::map<std::pair<std::uint64_t, bool>, PassResult> first;
  const auto checked_pass = [&](const PassConfig& pc,
                                const std::string& label) {
    PassResult r = run_pass(pc, next_pass++);
    if (durable::ShutdownController::requested()) {
      std::exit(durable::ShutdownController::kExitInterrupted);
    }
    check_against_reference(pc, r);
    attempted += r.bad.size();
    failed += static_cast<std::size_t>(
        std::count(r.bad.begin(), r.bad.end(), true));
    gates_ok = gates_ok && r.gate_ok && r.outputs_ok;
    const auto key = std::make_pair(pc.campaign_seed, pc.telemetry);
    if (const auto it = first.find(key); it != first.end()) {
      require_same_counts(it->second.counts, r.counts,
                          label + ", campaign seed " +
                              std::to_string(pc.campaign_seed));
    } else {
      first.emplace(key, r);
    }
    return r;
  };

  // Warm-up pass: fills caches and lazy set-up; untimed.
  const std::size_t points =
      checked_pass(base_config(w, kCampaignSeeds[start]), "repeat")
          .bad.size();

  std::vector<Mode> modes = {Mode::kUntraced};
  if (trace) {
    modes.push_back(Mode::kTraced);
    if (w.telemetry) modes.push_back(Mode::kNoRecorder);
  }
  std::map<Mode, std::vector<PassResult>> passes;
  const double t0 = tracer.now();
  for (std::size_t i = 0;; ++i) {
    const Mode mode = modes[i % modes.size()];
    PassConfig pc = base_config(
        w, kCampaignSeeds[(start + i / modes.size()) % kSeedCount]);
    pc.telemetry = w.telemetry && mode != Mode::kNoRecorder;
    tracer.set_enabled(mode == Mode::kTraced);
    passes[mode].push_back(checked_pass(pc, "repeat"));
    tracer.set_enabled(false);
    const double elapsed = tracer.now() - t0;
    const bool cycle_done = (i + 1) % (modes.size() * kSeedCount) == 0;
    if ((elapsed >= seconds && cycle_done) || elapsed >= kHardStopS) break;
  }
  if (trace) {
    // The same inputs at the other job count must give the same counts.
    PassConfig other = base_config(w, kCampaignSeeds[start]);
    other.jobs = w.jobs == 1 ? 2 : 1;
    checked_pass(other, "--jobs " + std::to_string(w.jobs) + " vs --jobs " +
                            std::to_string(other.jobs));
  }

  const auto wall = [](const PassResult& p) { return p.wall_s; };
  const std::vector<PassResult>& untraced = passes[Mode::kUntraced];
  const double wall_s = median_of(untraced, wall);
  std::printf("# workload %s: %zu timed pass(es) of %zu point(s), campaign "
              "seeds from %llu, jobs %u\n",
              w.name, untraced.size(), points,
              static_cast<unsigned long long>(kCampaignSeeds[start]), w.jobs);
  std::printf("# pass wall_s in run order:");
  for (const PassResult& p : untraced) std::printf(" %.4g", p.wall_s);
  std::printf("\n");
  const double failed_frac =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("# failed_frac %.6g (%zu of %zu points failed, timed out, "
              "were unhealthy or fell outside the reference bands)\n",
              failed_frac, failed, attempted);
  if (!gates_ok) std::printf("# a health gate or an output write failed\n");
  const bool correct = failed == 0 && gates_ok;

  std::vector<Metric> metrics;
  if (!trace) {
    // Times are the best pass (min-of-N): contention on a shared host comes
    // in bursts that can slow every pass of a run, and the fastest pass is
    // what the code can do. Set-up, a millisecond, is the median.
    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<double> cpus;
    for (const PassResult& p : untraced) {
      walls.push_back(p.wall_s);
      rates.push_back(ratio(static_cast<double>(p.forwarded), p.wall_s));
      cpus.push_back(p.cpu_s);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"wall_s", *std::min_element(walls.begin(), walls.end()), "s"},
        {"pkts_per_s", *std::max_element(rates.begin(), rates.end()), "1/s"},
        {"cpu_s", *std::min_element(cpus.begin(), cpus.end()), "s"},
        {"setup_s",
         median_of(untraced, [](const PassResult& p) { return p.setup_s; }),
         "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    print_result(correct, attempted, failed, metrics);
    return 0;
  }

  // Counts and artifact sizes: totals over the first pass of each reference
  // seed, so they do not depend on --seed.
  PointCounts sum;
  std::uintmax_t journal_bytes = 0;
  std::uintmax_t telemetry_bytes = 0;
  for (const std::uint64_t s : kCampaignSeeds) {
    const auto it = first.find({s, w.telemetry});
    if (it == first.end()) continue;
    journal_bytes += it->second.journal_bytes;
    telemetry_bytes += it->second.telemetry_bytes;
    for (const PointCounts& c : it->second.counts) {
      for (std::size_t k = 0; k < kExactCountN; ++k) {
        sum.exact[k] += c.exact[k];
      }
      sum.clamped += c.clamped;
      sum.guard_events += c.guard_events;
      sum.violations += c.violations;
      sum.signals += c.signals;
      sum.arrivals += c.arrivals;
      sum.fluid_arrival_bytes += c.fluid_arrival_bytes;
      sum.fluid_served_bytes += c.fluid_served_bytes;
    }
  }

  // Times: medians over the traced passes.
  const std::vector<Span> spans = tracer.spans();
  const std::vector<PassResult>& traced = passes[Mode::kTraced];
  std::vector<PassLayers> layers;
  std::vector<double> all_point_s;
  std::vector<double> uncovered;
  double traced_scenario_s = 0.0;
  double traced_events = 0.0;
  double traced_forwarded = 0.0;
  for (const PassResult& p : traced) {
    layers.push_back(analyze_pass(spans, p.id, main_thread, w.jobs));
    for (const double d : layers.back().point_s) {
      all_point_s.push_back(d);
      traced_scenario_s += d;
    }
    for (const PointCounts& c : p.counts) {
      traced_events += static_cast<double>(c.exact[kEvents]);
    }
    traced_forwarded += static_cast<double>(p.forwarded);
    uncovered.push_back(1.0 - ratio(layers.back().covered_s, p.wall_s));
  }
  const auto call = [&layers](const char* name) {
    return median_of(layers, [name](const PassLayers& l) {
      const auto it = l.call_s.find(name);
      return it == l.call_s.end() ? 0.0 : it->second;
    });
  };
  std::size_t retries = 0;
  for (const auto& [mode, list] : passes) {
    for (const PassResult& p : list) {
      if (p.attempts > p.bad.size()) retries += p.attempts - p.bad.size();
    }
  }
  const double traced_wall = median_of(traced, wall);
  const double telemetry_cost =
      w.telemetry
          ? ratio(wall_s, median_of(passes[Mode::kNoRecorder], wall)) - 1.0
          : 0.0;

  // The layer table: self time per traced pass and its share of all span
  // time (thread-seconds, so two busy workers count twice).
  std::map<std::string, double> self_s;
  double self_total = 0.0;
  for (const char* layer : kLayers) {
    self_s[layer] = median_of(layers, [layer](const PassLayers& l) {
      const auto it = l.self_s.find(layer);
      return it == l.self_s.end() ? 0.0 : it->second;
    });
    self_total += self_s[layer];
  }
  std::printf("# %-10s %14s %8s   (traced pass wall %.6g s, %zu pass(es))\n",
              "layer", "self s/pass", "share", traced_wall, traced.size());
  for (const char* layer : kLayers) {
    std::printf("# %-10s %14.6g %7.2f%%\n", layer, self_s[layer],
                100.0 * ratio(self_s[layer], self_total));
  }
  const double uncovered_frac = median(uncovered);
  std::printf("# uncovered by a top-level span: %.3f%% of traced pass wall\n",
              100.0 * uncovered_frac);

  const auto count = [&sum](CountIndex k) {
    return static_cast<double>(sum.exact[k]);
  };
  metrics = {
      {"sim.events", count(kEvents), "count"},
      {"sim.events_per_pkt", ratio(count(kEvents), count(kForwarded)),
       "events/pkt"},
      {"sim.ns_per_event", 1e9 * ratio(traced_scenario_s, traced_events),
       "ns"},
      {"sim.clamped_events", static_cast<double>(sum.clamped), "count"},
      {"net.forwarded", count(kForwarded), "count"},
      {"net.drops", count(kDrops), "count"},
      {"net.marked", count(kMarked), "count"},
      {"net.ns_per_pkt", 1e9 * ratio(traced_scenario_s, traced_forwarded),
       "ns"},
      {"tcp.retransmits", count(kRetransmits), "count"},
      {"tcp.timeouts", count(kTimeouts), "count"},
      {"aqm.signal_rate",
       ratio(static_cast<double>(sum.signals),
             static_cast<double>(sum.arrivals)),
       "frac"},
      {"aqm.guard_events", static_cast<double>(sum.guard_events), "count"},
      {"fluid.ticks", count(kFluidTicks), "count"},
      {"fluid.served_frac",
       ratio(sum.fluid_served_bytes, sum.fluid_arrival_bytes), "frac"},
      {"faults.applied", count(kFaultsApplied), "count"},
      {"faults.invariant_checks", count(kInvariantChecks), "count"},
      {"faults.violations", static_cast<double>(sum.violations), "count"},
      {"scenario.point_s.p50", median(all_point_s), "s"},
      {"scenario.point_s.max",
       median_of(layers,
                 [](const PassLayers& l) {
                   return l.point_s.empty()
                              ? 0.0
                              : *std::max_element(l.point_s.begin(),
                                                  l.point_s.end());
                 }),
       "s"},
      {"runner.busy_frac",
       median_of(layers, [](const PassLayers& l) { return l.busy_frac; }),
       "frac"},
      {"runner.tail_idle_s",
       median_of(layers, [](const PassLayers& l) { return l.tail_idle_s; }),
       "s"},
      {"runner.retries", static_cast<double>(retries), "count"},
      {"campaign.load_s",
       call("campaign.load_spec") + call("campaign.validate"), "s"},
      {"campaign.expand_s", call("campaign.expand"), "s"},
      {"campaign.points", static_cast<double>(points), "count"},
      {"durable.encode_s", call("durable.encode_result"), "s"},
      {"durable.append_s", call("durable.append_point"), "s"},
      {"durable.journal_bytes", static_cast<double>(journal_bytes), "bytes"},
      {"telemetry.cost_frac", telemetry_cost, "frac"},
      {"telemetry.bytes", static_cast<double>(telemetry_bytes), "bytes"},
      {"trace.overhead_frac", ratio(traced_wall, wall_s) - 1.0, "frac"},
      {"trace.uncovered_frac", uncovered_frac, "frac"},
      {"campaign.self_s", self_s["campaign"], "s"},
      {"runner.self_s", self_s["runner"], "s"},
      {"bench.self_s", self_s["bench"], "s"},
      {"scenario.self_s", self_s["scenario"], "s"},
      {"durable.self_s", self_s["durable"], "s"},
      {"failed_frac", failed_frac, "frac"},
  };
  const std::string spans_path = work_dir(w) + "/spans.jsonl";
  if (tracer.write_jsonl(spans_path, stamp)) {
    std::printf("# spans: %s (%zu)\n", spans_path.c_str(), spans.size());
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

/// One pass with caller-chosen output paths (the parity test's half).
int emit(const Workload& w, std::uint64_t campaign_seed,
         const std::string& json_path, const std::string& journal_path) {
  PassConfig pc = base_config(w, campaign_seed);
  pc.json_path = json_path;
  pc.journal_path = journal_path;
  const PassResult r = run_pass(pc, 1);
  std::printf("# emitted %s seed %llu: %zu point(s), %.3f s\n", w.name,
              static_cast<unsigned long long>(campaign_seed), r.bad.size(),
              r.wall_s);
  return r.outputs_ok ? 0 : 1;
}

/// Regenerates perfbench/reference/<workload>/seed<K>.json from this build.
int write_reference() {
  int status = 0;
  for (const Workload& w : kWorkloads) {
    for (const std::uint64_t seed : kCampaignSeeds) {
      PassConfig pc = base_config(w, seed);
      pc.json_path = reference_path(w, seed);
      fs::create_directories(fs::path(pc.json_path).parent_path());
      const PassResult r = run_pass(pc, 1);
      const auto bad = static_cast<std::size_t>(
          std::count(r.bad.begin(), r.bad.end(), true));
      std::printf("%s: %zu point(s), %zu unhealthy, gate %s, %.3f s\n",
                  pc.json_path.c_str(), r.bad.size(), bad,
                  r.gate_ok ? "ok" : "FAILED", r.wall_s);
      if (bad > 0 || !r.gate_ok || !r.outputs_ok) status = 1;
    }
  }
  return status;
}

int usage(const std::string& message) {
  std::fprintf(stderr,
               "perf_driver: %s\n"
               "usage: perf_driver --workload W --seed N --seconds S "
               "--trace 0|1 [--commit C]\n"
               "       perf_driver --emit W --campaign-seed K --json PATH "
               "--journal PATH\n"
               "       perf_driver --write-reference\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string emit_workload;
  std::string commit = "unknown";
  std::string json_path;
  std::string journal_path;
  std::uint64_t seed = 1;
  std::uint64_t campaign_seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else if (arg == "--emit" && has_value) {
      emit_workload = argv[++i];
    } else if (arg == "--campaign-seed" && has_value) {
      campaign_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--journal" && has_value) {
      journal_path = argv[++i];
    } else if (arg == "--write-reference") {
      reference = true;
    } else {
      return usage("unknown or incomplete argument " + arg);
    }
  }
  durable::ShutdownController::install();
  try {
    if (reference) return write_reference();
    if (!emit_workload.empty()) {
      const Workload* w = find_workload(emit_workload);
      if (w == nullptr) return usage("unknown workload " + emit_workload);
      if (json_path.empty() || journal_path.empty()) {
        return usage("--emit needs --json and --journal");
      }
      return emit(*w, campaign_seed, json_path, journal_path);
    }
    const Workload* w = find_workload(workload);
    if (w == nullptr) return usage("unknown or missing --workload");
    if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
      return usage("--seconds must be > 0 and --trace 0 or 1");
    }
    return measure(*w, seed, seconds, trace == 1, commit);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perf_driver: %s\n", ex.what());
    return 2;
  }
}
