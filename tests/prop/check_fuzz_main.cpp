// check_fuzz: the deterministic scenario-fuzzing driver.
//
// Batch mode (default) derives --cases configs from --seed, runs every
// oracle on each over --jobs worker threads, then re-runs a sample of cases
// serially to prove the batch results are --jobs-invariant and that distinct
// cases drew independent streams. Single-case mode (--case I) replays one
// case exactly as it ran inside any batch.
//
// On the first oracle failure the shrinking minimizer bisects the config
// toward a minimal still-failing scenario and a one-line repro command is
// printed (and written to --repro-out for CI artifacts):
//
//   repro: check_fuzz --seed S --case I
//
// --inject-oracle-fail I forces a synthetic failure at case I, proving the
// whole failure path (detection -> shrink -> repro line) end to end.
//
// Batch runs are durable: each finished case's outcome is journaled
// (fsync'd), SIGINT/SIGTERM stop the batch at a case boundary (exit 75),
// and --resume replays journaled outcomes instead of re-running the cases —
// the batch-level oracles (seed independence, --jobs invariance) still run
// over the combined set. Batch and resume journal through
// runner::run_journaled, as pi2_campaign does, so a resumed journal is
// compacted to the bytes of an uninterrupted run's.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "check/campaign_oracle.hpp"
#include "check/fuzzer.hpp"
#include "check/oracles.hpp"
#include "check/shrinker.hpp"
#include "durable/shutdown.hpp"
#include "durable/status.hpp"
#include "durable/wire.hpp"
#include "runner/journaled_run.hpp"
#include "sim/rng.hpp"

namespace {

using namespace pi2;

struct Args {
  std::uint64_t seed = 1;
  std::uint64_t cases = 200;
  /// Multi-hop topology cases appended to the batch; default cases/8.
  long long topo_cases = -1;
  /// Campaign cases (spec properties + one materialized resilience point
  /// through the fault/fluid axes) appended after the topology sub-batch;
  /// default cases/8.
  long long campaign_cases = -1;
  long long single_case = -1;
  long long single_topo_case = -1;
  unsigned jobs = 0;
  std::string scratch;
  long long inject_case = -1;
  std::string repro_out;
  int shrink_evals = 40;
  std::uint64_t recheck = 5;
  bool verbose = false;
  bool resume = false;
  std::string journal_path;
};

/// Parses the value of the flag at argv[i] whole into `out`, advancing i; a
/// malformed value is a usage error (exit 17) naming the flag.
template <typename T>
void flag_value(char** argv, int& i, T& out) {
  if (!durable::parse_decimal(argv[i + 1], out)) {
    std::fprintf(stderr, "check_fuzz: invalid value '%s' for %s\n",
                 argv[i + 1], argv[i]);
    std::exit(17);
  }
  ++i;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      flag_value(argv, i, args.seed);
    } else if (arg == "--cases" && i + 1 < argc) {
      flag_value(argv, i, args.cases);
    } else if (arg == "--topo-cases" && i + 1 < argc) {
      flag_value(argv, i, args.topo_cases);
    } else if (arg == "--campaign-cases" && i + 1 < argc) {
      flag_value(argv, i, args.campaign_cases);
    } else if (arg == "--case" && i + 1 < argc) {
      flag_value(argv, i, args.single_case);
    } else if (arg == "--topo-case" && i + 1 < argc) {
      flag_value(argv, i, args.single_topo_case);
    } else if (arg == "--jobs" && i + 1 < argc) {
      flag_value(argv, i, args.jobs);
    } else if (arg == "--scratch" && i + 1 < argc) {
      args.scratch = argv[++i];
    } else if (arg == "--inject-oracle-fail" && i + 1 < argc) {
      flag_value(argv, i, args.inject_case);
    } else if (arg == "--repro-out" && i + 1 < argc) {
      args.repro_out = argv[++i];
    } else if (arg == "--shrink-evals" && i + 1 < argc) {
      flag_value(argv, i, args.shrink_evals);
    } else if (arg == "--recheck" && i + 1 < argc) {
      flag_value(argv, i, args.recheck);
    } else if (arg == "--verbose" || arg == "-v") {
      args.verbose = true;
    } else if (arg == "--resume") {
      args.resume = true;
    } else if (arg == "--journal" && i + 1 < argc) {
      args.journal_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: check_fuzz [--seed N] [--cases N] [--topo-cases N]\n"
          "                  [--case I] [--topo-case I] [--jobs N]\n"
          "                  [--scratch DIR] [--repro-out PATH]\n"
          "                  [--inject-oracle-fail I] [--shrink-evals N]\n"
          "                  [--recheck N] [--verbose]\n"
          "                  [--resume] [--journal PATH]\n"
          "  --seed N     base seed; case i uses stream derive_seed(N, i)\n"
          "  --cases N    batch size (default 200)\n"
          "  --topo-cases N  multi-hop topology cases appended to the batch\n"
          "               (default cases/8)\n"
          "  --campaign-cases N  campaign cases (spec properties plus one\n"
          "               materialized resilience fault/fluid point each)\n"
          "               appended after the topology sub-batch\n"
          "               (default cases/8)\n"
          "  --case I     replay exactly one case and exit\n"
          "  --topo-case I  replay exactly one topology case and exit\n"
          "  --jobs N     worker threads (default: all cores)\n"
          "  --scratch DIR  telemetry artifacts per case (enables the JSONL\n"
          "               parse-back oracle)\n"
          "  --repro-out PATH  write the repro command of the first failing\n"
          "               case to PATH (CI artifact)\n"
          "  --inject-oracle-fail I  self-test: force case I to fail\n"
          "  --resume     replay journaled case outcomes from an interrupted\n"
          "               batch; only missing cases re-run\n"
          "  --journal PATH  journal location (default check_fuzz.journal)\n");
      std::exit(0);
    }
  }
  return args;
}

// --- CaseOutcome <-> journal payload -------------------------------------
// The hex-token codec of the RunResult payload (durable/wire.hpp).

std::string encode_outcome(const check::CaseOutcome& outcome) {
  std::string out = "pi2-fuzz-outcome-v1";
  durable::put_u64(out, outcome.index);
  durable::put_u64(out, outcome.seed);
  durable::put_u64(out, outcome.digest);
  durable::put_u64(out, outcome.failures.size());
  for (const auto& failure : outcome.failures) {
    durable::put_string(out, failure.oracle);
    durable::put_string(out, failure.detail);
  }
  return out;
}

bool decode_outcome(const std::string& payload, check::CaseOutcome& outcome) {
  durable::TokenReader r{payload};
  std::string magic;
  check::CaseOutcome built;
  std::uint64_t n = 0;
  if (!r.word(magic) || magic != "pi2-fuzz-outcome-v1" ||
      !r.u64(built.index) || !r.u64(built.seed) || !r.u64(built.digest) ||
      !r.u64(n) || n > (1u << 20)) {
    return false;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    check::OracleFailure failure;
    if (!r.str(failure.oracle) || !r.str(failure.detail)) return false;
    built.failures.push_back(std::move(failure));
  }
  outcome = std::move(built);
  return true;
}

/// Everything the batch's outcomes depend on; a journal from a different
/// configuration is refused on --resume.
/// Resolved topology-case count (--topo-cases, defaulting to cases/8).
std::uint64_t topo_case_count(const Args& args) {
  return args.topo_cases >= 0 ? static_cast<std::uint64_t>(args.topo_cases)
                              : args.cases / 8;
}

/// Resolved campaign-case count (--campaign-cases, defaulting to cases/8).
std::uint64_t campaign_case_count(const Args& args) {
  return args.campaign_cases >= 0
             ? static_cast<std::uint64_t>(args.campaign_cases)
             : args.cases / 8;
}

std::uint64_t fuzz_campaign_key(const Args& args) {
  pi2::durable::Fnv1a h;
  // v3: campaign sub-batch joined (fault/fluid axes drawn end to end).
  h.mix_string("pi2-fuzz-campaign-v3");
  h.mix_u64(args.seed);
  h.mix_u64(args.cases);
  h.mix_u64(topo_case_count(args));
  h.mix_u64(campaign_case_count(args));
  h.mix_u64(static_cast<std::uint64_t>(args.inject_case + 1));
  h.mix_u64(args.scratch.empty() ? 0 : 1);  // scratch gates an oracle
  return h.state;
}

std::uint64_t fuzz_case_key(const Args& args, std::uint64_t index) {
  pi2::durable::Fnv1a h;
  h.mix_string("pi2-fuzz-case-v1");
  h.mix_u64(index);
  h.mix_u64(sim::Rng::derive_seed(args.seed, index));
  return h.state;
}

std::uint64_t fuzz_topo_case_key(const Args& args, std::uint64_t index) {
  pi2::durable::Fnv1a h;
  h.mix_string("pi2-fuzz-topo-case-v1");
  h.mix_u64(index);
  h.mix_u64(sim::Rng::derive_seed(args.seed, (1ull << 32) + index));
  return h.state;
}

std::uint64_t fuzz_campaign_case_key(const Args& args, std::uint64_t index) {
  pi2::durable::Fnv1a h;
  h.mix_string("pi2-fuzz-campaign-case-v1");
  h.mix_u64(index);
  h.mix_u64(sim::Rng::derive_seed(args.seed, (2ull << 32) + index));
  return h.state;
}

/// Per-campaign-case spec seed: its own stream slice so dumbbell and
/// topology draws stay untouched when the sub-batch size changes.
std::uint64_t campaign_case_seed(const Args& args, std::uint64_t index) {
  return sim::Rng::derive_seed(args.seed, (2ull << 32) + index);
}

check::OracleOptions oracle_options(const Args& args, std::uint64_t index,
                                    const char* run_prefix) {
  check::OracleOptions options;
  options.scratch_dir = args.scratch;
  options.run_id = std::string(run_prefix) + "_" + std::to_string(index);
  if (args.inject_case >= 0 &&
      index == static_cast<std::uint64_t>(args.inject_case)) {
    options.inject_failure = "injected";
  }
  return options;
}

/// Prints a failing case: "<kind> I FAILED (<what>)", one line per oracle
/// failure, then the repro command when the case has one.
void print_failures(const char* kind, const check::CaseOutcome& outcome,
                    const std::string& what, const std::string& repro) {
  std::printf("%s %llu FAILED (%s)\n", kind,
              static_cast<unsigned long long>(outcome.index), what.c_str());
  for (const auto& failure : outcome.failures) {
    std::printf("  [%s] %s\n", failure.oracle.c_str(), failure.detail.c_str());
  }
  if (!repro.empty()) std::printf("repro: %s\n", repro.c_str());
}

/// Writes `repro` (and, when given, the minimal scenario as a comment line)
/// to --repro-out for CI artifacts.
void write_repro(const Args& args, const std::string& repro,
                 const std::string& minimal = "") {
  if (args.repro_out.empty()) return;
  if (std::FILE* out = std::fopen(args.repro_out.c_str(), "w")) {
    std::fprintf(out, "%s\n", repro.c_str());
    if (!minimal.empty()) std::fprintf(out, "# minimal: %s\n", minimal.c_str());
    std::fclose(out);
  }
}

/// Shrinks the failing case and prints the minimal scenario. The predicate
/// preserves the injection hook so the synthetic self-test failure shrinks
/// like a real one.
void shrink_and_report(const Args& args, const check::ScenarioFuzzer& fuzzer,
                       const scenario::DumbbellConfig& config,
                       std::uint64_t index) {
  check::ShrinkOptions shrink_options;
  shrink_options.max_evals = args.shrink_evals;
  const auto result = check::shrink(
      config,
      [&](const scenario::DumbbellConfig& candidate) {
        // Shrink evaluations skip the telemetry artifacts (pure speed); a
        // telemetry-oracle failure simply stops shrinking at the original.
        check::OracleOptions options;
        if (args.inject_case >= 0 &&
            index == static_cast<std::uint64_t>(args.inject_case)) {
          options.inject_failure = "injected";
        }
        return !check::run_case_oracles(candidate, index, options).ok();
      },
      shrink_options);
  std::printf("shrunk (%d evals, %d steps): %s\n", result.evaluations,
              result.accepted_steps,
              check::ScenarioFuzzer::describe(result.config).c_str());
  std::printf("repro: %s\n", fuzzer.repro_command(index).c_str());
  write_repro(args, fuzzer.repro_command(index),
              check::ScenarioFuzzer::describe(result.config));
}

/// A failing dumbbell case: print it, shrink it, write the repro.
void report_case_failure(const Args& args, const check::ScenarioFuzzer& fuzzer,
                         const check::CaseOutcome& outcome,
                         const scenario::DumbbellConfig& config) {
  print_failures("case", outcome, check::ScenarioFuzzer::describe(config),
                 fuzzer.repro_command(outcome.index));
  shrink_and_report(args, fuzzer, config, outcome.index);
}

/// A failing topology case. There is no shrinker for graph-shaped cases:
/// the repro plus the one-line topology summary (per-link AQM/rate, flow
/// counts) is the debugging handle.
void report_topo_failure(const Args& args, const check::ScenarioFuzzer& fuzzer,
                         const check::CaseOutcome& outcome,
                         const topology::TopologyConfig& config) {
  const std::string repro = fuzzer.topology_repro_command(outcome.index);
  print_failures("topology case", outcome,
                 check::ScenarioFuzzer::describe(config), repro);
  write_repro(args, repro);
}

int run_single_topo_case(const Args& args, const check::ScenarioFuzzer& fuzzer) {
  const auto index = static_cast<std::uint64_t>(args.single_topo_case);
  const auto config = fuzzer.make_topology_config(index);
  std::printf("topology case %llu: %s\n",
              static_cast<unsigned long long>(index),
              check::ScenarioFuzzer::describe(config).c_str());
  const auto outcome = check::run_topology_case_oracles(
      config, index, oracle_options(args, index, "topo"));

  const auto again = check::run_topology_case_oracles(
      config, index, oracle_options(args, index, "topo_again"));
  if (again.digest != outcome.digest) {
    std::printf("NONDETERMINISM: digest %016llx vs %016llx on identical runs\n",
                static_cast<unsigned long long>(outcome.digest),
                static_cast<unsigned long long>(again.digest));
    return 1;
  }

  if (!outcome.ok()) {
    report_topo_failure(args, fuzzer, outcome, config);
    return 1;
  }
  std::printf("topology case %llu ok (digest %016llx)\n",
              static_cast<unsigned long long>(index),
              static_cast<unsigned long long>(outcome.digest));
  return 0;
}

int run_single_case(const Args& args, const check::ScenarioFuzzer& fuzzer) {
  const auto index = static_cast<std::uint64_t>(args.single_case);
  const auto config = fuzzer.make_config(index);
  std::printf("case %llu: %s\n", static_cast<unsigned long long>(index),
              check::ScenarioFuzzer::describe(config).c_str());
  const auto outcome =
      check::run_case_oracles(config, index, oracle_options(args, index, "case"));

  // Same-process determinism: a second run must produce the same digest.
  const auto again =
      check::run_case_oracles(config, index, oracle_options(args, index, "again"));
  if (again.digest != outcome.digest) {
    std::printf("NONDETERMINISM: digest %016llx vs %016llx on identical runs\n",
                static_cast<unsigned long long>(outcome.digest),
                static_cast<unsigned long long>(again.digest));
    return 1;
  }

  if (!outcome.ok()) {
    report_case_failure(args, fuzzer, outcome, config);
    return 1;
  }
  std::printf("case %llu ok (digest %016llx)\n",
              static_cast<unsigned long long>(index),
              static_cast<unsigned long long>(outcome.digest));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  check::FuzzOptions fuzz_options;
  fuzz_options.base_seed = args.seed;
  const check::ScenarioFuzzer fuzzer{fuzz_options};

  if (args.single_case >= 0) return run_single_case(args, fuzzer);
  if (args.single_topo_case >= 0) return run_single_topo_case(args, fuzzer);

  const std::uint64_t topo_cases = topo_case_count(args);
  const std::uint64_t camp_cases = campaign_case_count(args);
  const std::uint64_t total_cases = args.cases + topo_cases + camp_cases;
  std::printf(
      "# check_fuzz: %llu cases (+%llu topology, +%llu campaign) from seed "
      "%llu\n",
      static_cast<unsigned long long>(args.cases),
      static_cast<unsigned long long>(topo_cases),
      static_cast<unsigned long long>(camp_cases),
      static_cast<unsigned long long>(args.seed));

  const runner::JournalTarget target{
      .path = args.journal_path.empty() ? "check_fuzz.journal"
                                        : args.journal_path,
      .key = fuzz_campaign_key(args),
      .tool = "check_fuzz",
      .unit = "case"};

  // Task layout: dumbbell cases occupy [0, cases), topology cases
  // [cases, cases + topo_cases) and campaign cases the final slice, each
  // with sub-batch-local indices.
  std::vector<check::CaseOutcome> outcomes(total_cases);
  const runner::JournaledUnits<check::CaseOutcome> units{
      .count = total_cases,
      .key =
          [&](std::size_t i) {
            if (i < args.cases) return fuzz_case_key(args, i);
            if (i < args.cases + topo_cases) {
              return fuzz_topo_case_key(args, i - args.cases);
            }
            return fuzz_campaign_case_key(args, i - args.cases - topo_cases);
          },
      .produce =
          [&](std::size_t i) {
            if (i < args.cases) {
              auto config = fuzzer.make_config(i);
              config.stop = durable::ShutdownController::flag();
              return check::run_case_oracles(config, i,
                                             oracle_options(args, i, "case"));
            }
            if (i < args.cases + topo_cases) {
              const std::uint64_t j = i - args.cases;
              auto config = fuzzer.make_topology_config(j);
              config.stop = durable::ShutdownController::flag();
              return check::run_topology_case_oracles(
                  config, j, oracle_options(args, i, "topo"));
            }
            const std::uint64_t j = i - args.cases - topo_cases;
            return check::run_campaign_case_oracles(
                campaign_case_seed(args, j), j,
                oracle_options(args, i, "campaign"));
          },
      .encode = encode_outcome,
      .decode = decode_outcome,
      .consume =
          [&](std::size_t i, runner::TaskStatus status,
              check::CaseOutcome* outcome) {
            if (outcome != nullptr) {
              outcomes[i] = *outcome;
              if (args.verbose) {
                std::printf("case %zu %s\n", i,
                            outcome->ok() ? "ok" : "FAILED");
              }
            } else if (status != runner::TaskStatus::kInterrupted) {
              outcomes[i].index = i < args.cases ? i
                                  : i < args.cases + topo_cases
                                      ? i - args.cases
                                      : i - args.cases - topo_cases;
              outcomes[i].failures.push_back(
                  {"harness", std::string("case crashed or timed out: ") +
                                  runner::to_string(status)});
            }
          }};

  const runner::JournaledReport report = runner::run_journaled(
      runner::ParallelRunner{args.jobs}, target, units,
      args.resume ? runner::load_replays(target, total_cases, units.key)
                  : runner::Replays{},
      {});
  if (report.interrupted) return durable::ShutdownController::kExitInterrupted;

  // Seed-stream independence at fuzz scale: distinct cases must have drawn
  // distinct per-case seeds (derive_seed collisions would silently halve
  // coverage).
  std::set<std::uint64_t> seeds;
  for (const auto& outcome : outcomes) seeds.insert(outcome.seed);
  if (seeds.size() != outcomes.size()) {
    std::printf("FAIL: only %zu distinct case seeds across %zu cases\n",
                seeds.size(), outcomes.size());
    return 1;
  }

  // --jobs invariance: replay a sample of cases serially (fresh configs,
  // same streams) and compare digests against the batch run.
  const std::uint64_t recheck =
      args.recheck < args.cases ? args.recheck : args.cases;
  for (std::uint64_t i = 0; i < recheck; ++i) {
    const std::uint64_t index = i * (args.cases / (recheck ? recheck : 1));
    const auto config = fuzzer.make_config(index);
    const auto serial = check::run_case_oracles(
        config, index, oracle_options(args, index, "recheck"));
    if (serial.digest != outcomes[index].digest) {
      std::printf("FAIL: case %llu digest differs serial %016llx vs batch "
                  "%016llx (--jobs variance)\n",
                  static_cast<unsigned long long>(index),
                  static_cast<unsigned long long>(serial.digest),
                  static_cast<unsigned long long>(outcomes[index].digest));
      return 1;
    }
  }
  // Same invariance for the topology sub-batch (per-topology digests fold
  // every link slice, so a thread-order leak in any hop would surface).
  const std::uint64_t topo_recheck =
      args.recheck < topo_cases ? args.recheck : topo_cases;
  for (std::uint64_t i = 0; i < topo_recheck; ++i) {
    const std::uint64_t index =
        i * (topo_cases / (topo_recheck ? topo_recheck : 1));
    const auto config = fuzzer.make_topology_config(index);
    const auto serial = check::run_topology_case_oracles(
        config, index, oracle_options(args, args.cases + index, "topo_recheck"));
    if (serial.digest != outcomes[args.cases + index].digest) {
      std::printf("FAIL: topology case %llu digest differs serial %016llx vs "
                  "batch %016llx (--jobs variance)\n",
                  static_cast<unsigned long long>(index),
                  static_cast<unsigned long long>(serial.digest),
                  static_cast<unsigned long long>(
                      outcomes[args.cases + index].digest));
      return 1;
    }
  }
  // And for the campaign sub-batch (the folded expansion digest means this
  // recheck also proves expand() is --jobs invariant).
  const std::uint64_t camp_recheck =
      args.recheck < camp_cases ? args.recheck : camp_cases;
  for (std::uint64_t i = 0; i < camp_recheck; ++i) {
    const std::uint64_t index =
        i * (camp_cases / (camp_recheck ? camp_recheck : 1));
    const std::uint64_t at = args.cases + topo_cases + index;
    const auto serial = check::run_campaign_case_oracles(
        campaign_case_seed(args, index), index,
        oracle_options(args, at, "campaign_recheck"));
    if (serial.digest != outcomes[at].digest) {
      std::printf("FAIL: campaign case %llu digest differs serial %016llx vs "
                  "batch %016llx (--jobs variance)\n",
                  static_cast<unsigned long long>(index),
                  static_cast<unsigned long long>(serial.digest),
                  static_cast<unsigned long long>(outcomes[at].digest));
      return 1;
    }
  }

  std::uint64_t failed = 0;
  for (std::uint64_t i = 0; i < total_cases; ++i) {
    const check::CaseOutcome& outcome = outcomes[i];
    if (outcome.ok()) continue;
    ++failed;
    if (failed != 1) continue;
    if (i < args.cases) {
      report_case_failure(args, fuzzer, outcome,
                          fuzzer.make_config(outcome.index));
    } else if (i < args.cases + topo_cases) {
      report_topo_failure(args, fuzzer, outcome,
                          fuzzer.make_topology_config(outcome.index));
    } else {
      // Campaign cases regenerate deterministically from (seed, index); no
      // shrinker — the failure detail plus the derived spec seed is the
      // debugging handle.
      print_failures("campaign case", outcome,
                     "spec seed " + std::to_string(campaign_case_seed(
                                        args, outcome.index)),
                     "");
    }
  }
  std::printf("# %llu/%llu cases clean (%llu topology, %llu campaign), "
              "%llu+%llu+%llu recheck digests stable\n",
              static_cast<unsigned long long>(total_cases - failed),
              static_cast<unsigned long long>(total_cases),
              static_cast<unsigned long long>(topo_cases),
              static_cast<unsigned long long>(camp_cases),
              static_cast<unsigned long long>(recheck),
              static_cast<unsigned long long>(topo_recheck),
              static_cast<unsigned long long>(camp_recheck));
  return failed == 0 ? 0 : 1;
}
