// The journaled fan-out: the one loop that makes a grid of independent
// units (campaign points, fuzz cases) durable. run_journaled():
//  1. opens the journal fresh: the header, then the shard record if any;
//  2. replays each unit the caller has a payload for, without running it;
//  3. runs the other units on ParallelRunner::run_ordered_guarded, with the
//     shutdown flag as GuardOptions::cancel;
//  4. appends each ok unit's payload before calling consume: a replayed
//     unit's original bytes, a fresh unit's new encoding;
//  5. after a graceful shutdown, appends the `interrupted` marker and
//     reports it, so the caller exits 75.
// A resumed run thus compacts its journal to the bytes of an uninterrupted
// run's. The price: a second interruption during a resumed run re-runs any
// replayed unit that was not yet written back.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "durable/journal.hpp"
#include "durable/shutdown.hpp"
#include "runner/parallel_runner.hpp"

namespace pi2::runner {

/// The journal a run writes, and the words of its stderr notes.
struct JournalTarget {
  std::string path;
  std::uint64_t key = 0;  ///< campaign digest: the header's key
  std::optional<durable::ShardInfo> shard{};  ///< written after the header
  const char* tool = "campaign";
  const char* unit = "point";
};

/// The units of a run, indexed 0..count-1.
template <typename Result>
struct JournaledUnits {
  std::size_t count = 0;
  std::function<std::uint64_t(std::size_t)> key;  ///< journal key of unit i
  std::function<Result(std::size_t)> produce;     ///< on a worker thread
  std::function<std::string(const Result&)> encode;
  std::function<bool(const std::string&, Result&)> decode;
  /// In index order on the calling thread: the result after its record is
  /// journaled (kOk), or nullptr and no record (failed, timed out,
  /// interrupted).
  std::function<void(std::size_t, TaskStatus, Result*)> consume;
};

/// Journaled payloads by unit index; nullopt runs the unit.
using Replays = std::vector<std::optional<std::string>>;

struct JournaledReport {
  RunReport run;
  std::size_t replayed = 0;  ///< units decoded from a replay payload
  bool interrupted = false;  ///< graceful shutdown; the marker is written
  durable::Status journal;   ///< the journal's first failure, if any
};

/// The lenient --resume load: the payload of every unit whose key the
/// journal at target.path holds under target.key. Warns on a foreign header
/// and on dropped records, and prints "replaying N of M".
Replays load_replays(const JournalTarget& target, std::size_t count,
                     const std::function<std::uint64_t(std::size_t)>& key);

/// Runs `units` journaled into `target`; see the file comment. `replays` is
/// empty or has one entry per unit, and a payload that does not decode runs
/// its unit again. `guard` gives the retry policy; its cancel flag is
/// replaced by the shutdown flag.
template <typename Result>
JournaledReport run_journaled(const ParallelRunner& pool,
                              const JournalTarget& target,
                              const JournaledUnits<Result>& units,
                              Replays replays, GuardOptions guard) {
  durable::ShutdownController::install();
  JournaledReport report;
  durable::JournalWriter journal{target.path, target.key,
                                 /*keep_existing=*/false};
  // A journal that cannot be written costs resumability, not the run; the
  // caller decides from report.journal (a merge, whose product it is, fails).
  if (!journal.healthy()) {
    std::fprintf(stderr,
                 "%s: journal %s unavailable (%s); this run will not be "
                 "resumable\n",
                 target.tool, target.path.c_str(),
                 journal.status().message().c_str());
  } else if (target.shard) {
    (void)journal.append_shard(*target.shard);
  }
  replays.resize(units.count);
  guard.cancel = durable::ShutdownController::flag();
  // A unit's result travels with whether it was decoded from its replay
  // payload, so the commit that keeps it also keeps which bytes to append.
  using Unit = std::pair<Result, bool>;
  report.run = pool.run_ordered_guarded<Unit>(
      units.count,
      [&](std::size_t i) {
        Unit unit;
        if (replays[i] && units.decode(*replays[i], unit.first)) {
          unit.second = true;
          return unit;
        }
        if (replays[i]) {
          std::fprintf(stderr,
                       "resume: undecodable payload for %s %zu; re-running\n",
                       target.unit, target.shard ? target.shard->lo + i : i);
        }
        unit.first = units.produce(i);
        return unit;
      },
      [&](std::size_t i, TaskStatus status, Unit* unit) {
        if (unit != nullptr && journal.healthy()) {
          (void)journal.append_point(units.key(i),
                                     unit->second ? *replays[i]
                                                  : units.encode(unit->first));
        }
        if (unit != nullptr && unit->second) ++report.replayed;
        units.consume(i, status, unit != nullptr ? &unit->first : nullptr);
      },
      guard);
  report.journal = journal.status();
  if (!durable::ShutdownController::requested()) return report;
  report.interrupted = true;
  if (journal.healthy()) {
    (void)journal.append_interrupted(
        "signal " +
        std::to_string(durable::ShutdownController::signal_number()));
  }
  std::fprintf(stderr,
               "%s: interrupted — %zu %s(s) unfinished; re-run with --resume "
               "to finish (journal: %s)\n",
               target.tool,
               static_cast<std::size_t>(std::count(report.run.status.begin(),
                                                   report.run.status.end(),
                                                   TaskStatus::kInterrupted)),
               target.unit, target.path.c_str());
  return report;
}

}  // namespace pi2::runner
