#include "runner/journaled_run.hpp"

namespace pi2::runner {

Replays load_replays(const JournalTarget& target, std::size_t count,
                     const std::function<std::uint64_t(std::size_t)>& key) {
  const durable::LoadedJournal loaded =
      durable::load_journal(target.path, target.key);
  if (loaded.exists && !loaded.header_ok) {
    std::fprintf(stderr,
                 "resume: journal %s is from a different campaign (header "
                 "%016llx, expected %016llx); ignoring it\n",
                 target.path.c_str(),
                 static_cast<unsigned long long>(loaded.header_key),
                 static_cast<unsigned long long>(target.key));
  }
  if (loaded.dropped > 0) {
    std::fprintf(stderr,
                 "resume: dropped %zu torn/corrupt journal record(s); "
                 "affected %ss re-run\n",
                 loaded.dropped, target.unit);
  }
  Replays replays(count);
  if (!loaded.header_ok) return replays;
  std::size_t found = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = loaded.points.find(key(i));
    if (it == loaded.points.end()) continue;
    replays[i] = it->second;
    ++found;
  }
  std::fprintf(stderr, "resume: replaying %zu of %zu %s(s) from %s%s\n", found,
               count, target.unit, target.path.c_str(),
               loaded.interrupted > 0 ? " (previous run was interrupted)" : "");
  return replays;
}

}  // namespace pi2::runner
