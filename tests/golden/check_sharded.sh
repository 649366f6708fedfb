#!/bin/sh
# Golden-figure regression over the distributed path: run a campaign spec's
# deterministic quick grid (--smoke --seed 1) as N shards, stitch the shard
# journals back together with --merge, and compare the merged --json
# records against the committed baseline with check_golden's tolerance
# bands. A non-zero exit from any shard or from the merge fails the check.
#
# usage: check_sharded.sh PI2_CAMPAIGN SPEC SHARDS BASELINE CHECK_GOLDEN WORKDIR [driver-args...]
# Driver arguments go to every shard and to the merge (they must expand the
# same campaign, or the merge refuses the journals).
set -eu
bin="$1"; spec="$2"; shards="$3"; baseline="$4"; checker="$5"; workdir="$6"
shift 6

rm -rf "$workdir"
mkdir -p "$workdir"
journals=""
i=1
while [ "$i" -le "$shards" ]; do
  "$bin" --smoke --seed 1 --jobs 2 --spec "$spec" --shard "$i/$shards" \
    --journal "$workdir/shard$i.journal" "$@" > "$workdir/shard$i.txt"
  journals="$journals $workdir/shard$i.journal"
  i=$((i + 1))
done
# shellcheck disable=SC2086  # word-splitting the journal list is intended
"$bin" --smoke --seed 1 --spec "$spec" "$@" --merge $journals \
  --json "$workdir/candidate.json" --journal "$workdir/merged.journal" \
  > "$workdir/stdout.txt"
exec "$checker" "$baseline" "$workdir/candidate.json"
