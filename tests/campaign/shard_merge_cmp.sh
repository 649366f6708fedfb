#!/usr/bin/env bash
# Distributed-sweep gate: a campaign run as three parallel --shard workers
# and merged must give a journal and a JSON byte-identical to a serial run
# of the same spec. The serial run also writes telemetry; its Prometheus
# aggregate, the merged journal and the merged JSON are the campaign
# artifacts CI uploads from the work directory.
#
# Usage: shard_merge_cmp.sh <pi2_campaign> <spec> <workdir>
set -euo pipefail

bin="$1"
spec="$2"
work="$3"

rm -rf "$work"
mkdir -p "$work"
cd "$work"

fail() { echo "FAIL: $*" >&2; exit 1; }

run() { "$bin" --smoke --seed 1 --jobs 2 --spec "$spec" "$@"; }

# Serial reference, with telemetry.
run --telemetry tele --json serial.json --journal serial.journal >/dev/null

# Three shards in parallel. Each shard's exit status is checked, not just
# the merge that follows.
pids=()
for i in 1 2 3; do
  run --telemetry tele --shard "$i/3" --journal "shard$i.journal" >/dev/null &
  pids+=("$!")
done
for pid in "${pids[@]}"; do
  wait "$pid" || fail "a shard worker exited non-zero"
done

# Merge, then compare byte for byte against the serial run.
run --merge shard1.journal shard2.journal shard3.journal \
  --json merged.json --journal merged.journal >/dev/null
cmp serial.json merged.json || fail "merged JSON differs from the serial run"
cmp serial.journal merged.journal \
  || fail "merged journal differs from the serial run"
[ -s tele/sweep_aggregate.prom ] || fail "serial run wrote no Prometheus aggregate"

echo "shard-merge-cmp ok"
