#!/bin/sh
# Golden-figure regression check: run a driver (pi2_campaign --spec S) on
# the deterministic quick grid (--smoke --seed 1; --jobs only changes
# wall-clock, never output) and compare its --json records
# against the committed baseline with the per-metric tolerance bands of
# check_golden. A non-zero driver exit (a failed point or health gate)
# fails the check.
#
# usage: check_figure.sh FIG_BINARY BASELINE CHECK_GOLDEN WORKDIR [fig-args...] [-- checker-args...]
# Arguments before "--" go to the driver, arguments after it to the
# checker (e.g. -- --ignore enqueued,forwarded for cross-tier comparisons).
set -eu
fig="$1"; baseline="$2"; checker="$3"; workdir="$4"; shift 4

fig_args=""
checker_args=""
seen_sep=0
for a in "$@"; do
  if [ "$a" = "--" ]; then
    seen_sep=1
    continue
  fi
  if [ "$seen_sep" = 0 ]; then
    fig_args="$fig_args $a"
  else
    checker_args="$checker_args $a"
  fi
done

mkdir -p "$workdir"
candidate="$workdir/candidate.json"
# shellcheck disable=SC2086  # word-splitting the collected args is intended
"$fig" --smoke --seed 1 --jobs 2 --json "$candidate" $fig_args > "$workdir/stdout.txt"
# shellcheck disable=SC2086
exec "$checker" $checker_args "$baseline" "$candidate"
