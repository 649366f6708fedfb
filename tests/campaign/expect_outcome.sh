#!/usr/bin/env bash
# Runs a command and asserts its outcome: the exit status must equal CODE
# and the combined stdout+stderr must contain every NEEDLE (fixed strings).
# Unlike ctest's WILL_FAIL, which any non-zero exit satisfies (a usage
# error included), this pins which failure happened.
#
# Usage: expect_outcome.sh CODE [NEEDLE...] -- COMMAND [ARGS...]
set -uo pipefail

want="$1"
shift
needles=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  needles+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: expect_outcome.sh CODE [NEEDLE...] -- COMMAND [ARGS...]" >&2
  exit 2
fi
shift

out=$("$@" 2>&1)
got=$?
printf '%s\n' "$out"

[ "$got" -eq "$want" ] || { echo "FAIL: exit $got, expected $want" >&2; exit 1; }
for needle in "${needles[@]}"; do
  grep -qF -- "$needle" <<<"$out" \
    || { echo "FAIL: output lacks: $needle" >&2; exit 1; }
done
echo "outcome ok"
