#!/usr/bin/env bash
# Chaos soak: the resilience campaign (fault schedules x fluid background)
# killed with SIGKILL mid-run on its quick grid, then finished with
# --resume from the journal, must give a JSON and a journal byte-identical
# to an uninterrupted reference run.
#
# Usage: resilience_kill_resume.sh <pi2_campaign> <spec> <workdir>
set -euo pipefail

bin="$1"
spec="$2"
work="$3"

rm -rf "$work"
mkdir -p "$work"
cd "$work"

fail() { echo "FAIL: $*" >&2; exit 1; }

journal_points() {
  # Completed-point records journaled so far (0 when the file doesn't exist).
  local n
  n=$(grep -c '"kind":"point"' "$1" 2>/dev/null) || n=0
  echo "${n:-0}"
}

# Uninterrupted reference.
"$bin" --seed 1 --jobs 2 --spec "$spec" \
  --json soak_ref.json --journal soak_ref.journal >/dev/null
[ -s soak_ref.json ] || fail "reference run produced no soak_ref.json"

# Victim: SIGKILL once >=1 point is journaled. One injected point stalls
# for 30 s so the kill lands mid-run (the quick grid finishes in well under
# a second otherwise); the hang changes neither the campaign key nor any
# completed point's bytes. The binary itself must be $!, so the signal hits
# the driver and not a subshell.
rm -f soak.json soak.journal
"$bin" --seed 1 --jobs 2 --spec "$spec" \
  --json soak.json --journal soak.journal \
  --inject-hang 6 --hang-s 30 >/dev/null 2>&1 &
pid=$!
for _ in $(seq 1 600); do
  [ "$(journal_points soak.journal)" -ge 1 ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
if kill -KILL "$pid" 2>/dev/null; then
  set +e
  wait "$pid"
  set -e
  [ ! -e soak.json ] || fail "torn soak.json left behind after SIGKILL"
  [ "$(journal_points soak.journal)" -ge 1 ] || fail "no journaled points to resume"
else
  wait "$pid" || true
  echo "WARN: run finished before SIGKILL; resume degenerates to a replay" >&2
fi

"$bin" --seed 1 --jobs 2 --resume --spec "$spec" \
  --json soak.json --journal soak.journal >/dev/null
cmp soak_ref.json soak.json || fail "resumed JSON differs from the reference"
cmp soak_ref.journal soak.journal \
  || fail "resumed journal differs from the reference"

echo "resilience-kill-resume ok"
