#!/usr/bin/env bash
# Kill-and-resume regression: a sweep killed mid-run (SIGKILL, then SIGTERM)
# must leave no torn artifact, and re-running with --resume must produce a
# --json byte-identical to an uninterrupted reference run — at a different
# --jobs count, so the journal (not scheduling luck) carries the result.
#
# Usage: resume_kill.sh <sweep-binary> <workdir> [binary-args...]
# binary-args go to every run (e.g. --spec campaigns/fig15.json).
set -euo pipefail

fig="$1"
work="$2"
shift 2
args=("$@")

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

# Launches a victim sweep in the background, waits for >=3 journaled points,
# then delivers $1. Sets outcome="killed" if the signal landed while the
# sweep was still running ("finished" if the sweep won the race) and
# last_exit to the victim's exit status. One injected point stalls for 30 s
# so the victim is reliably mid-run when the signal arrives (a smoke sweep
# finishes in well under a second otherwise); the hang hook changes neither
# the campaign key nor any completed point's bytes.
outcome=""
last_exit=0
run_and_signal() {
  local signal="$1" json="$2" journal="$3"
  rm -f "$json" "$journal"
  "$fig" "${args[@]}" --smoke --seed 1 --jobs 2 --json "$json" --journal "$journal" \
    --telemetry tele --inject-hang 6 --hang-s 30 \
    >/dev/null 2>&1 &
  local pid=$!
  for _ in $(seq 1 600); do
    [ "$(journal_points "$journal")" -ge 3 ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
  done
  if kill "-$signal" "$pid" 2>/dev/null; then
    outcome=killed
  else
    outcome=finished
  fi
  set +e
  wait "$pid"
  last_exit=$?
  set -e
}

# Reference: one uninterrupted run. All runs share the `tele` telemetry dir
# so the manifest paths embedded in the JSON records are comparable (and the
# artifacts themselves are deterministic, so overwrites are byte-identical).
"$fig" "${args[@]}" --smoke --seed 1 --jobs 2 --json ref.json --journal ref.journal \
  --telemetry tele >/dev/null
[ -s ref.json ] || fail "reference run produced no ref.json"

# --- Phase A: SIGKILL mid-sweep ---------------------------------------------
run_and_signal KILL a.json a.journal
if [ "$outcome" = killed ]; then
  [ ! -e a.json ] || fail "torn a.json left behind after SIGKILL"
  [ "$(journal_points a.journal)" -ge 1 ] || fail "no journaled points to resume"
else
  echo "WARN: sweep finished before SIGKILL; resume degenerates to full replay" >&2
fi
"$fig" "${args[@]}" --smoke --seed 1 --jobs 4 --json a.json --journal a.journal \
  --telemetry tele --resume >/dev/null
cmp ref.json a.json || fail "resumed JSON differs from the reference (SIGKILL)"

# --- Phase B: SIGTERM (graceful shutdown) -----------------------------------
run_and_signal TERM b.json b.journal
if [ "$outcome" = killed ]; then
  [ "$last_exit" -eq 75 ] || fail "SIGTERM exit code $last_exit, expected 75"
  [ ! -e b.json ] || fail "torn b.json left behind after SIGTERM"
  grep -q '"kind":"interrupted"' b.journal \
    || fail "graceful shutdown did not journal the interrupted marker"
else
  echo "WARN: sweep finished before SIGTERM; exit-code check skipped" >&2
fi
"$fig" "${args[@]}" --smoke --seed 1 --jobs 1 --json b.json --journal b.journal \
  --telemetry tele --resume >/dev/null
cmp ref.json b.json || fail "resumed JSON differs from the reference (SIGTERM)"

# No half-written artifact may survive anywhere in the work tree.
tmp_files=$(find . -name '*.tmp' | wc -l)
[ "$tmp_files" -eq 0 ] || fail "$tmp_files leftover .tmp artifact(s)"

echo "resume-kill ok"
