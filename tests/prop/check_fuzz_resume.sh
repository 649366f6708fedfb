#!/usr/bin/env bash
# check_fuzz --resume after a torn journal tail: the resumed journal must be
# byte-identical to an uninterrupted run's, and so must stdout. The journal
# is cut partway through the record after line 11 (the SIGKILL signature),
# then resumed twice: the second resume replays a journal the first one
# wrote, so a resume that appends to the torn tail instead of compacting it
# loses a case there and never converges.
#
# Usage: check_fuzz_resume.sh <check_fuzz> <workdir>
set -euo pipefail

bin="$1"
work="$2"

rm -rf "$work"
mkdir -p "$work"
cd "$work"

fail() { echo "FAIL: $*" >&2; exit 1; }

args=(--seed 1 --cases 24 --jobs 2)

"$bin" "${args[@]}" --journal ref.journal > ref.out
[ "$(wc -l < ref.journal)" -gt 12 ] || fail "reference journal too short"

keep=$(head -n 11 ref.journal | wc -c)
head -c "$((keep + 40))" ref.journal > resumed.journal

for pass in 1 2; do
  "$bin" "${args[@]}" --journal resumed.journal --resume > "resume$pass.out" \
    || fail "resume $pass exited $?"
  cmp ref.out "resume$pass.out" || fail "resume $pass stdout differs"
  cmp ref.journal resumed.journal \
    || fail "journal after resume $pass differs from the uninterrupted run's"
done

echo "check-fuzz-resume ok"
