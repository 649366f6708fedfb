#!/usr/bin/env bash
# Checks that every ctest filter in a CI workflow still selects something:
# each alternative of a `-R '^(A|B|...)'` list (and each single `-R '^X'`
# pattern) must match at least one test registered in BUILD_DIR. A test
# that is deleted or renamed otherwise drops out of its CI job silently.
#
# Usage: check_ci_filters.sh WORKFLOW_YML CTEST BUILD_DIR
set -uo pipefail

yml="$1"
ctest_bin="$2"
build_dir="$3"

names=$("$ctest_bin" --test-dir "$build_dir" -N 2>/dev/null |
        sed -n 's/^ *Test *#[0-9]*: //p')
[ -n "$names" ] || { echo "FAIL: no tests registered in $build_dir" >&2; exit 1; }

patterns=$(grep -oE -- "-R '[^']*'" "$yml" | sed -e "s/^-R '//" -e "s/'\$//")
[ -n "$patterns" ] || { echo "FAIL: no -R filters in $yml" >&2; exit 1; }

checked=0
stale=0
while IFS= read -r pattern; do
  body="${pattern#^}"
  if [[ "$body" == \(*\) ]]; then
    body="${body#(}"
    body="${body%)}"
  fi
  IFS='|' read -ra alternatives <<<"$body"
  for alt in "${alternatives[@]}"; do
    checked=$((checked + 1))
    if ! grep -qE -- "^$alt" <<<"$names"; then
      echo "stale filter alternative: $alt (matches no registered test)" >&2
      stale=$((stale + 1))
    fi
  done
done <<<"$patterns"

[ "$stale" -eq 0 ] || { echo "FAIL: $stale of $checked alternatives are stale" >&2; exit 1; }
echo "ci filters ok: $checked alternatives"
