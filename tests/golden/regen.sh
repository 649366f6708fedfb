#!/bin/sh
# Regenerates every committed golden baseline from a build directory.
# Run after an intentional behaviour change, then commit the diff:
#
#   tests/golden/regen.sh build
#
# Baselines use the same flags the golden_* ctests use, so a regenerated
# baseline always starts green. Baseline writes are atomic (pi2_campaign
# publishes --json via tmp + fsync + rename), so an interrupted
# regen leaves the previous baseline intact, never a torn file. The run
# journal each sweep keeps for --resume is pointed at a scratch directory
# so it never lands next to the committed baselines.
set -eu
build="${1:?usage: regen.sh BUILD_DIR}"
here="$(cd "$(dirname "$0")" && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
regen() {
  bin="$build/bench/$1"
  out="$here/$2"
  name="$2"
  shift 2
  echo "regen: $name <- with extra args: $*"
  "$bin" --smoke --seed 1 --jobs 2 --json "$out" \
    --journal "$scratch/$name.journal" "$@" > /dev/null
}
specs="$here/../../campaigns"
regen pi2_campaign fig15.json --spec "$specs/fig15.json"
regen pi2_campaign fig_overload.json --spec "$specs/fig_overload.json"
regen pi2_campaign fig_parking_lot.json --spec "$specs/fig_parking_lot.json"
regen pi2_campaign fig_rtt_mix.json --spec "$specs/fig_rtt_mix.json"
regen pi2_campaign fig_resilience.json --spec "$specs/fig_resilience.json"
# The step-response baseline opens its stats window at T/10 of the 4 s smoke
# run, the step_response default that --smoke overrides; flags match the
# golden_fig_response registration.
regen pi2_campaign fig_response.json --spec "$specs/fig_response.json" \
  --stats-start-s 0.4
# The fluid-agreement baseline is the *packet* rendering of the background
# load; the golden_fluid_fig15 ctest runs its candidate with
# --fluid-background 2 against it. Flags must match the ctest registration
# in tests/CMakeLists.txt: links >= 40 Mb/s keep the equilibrium marking
# probability inside the mean-field model's small-p validity envelope, and
# the 20 s runs let the fluid transient settle before the stats window.
regen pi2_campaign fig15_fluid.json --spec "$specs/fig15.json" \
  --packet-background 2 --min-link-mbps 40 --duration-s 20 --stats-start-s 8
echo "done; diff and commit tests/golden/*.json"
