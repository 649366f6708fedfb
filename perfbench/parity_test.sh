#!/bin/sh
# Benchmark parity test: pi2_campaign and the benchmark driver, run on the
# same campaign at the same seed, must write byte-identical per-point
# records (--json) and journals. This is what shows the benchmark times the
# path campaign users run. Run from the repository root.
#
# usage: parity_test.sh PERF_DRIVER PI2_CAMPAIGN WORKDIR
set -eu
driver="$1"; campaign="$2"; work="$3"
seed=2
rm -rf "$work"
mkdir -p "$work"

# parity WORKLOAD SPEC [pi2_campaign flags...]
parity() {
  name="$1"; spec="$2"; shift 2
  # pi2_campaign's exit status also reflects the campaign's health gates;
  # parity needs only the records and journal it wrote.
  "$campaign" --spec "$spec" --seed "$seed" "$@" \
      --json "$work/$name.campaign.json" \
      --journal "$work/$name.campaign.journal" \
      > "$work/$name.campaign.out" || true
  "$driver" --emit "$name" --campaign-seed "$seed" \
      --json "$work/$name.driver.json" \
      --journal "$work/$name.driver.journal" > "$work/$name.driver.out"
  cmp "$work/$name.campaign.json" "$work/$name.driver.json"
  cmp "$work/$name.campaign.journal" "$work/$name.driver.journal"
  echo "parity ok: $name"
}

parity packet_grid campaigns/fig15.json --jobs 2
parity fluid_faults campaigns/fig_resilience.json --jobs 2
parity bdp_flows_telemetry perfbench/specs/bdp_flows.json --jobs 1 \
    --packet-background 100 \
    --telemetry .bench_work/bdp_flows_telemetry/telemetry
