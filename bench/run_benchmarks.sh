#!/usr/bin/env bash
# Produces BENCH_sweep.json: the repo's perf trajectory record.
#
#   bench/run_benchmarks.sh [output.json]
#
# Records (a) the micro_scheduler google-benchmark results, (b) the micro_probe_overhead results,
# including the probes-attached vs detached dumbbell ratio (budget: <5%,
# see EXPERIMENTS.md "Observability"), (c) quick-grid sweep wall clock at
# --jobs 1 / 2 / $(nproc) for `pi2_campaign --spec campaigns/fig15.json`
# (realized speedup is parallel-vs-serial), run with --telemetry so every
# per-point record carries its RunManifest path, (d) the micro_flow_scale per-N
# events/s + bytes-per-flow table for the hybrid fluid/packet engine,
# including its ≥10× scheduler-events acceptance gate, and (e) the
# distributed-campaign numbers: the committed fig15 and fig_resilience
# campaigns each run serially vs as 3 parallel --shard workers plus
# --merge, with the merged JSON required to be byte-identical to the
# serial run's.
# Compare the file against the previous PR's copy to see per-event and
# end-to-end movement.
#
# Env: BUILD_DIR (default: build), JOBS (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_sweep.json}
JOBS=${JOBS:-$(nproc)}

missing=0
for bin in micro_scheduler micro_probe_overhead micro_flow_scale \
           pi2_campaign; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "error: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR --target $bin)" >&2
    missing=1
  fi
done
[[ $missing -eq 0 ]] || exit 1

MICRO_JSON=$(mktemp)
PROBE_JSON=$(mktemp)
FLOW_SCALE_JSON=$(mktemp)
trap 'rm -f "$MICRO_JSON" "$PROBE_JSON" "$FLOW_SCALE_JSON"' EXIT
"$BUILD_DIR/bench/micro_scheduler" --benchmark_format=json \
  --benchmark_out_format=json >"$MICRO_JSON"
"$BUILD_DIR/bench/micro_probe_overhead" --benchmark_format=json \
  --benchmark_out_format=json >"$PROBE_JSON"
# Full grid (N up to 10⁵ fluid background flows); exits non-zero — failing
# this script — if the ≥10× scheduler-events gate regresses.
"$BUILD_DIR/bench/micro_flow_scale" --json "$FLOW_SCALE_JSON"

BUILD_DIR="$BUILD_DIR" JOBS="$JOBS" MICRO_JSON="$MICRO_JSON" \
PROBE_JSON="$PROBE_JSON" FLOW_SCALE_JSON="$FLOW_SCALE_JSON" OUT="$OUT" \
python3 - <<'PY'
import json, os, shutil, subprocess, sys, tempfile, time

build = os.environ["BUILD_DIR"]
jobs = int(os.environ["JOBS"])
campaign_bin = os.path.join(build, "bench", "pi2_campaign")
fig15_spec = os.path.join("campaigns", "fig15.json")
telemetry_dir = os.path.join(build, "bench", "telemetry_fig15")
workdir = tempfile.mkdtemp(prefix="campaign_bench_")

def timed_sweep(n_jobs, json_path=None):
    cmd = [campaign_bin, "--spec", fig15_spec, "--jobs", str(n_jobs),
           "--journal", os.path.join(workdir, f"sweep_jobs{n_jobs}.journal")]
    if json_path:
        cmd += ["--json", json_path, "--telemetry", telemetry_dir]
    start = time.monotonic()
    # check=True also fails this script loudly when the sweep exits non-zero
    # (i.e. any grid point failed or timed out).
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return round(time.monotonic() - start, 3)

points_json = tempfile.mktemp(suffix=".json")
try:
    wall = {n: timed_sweep(n, points_json if n == jobs else None)
            for n in sorted({1, 2, jobs})}
    with open(points_json) as f:
        points = json.load(f)
finally:
    if os.path.exists(points_json):
        os.unlink(points_json)

# Belt and braces: the binary already exits non-zero on failures, but the
# per-point records are the ground truth — refuse to write a trajectory file
# that silently contains failed or timed-out points.
bad = [p for p in points if p.get("status") != "ok"]
if bad:
    for p in bad:
        print(f"error: sweep point {p['index']} ({p.get('aqm')}, "
              f"{p.get('mix')}) status={p['status']}: "
              f"{p.get('error', '?')}", file=sys.stderr)
    sys.exit(1)
no_manifest = [p for p in points if not p.get("telemetry_manifest")]
if no_manifest:
    print(f"error: {len(no_manifest)} sweep point(s) missing a "
          "telemetry_manifest path", file=sys.stderr)
    sys.exit(1)
serial_s = wall[1]
parallel_s = wall[jobs]

# google-benchmark reports cpu_time in each benchmark's own time_unit
# (->Unit(kMillisecond) rows say "ms"); store everything in ns.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def load_benchmarks(env_key):
    with open(os.environ[env_key]) as f:
        data = json.load(f)
    return {
        b["name"]: {"cpu_time_ns":
                        b["cpu_time"] * NS_PER_UNIT[b.get("time_unit", "ns")],
                    "items_per_second": b.get("items_per_second")}
        for b in data["benchmarks"]
    }

# Distributed campaigns: each quick grid run serially and as 3 parallel
# shard workers plus a merge. The merge speedup compares the serial wall
# clock against the critical path of the sharded run (slowest worker +
# merge); the merged JSON must be byte-identical. fig15 is the dumbbell
# sweep reference; fig_resilience exercises the fault-schedule and
# fluid-background axes (its 100k-fluid points lean on the hybrid engine).
shard_count = 3
shard_jobs = max(1, jobs // shard_count)

def shard_benchmark(spec, tag, telemetry=True):
    serial_json = os.path.join(workdir, f"{tag}_serial.json")
    merged_json = os.path.join(workdir, f"{tag}_merged.json")

    def cmd(*extra):
        base = [campaign_bin, "--spec", spec, "--seed", "1"]
        if telemetry:
            base += ["--telemetry", telemetry_dir]
        return base + list(extra)

    start = time.monotonic()
    subprocess.run(cmd("--jobs", str(jobs), "--json", serial_json,
                       "--journal", os.path.join(workdir, f"{tag}_serial.journal")),
                   check=True, stdout=subprocess.DEVNULL)
    serial_s = round(time.monotonic() - start, 3)

    shard_journals = [os.path.join(workdir, f"{tag}_shard{i}.journal")
                      for i in range(1, shard_count + 1)]
    start = time.monotonic()
    workers = [subprocess.Popen(
                   cmd("--jobs", str(shard_jobs),
                       "--shard", f"{i}/{shard_count}",
                       "--journal", shard_journals[i - 1]),
                   stdout=subprocess.DEVNULL)
               for i in range(1, shard_count + 1)]
    for w in workers:
        if w.wait() != 0:
            print(f"error: {tag} campaign shard worker failed", file=sys.stderr)
            sys.exit(1)
    sharded_s = round(time.monotonic() - start, 3)

    start = time.monotonic()
    subprocess.run(cmd("--jobs", str(jobs), "--merge", *shard_journals,
                       "--json", merged_json,
                       "--journal", os.path.join(workdir, f"{tag}_merged.journal")),
                   check=True, stdout=subprocess.DEVNULL)
    merge_s = round(time.monotonic() - start, 3)

    with open(serial_json, "rb") as f:
        serial_bytes = f.read()
    with open(merged_json, "rb") as f:
        merged_bytes = f.read()
    if serial_bytes != merged_bytes:
        print(f"error: merged {tag} campaign JSON differs from the serial run",
              file=sys.stderr)
        sys.exit(1)
    return {
        "spec": spec,
        "shards": shard_count,
        "jobs_serial": jobs,
        "jobs_per_shard": shard_jobs,
        "serial_wall_s": serial_s,
        "sharded_wall_s": sharded_s,
        "merge_wall_s": merge_s,
        "merge_speedup": round(serial_s / (sharded_s + merge_s), 3)
            if sharded_s + merge_s else None,
        "byte_identical": True,
    }

campaign_sharding = shard_benchmark(fig15_spec, "fig15")
# The resilience grid's replayed merge points carry no fresh telemetry, so
# the sharded runs skip the recorder and time the simulation itself.
resilience_sharding = shard_benchmark(
    os.path.join("campaigns", "fig_resilience.json"), "resilience",
    telemetry=False)

scheduler = load_benchmarks("MICRO_JSON")
probe = load_benchmarks("PROBE_JSON")
with open(os.environ["FLOW_SCALE_JSON"]) as f:
    flow_scale = json.load(f)

def ratio_pct(baseline_name, loaded_name):
    base = probe.get(baseline_name, {}).get("cpu_time_ns")
    loaded = probe.get(loaded_name, {}).get("cpu_time_ns")
    if not base or not loaded:
        return None
    return round((loaded / base - 1.0) * 100.0, 2)

# Telemetry hot-path budget (<5%): dumbbell experiment with the pipeline
# probes attached vs fully detached. The full-Recorder ratio (probes +
# sampler + on-disk artifacts) and the bare link-cycle ratio (synthetic
# worst case — its baseline does almost nothing per packet) are reported
# alongside, not gated.
overhead_pct = ratio_pct("BM_DumbbellRun_Baseline",
                         "BM_DumbbellRun_ProbesAttached")
recorder_pct = ratio_pct("BM_DumbbellRun_Baseline",
                         "BM_DumbbellRun_FullRecorder")
link_cycle_pct = ratio_pct("BM_LinkCycle_ProbesDetached",
                           "BM_LinkCycle_TelemetryAttached")

out = {
    "suite": "pi2-sweep",
    "host_cores": os.cpu_count(),
    "sweep_quick_fig15": {
        "wall_s_by_jobs": {str(n): s for n, s in wall.items()},
        # Meaningful only on multi-core hosts; 1.0-ish when jobs == 1.
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "telemetry_dir": telemetry_dir,
        "telemetry_manifests": [p["telemetry_manifest"] for p in points],
    },
    "micro_scheduler": scheduler,
    "micro_probe_overhead": probe,
    # Declarative campaigns serial vs 3-shard + merge. byte_identical is
    # asserted above; recorded here so the trajectory file itself documents
    # the equivalence each run re-proved.
    "campaign_sharding": campaign_sharding,
    "resilience_sharding": resilience_sharding,
    # Hybrid fluid/packet engine: per-N events/sim-s + bytes-per-flow table
    # and the ≥10x scheduler-events gate (the binary already failed the
    # script above if the gate regressed).
    "micro_flow_scale": flow_scale,
    # Budget is <5% (EXPERIMENTS.md, "Observability"). Informational here:
    # microbenchmark noise on shared CI hosts makes a hard gate flaky.
    "probe_overhead_pct": overhead_pct,
    "full_recorder_overhead_pct": recorder_pct,
    "probe_link_cycle_worst_case_pct": link_cycle_pct,
}
# Atomic publish: a reader (or a killed run) must never see a partial
# trajectory file — write the tmp sibling, fsync, then rename over OUT.
tmp_out = os.environ["OUT"] + ".tmp"
with open(tmp_out, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
    f.flush()
    os.fsync(f.fileno())
os.replace(tmp_out, os.environ["OUT"])
shutil.rmtree(workdir, ignore_errors=True)
print(f"wrote {os.environ['OUT']}: quick fig15 {serial_s}s @1 job, "
      f"{parallel_s}s @{jobs} jobs; probe overhead "
      f"{overhead_pct if overhead_pct is not None else '?'}%; "
      f"campaign {shard_count}-shard merge speedup "
      f"{out['campaign_sharding']['merge_speedup']}x (fig15), "
      f"{out['resilience_sharding']['merge_speedup']}x (resilience), "
      "both byte-identical")
PY
