#!/usr/bin/env python3
"""The repository benchmark: campaign throughput end to end, split by layer.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --test              # parity test vs pi2_campaign
  python3 perfbench/run.py --write-reference   # regenerate perfbench/reference

It builds perfbench/ (a CMake project of its own over the repository's src/
and bench/pi2_campaign.cpp) in Release into $CARGO_TARGET_DIR (default
.bench_build) and runs the workload driver, whose last stdout line is the
result object. BENCHMARK.json lists the workloads and metrics; driver.cpp
says how a run is made and checked.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# What the build needs besides perfbench/; without it a run fails early.
SOURCES = ("src/CMakeLists.txt", "bench/pi2_campaign.cpp",
           "campaigns/fig15.json", "campaigns/fig_resilience.json")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build(targets):
    missing = [p for p in SOURCES if not (ROOT / p).is_file()]
    if missing:
        raise RuntimeError("not a source checkout: missing " + ", ".join(missing))
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = out if out.is_absolute() else ROOT / out
    tmp = out / "tmp"  # keeps compiler temporaries inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", *targets])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, stdout=sys.stderr, env=env, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return out


def commit_stamp():
    """The git commit when there is one, else a digest of the source tree."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "bench", "campaigns", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the parity test")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the committed reference records")
    args = parser.parse_args()
    if not (args.test or args.write_reference or args.workload):
        parser.error("--workload is required")
    try:
        if args.test:
            out = build(["perf_driver", "pi2_campaign"])
            return subprocess.run(["ctest", "--output-on-failure"], cwd=out,
                                  timeout=RUN_TIMEOUT_S, check=False).returncode
        driver = str(build(["perf_driver"]) / "perf_driver")
        if args.write_reference:
            cmd = [driver, "--write-reference"]
        else:
            cmd = [driver, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--commit", commit_stamp()]
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except (OSError, RuntimeError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
