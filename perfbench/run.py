#!/usr/bin/env python3
"""Builds the hicsim benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload intra-bmi --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload

Run it from the root of a checkout. The program, hicbench, is built with
CMake into .bench_build (or $CARGO_TARGET_DIR when set) as a Release build;
later runs reuse the build. Its output is passed through: one line per
metric, then the result object as the last line of standard output. The exit
code is hicbench's, so it is nonzero when any simulated output fails its
check.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["intra-bmi", "inter-addrl-hcc", "serving-observed", "paper-campaign"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "hicbench",
              "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log(f"build step failed ({r.returncode}): {' '.join(cmd)}")
            return None
    return out / "hicbench"


def git(*args):
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance():
    if not (ROOT / ".git").exists():
        return "unknown", "0"
    commit = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    return commit, "1" if status else "0"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    b = json.loads(spec.read_text())
    return {m["name"] for m in b["per_layer" if trace else "end_to_end"]}


def run(exe, workload, args):
    """Runs hicbench on one workload; prints its output, returns its code."""
    commit, dirty = provenance()
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--digests", str(HERE / "digests.json"),
           "--git-commit", commit, "--git-dirty", dirty]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"hicbench exceeded {RUN_TIMEOUT_S} s (a hung point counts as failed)")
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"hicbench printed no result (exit {r.returncode})")
        return 1
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        log(f"metric set differs from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ want)}")
        return 1
    print("\n".join(lines), flush=True)
    if r.returncode != 0:
        log(f"hicbench exited {r.returncode}: some output failed its check")
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build(build_dir())
    if exe is None:
        return 1
    if args.workload != "all":
        return run(exe, args.workload, args)
    worst = 0
    for w in WORKLOADS:
        print(f"## {w}", flush=True)
        worst = max(worst, run(exe, w, args))
    return worst


if __name__ == "__main__":
    sys.exit(main())
