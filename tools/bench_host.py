#!/usr/bin/env python3
"""Host-performance regression driver for bench_host_perf.

The C++ binary (build/bench/bench_host_perf) times three representative
workloads and writes a JSON file mapping "app/config" to host-timing stats.
This script runs it, pretty-prints a result file, and compares two result
files (before/after) as a speedup table:

  tools/bench_host.py --run build/bench/bench_host_perf --out after.json
  tools/bench_host.py --report after.json
  tools/bench_host.py --compare before.json after.json
  tools/bench_host.py --compare before.json after.json --check --min-speedup 1.5

--check exits nonzero unless at least one workload meets --min-speedup AND
no workload's simulated cycle count moved (the bit-identity canary).

Stdlib only; no third-party packages.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

# Must match kStatsSchemaVersion in src/stats/report.hpp. Result files written
# before the version stamp existed load with a warning; an *older* version is
# also a warning (the host-timing fields this script reads — cycles,
# median/min seconds — have been stable across versions), but a *newer*
# version than this script knows is an error.
EXPECTED_SCHEMA_VERSION = 6


def check_schema(path: str, data: dict) -> None:
    version = data.get("schema_version")
    if version is None:
        print(f"{path}: warning: no schema_version (pre-versioning file); "
              f"assuming v{EXPECTED_SCHEMA_VERSION}", file=sys.stderr)
    elif version < EXPECTED_SCHEMA_VERSION:
        print(f"{path}: warning: schema_version {version} < "
              f"{EXPECTED_SCHEMA_VERSION}; host-timing fields are stable, "
              f"proceeding", file=sys.stderr)
    elif version > EXPECTED_SCHEMA_VERSION:
        sys.exit(f"{path}: schema_version {version} > expected "
                 f"{EXPECTED_SCHEMA_VERSION} — update tools/bench_host.py")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if "workloads" not in data:
        sys.exit(f"{path}: not a bench_host_perf result (no 'workloads' key)")
    check_schema(path, data)
    return data


def report(path: str) -> None:
    data = load(path)
    print(f"{path}  (repeats={data.get('repeats', '?')})")
    hdr = f"{'workload':<22} {'sim cycles':>14} {'median s':>10} " \
          f"{'min s':>10} {'cyc/s':>14}"
    print(hdr)
    print("-" * len(hdr))
    for name, w in sorted(data["workloads"].items()):
        print(f"{name:<22} {w['cycles']:>14,} {w['median_seconds']:>10.3f} "
              f"{w['min_seconds']:>10.3f} {w['cycles_per_second']:>14,.0f}")


def compare(before_path: str, after_path: str, check: bool,
            min_speedup: float) -> int:
    before = load(before_path)["workloads"]
    after = load(after_path)["workloads"]
    common = sorted(set(before) & set(after))
    if not common:
        sys.exit("no common workloads between the two result files")

    hdr = f"{'workload':<22} {'before s':>10} {'after s':>10} " \
          f"{'speedup':>8}  cycles"
    print(hdr)
    print("-" * len(hdr))
    best = 0.0
    cycles_ok = True
    for name in common:
        b, a = before[name], after[name]
        # Median over repeats is the headline number; min is noise-floor info.
        speedup = b["median_seconds"] / a["median_seconds"] \
            if a["median_seconds"] > 0 else float("inf")
        best = max(best, speedup)
        same = b["cycles"] == a["cycles"]
        cycles_ok = cycles_ok and same
        mark = "identical" if same else \
            f"MOVED {b['cycles']} -> {a['cycles']}"
        print(f"{name:<22} {b['median_seconds']:>10.3f} "
              f"{a['median_seconds']:>10.3f} {speedup:>7.2f}x  {mark}")
    print(f"\nbest speedup: {best:.2f}x")

    if not check:
        return 0
    rc = 0
    if not cycles_ok:
        print("FAIL: simulated cycle counts moved — the optimization changed "
              "simulated behavior", file=sys.stderr)
        rc = 1
    if best < min_speedup:
        print(f"FAIL: best speedup {best:.2f}x < required {min_speedup}x",
              file=sys.stderr)
        rc = 1
    if rc == 0:
        print(f"OK: >= {min_speedup}x on at least one workload, "
              "all cycle counts identical")
    return rc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--run", metavar="BINARY",
                   help="run the bench_host_perf binary first")
    p.add_argument("--out", default="BENCH_host_perf.json",
                   help="output file for --run (default %(default)s)")
    p.add_argument("--repeats", type=int, default=None,
                   help="repeats per workload for --run")
    p.add_argument("--report", metavar="JSON",
                   help="pretty-print one result file")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="speedup table between two result files")
    p.add_argument("--check", action="store_true",
                   help="with --compare: exit nonzero unless --min-speedup "
                        "is met and cycles are identical")
    p.add_argument("--min-speedup", type=float, default=1.5,
                   help="required best-case speedup for --check "
                        "(default %(default)s)")
    args = p.parse_args()

    if not (args.run or args.report or args.compare):
        p.error("nothing to do: give --run, --report and/or --compare")

    if args.run:
        cmd = [args.run, "--out", args.out]
        if args.repeats is not None:
            cmd += ["--repeats", str(args.repeats)]
        print("+", " ".join(cmd))
        subprocess.run(cmd, check=True)
        if not args.report and not args.compare:
            args.report = args.out

    if args.report:
        report(args.report)

    if args.compare:
        return compare(args.compare[0], args.compare[1], args.check,
                       args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
