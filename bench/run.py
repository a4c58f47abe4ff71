"""condcov benchmark: one workload, closed loop, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sim1d --seed 0 --seconds 55 --trace 0

Each workload runs in fresh processes started from here, with BLAS pinned to
one thread (``worker.PINNED_ENV``). One client issues each operation after
the previous one returned. ``--trace 0`` reports the end-to-end metrics: set-up time (median
over SETUPS fresh processes), operations per second, median operation
latency and peak resident memory; ``--trace 1`` runs the outside-in tracer
and reports the per-layer metrics. ``--workload all`` runs every workload in
turn. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Results, with the
environment block, also go to ``bench/out/<workload>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PINNED_ENV

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sim1d", "map2d")
SETUPS = 3  # set-up is timed in this many fresh processes; median reported
DEADLINE_S = 170.0  # one workload, every process included


class BenchError(Exception):
    pass


def _spawn(args, deadline: float, *extra) -> tuple:
    """Run one worker process; return (its JSON result, spawn time)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def run_workload(args, units: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if args.trace:
        result, _ = _spawn(args, deadline)
    else:
        for _ in range(SETUPS - 1):
            ready, spawned = _spawn(args, deadline, "--setup-only")
            setups.append(ready["ready"] - spawned)
        result, spawned = _spawn(args, deadline)
        setups.append(result["ready"] - spawned)
    ops = result["ops"]
    latencies = [lat for lat, _ in ops]
    failed = sum(1 for _, ok in ops if not ok)
    ops_per_s = len(ops) / sum(latencies)
    if args.trace:
        values = {**result["layers"], "trace.ops_per_s": ops_per_s}
    else:
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": ops_per_s,
                  "op_s_p50": statistics.median(latencies),
                  "peak_rss_mb": result["peak_rss_mb"]}
    if values.keys() != units.keys():
        raise BenchError(f"metrics {sorted(values.keys() ^ units.keys())} "
                         f"do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(), "env": result["env"],
        "setups_s": setups, "ops": ops, "failures": result["failures"],
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict, untraced) -> None:
    wl, ops = record["workload"], record["attempted"]
    print(f"== {wl} (seed {record['seed']}, {'traced' if record['trace'] else 'untraced'})"
          f": {ops} ops, {record['failed']} failed, fail_ratio "
          f"{record['failed'] / ops:.4g}")
    for failure in record["failures"]:
        print(f"   FAILED {failure.strip()}")
    m = record["metrics"]
    if record["trace"]:
        for name, entry in m.items():
            print(f"   {name:42s} {entry['value']:.6g} {entry['unit']}")
        traced = m["trace.ops_per_s"]["value"]
        if untraced:
            base = untraced["metrics"]["ops_per_s"]["value"]
            print(f"   tracing overhead: {traced:.4g} ops/s traced vs {base:.4g}"
                  f" untraced (seed {untraced['seed']}), "
                  f"{100.0 * (base - traced) / base:+.1f}% of untraced")
        else:
            print("   tracing overhead: no untraced result of this workload yet")
    else:
        print(f"   setup_s {m['setup_s']['value']:.4f} s (median of "
              f"{len(record['setups_s'])}) | ops_per_s {m['ops_per_s']['value']:.4f}"
              f" 1/s | op_s_p50 {m['op_s_p50']['value']:.4f} s (n={ops}) | "
              f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB")
    env = record["env"]
    print(f"   env: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "blas")
          + f", blas={env['blas'].get('name')} {env['blas'].get('version')}"
          f", commit={record['commit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        args.workload = name
        try:
            record = run_workload(args, units)
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        untraced_path = OUT / f"{name}.json"
        untraced = (json.loads(untraced_path.read_text())
                    if args.trace and untraced_path.exists() else None)
        report(record, untraced)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": entry
                   for r in records for name, entry in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
