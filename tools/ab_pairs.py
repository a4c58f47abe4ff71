"""Alternating A/B pairs of the benchmark between two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload map2d --pairs 10 \
        --seconds 55 [--seed 0]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, with the
same workload, seed and run length, one after the other; even pairs run
PARENT first and odd pairs CHANGE first, so that drift of the machine falls
on both sides alike. Each checkout runs its own benchmark files. Prints every
pair's end-to-end metrics, then per metric each side's median and quartiles,
the relative change of the medians, how many pairs CHANGE won, whether
the rule for claiming a gain holds, and whether CHANGE is worse beyond the
metric's bound (see :func:`compare`). A metric's direction ("better":
higher or lower) and bound come from PARENT's BENCHMARK.json. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: {checkout}: bench exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent, change, higher: bool, bound=None) -> dict:
    """One metric's A/B verdict from its per-pair values on each side.

    Pair k of ``parent`` and ``change`` ran back to back. CHANGE wins a
    pair when its value is better (above PARENT's if ``higher``, else
    below) and loses it when worse; a tie counts for neither side. A gain
    holds when CHANGE's median is on the better side, CHANGE wins at least
    nine tenths of the pairs, and the medians differ by more than the
    distance between PARENT's quartiles. CHANGE is ``worse`` when its
    median moved the wrong way by more than ``bound``, a fraction of
    PARENT's median (never, without a bound).
    """
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    quart = {"parent": _quartiles(parent), "change": _quartiles(change)}
    before, after = quart["parent"][1], quart["change"][1]
    iqr = quart["parent"][2] - quart["parent"][0]
    gain = ((after > before) == higher and wins >= 0.9 * len(parent)
            and abs(after - before) > iqr)
    relative = (after - before) / before if before else float("nan")
    worse = bound is not None and (-relative if higher else relative) > bound
    return {"quartiles": quart, "wins": wins, "losses": losses,
            "relative": relative, "gain": gain, "worse": worse}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="baseline checkout")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True,
                        help="a workload of bench/run.py, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []  # one {"parent": result, "change": result} per pair
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        results = {side: _run(checkouts[side], args.workload, args.seed,
                              args.seconds) for side in order}
        runs.append(results)
        values = "  ".join(
            f"{name} {results['parent']['metrics'][name]['value']:.4g}"
            f"/{results['change']['metrics'][name]['value']:.4g}"
            for name in results["parent"]["metrics"])
        verdicts = "/".join(
            f"{results[s]['correct']},{results[s]['failed']}" for s in SIDES)
        print(f"pair {pair} ({order[0]} first; parent/change) {values}  "
              f"correct,failed {verdicts}", flush=True)

    print(f"\n{args.pairs} pairs, workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s per run")
    for name in runs[0]["parent"]["metrics"]:
        metric = name.rpartition(".")[2]
        series = {s: [r[s]["metrics"][name]["value"] for r in runs]
                  for s in SIDES}
        verdict = compare(series["parent"], series["change"],
                          better[metric] == "higher", bound[metric])
        quart = verdict["quartiles"]
        sides = "  ".join(
            f"{s} {quart[s][1]:.4g} [{quart[s][0]:.4g}, {quart[s][2]:.4g}]"
            for s in SIDES)
        print(f"{name:22s} {sides}  median {verdict['relative']:+.1%}  "
              f"change wins {verdict['wins']}/{args.pairs} "
              f"(loses {verdict['losses']})  "
              f"gain {'holds' if verdict['gain'] else 'not shown'}"
              + (f"  WORSE beyond bound {bound[metric]:.0%}"
                 if verdict["worse"] else ""))
    correct = all(r[s]["correct"] for r in runs for s in SIDES)
    print(f"every run correct: {str(correct).lower()}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
