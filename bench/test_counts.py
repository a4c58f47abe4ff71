"""Counts from the traced benchmark repeat exactly, and the tracer is sane.

    python3 -m pytest bench/test_counts.py

Runs every workload twice, traced, with seed 0 (so the stored reference
outputs are checked too) and the shortest run, which is the counted
operations alone.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("sim1d", "map2d")
TIMED = ("s", "1/s")  # units of the metrics that are timings


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result["metrics"]


@pytest.fixture(scope="module")
def runs():
    return {w: (_traced(w), _traced(w)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]
    assert first.keys() == second.keys()
    counts = [name for name, m in first.items() if m["unit"] not in TIMED]
    assert "inference.evals_per_fit" in counts
    assert "linalg.cholesky.flops" in counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_map2d_makes_no_likelihood_evaluations(runs):
    metrics = runs["map2d"][0]
    assert metrics["inference.loglik.calls"]["value"] == 0
    assert metrics["predict.loo_cv.folds"]["value"] == 500
    assert metrics["conditional.assemble_dag.calls"]["value"] == 2


def test_sim1d_evaluations_per_fit(runs):
    metrics = runs["sim1d"][0]
    # about 115 Nelder-Mead evaluations per criterion-1 refit
    assert 90 <= metrics["inference.evals_per_fit"]["value"] <= 140
    # simulate reruns replicate 0: R + 1 replicate calls per command
    replicates = metrics["sim.simulate_replicate.calls"]["value"]
    assert replicates == 3 * metrics["sim.run_sim_study.calls"]["value"]
    assert metrics["inference.loglik.calls"]["value"] > 0
