"""What one likelihood evaluation of a refit costs, on three shapes.

    python3 tools/evalcost.py [--shapes sim1d map2d sparse2d] [--reps 30]

Each shape is a fit that frees only the last node's edge (amplitude and
aperture), so :func:`condcov.inference._condition` conditions on the
earlier node's observations once per fit and every evaluation scores z_q
given them (``_Split.score``):

- ``sim1d``: the refit of ``condcov simulate`` on configs/demo1d.yaml, a
  200-cell 1-d grid with y1 observed at the 100 vertices x >= 0 and y2 at
  all 200;
- ``map2d``: the benchmark's map2d network on a 40 x 40 grid, both
  variables observed at 250 off-grid sites;
- ``sparse2d``: the same grid and an unshifted edge of amplitude 2, with
  150 y1 and 100 y2 sites.

Per shape it prints the grid size n, the observations m_< and m_q, the
rank of the conditioned factor, the median time of one ``_Split.score``
and of one score of the joint likelihood (``--reps`` each, taken in turn,
each route over its own geometry as in a fit), the tracemalloc peak of one
``_Split.score`` after those, and the median time of ``_condition`` (3
runs) and its tracemalloc peak (one run). Observed
values are seeded normal draws: the costs do not depend on them. BLAS
runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ("sim1d", "map2d", "sparse2d")
FREE = ("y2~y1.amplitude", "y2~y1.aperture")


def shape(name: str):
    """(grid, network, observations) of a shape."""
    import numpy as np

    from condcov import (MaternParams, ProcessNetwork, ProcessNode, bisquare,
                         regular_grid, shifted_bisquare)
    from condcov.domain import Observations
    from condcov.sim import asymmetric_1d_study

    rng = np.random.default_rng(0)
    if name == "sim1d":
        study = asymmetric_1d_study()
        v = study.grid.vertices
        return study.grid, study.refit_network, [
            Observations(q, v[mask], rng.normal(size=int(mask.sum())))
            for q, mask in enumerate(study.observed)]
    grid = regular_grid([(0.0, 1.0), (0.0, 1.0)], [40, 40])
    edge, (m1, m2) = ((shifted_bisquare(30.0, 0.15, (0.1, -0.05)), (250, 250))
                      if name == "map2d" else (bisquare(2.0, 0.15), (150, 100)))
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 8.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.3, 12.0, 1.5), noise=0.1,
                    parents=((0, edge),)),
    ))
    sites = rng.uniform(0.0, 1.0, (m1, 2))
    sites2 = sites if name == "map2d" else rng.uniform(0.0, 1.0, (m2, 2))
    return grid, network, [Observations(0, sites, rng.normal(size=m1)),
                           Observations(1, sites2, rng.normal(size=m2))]


def _medians_ms(calls: dict, reps: int) -> dict:
    """{name: median ms of one call}, the calls taken in turn ``reps``
    times, so that each meets the same state of the allocator."""
    times = {name: [] for name in calls}
    for _ in range(reps):
        for name, f in calls.items():
            start = time.perf_counter()
            f()
            times[name].append(time.perf_counter() - start)
    return {name: 1e3 * statistics.median(t) for name, t in times.items()}


def measure(name: str, reps: int) -> dict:
    """The costs of one shape (see the module docstring)."""
    from condcov.conditional import _Geometry, kept_observations
    from condcov.inference import _condition, _locate, _Split

    grid, network, obs = shape(name)
    kept = kept_observations(grid, network, obs)
    located = [_locate(network, free) for free in FREE]

    def condition():
        return _condition(grid, network, kept, located, 1e-8)

    split = condition()
    if len(split.scored) != 1:
        raise RuntimeError(f"{name}: the fit does not condition")
    condition_ms = _medians_ms({0: condition}, 3)[0]
    tracemalloc.start()
    condition()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    calls = {}
    for route, scorer in (("split", split), ("joint", _Split(tuple(kept)))):
        call = partial(scorer.score, grid, network, _Geometry(grid), 1e-8)
        call()  # fills the geometry
        calls[route] = call
    scores = _medians_ms(calls, reps)
    tracemalloc.start()
    calls["split"]()
    score_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"shape": name, "n": grid.n, "m_<": sum(o.m for o in kept[:-1]),
            "m_q": kept[-1].m,
            "rank": sum(F.shape[1] for F in split.factors.values()),
            "score_ms": scores["split"], "joint_ms": scores["joint"],
            "score_peak_mb": score_peak / 1e6,
            "condition_ms": condition_ms, "condition_peak_mb": peak / 1e6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES,
                        default=list(SHAPES))
    parser.add_argument("--reps", type=int, default=30,
                        help="evaluations timed per route (default 30)")
    args = parser.parse_args(argv)
    # set before condcov imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    columns = ("shape", "n", "m_<", "m_q", "rank", "score_ms", "joint_ms",
               "score_peak_mb", "condition_ms", "condition_peak_mb")
    print(" ".join(f"{c:>17}" for c in columns))
    for name in args.shapes:
        row = measure(name, args.reps)
        print(" ".join(f"{row[c]:>17.3f}" if isinstance(row[c], float)
                       else f"{row[c]:>17}" for c in columns), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
