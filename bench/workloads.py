"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload builds its inputs in ``__init__`` (the set-up), runs operation
``k`` with ``op(k)`` and validates what that operation produced with
``check(k, result)``. An operation that alternates two kinds of call makes
one call of each, so that its latency has one mode and a steady median.
``check`` raises :class:`CheckFailed` on a bad output and otherwise returns
a digest, a flat mapping of numbers that the stored
reference (``reference.json``, seed 0) pins down. ``rtol(key)`` says how
tightly: outputs that no optimizer touches must match to ``TIGHT``;
optimizer-dependent ones only loosely, so that reaching the same optimum by
another route still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

from condcov import cli

TIGHT = 1e-8
LOOSE = 1e-2


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _read_csv(path: Path, header=None):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    if header is not None and rows[0] != list(header):
        raise CheckFailed(f"{path.name}: header {rows[0]}, expected {header}")
    return rows[0], rows[1:]


def _numeric(path: Path, rows, skip=0):
    try:
        values = np.array([[float(v) for v in row[skip:]] for row in rows])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: non-numeric value ({exc})") from None
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path.name}: non-finite value")
    return values


def _cli(argv) -> int:
    # condcov.cli.main is looked up per call so that a tracer's wrapper is used
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Sim1d:
    """``condcov simulate`` on configs/demo1d.yaml: the criterion-1 study.

    Operation k runs REPLICATES replicates with seed ``1000 * seed + k``, so
    every operation sees new data and the run averages the optimizer's
    data-dependent evaluation count over many replicates.
    """

    counted = 2
    REPLICATES = 2
    EVAL_ROWS = 100  # demo1d scores y1 on x < 0: 100 of 200 vertices
    ESTIMATES = ("y2~y1.amplitude", "y2~y1.aperture")

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.config = root / "configs" / "demo1d.yaml"
        if not self.config.is_file():
            raise FileNotFoundError(self.config)
        self.seed = seed
        self.out = workdir / "sim1d"

    def ref_key(self, k: int) -> str:
        return str(k)

    def op(self, k: int):
        return _cli(["simulate", "--config", str(self.config),
                     "--out", str(self.out),
                     "--replicates", str(self.REPLICATES),
                     "--seed", str(1000 * self.seed + k)])

    def check(self, k: int, rc) -> dict:
        if rc != 0:
            raise CheckFailed(f"simulate returned {rc}")
        arms = ("cokriging", "kriging", "refit")
        path = self.out / "replicates.csv"
        _, rows = _read_csv(path, ["replicate"] + [f"rmse_{a}" for a in arms]
                            + list(self.ESTIMATES))
        reps = _numeric(path, rows)
        if reps.shape[0] != self.REPLICATES or \
                list(reps[:, 0]) != list(range(self.REPLICATES)):
            raise CheckFailed(f"replicates.csv lists {reps[:, 0].tolist()}")
        path = self.out / "summary.csv"
        _, rows = _read_csv(path, ["key", "value"])
        summary = dict(zip([r[0] for r in rows], _numeric(path, rows, 1)[:, 0]))
        if summary.get("replicates") != self.REPLICATES:
            raise CheckFailed(f"summary.csv: replicates {summary.get('replicates')}")
        path = self.out / "fields.csv"
        _, rows = _read_csv(path, ["x", "y1", "y2"])
        fields = _numeric(path, rows)
        if fields.shape[0] != 200:
            raise CheckFailed(f"fields.csv has {fields.shape[0]} rows")
        path = self.out / "predictors.csv"
        _, rows = _read_csv(path)
        if _numeric(path, rows).shape[0] != self.EVAL_ROWS:
            raise CheckFailed(f"predictors.csv has {len(rows)} rows")
        digest = {"fields.sumsq": float(np.sum(fields[:, 1:] ** 2))}
        for r, row in enumerate(reps):
            for a, arm in enumerate(arms):
                digest[f"rmse_{arm}.{r}"] = float(row[1 + a])
            for e, name in enumerate(self.ESTIMATES):
                digest[f"{name}.{r}"] = float(row[4 + e])
        return digest

    def rtol(self, key: str) -> float:
        # the refit arm and its estimates come out of the optimizer
        optimized = key.startswith("rmse_refit") or key.startswith("y2~y1")
        return LOOSE if optimized else TIGHT


class Map2d:
    """``condcov predict`` then ``condcov cv`` on a 40x40 grid, every operation.

    Set-up writes a bivariate config with a 2-d shifted bisquare edge and
    250 off-grid sites with both variables observed (500 observations). The
    data are smooth random-Fourier-feature fields plus noise, drawn with
    numpy alone so that set-up costs the same whatever condcov does.
    """

    counted = 1
    SITES = 250
    VERTICES = 1600
    PRIOR_SD = 1.0  # y1 is the root: sqrt(variance + nugget)
    NOISE = 0.1
    SHIFT = (0.1, -0.05)
    CONFIG = f"""\
grid:
  kind: regular
  bounds: [[0.0, 1.0], [0.0, 1.0]]
  counts: [40, 40]
nodes:
  - name: y1
    variance: 1.0
    scale: 8.0
    smoothness: 1.5
    noise: {NOISE}
  - name: y2
    variance: 0.3
    scale: 12.0
    smoothness: 1.5
    noise: {NOISE}
    parents:
      - node: y1
        kind: shifted_bisquare
        amplitude: 30.0
        aperture: 0.15
        shift: [{SHIFT[0]}, {SHIFT[1]}]
"""

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        sites = rng.uniform(0.0, 1.0, (self.SITES, 2))

        def field(n_features=64, wavenumber=1.5):
            omega = rng.normal(0.0, 2.0 * np.pi * wavenumber, (n_features, 2))
            phase = rng.uniform(0.0, 2.0 * np.pi, n_features)
            return lambda s: np.sqrt(2.0 / n_features) * np.cos(
                s @ omega.T + phase).sum(axis=1)

        f1, f2 = field(), field()
        sd = math.sqrt(self.NOISE)
        y1 = f1(sites) + sd * rng.standard_normal(self.SITES)
        y2 = (0.7 * f1(sites - np.array(self.SHIFT)) + 0.5 * f2(sites)
              + sd * rng.standard_normal(self.SITES))
        self.config = workdir / "map2d.yaml"
        self.config.write_text(self.CONFIG)
        self.data = workdir / "map2d.csv"
        with open(self.data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["variable", "x", "y", "value"])
            for name, values in (("y1", y1), ("y2", y2)):
                for (x, y), v in zip(sites, values):
                    writer.writerow([name, repr(float(x)), repr(float(y)),
                                     repr(float(v))])
        self.out = workdir / "map2d"

    def ref_key(self, k: int) -> str:
        return "any"  # every operation makes the same two calls on the same data

    def op(self, k: int):
        return [_cli([command, "--config", str(self.config),
                      "--data", str(self.data), "--out", str(self.out)])
                for command in ("predict", "cv")]

    def check(self, k: int, codes) -> dict:
        if codes != [0, 0]:
            raise CheckFailed(f"predict and cv returned {codes}")
        path = self.out / "predictions.csv"
        _, rows = _read_csv(path, ["x", "y", "mean", "stderr"])
        pred = _numeric(path, rows)
        if pred.shape[0] != self.VERTICES:
            raise CheckFailed(f"{pred.shape[0]} predictions")
        se = pred[:, 3]
        if not (np.all(se > 0.0)
                and np.all(se <= self.PRIOR_SD * (1.0 + 1e-12))):
            raise CheckFailed(f"stderr range [{se.min()}, {se.max()}]")
        digest = {"predict.mean.sum": float(pred[:, 2].sum()),
                  "predict.mean.sumsq": float(np.sum(pred[:, 2] ** 2)),
                  "predict.stderr.sum": float(se.sum()),
                  "predict.mean.first": float(pred[0, 2]),
                  "predict.mean.last": float(pred[-1, 2]),
                  "predict.stderr.first": float(se[0])}
        path = self.out / "folds.csv"
        _, rows = _read_csv(path, ["variable", "x", "y", "observed", "mean",
                                   "stderr", "error", "crps"])
        folds = _numeric(path, rows, skip=1)
        if folds.shape[0] != 2 * self.SITES:
            raise CheckFailed(f"{folds.shape[0]} folds for {2 * self.SITES} "
                              f"observations")
        if not np.all(folds[:, 4] > 0.0):
            raise CheckFailed("a fold has stderr 0")
        path = self.out / "cv.csv"
        _, rows = _read_csv(path, ["variable", "MAE", "RMSPE", "MCRPS"])
        scores = _numeric(path, rows, skip=1)
        digest["cv.folds.mean.sum"] = float(folds[:, 3].sum())
        digest["cv.folds.stderr.sum"] = float(folds[:, 4].sum())
        for row, values in zip(rows, scores):
            for name, v in zip(("MAE", "RMSPE", "MCRPS"), values):
                digest[f"cv.{row[0]}.{name}"] = float(v)
        return digest

    def rtol(self, key: str) -> float:
        return TIGHT


WORKLOADS = {"sim1d": Sim1d, "map2d": Map2d}


def within(value: float, spec: dict) -> bool:
    """Is ``value`` within a reference entry's relative tolerance?"""
    return abs(value - spec["ref"]) <= spec["rtol"] * abs(spec["ref"])
