"""Sampling from assembled models and a cokriging study harness.

run_sim_study measures, over seeded replicates, how much the cross-variable
structure helps prediction. Each replicate simulates the joint field, observes
it with noise on per-variable vertex masks, then scores predictors of the
target variable on an evaluation region: cokriging under the generating model,
kriging from the target's own observations alone, and optionally cokriging
under a refitted (typically misspecified) model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .conditional import (
    JointModel,
    ProcessNetwork,
    ProcessNode,
    apply_mean,
    assemble_dag,
)
from .domain import Grid, Observations, regular_grid
from .errors import ValidationError
from .inference import OptimizerConfig, fit_mle
from .kernels import MaternParams, bisquare, shifted_bisquare
from .predict import cokrige
from .rng import rng_from_seed

__all__ = [
    "sample_joint",
    "SimStudyConfig",
    "ReplicateRun",
    "ReplicateScore",
    "SimStudyResult",
    "simulate_replicate",
    "run_sim_study",
    "asymmetric_1d_study",
    "rng_from_seed",
]


def _draw_fields(model: JointModel, mu: np.ndarray, rng) -> np.ndarray:
    xi = rng.standard_normal(mu.size)
    return mu + (model.chol @ xi).reshape(mu.shape)


def sample_joint(model: JointModel, seed: int, index: int = 0) -> np.ndarray:
    """One draw of every variable over the grid, shape (p, n).

    The draw is mean + L xi with L the model's Cholesky factor and xi standard
    normal from a Philox stream keyed by (seed, index), so distinct indices
    give independent replicates and the same pair is bit-reproducible.
    """
    mu = apply_mean(model)
    return _draw_fields(model, mu, rng_from_seed(seed, index))


@dataclass(frozen=True)
class SimStudyConfig:
    """Inputs for run_sim_study; asymmetric_1d_study builds a ready-made one.

    ``observed`` holds one boolean vertex mask per variable; measurement noise
    comes from each node's own ``noise`` variance. The refit arm only runs
    when ``refit_network`` is given: it re-estimates ``refit_free`` on that
    network by maximum likelihood before predicting.
    """

    grid: Grid
    network: ProcessNetwork
    observed: Tuple[np.ndarray, ...]
    eval_mask: np.ndarray
    target: int = 0
    replicates: int = 50
    seed: int = 0
    refit_network: Optional[ProcessNetwork] = None
    refit_free: Tuple[str, ...] = ()
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        n, p = self.grid.n, self.network.p
        masks = tuple(np.asarray(m, dtype=bool) for m in self.observed)
        if len(masks) != p:
            raise ValidationError(
                f"{len(masks)} observation masks for {p} variables"
            )
        for q, mask in enumerate(masks):
            if mask.shape != (n,):
                raise ValidationError(
                    f"observation mask {q} has shape {mask.shape}, "
                    f"grid has {n} vertices"
                )
        if not any(mask.any() for mask in masks):
            raise ValidationError("no variable is observed anywhere")
        object.__setattr__(self, "observed", masks)
        emask = np.asarray(self.eval_mask, dtype=bool)
        if emask.shape != (n,):
            raise ValidationError(
                f"evaluation mask has shape {emask.shape}, grid has {n} vertices"
            )
        if not emask.any():
            raise ValidationError("evaluation mask selects no vertices")
        object.__setattr__(self, "eval_mask", emask)
        if not 0 <= self.target < p:
            raise ValidationError(
                f"target variable {self.target} out of range for p={p}"
            )
        if self.replicates < 1:
            raise ValidationError(
                f"replicates must be >= 1, got {self.replicates}"
            )
        object.__setattr__(self, "refit_free", tuple(self.refit_free))
        if self.refit_network is not None:
            if self.refit_network.names != self.network.names:
                raise ValidationError(
                    "refit network must carry the same variables in the same "
                    f"order, got {list(self.refit_network.names)} vs "
                    f"{list(self.network.names)}"
                )
            if not self.refit_free:
                raise ValidationError(
                    "refit_network given but refit_free is empty"
                )


@dataclass(frozen=True)
class ReplicateRun:
    """Raw material of one replicate: fields, data and per-arm predictions."""

    replicate: int
    fields: np.ndarray
    observations: Tuple[Observations, ...]
    predictions: dict
    estimates: dict


@dataclass(frozen=True)
class ReplicateScore:
    replicate: int
    rmse: dict
    estimates: dict


@dataclass(frozen=True)
class SimStudyResult:
    scores: Tuple[ReplicateScore, ...]
    summary: dict


def simulate_replicate(cfg: SimStudyConfig, replicate: int = 0,
                       truth: Optional[JointModel] = None) -> ReplicateRun:
    """Simulate one replicate and predict with every configured arm.

    RNG stream is keyed by (cfg.seed, replicate): field normals are drawn
    first, then noise normals per observed variable in index order.
    """
    if truth is None:
        truth = assemble_dag(cfg.grid, cfg.network)
    rng = rng_from_seed(cfg.seed, replicate)
    fields = _draw_fields(truth, apply_mean(truth), rng)
    obs = []
    for q in range(truth.p):
        mask = cfg.observed[q]
        if not mask.any():
            continue
        vals = fields[q][mask]
        noise = cfg.network.nodes[q].noise
        if noise:
            vals = vals + math.sqrt(noise) * rng.standard_normal(vals.size)
        obs.append(Observations(q, cfg.grid.vertices[mask], vals))
    targets = cfg.grid.vertices[cfg.eval_mask]
    preds = {"cokriging": cokrige(truth, obs, targets, cfg.target)}
    own = [o for o in obs if o.variable == cfg.target]
    preds["kriging"] = cokrige(truth, own, targets, cfg.target)
    estimates = {}
    if cfg.refit_network is not None:
        fit = fit_mle(cfg.grid, cfg.refit_network, obs,
                      free=cfg.refit_free, config=cfg.optimizer, label="refit")
        refitted = assemble_dag(cfg.grid, fit.network)
        preds["refit"] = cokrige(refitted, obs, targets, cfg.target)
        estimates = {name: fit.estimates[name] for name in fit.free}
    return ReplicateRun(replicate, fields, tuple(obs), preds, estimates)


def _rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def run_sim_study(cfg: SimStudyConfig) -> SimStudyResult:
    """Score every replicate; RMSE is against the noise-free simulated field.

    The summary reports mean RMSE per arm plus how often cokriging under the
    generating model beat each competitor, replicate by replicate.
    """
    truth = assemble_dag(cfg.grid, cfg.network)
    scores = []
    for rep in range(cfg.replicates):
        run = simulate_replicate(cfg, rep, truth)
        y_true = run.fields[cfg.target][cfg.eval_mask]
        rmse = {arm: _rmse(pred.mean, y_true)
                for arm, pred in run.predictions.items()}
        scores.append(ReplicateScore(rep, rmse, run.estimates))
    arms = list(scores[0].rmse)
    summary = {
        "replicates": cfg.replicates,
        "mean_rmse": {
            arm: float(np.mean([s.rmse[arm] for s in scores])) for arm in arms
        },
        "cokriging_wins_vs_kriging": int(sum(
            s.rmse["cokriging"] < s.rmse["kriging"] for s in scores
        )),
    }
    if "refit" in arms:
        summary["cokriging_wins_vs_refit"] = int(sum(
            s.rmse["cokriging"] < s.rmse["refit"] for s in scores
        ))
    return SimStudyResult(tuple(scores), summary)


def asymmetric_1d_study(replicates: int = 50, seed: int = 0) -> SimStudyConfig:
    """Bivariate 1-d study whose cross-structure is shifted, hence asymmetric.

    The target y1 is observed on [0, 1] only; y2, driven by y1 through a
    bisquare displaced by -0.3, is observed everywhere. Prediction is scored
    on [-1, 0), where only the y2 channel carries information about y1. The
    refit arm forces the displacement to zero and re-estimates amplitude and
    aperture, quantifying the cost of ignoring the asymmetry.
    """
    grid = regular_grid(((-1.0, 1.0),), (200,))
    y1 = ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25)
    y2 = ProcessNode(
        "y2",
        MaternParams(0.2, 75.0, 1.5),
        parents=((0, shifted_bisquare(5.0, 0.3, (-0.3,))),),
        noise=0.25,
    )
    x = grid.vertices[:, 0]
    symmetric_y2 = dataclasses.replace(y2, parents=((0, bisquare(5.0, 0.3)),))
    return SimStudyConfig(
        grid=grid,
        network=ProcessNetwork((y1, y2)),
        observed=(x >= 0.0, np.ones(grid.n, dtype=bool)),
        eval_mask=x < 0.0,
        target=0,
        replicates=replicates,
        seed=seed,
        refit_network=ProcessNetwork((y1, symmetric_y2)),
        refit_free=("y2~y1.amplitude", "y2~y1.aperture"),
        optimizer=OptimizerConfig(seed=seed, restarts=1),
    )
