"""Simple cokriging, kriging, CRPS scoring and leave-one-out validation.

Predictions are Gaussian conditionals of the joint model: the predictor at a
target is c^T C^-1 Z with C the observation covariance (process covariance
plus per-variable measurement-error variance on the diagonal) and c the
cross-covariance between target and observations. Nonzero means are handled
by residual cokriging: subtract the configured mean, predict, add it back.
All solves go through Cholesky with the shared jitter policy, capped by the
model's ``jitter_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr as _ndtr

from .conditional import (
    JointModel,
    cross_cov_matrix,
    kept_observations,
    mean_at,
    observation_covariance,
)
from .domain import Observations
from .errors import (
    InsufficientDataError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .linalg import chol_inverse, chol_solve, chol_with_jitter

__all__ = [
    "PredictionResult",
    "cokrige",
    "krige",
    "crps_gaussian",
    "summarize_folds",
    "FoldScore",
    "LooResult",
    "loo_cv",
]


@dataclass(frozen=True)
class PredictionResult:
    variable: int
    locations: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    jitter: float


def _resolve_variable(model: JointModel, target_var) -> int:
    if isinstance(target_var, str):
        return model.network.index(target_var)
    q = int(target_var)
    if not 0 <= q < model.p:
        raise ValidationError(f"variable index {q} out of range for p={model.p}")
    return q


def cokrige(
    model: JointModel,
    obs: Sequence[Observations],
    targets,
    target_var,
) -> PredictionResult:
    """Simple cokriging of one variable from observations of any subset.

    With no usable observations this degrades to the prior (configured mean
    and marginal standard deviation). The prior variance is the diagonal of
    the targets' covariance, built without the T x T block
    (``CovarianceEvaluator.variance``).

    With C = L L^T the observation covariance (plus the jitter its
    factorization needed, reported as ``jitter``) and c the target-by-
    observation cross-covariance, the mean is c C^-1 z and the variance is
    the prior variance less the diagonal of c C^-1 c^T, read as the column
    sums of v * v with v = L^-1 c^T: one forward triangular solve.
    """
    tq = _resolve_variable(model, target_var)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[1] != model.grid.dim:
        raise ValidationError(
            f"targets are {targets.shape[1]}-d, grid is {model.grid.dim}-d"
        )
    kept = kept_observations(model.grid, model.network, obs)
    ev = model.evaluator
    prior_var = ev.variance(tq, ev.add_points(targets))
    # the prior can overflow where the observation covariance does not, and
    # inf - inf would give a NaN stderr
    if not np.isfinite(prior_var).all():
        raise NumericalError("prior variance has non-finite entries")
    mu_t = mean_at(model.network, tq, targets)
    if not kept:
        return PredictionResult(
            variable=tq,
            locations=targets,
            mean=mu_t,
            stderr=np.sqrt(np.clip(prior_var, 0.0, None)),
            jitter=0.0,
        )
    C, z = observation_covariance(model.evaluator, kept)
    c = np.hstack(
        [
            cross_cov_matrix(model, tq, o.variable, targets, o.locations)
            for o in kept
        ]
    )
    # checked once for the solves below, which skip scipy's check; with the
    # prior variance and the observation covariance finite it can only be
    # non-finite through rounding
    if not np.isfinite(c).all():
        raise NumericalError("cross-covariance has non-finite entries")
    L, jitter = chol_with_jitter(C, model.jitter_max)
    alpha = chol_solve(L, z)
    mean = mu_t + c @ alpha
    v = solve_triangular(L, c.T, lower=True, check_finite=False)
    var = prior_var - np.einsum("mt,mt->t", v, v)
    return PredictionResult(
        variable=tq,
        locations=targets,
        mean=mean,
        stderr=np.sqrt(np.clip(var, 0.0, None)),
        jitter=jitter,
    )


def krige(model: JointModel, obs: Observations, targets) -> PredictionResult:
    """Single-variable kriging: cokriging restricted to the variable's own data."""
    return cokrige(model, [obs], targets, obs.variable)


def crps_gaussian(mu, sigma, y):
    """Continuous ranked probability score of a Gaussian forecast, closed form.

    crps = sigma * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)), z = (y - mu)/sigma,
    degrading to |y - mu| for sigma = 0. Lower is better.
    """
    mu_arr = np.asarray(mu, dtype=float)
    sig_arr = np.asarray(sigma, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(sig_arr < 0):
        raise ParameterError("sigma must be >= 0")
    mu_b, sig_b, y_b = np.broadcast_arrays(mu_arr, sig_arr, y_arr)
    scalar = mu_b.ndim == 0
    mu_b = np.atleast_1d(mu_b)
    sig_b = np.atleast_1d(sig_b)
    y_b = np.atleast_1d(y_b)
    out = np.abs(y_b - mu_b).astype(float)
    pos = sig_b > 0
    if np.any(pos):
        z = (y_b[pos] - mu_b[pos]) / sig_b[pos]
        # Phi and phi exactly as scipy.stats.norm evaluates them, without
        # importing scipy.stats
        cdf = _ndtr(z)
        pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
        out[pos] = sig_b[pos] * (
            z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / np.sqrt(np.pi)
        )
    if scalar:
        return float(out[0])
    return out


def summarize_folds(errors, crps) -> dict:
    """MAE, RMSPE and mean CRPS from per-fold raw scores."""
    errors = np.asarray(errors, dtype=float)
    crps = np.asarray(crps, dtype=float)
    if errors.size == 0:
        raise InsufficientDataError("no fold scores to summarize")
    return {
        "MAE": float(np.mean(np.abs(errors))),
        "RMSPE": float(np.sqrt(np.mean(errors ** 2))),
        "MCRPS": float(np.mean(crps)),
    }


@dataclass(frozen=True)
class FoldScore:
    variable: int
    location: Tuple[float, ...]
    observed: float
    mean: float
    stderr: float
    error: float
    crps: float


@dataclass(frozen=True)
class LooResult:
    folds: Tuple[FoldScore, ...]
    summary: dict
    jitter: float


def loo_cv(
    model: JointModel,
    obs: Sequence[Observations],
) -> LooResult:
    """Leave-one-location-out cross-validation.

    Colocated observations (any variable sharing the held-out coordinates)
    are dropped together, then every held-out observation is cokriged from
    the rest. Scores are for the held-out observation, so predictive spread
    includes measurement error. Summary is per variable name.

    The observation covariance C is factored once and every fold is read
    from its inverse P (Dubrule 1983), which LAPACK's Cholesky inverse makes
    from that factor: with z the observations y minus their means and H the
    indices held out together, the fold error is
    y_H - mean_H = (P_HH)^-1 (P z)_H and the fold variance is
    diag((P_HH)^-1). The blocks P_HH of all locations with the same number
    of observations are inverted in one batch. When the factorization needs
    jitter (reported as ``jitter``), the folds are those of C + jitter * I.
    """
    kept = kept_observations(model.grid, model.network, obs)
    total = int(np.sum([o.m for o in kept]))
    if total < 2:
        raise InsufficientDataError(
            f"leave-one-out needs at least 2 observations, got {total}"
        )
    variables = np.concatenate([np.full(o.m, o.variable) for o in kept])
    locations = np.vstack([o.locations for o in kept])
    values = np.concatenate([o.values for o in kept])
    groups = {}
    for idx, key in enumerate(map(tuple, locations)):
        groups.setdefault(key, []).append(idx)
    if len(groups) == 1:
        raise InsufficientDataError(
            "all observations share one location; nothing to predict from"
        )
    C, z = observation_covariance(model.evaluator, kept)
    L, jitter = chol_with_jitter(C, model.jitter_max)
    P = chol_inverse(L)
    alpha = P @ z
    keys = sorted(groups)
    order = np.concatenate([groups[key] for key in keys])
    by_size = {}
    for held in groups.values():
        by_size.setdefault(len(held), []).append(held)
    error = np.empty(total)
    var = np.empty(total)
    for held in map(np.array, by_size.values()):
        # (g, s, s) blocks of the g locations with s observations each
        P_inv = np.linalg.inv(P[held[:, :, None], held[:, None, :]])
        error[held] = (P_inv @ alpha[held][:, :, None])[:, :, 0]
        var[held] = np.diagonal(P_inv, axis1=1, axis2=2)
    mean = values - error
    sd = np.sqrt(np.clip(var, 0.0, None))
    crps = crps_gaussian(mean[order], sd[order], values[order])
    folds = tuple(
        FoldScore(
            variable=int(variables[h]),
            location=tuple(locations[h]),
            observed=float(values[h]),
            mean=float(mean[h]),
            stderr=float(sd[h]),
            error=float(error[h]),
            crps=float(score),
        )
        for h, score in zip(order, crps)
    )
    summary = {}
    for q in sorted({f.variable for f in folds}):
        name = model.network.names[q]
        errs = [f.error for f in folds if f.variable == q]
        crps_vals = [f.crps for f in folds if f.variable == q]
        summary[name] = summarize_folds(errs, crps_vals)
    return LooResult(folds=folds, summary=summary, jitter=jitter)
