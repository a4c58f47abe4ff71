"""Cholesky helpers with the shared jitter escalation policy.

Every factorization in the package goes through :func:`chol_with_jitter` so
that the tolerance story is uniform: try the plain factorization, then add
``10^-10 * mean(diag)`` to the diagonal, escalating by factors of 10 up to
``jitter_max * mean(diag)`` (default ``10^-8``) before giving up. A ceiling
is checked with :func:`check_jitter_max` where it enters the library, not on
every factorization.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpotri

from .errors import InvalidModelError, NumericalError, ParameterError

logger = logging.getLogger(__name__)

DEFAULT_JITTER_MAX = 1e-8
_JITTER_START = 1e-10


def check_jitter_max(jitter_max: float) -> float:
    """Return ``jitter_max`` if it is a usable ceiling: finite and >= 0.

    0 means no jitter. A NaN, infinite or negative ceiling raises
    ParameterError: NaN or a negative one would never try a jitter, and an
    infinite one would escalate without bound.
    """
    if not (math.isfinite(jitter_max) and jitter_max >= 0):
        raise ParameterError(
            f"jitter_max must be finite and >= 0, got {jitter_max!r}"
        )
    return jitter_max


def chol_with_jitter(mat: np.ndarray, jitter_max: float = DEFAULT_JITTER_MAX):
    """Lower Cholesky factor of a symmetric PSD matrix, jittering if needed.

    Returns
    -------
    (L, jitter) : the factor and the absolute jitter that was added to the
        diagonal (0.0 when none was required).

    Raises
    ------
    NumericalError : if the matrix has a non-finite entry, or if the
        factorization still fails at the jitter cap.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    diag_mean = float(np.mean(np.diag(mat))) if mat.size else 0.0
    # checked once here, so the attempts below skip scipy's own check; a
    # finite jitter needs a finite mean diagonal too
    if not (math.isfinite(diag_mean) and np.isfinite(mat).all()):
        raise NumericalError("cannot factor a matrix with non-finite entries")
    if diag_mean == 0.0 and not mat.any():
        # degenerate zero-covariance model: factor is exactly zero
        return np.zeros_like(mat), 0.0
    try:
        return sla.cholesky(mat, lower=True, check_finite=False), 0.0
    except sla.LinAlgError:
        pass
    jitter = _JITTER_START * diag_mean
    cap = jitter_max * diag_mean
    eye = np.eye(mat.shape[0])
    while jitter <= cap * (1 + 1e-12):
        try:
            L = sla.cholesky(mat + jitter * eye, lower=True, check_finite=False)
            logger.debug("cholesky needed jitter %.3e (mean diag %.3e)", jitter, diag_mean)
            return L, jitter
        except sla.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"cholesky failed after jitter escalation to {cap:.3e} "
        f"({jitter_max:.1e} * mean diagonal {diag_mean:.3e})"
    )


def chol_model(mat: np.ndarray, jitter_max: float = DEFAULT_JITTER_MAX):
    """Like :func:`chol_with_jitter` but signals an invalid model on failure."""
    try:
        return chol_with_jitter(mat, jitter_max)
    except NumericalError as exc:
        raise InvalidModelError(str(exc)) from exc


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor.

    Neither argument is checked for finiteness: ``L`` comes from
    :func:`chol_with_jitter`, which checked the matrix it factored, and the
    caller checks ``b`` where it is built.
    """
    y = sla.solve_triangular(L, b, lower=True, check_finite=False)
    return sla.solve_triangular(L.T, y, lower=False, check_finite=False)


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 given the lower factor, by LAPACK's Cholesky inverse.

    ``L`` comes from :func:`chol_with_jitter`, whose upper triangle is 0.
    ``potri`` writes the inverse's lower triangle over L's and leaves that
    0, so P + P^T is the symmetric inverse once its doubled diagonal is
    put back. A zero on L's diagonal (a singular factor) is a
    NumericalError.
    """
    P, info = dpotri(L, lower=1)
    if info != 0:
        raise NumericalError(f"cholesky inverse failed (potri info {info})")
    full = P + P.T
    np.fill_diagonal(full, np.diagonal(P))
    return full


def chol_logdet(L: np.ndarray) -> float:
    """log det of the factored matrix."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))
