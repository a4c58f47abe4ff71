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
from scipy.linalg.lapack import dpotrf, dpotri

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


def chol_with_jitter(mat: np.ndarray, jitter_max: float = DEFAULT_JITTER_MAX,
                     overwrite: bool = False):
    """Lower Cholesky factor of a symmetric PSD matrix, jittering if needed.

    LAPACK's ``dpotrf`` factors the lower triangle of a matrix stored column
    by column, where it lies. A symmetric matrix stored row by row is its
    own transpose stored column by column, so either order is factored in
    place. With ``overwrite`` the caller's matrix is, if it is a writable
    float array stored either way, and its contents are lost; otherwise a
    copy is. ``dpotrf`` does not touch the other triangle, so after a failed
    attempt the matrix is put back from it and from a copy of the diagonal,
    and the next jitter is added there.

    Returns
    -------
    (L, jitter) : the factor, stored column by column, and the absolute
        jitter that was added to the diagonal (0.0 when none was required).
        L's strictly upper triangle is 0, except with ``overwrite``, where
        it keeps the matrix's entries: read only the lower triangle there.

    Raises
    ------
    NumericalError : if the matrix has a non-finite entry, or if the
        factorization still fails at the jitter cap.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    diag = np.diagonal(mat).copy()
    diag_mean = float(np.mean(diag)) if mat.size else 0.0
    # checked once here, as dpotrf does not check; a finite jitter needs a
    # finite mean diagonal too
    if not (math.isfinite(diag_mean) and np.isfinite(mat).all()):
        raise NumericalError("cannot factor a matrix with non-finite entries")
    if diag_mean == 0.0 and not mat.any():
        # degenerate zero-covariance model: factor is exactly zero
        return np.zeros_like(mat), 0.0
    L = mat if mat.flags.f_contiguous else mat.T
    owned = not (overwrite and L.flags.f_contiguous and L.flags.writeable)
    if owned:
        L = np.array(mat, order="F")
    jitter, cap = 0.0, jitter_max * diag_mean
    while True:
        L, info = dpotrf(L, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
        jitter = _JITTER_START * diag_mean if jitter == 0.0 else 10.0 * jitter
        # a jitter of 0 (a zero mean diagonal) would try the same matrix
        # for ever
        if not 0.0 < jitter <= cap * (1 + 1e-12):
            raise NumericalError(
                f"cholesky failed after jitter escalation to {cap:.3e} "
                f"({jitter_max:.1e} * mean diagonal {diag_mean:.3e})"
            )
        for j in range(L.shape[0]):  # the lower triangle from the upper
            L[j + 1:, j] = L[j, j + 1:]
        np.fill_diagonal(L, diag + jitter)
    if jitter:
        logger.debug("cholesky needed jitter %.3e (mean diag %.3e)", jitter, diag_mean)
    if owned:
        _zero_upper(L)
    return L, jitter


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

    ``L`` comes from :func:`chol_with_jitter`; only its lower triangle is
    read. ``potri`` writes the inverse's lower triangle over L's and leaves
    the upper one as it was, so that is set to 0, and P + P^T is the
    symmetric inverse once its doubled diagonal is put back. A zero on L's
    diagonal (a singular factor) is a NumericalError.
    """
    P, info = dpotri(L, lower=1)
    if info != 0:
        raise NumericalError(f"cholesky inverse failed (potri info {info})")
    _zero_upper(P)
    full = P + P.T
    np.fill_diagonal(full, np.diagonal(P))
    return full


def _zero_upper(a: np.ndarray) -> None:
    """Set the entries above the diagonal of an array stored column by
    column to 0, one contiguous column at a time."""
    for j in range(1, a.shape[1]):
        a[:j, j] = 0.0


def chol_logdet(L: np.ndarray) -> float:
    """log det of the factored matrix."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))
