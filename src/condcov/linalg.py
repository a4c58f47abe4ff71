"""Every factorization in the package; the one module that calls LAPACK.

:func:`chol_with_jitter` factors every covariance under the shared jitter
policy: try the plain factorization, then add ``10^-10 * mean(diag)`` to
the diagonal, escalating by factors of 10 up to ``jitter_max * mean(diag)``
(default ``10^-8``) before giving up. A ceiling is checked with
:func:`check_jitter_max` where it enters the library, not on every
factorization. :func:`tri_inverse` inverts a factor, and
:func:`pivoted_factor` factors a semidefinite block to its numerical rank.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpotrf, dpstrf, dtrtri

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
    """(L, jitter): the lower Cholesky factor of a symmetric PSD matrix,
    stored column by column, and the absolute jitter added to its diagonal
    (0.0 when none was required). NumericalError if the matrix has a
    non-finite entry, or if the factorization still fails at the jitter cap.

    LAPACK's ``dpotrf`` factors the lower triangle of a matrix stored column
    by column, where it lies, and a symmetric matrix stored row by row is
    its own transpose stored so. A writable float matrix stored either way
    is thus factored in place, and its contents are lost; a read-only or
    non-contiguous one is factored in a copy. Above the diagonal L is 0 if
    factored in a copy and keeps the matrix's entries if factored in place:
    read only the lower triangle. After a failed attempt the matrix is put
    back from the triangle ``dpotrf`` did not touch and a copy of the
    diagonal, and the next jitter is added there.
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
    owned = not (L.flags.f_contiguous and L.flags.writeable)
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


def tri_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1, lower triangular with 0 above the diagonal, from the lower
    triangle of L by LAPACK's ``dtrtri``, in place where L allows it (see
    :func:`chol_with_jitter`). A zero on L's diagonal is a NumericalError."""
    R, info = dtrtri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inverse failed (trtri info {info})")
    _zero_upper(R)
    return R


def pivoted_factor(K: np.ndarray) -> np.ndarray:
    """F with F F' = K for a positive-semidefinite K, from K's lower
    triangle by LAPACK's pivoted Cholesky (``dpstrf``, default tolerance),
    in place where K allows it: P' K P = R R' and F = P R[:, :r], r K's
    numerical rank. F is read-only, its rows in K's order. A failure of the
    call itself is a NumericalError."""
    R, piv, rank, info = dpstrf(K, lower=1, overwrite_a=1)
    if info < 0:
        raise NumericalError(f"pivoted cholesky failed (pstrf info {info})")
    _zero_upper(R[:, :rank])  # R's upper triangle still holds K's
    F = np.empty((R.shape[0], rank))
    F[piv - 1] = R[:, :rank]
    F.setflags(write=False)
    return F


def _zero_upper(a: np.ndarray) -> None:
    """Set the entries above the diagonal of an array stored column by
    column to 0, one contiguous column at a time."""
    for j in range(1, a.shape[1]):
        a[:j, j] = 0.0


def chol_logdet(L: np.ndarray) -> float:
    """log det of the factored matrix."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))
