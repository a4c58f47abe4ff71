"""Spectral validity checks for cross-covariance candidates.

A bivariate stationary model on R^2 with marginal spectral densities G11 and
G22 admits a cross spectral factor B(w) only if B(w) B(-w) <= G22(w) / G11(w)
almost everywhere. For radially symmetric Matern-class candidates that is a
one dimensional envelope condition, checked here by scanning a log-spaced
radial frequency grid. The module also carries the closed-form bounds for
Matern-class candidates against Matern marginals sharing an inverse range:
the smallest admissible candidate smoothness, the matching amplitude cap,
and the Matern cross-covariance those boundary choices induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gamma as _gamma

from .errors import ParameterError, ValidationError
from .kernels import MaternParams

__all__ = [
    "matern_spectral_density",
    "SpectralReport",
    "check_cross_validity",
    "parsimonious_bounds",
    "matern_cross_variance",
    "matern_cross_smoothness",
]

# candidates are declared valid when the relative margin never drops below
# this; it absorbs float roundoff for candidates that sit exactly on the
# envelope
VALIDITY_TOL = 1e-9


def matern_spectral_density(params: MaternParams, w, dim: int = 2):
    """Isotropic Matern spectral density at radial frequency w.

    Normalized so the density integrates to the variance over R^dim
    (for dim=2: 2 pi Int w G(w) dw = variance).
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr < 0):
        raise ParameterError("radial frequencies must be >= 0")
    s2, kap, nu = params.variance, params.scale, params.smoothness
    dens = (
        s2
        * _gamma(nu + dim / 2.0)
        * kap ** (2.0 * nu)
        / (np.pi ** (dim / 2.0) * _gamma(nu))
        * (kap ** 2 + w_arr ** 2) ** (-nu - dim / 2.0)
    )
    if np.ndim(w) == 0:
        return float(dens)
    return dens


@dataclass(frozen=True)
class SpectralReport:
    """Scan of candidate vs envelope over radial frequencies.

    margin is relative: 1 - candidate/envelope, so 0 means the candidate sits
    exactly on the envelope and negative values mean it pokes above.
    """

    w: np.ndarray
    envelope: np.ndarray
    candidate: np.ndarray
    margin: np.ndarray
    valid: bool
    worst_margin: float
    integrable: bool


def check_cross_validity(
    c11: MaternParams,
    c22: MaternParams,
    bo: Union[MaternParams, np.ndarray],
    wmax: float = None,
    nsamples: int = 4096,
) -> SpectralReport:
    """Check B(w)^2 <= G22(w)/G11(w) for a cross spectral candidate.

    ``bo`` is either MaternParams (the candidate is the spectral density of a
    Matern with those parameters, which must share the marginals' inverse
    range) or an (N, 2) array of (w, B(w)) samples, in which case the scan
    runs exactly on the tabulated frequencies.
    """
    if isinstance(bo, MaternParams):
        if not (bo.scale == c11.scale == c22.scale):
            raise ValidationError(
                "matern-form candidates must share the marginals' inverse range "
                f"(got {bo.scale}, {c11.scale}, {c22.scale}); use a tabulated "
                "candidate for anything more general"
            )
        if nsamples < 2:
            raise ValidationError(f"nsamples must be >= 2, got {nsamples}")
        if wmax is None:
            wmax = 1e3 * bo.scale
        wmin = 1e-3 * bo.scale
        if wmax <= wmin:
            raise ValidationError(f"wmax {wmax} must exceed {wmin}")
        w = np.geomspace(wmin, wmax, int(nsamples))
        bvals = matern_spectral_density(bo, w)
    else:
        table = np.asarray(bo, dtype=float)
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
            raise ValidationError(
                f"tabulated candidate must be an (N>=2, 2) array of (w, B), "
                f"got shape {table.shape}"
            )
        if np.any(~np.isfinite(table)):
            raise ValidationError("tabulated candidate must be finite")
        order = np.argsort(table[:, 0])
        w = table[order, 0]
        bvals = table[order, 1]
        if np.any(w < 0):
            raise ValidationError("tabulated frequencies must be >= 0")
    g11 = matern_spectral_density(c11, w)
    g22 = matern_spectral_density(c22, w)
    envelope = g22 / g11
    # radially symmetric real candidates: B(w) B(-w) = B(w)^2
    candidate = bvals * bvals
    margin = 1.0 - candidate / envelope
    worst = float(np.min(margin))
    # G22 integrates to c22's variance (see matern_spectral_density)
    integrable = bool(np.isfinite(c22.variance))
    return SpectralReport(
        w=w,
        envelope=envelope,
        candidate=candidate,
        margin=margin,
        valid=bool(worst >= -VALIDITY_TOL) and integrable,
        worst_margin=worst,
        integrable=integrable,
    )


def _check_positive(**kwargs):
    for name, val in kwargs.items():
        if not np.isfinite(val) or val <= 0:
            raise ParameterError(f"{name} must be finite and positive, got {val!r}")


def parsimonious_bounds(
    nu11: float, nu22: float, sig11: float, sig22: float, kappa: float
) -> dict:
    """Admissible Matern-class candidate bounds for given Matern marginals.

    ``sig11``/``sig22`` are the marginal standard deviations. Requires the
    smoother variable to dominate, nu22 > nu11 + 2; outside that regime the
    Matern-class candidate family is empty and this raises. Returns the
    minimum candidate smoothness, the amplitude cap at that smoothness, and
    the smoothness and variance cap of the induced Matern cross-covariance.
    """
    _check_positive(nu11=nu11, nu22=nu22, sig11=sig11, sig22=sig22, kappa=kappa)
    if nu22 <= nu11 + 2:
        raise ParameterError(
            f"no admissible matern-class candidate: requires nu22 > nu11 + 2, "
            f"got nu11={nu11}, nu22={nu22}"
        )
    nu_b_min = (nu22 - nu11 - 2.0) / 2.0
    sig2_b_max = (
        2.0
        * np.pi
        * (sig22 / sig11)
        * (1.0 / (nu22 - nu11 - 2.0))
        * kappa ** (nu22 - nu11 - 2.0 * nu_b_min)
        * np.sqrt(nu22 / nu11)
    )
    nu12 = matern_cross_smoothness(nu_b_min, nu11)
    sig2_12_max = matern_cross_variance(nu_b_min, nu11, kappa, sig2_b_max, sig11 ** 2)
    return {
        "nu_b_min": float(nu_b_min),
        "sig2_b_max": float(sig2_b_max),
        "nu12": float(nu12),
        "sig2_12_max": float(sig2_12_max),
    }


def matern_cross_smoothness(nu_b: float, nu11: float) -> float:
    """Smoothness of the cross-covariance induced by a Matern-class candidate."""
    _check_positive(nu_b=nu_b, nu11=nu11)
    return float(nu_b + nu11 + 1.0)


def matern_cross_variance(
    nu_b: float, nu11: float, kappa: float, sig2_b: float, sig2_11: float
) -> float:
    """Variance of the induced Matern cross-covariance.

    The product of the candidate and the first marginal's spectral density is
    again a Matern density; this is its sill.
    """
    _check_positive(nu_b=nu_b, nu11=nu11, kappa=kappa, sig2_b=sig2_b, sig2_11=sig2_11)
    return float(
        (1.0 / (np.pi * kappa ** 2))
        * (nu_b * nu11 / (nu_b + nu11 + 1.0))
        * sig2_b
        * sig2_11
    )
