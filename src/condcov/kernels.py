"""Univariate Matern covariances and interaction functions.

The Matern family is the only stationary kernel shipped; everything else in
the package composes it. Interaction functions b(s, v) describe how a
conditioning variable at v drives the conditioned variable at s. They are
evaluated in raw coordinate (displacement) space, never through a metric, so
the same machinery works on lon-lat meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import kv as _kv

from .domain import _grid_squared_sum, _read_table, _squared_sum
from .errors import ParameterError, ValidationError

__all__ = [
    "MaternParams",
    "matern_cov",
    "InteractionKind",
    "InteractionSpec",
    "TabulatedValues",
    "zero",
    "dirac",
    "bisquare",
    "shifted_bisquare",
    "tabulated",
    "interaction_eval",
    "interaction_values",
    "load_tabulated",
]


@dataclass(frozen=True)
class MaternParams:
    """Matern covariance parameters: sill, inverse range and smoothness."""

    variance: float
    scale: float
    smoothness: float

    def __post_init__(self):
        for field in ("variance", "scale", "smoothness"):
            val = getattr(self, field)
            if not np.isfinite(val) or val <= 0:
                raise ParameterError(
                    f"matern {field} must be finite and positive, got {val!r}"
                )


def matern_cov(params: MaternParams, d) -> Union[float, np.ndarray]:
    """Matern covariance at distance d (scalar or array, in metric units).

    C(d) = variance / (2^(nu-1) Gamma(nu)) * (scale*d)^nu * K_nu(scale*d),
    with the d = 0 limit handled analytically. Half-integer smoothness
    0.5 / 1.5 / 2.5 uses the closed exponential forms; any other goes
    through the Bessel function kv (see :func:`_kv_corr`).

    Evaluated in place on fresh arrays, never on ``d``: x = scale * d and
    e = exp(-x); the correlation is e (nu = 0.5), e * (1 + x) (nu = 1.5),
    e * ((1 + x) + (x * x) / 3) (nu = 2.5), or else the kv correlation
    clipped to [0, 1]; that is multiplied by variance. A scalar d gives a
    float.
    """
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    _check_distances(d_arr)
    corr = _matern_into(params, d_arr, np.empty(d_arr.shape))
    if np.ndim(d) == 0:
        return float(corr[0])
    return corr


def _check_distances(d: np.ndarray) -> None:
    # min and max read d without a temporary; a NaN makes both NaN, and
    # every comparison with NaN is False
    if d.size and not (d.min() >= 0.0 and d.max() < np.inf):
        raise ParameterError("distances must be finite and nonnegative")


def _matern_of_squared(params: MaternParams, d2: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """matern_cov(params, sqrt(d2)) written into ``out``; d2 becomes the
    distances. This is ``into`` of ``Metric._same_set`` and
    ``domain._grid_same_set`` for a Matern block."""
    d = np.sqrt(d2, out=d2)
    _check_distances(d)
    return _matern_into(params, d, out)


def _matern_into(params: MaternParams, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Matern of ``params`` at distances d into ``out``, d's shape."""
    x = np.multiply(params.scale, d)
    nu = params.smoothness
    if nu in (0.5, 1.5, 2.5):
        np.negative(x, out=out)
        np.exp(out, out=out)
        if nu == 1.5:
            x += 1.0
            out *= x
        elif nu == 2.5:
            poly = np.multiply(x, x)
            poly /= 3.0
            x += 1.0
            poly += x
            out *= poly
    else:
        # a correlation: rounding must not carry it past its bounds
        np.clip(_kv_corr(nu, x), 0.0, 1.0, out=out)
    out *= params.variance
    return out


def _kv_corr(nu: float, x: np.ndarray) -> np.ndarray:
    """Matern correlation 2^(1-nu) / Gamma(nu) * x^nu * K_nu(x) through kv.

    Evaluated directly for nu <= 2. Above that, direct evaluation breaks
    down where the correlation is far from 0 (Gamma(nu) overflows past
    nu ~ 171; x^nu and K_nu overflow for x of order 1 once nu is in the
    hundreds), so the order is climbed from nu - k in (1, 2] with the
    forward recurrence c_{mu+1} = c_mu + x^2 / (4 mu (mu - 1)) * c_{mu-1},
    which follows from K_{mu+1} = K_{mu-1} + (2 mu / x) K_mu, adds only
    nonnegative terms and runs in the direction in which K grows, so it is
    stable. It costs k array passes, and the starting orders underflow
    beyond x ~ 700, where for nu in the thousands the correlation is small
    but not yet 0.
    """
    steps = math.ceil(nu - 2.0)
    if steps <= 0:
        with np.errstate(invalid="ignore", over="ignore"):
            corr = (2.0 ** (1.0 - nu) / _gamma(nu)) * np.power(x, nu) * _kv(nu, x)
        # kv overflows for tiny arguments and underflows for huge ones; for
        # nu <= 2 the correlation there is 1 or 0 to double precision, so
        # patch the non-finite entries instead of failing
        return np.where(np.isfinite(corr), corr, np.where(x < 1.0, 1.0, 0.0))
    mu = nu - steps
    prev, corr = _kv_corr(mu - 1.0, x), _kv_corr(mu, x)
    quarter_x2 = 0.25 * x * x
    for _ in range(steps):
        prev, corr = corr, corr + quarter_x2 / (mu * (mu - 1.0)) * prev
        mu += 1.0
    return corr


class InteractionKind(Enum):
    ZERO = "zero"
    DIRAC = "dirac"
    BISQUARE = "bisquare"
    SHIFTED_BISQUARE = "shifted_bisquare"
    TABULATED = "tabulated"


class TabulatedValues:
    """Dense table of b(s, v) on a product grid of 1-d s and v axes.

    Lookup is bilinear in the (s, v) plane and extrapolates to zero outside
    the table, which keeps the interaction integrable.
    """

    def __init__(self, s_axis, v_axis, values):
        s_axis = np.asarray(s_axis, dtype=float)
        v_axis = np.asarray(v_axis, dtype=float)
        values = np.asarray(values, dtype=float)
        if s_axis.ndim != 1 or v_axis.ndim != 1:
            raise ValidationError("table axes must be one dimensional")
        if np.any(np.diff(s_axis) <= 0) or np.any(np.diff(v_axis) <= 0):
            raise ValidationError("table axes must be strictly increasing")
        if values.shape != (s_axis.size, v_axis.size):
            raise ValidationError(
                f"table shape {values.shape} does not match axes "
                f"({s_axis.size}, {v_axis.size})"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("table values must be finite")
        self.s_axis = s_axis
        self.v_axis = v_axis
        self.values = values

    def __call__(self, s, v) -> np.ndarray:
        """(m, n) values at the product of 1-d locations s (m,) and v (n,).

        The lookup is separable: per axis, each location gets the index of
        its cell and the weights of the cell's two nodes (both 0 outside
        the axis). The table is first interpolated along s, to an
        (m, len(v_axis)) array, and that along v, so no more than two
        (m, n) arrays are formed.
        """
        s_lo, s_w0, s_w1 = _linear_weights(self.s_axis, s)
        v_lo, v_w0, v_w1 = _linear_weights(self.v_axis, v)
        s_hi = np.minimum(s_lo + 1, self.s_axis.size - 1)
        v_hi = np.minimum(v_lo + 1, self.v_axis.size - 1)
        along_s = (s_w0[:, None] * self.values[s_lo]
                   + s_w1[:, None] * self.values[s_hi])
        out = along_s[:, v_lo]
        out *= v_w0
        upper = along_s[:, v_hi]
        upper *= v_w1
        out += upper
        return out

    def __eq__(self, other):
        if not isinstance(other, TabulatedValues):
            return NotImplemented
        return (
            np.array_equal(self.s_axis, other.s_axis)
            and np.array_equal(self.v_axis, other.v_axis)
            and np.array_equal(self.values, other.values)
        )


def _linear_weights(axis: np.ndarray, x) -> tuple:
    """(lo, w0, w1): linear interpolation on ``axis`` at the points x (1-d)
    is w0 * f[lo] + w1 * f[lo + 1]. Outside [axis[0], axis[-1]] both
    weights are 0; on a one-point axis, w0 is 1 at that point and w1 is 0.
    """
    x = np.asarray(x, dtype=float)
    last = axis.size - 1
    lo = np.searchsorted(axis, x, side="right") - 1
    np.clip(lo, 0, max(last - 1, 0), out=lo)
    if last:
        w1 = (x - axis[lo]) / (axis[lo + 1] - axis[lo])
    else:
        w1 = np.zeros(x.shape)
    inside = (x >= axis[0]) & (x <= axis[-1])
    w0 = np.where(inside, 1.0 - w1, 0.0)
    w1 = np.where(inside, w1, 0.0)
    return lo, w0, w1


@dataclass(frozen=True)
class InteractionSpec:
    """One interaction function. Use the module factories to build these."""

    kind: InteractionKind
    amplitude: float = 0.0
    aperture: Optional[float] = None
    shift: Optional[tuple] = None
    table: Optional[TabulatedValues] = None

    def __post_init__(self):
        k = self.kind
        if self.shift is not None:
            # a tuple of floats, however given, so that specs compare by value
            try:
                shift = np.asarray(self.shift, dtype=float).ravel()
            except (TypeError, ValueError):
                raise ParameterError(
                    f"shift must be a vector of numbers, got {self.shift!r}"
                ) from None
            object.__setattr__(self, "shift", tuple(shift.tolist()))
        if k in (InteractionKind.DIRAC, InteractionKind.BISQUARE,
                 InteractionKind.SHIFTED_BISQUARE):
            if not np.isfinite(self.amplitude):
                raise ParameterError(f"amplitude must be finite, got {self.amplitude!r}")
        if k in (InteractionKind.BISQUARE, InteractionKind.SHIFTED_BISQUARE):
            if self.aperture is None or not np.isfinite(self.aperture) or self.aperture <= 0:
                raise ParameterError(
                    f"aperture must be finite and positive, got {self.aperture!r}"
                )
        if k is InteractionKind.SHIFTED_BISQUARE:
            if self.shift is None or len(self.shift) == 0 \
                    or not np.all(np.isfinite(self.shift)):
                raise ParameterError(f"shift must be a finite vector, got {self.shift!r}")
        if k is InteractionKind.TABULATED and self.table is None:
            raise ParameterError("tabulated interactions need a value table")


def zero() -> InteractionSpec:
    return InteractionSpec(InteractionKind.ZERO)


def dirac(amplitude: float) -> InteractionSpec:
    return InteractionSpec(InteractionKind.DIRAC, amplitude=float(amplitude))


def bisquare(amplitude: float, aperture: float) -> InteractionSpec:
    return InteractionSpec(
        InteractionKind.BISQUARE, amplitude=float(amplitude), aperture=float(aperture)
    )


def shifted_bisquare(amplitude: float, aperture: float, shift) -> InteractionSpec:
    return InteractionSpec(
        InteractionKind.SHIFTED_BISQUARE,
        amplitude=float(amplitude), aperture=float(aperture), shift=shift,
    )


def tabulated(s_axis, v_axis, values) -> InteractionSpec:
    return InteractionSpec(
        InteractionKind.TABULATED, table=TabulatedValues(s_axis, v_axis, values)
    )


def interaction_values(spec: InteractionSpec, S, V) -> np.ndarray:
    """Matrix of b(S[i], V[j]) for location arrays S (m, dim) and V (n, dim)."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if S.shape[1] != V.shape[1]:
        raise ValidationError(
            f"location dimensions differ: {S.shape[1]} vs {V.shape[1]}"
        )
    kind = spec.kind
    if kind is InteractionKind.ZERO:
        return np.zeros((S.shape[0], V.shape[0]))
    if kind is InteractionKind.DIRAC:
        raise ParameterError(
            "dirac interactions have no pointwise values; they contract to "
            "amplitude * identity at assembly time"
        )
    if kind is InteractionKind.TABULATED:
        if S.shape[1] != 1:
            raise ValidationError(
                "tabulated interactions support one dimensional locations only"
            )
        return spec.table(S[:, 0], V[:, 0])
    if kind is InteractionKind.SHIFTED_BISQUARE and len(spec.shift) != S.shape[1]:
        raise ValidationError(
            f"shift has {len(spec.shift)} components for {S.shape[1]}-d locations"
        )
    return _bisquare_profile(spec, _squared_displacement(spec, S, V))


def _squared_displacement(spec: InteractionSpec, S, V, axes=None) -> np.ndarray:
    """|h|^2 for the displacements h = V[j] - S[i] - shift of a bisquare edge.

    This is the part of a bisquare value that only ``shift`` changes; see
    :func:`_bisquare_profile` for the rest. S (m, dim) and V (n, dim) are float
    arrays of the same dim, as :func:`interaction_values` checks.

    Built on one (m, n) array, axis by axis and in place: for k = 0, 1, ...
    the component h_k = V[j, k] - S[i, k] (less shift[k] on a shifted edge)
    is squared and added to the sum of the axes before it. No (m, n, dim)
    array of displacements is formed. When V is the product grid of
    ``axes`` (``Grid.axes``), h_k is taken against the n_k coordinates of
    axis k only and broadcast (``domain._grid_squared_sum``), bitwise the
    same.
    """
    shift = spec.shift if spec.kind is InteractionKind.SHIFTED_BISQUARE else None
    columns = V.T if axes is None else axes

    def axis(k):
        h = columns[k][None, :] - S[:, None, k]
        if shift is not None:
            h -= shift[k]
        return h

    if axes is not None:
        return _grid_squared_sum([axis(k) for k in range(S.shape[1])])
    return _squared_sum((axis(k) for k in range(S.shape[1])),
                        (S.shape[0], V.shape[0]))


def _bisquare_profile(spec: InteractionSpec, d2: np.ndarray) -> np.ndarray:
    """amplitude * (1 - d2 / aperture^2)^2 inside the aperture, 0 outside.

    Evaluated in place on one fresh array, u2 = d2 / aperture^2, never on
    d2; "inside" is u2 <= 1, so a NaN is outside. Outside entries are
    evaluated too, where they may overflow, and then set to 0.
    """
    u2 = np.divide(d2, spec.aperture ** 2)
    outside = np.less_equal(u2, 1.0)
    np.logical_not(outside, out=outside)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(1.0, u2, out=u2)
        np.square(u2, out=u2)
        u2 *= spec.amplitude
    np.copyto(u2, 0.0, where=outside)
    return u2


def interaction_eval(spec: InteractionSpec, s, v) -> float:
    """b(s, v) for a single pair of locations."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return float(interaction_values(spec, s[None, :], v[None, :])[0, 0])


def load_tabulated(path) -> InteractionSpec:
    """Load a tabulated interaction from CSV with header ``s,v,value`` (see
    ``domain._read_table``).

    Rows must cover a complete product grid of the distinct s and v values,
    one row per point.
    """
    _, (s, v, values), _ = _read_table(path, [("s", "v", "value")])
    if not s:
        raise ValidationError(f"{path}: empty interaction table")
    s_axis = np.unique(s)
    v_axis = np.unique(v)
    table = np.full((s_axis.size, v_axis.size), np.nan)
    table[np.searchsorted(s_axis, s), np.searchsorted(v_axis, v)] = values
    if len(s) != table.size or np.any(np.isnan(table)):
        raise ValidationError(
            f"{path}: rows are not one per point of an s x v product grid")
    return tabulated(s_axis, v_axis, table)
