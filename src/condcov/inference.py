"""Gaussian likelihood, maximum-likelihood fitting and direction selection.

Parameters are addressed by name: ``node.field`` for node parameters
(variance, scale, smoothness, nugget, noise) and ``child~parent.field`` for
interaction parameters (amplitude, aperture, shift1..shiftD). Fitting runs a
seeded multi-start Nelder-Mead simplex (:func:`_nelder_mead`, scipy's steps
without importing ``scipy.optimize``) on transformed coordinates: log for
positive parameters, identity for amplitudes and shifts, with smoothness
clamped to [0.05, 5]. A covariance that fails Cholesky under the jitter
policy scores -inf, which the simplex treats as a soft rejection.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpstrf

from .conditional import (
    CovarianceEvaluator,
    ProcessNetwork,
    _check_network_on_grid,
    _Geometry,
    kept_observations,
    mean_at,
    observation_covariance,
)
from .domain import Grid, Observations, _one_line, _rewrite
from .errors import (
    CondcovError,
    InsufficientDataError,
    NumericalError,
    OptimizationError,
    ValidationError,
)
from .kernels import InteractionKind, InteractionSpec
from .linalg import (
    DEFAULT_JITTER_MAX,
    check_jitter_max,
    chol_logdet,
    chol_solve,
    chol_with_jitter,
)
from .rng import rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "list_parameters",
    "default_free_parameters",
    "get_parameter",
    "set_parameter",
    "loglik",
    "OptimizerConfig",
    "FitResult",
    "RankedFit",
    "fit_mle",
    "reverse_bivariate",
    "compare_directions",
    "write_fit_result",
    "read_params",
]

_NODE_FIELDS = ("variance", "scale", "smoothness", "nugget", "noise")
_LOG_FIELDS = frozenset({"variance", "scale", "smoothness", "nugget", "noise", "aperture"})
_LOG_FLOOR = 1e-10
_NU_RANGE = (0.05, 5.0)
# Nelder-Mead tolerances on transformed coordinates and on -loglik, and the
# relative spread of the perturbed starting points of later restarts
_XATOL = 1e-6
_FATOL = 1e-8
_PERTURBATION = 0.3
# AIC differences within this cannot be told apart (see compare_directions)
_AIC_TIE = 4.0 * _FATOL

_EDGE_FIELDS = {
    InteractionKind.ZERO: (),
    InteractionKind.DIRAC: ("amplitude",),
    InteractionKind.BISQUARE: ("amplitude", "aperture"),
    InteractionKind.SHIFTED_BISQUARE: ("amplitude", "aperture"),
    InteractionKind.TABULATED: (),
}


def _edge_fields(spec: InteractionSpec) -> Tuple[str, ...]:
    fields = _EDGE_FIELDS[spec.kind]
    if spec.kind is InteractionKind.SHIFTED_BISQUARE:
        fields = fields + tuple(f"shift{i + 1}" for i in range(len(spec.shift)))
    return fields


def list_parameters(network: ProcessNetwork) -> list:
    """All addressable parameter names, in a stable order."""
    names = []
    for node in network.nodes:
        for field in _NODE_FIELDS:
            names.append(f"{node.name}.{field}")
    for q, node in enumerate(network.nodes):
        for idx, spec in node.parents:
            prefix = f"{node.name}~{network.nodes[idx].name}"
            for field in _edge_fields(spec):
                names.append(f"{prefix}.{field}")
    return names


def default_free_parameters(network: ProcessNetwork) -> list:
    """Everything except measurement-error variances, which are data config."""
    return [n for n in list_parameters(network) if not n.endswith(".noise")]


def _locate(network: ProcessNetwork, name: str):
    head, _, field = name.rpartition(".")
    if not head or not field:
        raise ValidationError(f"malformed parameter name {name!r}")
    if "~" in head:
        child, parent = head.split("~", 1)
        q = network.index(child)
        a = network.index(parent)
        for pos, (idx, spec) in enumerate(network.nodes[q].parents):
            if idx == a:
                if field not in _edge_fields(spec):
                    raise ValidationError(
                        f"{name!r}: {spec.kind.value} interactions have no "
                        f"parameter {field!r}"
                    )
                return ("edge", q, pos, field)
        raise ValidationError(f"{name!r}: no edge {child!r} ~ {parent!r}")
    q = network.index(head)
    if field not in _NODE_FIELDS:
        raise ValidationError(
            f"{name!r}: node parameters are {list(_NODE_FIELDS)}"
        )
    return ("node", q, None, field)


def get_parameter(network: ProcessNetwork, name: str) -> float:
    kind, q, pos, field = _locate(network, name)
    node = network.nodes[q]
    if kind == "node":
        if field in ("nugget", "noise"):
            return float(getattr(node, field))
        return float(getattr(node.covariance, field))
    _, spec = node.parents[pos]
    if field.startswith("shift"):
        return float(spec.shift[int(field[5:]) - 1])
    return float(getattr(spec, field))


def set_parameter(network: ProcessNetwork, name: str, value: float) -> ProcessNetwork:
    """Return a copy of the network with one named parameter replaced."""
    return _substitute(network, [_locate(network, name)], [float(value)])


def _substitute(network: ProcessNetwork, located, values) -> ProcessNetwork:
    """The network with each parameter located by :func:`_locate` set to
    the float beside it, built once.

    Every changed MaternParams, InteractionSpec and ProcessNode is rebuilt
    with all of its new values at once, and the ProcessNetwork once, so
    each value passes the same dataclass checks as through
    :func:`set_parameter`, which raise the same kinds of error.
    """
    changes = {}  # node -> {"covariance" / "node" / edge position: fields}
    for (kind, q, pos, field), value in zip(located, values):
        part = pos if kind == "edge" else (
            "node" if field in ("nugget", "noise") else "covariance")
        changes.setdefault(q, {}).setdefault(part, {})[field] = value
    nodes = list(network.nodes)
    for q, parts in changes.items():
        node = nodes[q]
        fields = dict(parts.pop("node", {}))
        if "covariance" in parts:
            fields["covariance"] = dataclasses.replace(
                node.covariance, **parts.pop("covariance"))
        if parts:
            edges = list(node.parents)
            for pos, edge_fields in parts.items():
                idx, spec = edges[pos]
                shifts = {f: edge_fields.pop(f) for f in list(edge_fields)
                          if f.startswith("shift")}
                if shifts:
                    shift = list(spec.shift)
                    for field, value in shifts.items():
                        shift[int(field[5:]) - 1] = value
                    edge_fields["shift"] = tuple(shift)
                edges[pos] = (idx, dataclasses.replace(spec, **edge_fields))
            fields["parents"] = tuple(edges)
        nodes[q] = dataclasses.replace(node, **fields)
    return ProcessNetwork(tuple(nodes))


def loglik(
    grid: Grid,
    network: ProcessNetwork,
    obs: Sequence[Observations],
    jitter_max: float = DEFAULT_JITTER_MAX,
) -> float:
    """Gaussian log-likelihood of observations under the network.

    Covariances are evaluated at the observation locations themselves (the
    grid only supplies the integration rule). Returns -inf when the
    observation covariance cannot be factored under the jitter policy,
    non-finite entries included.
    """
    check_jitter_max(jitter_max)
    kept = kept_observations(grid, network, obs)
    if not kept:
        raise InsufficientDataError("log-likelihood needs at least one observation")
    _check_network_on_grid(grid, network)
    try:
        return _Split(tuple(kept)).score(grid, network, _Geometry(grid),
                                         jitter_max)[0]
    except NumericalError:
        logger.debug("loglik: covariance not factorable, returning -inf")
        return -np.inf


def _gaussian(C: np.ndarray, resid: np.ndarray,
              jitter_max: float) -> Tuple[float, float]:
    """(log density of ``resid`` under N(0, C), jitter the Cholesky factor
    of C needed); NumericalError when C cannot be factored."""
    L, jitter = chol_with_jitter(C, jitter_max)
    quad = float(resid @ chol_solve(L, resid))
    value = -0.5 * (resid.size * math.log(2.0 * math.pi) + chol_logdet(L) + quad)
    return value, jitter


@dataclass(frozen=True)
class _Split:
    """A likelihood split as p(z_<q) p(z_q | z_<q), where z_<q is what is
    conditioned on and ``scored`` the observations scored given it (see
    :func:`_condition`). With nothing conditioned, the defaults, the split
    scores every kept observation: the joint likelihood.

    ``loglik`` is log p(z_<q), whose covariance C_< needed ``jitter``.
    Given z_<q, the grid blocks of q's parents are K_ab = cov(a, b, 0, 0) -
    W_a' W_b, with W_a = L_<^-1 cov(z_<q, Y_a(grid)). Stacked over the
    parents, K = F F', where F has as many columns as K's numerical rank,
    and ``factors`` maps each parent a to its rows F_a (read-only).
    ``means`` maps each parent a to E[Y_a(grid) | z_<q] = W_a' L_<^-1 z_<q.
    """

    scored: Tuple[Observations, ...]
    loglik: float = 0.0
    jitter: float = 0.0
    factors: dict = dataclasses.field(default_factory=dict)
    means: dict = dataclasses.field(default_factory=dict)

    def score(self, grid: Grid, network: ProcessNetwork, geometry: _Geometry,
              jitter_max: float) -> Tuple[float, float]:
        """(log-likelihood of ``network``, the larger jitter of C_< and of
        the scored block); NumericalError when a covariance cannot be
        factored under the jitter policy. Only the scored block is built and
        factored. Given ``factors``, it is z_q's block given z_<q, built as
        A + G G' (:meth:`_given`). Otherwise an evaluator builds the
        covariance of ``scored``; with nothing conditioned, the value and
        jitter are bitwise those of every kept observation's covariance
        (0.0 + v is v)."""
        ev = CovarianceEvaluator(grid, network, geometry)
        if self.factors:
            S, resid = self._given(ev)
        else:
            S, resid = observation_covariance(ev, self.scored)
        value, jitter = _gaussian(S, resid, jitter_max)
        return self.loglik + value, max(self.jitter, jitter)

    def _given(self, ev: CovarianceEvaluator) -> Tuple[np.ndarray, np.ndarray]:
        """Cov(z_q | z_<q) and z_q's residual from its mean given z_<q, at
        z_q's sites s. The block is A + G G', with A = M_q(s, s) + nugget +
        noise I and G = sum_a B_a(s) F_a (windowed ``_Operator.left``), so
        that G G' = sum_ab B_a(s) K_ab B_b(s)'. numpy takes G G' by syrk,
        so the block is exactly symmetric. The residual loses
        sum_a B_a(s) E[Y_a(grid) | z_<q]."""
        last = self.scored[-1]
        q, node = last.variable, ev.network.nodes[last.variable]
        sites = ev.add_points(last.locations)
        G = None
        resid = last.values - mean_at(ev.network, q, last.locations)
        for a, _, op in ev._edges(q, sites):
            term = op.left(self.factors[a])
            if G is None:
                G = term
            else:
                G += term
            resid -= op.values @ self.means[a]
        if not np.isfinite(resid).all():
            raise NumericalError("conditional residuals have non-finite entries")
        S = G @ G.T
        S += ev._geometry.matern(q, node.covariance, sites, sites, node.nugget)
        S.ravel()[::S.shape[0] + 1] += node.noise  # a view: S is fresh
        return S, resid


def _condition(grid: Grid, network: ProcessNetwork, kept: Sequence[Observations],
               located, jitter_max: float) -> _Split:
    """The :class:`_Split` of a fit of ``network``, made once. Where every
    ``located`` free parameter belongs to the last node q (its fields or its
    edges), q and an earlier node are observed, every nonzero edge of q is
    an integral edge, and C_< factors under the jitter policy, z_<q is
    conditioned on and each evaluation factors only z_q's block. Elsewhere
    nothing is conditioned on: the split scores the joint likelihood.

    The parents' stacked grid block given z_<q, K, is factored once, in
    place, by LAPACK's pivoted Cholesky (``dpstrf``): P' K P = R R'. It
    stops at K's numerical rank r (LAPACK's default tolerance, Pn eps
    max K_ii), so a positive-semidefinite K factors too; a failure of the
    call itself (``info < 0``) falls back to the joint split. F = P R[:, :r]
    keeps its rows in grid order. Memory: K (Pn x Pn for P parents on n
    vertices), then F (Pn x r) beside it; the evaluators that built K's
    blocks are dropped first."""
    joint = _Split(tuple(kept))
    q = network.p - 1
    edges = [(a, spec) for a, spec in network.nodes[q].parents
             if spec.kind is not InteractionKind.ZERO]
    if (any(loc[1] != q for loc in located) or len(kept) < 2
            or kept[-1].variable != q
            or any(spec.kind is InteractionKind.DIRAC for _, spec in edges)):
        return joint
    earlier = kept[:-1]
    # its own geometry: evaluations read none of it
    ev = CovarianceEvaluator(grid, network)
    try:
        C, z = observation_covariance(ev, earlier)
        L, jitter = chol_with_jitter(C, jitter_max)
    except CondcovError:
        return joint
    u = solve_triangular(L, z, lower=True, check_finite=False)
    value = -0.5 * (z.size * math.log(2.0 * math.pi) + chol_logdet(L)
                    + float(u @ u))
    parents = sorted({a for a, _ in edges})
    if not parents:
        return _Split((kept[-1],), value, jitter)
    handles = [ev.add_points(o.locations) for o in earlier]
    n = grid.n
    # W = L_<^-1 cov(z_<q, Y(grid)); W_a, of the k-th parent, is its
    # columns k n:(k + 1) n
    W = solve_triangular(L, np.block(
        [[ev.cov(o.variable, a, h, 0) for a in parents]
         for o, h in zip(earlier, handles)]), lower=True, check_finite=False)
    # the grid blocks from an evaluator that keeps no block of the sites:
    # the lower triangle of K, all that dsyrk and dpstrf read
    ev = CovarianceEvaluator(grid, network)
    K = np.empty((len(parents) * n,) * 2, order="F")
    for k, a in enumerate(parents):
        for j in range(k, len(parents)):
            K[j * n:(j + 1) * n, k * n:(k + 1) * n] = ev.cov(parents[j], a, 0, 0)
    del ev
    K = dsyrk(-1.0, W, beta=1.0, c=K, trans=1, lower=1, overwrite_c=1)
    R, piv, rank, info = dpstrf(K, lower=1, overwrite_a=1)
    if info < 0:
        return joint
    for j in range(1, rank):  # R's upper triangle still holds K's
        R[:j, j] = 0.0
    F = np.empty((R.shape[0], rank))
    F[piv - 1] = R[:, :rank]
    F.setflags(write=False)
    return _Split((kept[-1],), value, jitter,
                  {a: F[k * n:(k + 1) * n] for k, a in enumerate(parents)},
                  {a: W[:, k * n:(k + 1) * n].T @ u
                   for k, a in enumerate(parents)})


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 3
    max_evals: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_evals < 1:
            raise ValidationError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class FitResult:
    label: str
    estimates: dict
    free: Tuple[str, ...]
    loglik: float
    k: int
    aic: float
    converged: bool
    trace: Tuple[dict, ...]
    network: ProcessNetwork
    rejected: int
    jitter: float


@dataclass(frozen=True)
class RankedFit(FitResult):
    """A fit ranked among candidates by :func:`compare_directions`."""

    delta_aic: float
    tie: bool


class _Stop(Exception):
    """The Nelder-Mead run has spent its evaluations, or has given up on a
    simplex that is +inf everywhere."""


@dataclass(frozen=True)
class _Minimum:
    """Where a Nelder-Mead run stopped: its best point and value, the
    evaluations it made, and whether its tolerances were met."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool
    message: str


def _nelder_mead(f, x0: np.ndarray, max_evals: int) -> _Minimum:
    """Minimize ``f`` from ``x0`` by the Nelder-Mead simplex, stopping once
    the simplex lies within ``_XATOL`` of its best point and its values
    within ``_FATOL`` of the best value, or after ``max_evals`` evaluations.

    This follows ``scipy.optimize.minimize(method="Nelder-Mead")`` (SciPy
    1.17's ``_minimize_neldermead``, BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc., 2003 SciPy Developers) step for step with the options
    :func:`fit_mle` passes (``xatol``, ``fatol``, ``maxfev``, no bounds), so
    it evaluates the same points in the same order and returns the same
    point, value, count and message. ``f`` gets a copy of each point.

    It departs from scipy in one place: a run whose every value is +inf.
    scipy cannot stop on such a simplex (inf - inf is NaN, and the f-spread
    test never passes) and shrinks it until ``max_evals``. Here, while
    every value of the run is +inf, the f-spread test is skipped, as it
    could not pass, and the run ends at the evaluation after which its last
    n + 2 points (n coordinates; one step of the shrinking simplex) lie
    within ``_XATOL`` of each other, relative to each coordinate's size
    above 1. It returns ``x0``, +inf, not converged, with the message
    "every evaluation was rejected until the simplex shrank below xatol".
    Until then it takes scipy's path: a finite reflected, contracted or
    shrunk point still lets it escape, and only a finite point closer than
    that tolerance is given up.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = x0.size
    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = 1.05 * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    nfev = 0
    # copies of the last n + 2 points while every value of the run is +inf;
    # None once one is not
    opening = deque(maxlen=n + 2)
    given_up = False

    def evaluate(x):
        nonlocal nfev, opening, given_up
        if nfev >= max_evals:
            raise _Stop
        nfev += 1
        fx = f(np.copy(x))
        if opening is not None:
            if fx != np.inf:
                opening = None
                return fx
            opening.append(np.copy(x))
            # relative to the point: a coordinate of 1e200 is rounded far
            # above any absolute tolerance
            given_up = len(opening) == n + 2 and bool(np.all(
                np.ptp(opening, axis=0) <= _XATOL * (1.0 + np.abs(x))))
            if given_up:
                raise _Stop
        return fx

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _Stop:
        pass
    for _ in range(2):  # as scipy: argsort need not keep the order of ties
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]

    while nfev < max_evals and not given_up:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _XATOL and
                    opening is None and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                doshrink = False
                if fxr < fsim[-1]:  # contract outside
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = evaluate(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = True
                else:  # contract inside
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = evaluate(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = True
                if doshrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
        except _Stop:
            pass
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]

    if given_up:
        return _Minimum(x0, np.inf, nfev, False, "every evaluation was "
                        "rejected until the simplex shrank below xatol")
    if nfev >= max_evals:
        return _Minimum(sim[0], np.min(fsim), nfev, False, "Maximum number "
                        "of function evaluations has been exceeded.")
    return _Minimum(sim[0], np.min(fsim), nfev, True,
                    "Optimization terminated successfully.")


def _to_transformed(field: str, value: float) -> float:
    if field in _LOG_FIELDS:
        return math.log(max(value, _LOG_FLOOR))
    return value


def _from_transformed(field: str, x: float) -> float:
    if field in _LOG_FIELDS:
        if x > 700.0:
            return math.inf
        value = math.exp(x)
        if field == "smoothness":
            value = min(max(value, _NU_RANGE[0]), _NU_RANGE[1])
        return value
    return x


def fit_mle(
    grid: Grid,
    network: ProcessNetwork,
    obs: Sequence[Observations],
    free: Optional[Sequence[str]] = None,
    config: Optional[OptimizerConfig] = None,
    label: str = "model",
    jitter_max: float = DEFAULT_JITTER_MAX,
) -> FitResult:
    """Maximize the Gaussian likelihood over the named free parameters.

    Deterministic given (network, obs, free, config): restarts perturb the
    starting point with a Philox stream keyed by (config.seed, restart).
    Each restart is a Nelder-Mead run (:func:`_nelder_mead`) of at most
    ``config.max_evals`` evaluations, which evaluates the points that
    ``scipy.optimize.minimize(method="Nelder-Mead")`` evaluates with the
    same tolerances, bit for bit, so its ``trace`` messages are scipy's.

    Every evaluation of the fit reads one shared geometry: the point sets
    and their distances, plus the leaf blocks that its free parameters
    leave alone (the Matern blocks of nodes whose Matern is fixed, and the
    squared displacements of bisquare edges whose shift is fixed).

    Every evaluation is scored by one split of the likelihood, made once
    per fit by :func:`_condition`: p(z_<q) p(z_q | z_<q), with z_<q empty
    unless every free parameter belongs to the last node q. Where z_<q is
    empty, the covariances come from the same two-rule recursion as
    :func:`loglik` (see ``CovarianceEvaluator``), and the values equal
    :func:`loglik` of the evaluated network bit for bit. Otherwise z_q's
    block given z_<q is A + G G' (``_Split._given``): the factor F of the
    parents' conditioned grid block is made once per fit, and an
    evaluation builds only q's own Matern and G = sum_a B_a F_a; its values
    equal :func:`loglik` to roundoff. The reported ``loglik`` is
    :func:`loglik` of the returned network, and ``converged`` holds when a
    restart that met its tolerances ended at the best value the optimizer
    saw. ``rejected`` counts the evaluations scored as -inf because the
    network was invalid or its covariance could not be factored; ``jitter``
    is what the Cholesky factorizations needed at the returned optimum, the
    larger of C_<'s and z_q's given z_<q. A restart whose every evaluation
    is rejected ends early, as :func:`_nelder_mead` states, and is traced
    as not converged.
    """
    config = config or OptimizerConfig()
    # checked once here: the objective scores any CondcovError as -inf, so
    # bad input would surface as an optimizer failure
    check_jitter_max(jitter_max)
    kept = kept_observations(grid, network, obs)
    if not kept:
        raise InsufficientDataError(f"{label}: fit needs at least one observation")
    _check_network_on_grid(grid, network)
    free_names = list(free) if free is not None else default_free_parameters(network)
    if not free_names:
        raise ValidationError("fit needs at least one free parameter")
    if len(set(free_names)) != len(free_names):
        raise ValidationError(f"duplicate names in free parameters: {free_names}")
    located = [_locate(network, name) for name in free_names]  # validates
    fields = [loc[3] for loc in located]
    x0 = np.array([_to_transformed(field, get_parameter(network, name))
                   for name, field in zip(free_names, fields)])

    def apply(x: np.ndarray) -> ProcessNetwork:
        # one network per evaluation, whatever the number of free names
        return _substitute(network, located, [
            _from_transformed(field, float(xi)) for field, xi in zip(fields, x)])

    geometry = _Geometry(grid)
    split = _condition(grid, network, kept, located, jitter_max)
    jitters = {}  # the jitter of each accepted point, by its coordinates
    rejected = 0

    def objective(x: np.ndarray) -> float:
        nonlocal rejected
        try:
            value, jitters[x.tobytes()] = split.score(grid, apply(x), geometry,
                                                      jitter_max)
        except CondcovError as exc:
            logger.debug("%s: evaluation scored -inf: %s", label, exc)
            rejected += 1
            return np.inf
        return -value

    trace = []
    best = None
    for start in range(config.restarts):
        if start == 0:
            xs = x0
        else:
            rng = rng_from_seed(config.seed, start)
            xs = x0 + _PERTURBATION * (1.0 + np.abs(x0)) * rng.standard_normal(x0.size)
        res = _nelder_mead(objective, xs, config.max_evals)
        trace.append(
            {
                "start": start,
                "nfev": int(res.nfev),
                "loglik": float(-res.fun),
                "converged": bool(res.success),
                "message": str(res.message),
            }
        )
        if best is None or res.fun < best.fun:
            best = res
    if not np.isfinite(best.fun):
        raise OptimizationError(
            f"{label}: likelihood was -inf at every evaluation; "
            "check the starting parameters"
        )
    fitted = apply(best.x)
    # one re-score through the public loglik: it reproduces -best.fun bit
    # for bit where z_<q is empty (the tests assert it), else to roundoff.
    # It costs one evaluation per fit and keeps every fit visible to
    # anything that wraps loglik, such as the bench tracer, which does not
    # see the Nelder-Mead evaluations
    ll = loglik(grid, fitted, obs, jitter_max)
    k = len(free_names)
    estimates = {name: get_parameter(fitted, name) for name in list_parameters(fitted)}
    converged = any(t["converged"] and t["loglik"] == -best.fun for t in trace)
    return FitResult(
        label=label,
        estimates=estimates,
        free=tuple(free_names),
        loglik=ll,
        k=k,
        aic=-2.0 * ll + 2.0 * k,
        converged=converged,
        trace=tuple(trace),
        network=fitted,
        rejected=rejected,
        jitter=jitters[best.x.tobytes()],
    )


def reverse_bivariate(network: ProcessNetwork) -> ProcessNetwork:
    """Swap the conditioning order of a two-variable network.

    The old child becomes the root, keeping its Matern as the marginal
    starting point; the edge keeps its interaction parameters. This is a
    starting model for refitting, not a reparametrization of the same law.
    """
    if network.p != 2:
        raise ValidationError("reverse_bivariate needs exactly 2 variables")
    first, second = network.nodes
    edge = tuple((0, spec) for _, spec in second.parents)
    new_root = dataclasses.replace(second, parents=())
    new_child = dataclasses.replace(first, parents=edge)
    return ProcessNetwork((new_root, new_child))


def _translate_free(base: ProcessNetwork, cand: ProcessNetwork, free) -> Optional[list]:
    if free is None:
        return None
    cand_params = set(list_parameters(cand))
    out = []
    for name in free:
        if name in cand_params:
            out.append(name)
            continue
        head, _, field = name.rpartition(".")
        if "~" in head:
            child, parent = head.split("~", 1)
            swapped = f"{parent}~{child}.{field}"
            if swapped in cand_params:
                out.append(swapped)
                continue
        raise ValidationError(
            f"free parameter {name!r} has no counterpart in candidate "
            f"{list(cand.names)}"
        )
    return out


def compare_directions(
    grid: Grid,
    network: ProcessNetwork,
    obs: Sequence[Observations],
    free: Optional[Sequence[str]] = None,
    config: Optional[OptimizerConfig] = None,
    candidates: Optional[Sequence] = None,
    jitter_max: float = DEFAULT_JITTER_MAX,
) -> list:
    """Fit each conditioning order and rank the fits by AIC.

    For two variables the reversed order is generated automatically; for more
    variables pass ``candidates`` as (label, network) pairs sharing the node
    names. The ranking sorts by AIC, then fewer parameters, then label.

    Each returned :class:`RankedFit` carries ``delta_aic``, its AIC minus the
    best, and ``tie``, true for every fit that shares first place: its
    ``delta_aic`` is at most ``_AIC_TIE`` and some other fit's is too.
    ``_AIC_TIE`` is the resolution of the stopping rule, not a bound on
    the distance to the true maximum: Nelder-Mead stops once the values of
    -loglik across its simplex agree within ``_FATOL``; AIC = -2 loglik +
    2k scales that spread to ``2 * _FATOL`` per fit, and a difference of
    two AICs to ``4 * _FATOL``. Orders that reach the same maximum, as both
    orders of an exchangeable pair do, differ by less than that, and which
    of them ranks first is then decided by roundoff. A fit that stopped at
    ``max_evals`` (``converged`` false) met no such rule, yet it is flagged
    the same way when its AIC falls within ``_AIC_TIE``; read ``tie``
    together with ``converged``.
    """
    check_jitter_max(jitter_max)
    if candidates is None:
        if network.p != 2:
            raise ValidationError(
                "automatic direction swap is bivariate only; pass candidates "
                "for larger networks"
            )
        names = network.names
        candidates = [
            (f"{names[0]}->{names[1]}", network),
            (f"{names[1]}->{names[0]}", reverse_bivariate(network)),
        ]
    fits = []
    for item in candidates:
        label, cand = item
        if set(cand.names) != set(network.names):
            raise ValidationError(
                f"candidate {label!r} has variables {list(cand.names)}, "
                f"expected a reordering of {list(network.names)}"
            )
        remapped = [
            Observations(cand.index(network.names[o.variable]), o.locations, o.values)
            for o in obs
        ]
        fits.append(
            fit_mle(
                grid,
                cand,
                remapped,
                free=_translate_free(network, cand, free),
                config=config,
                label=label,
                jitter_max=jitter_max,
            )
        )
    fits.sort(key=lambda f: (f.aic, f.k, f.label))
    deltas = [f.aic - fits[0].aic for f in fits]
    shared = sum(d <= _AIC_TIE for d in deltas) > 1
    return [RankedFit(**vars(f), delta_aic=d, tie=shared and d <= _AIC_TIE)
            for f, d in zip(fits, deltas)]


def write_fit_result(path, fit: FitResult) -> None:
    """Flat key-value file: metadata as comments, one parameter per line.

    A label that is not one line would not read back; it is a
    ValidationError, and nothing is written.
    """
    _one_line(fit.label)
    lines = [
        f"# label = {fit.label}",
        f"# loglik = {fit.loglik:.17g}",
        f"# k = {fit.k}",
        f"# aic = {fit.aic:.17g}",
        f"# converged = {str(fit.converged).lower()}",
    ]
    for name in sorted(fit.estimates):
        lines.append(f"{name} = {fit.estimates[name]:.17g}")
    with _rewrite(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_params(path) -> dict:
    """Parse a flat key-value parameter file written by write_fit_result.

    A value is what follows the last "=" of its line, as a node name may
    hold one."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.rpartition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        try:
            out[key.strip()] = float(value.strip())
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value in {raw!r}") from exc
    return out
