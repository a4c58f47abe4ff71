"""Joint covariance construction by conditioning.

A ProcessNetwork orders p spatial variables so that each one is driven by the
variables before it: the conditional mean of variable q given its parents is
a weighted integral of the parent fields, with an interaction function as the
weight, and the conditional covariance is a Matern. Integrals are discretized
on a Grid, whose quadrature weights are folded into the interaction matrices.
This yields valid (positive semidefinite) joint covariances for any choice of
interaction functions, which is the whole point of the construction.

Two rules build every block. With Y_2 = B Y_1 + e_2 and e_2 of covariance
C_2|1, the marginal is C_22 = C_2|1 + B C_11 B' and the cross block is
C_21 = B C_11; so a child's marginal block is its own Matern plus its edge
operator applied to the cross block with the parent. Covariances between
arbitrary (off-grid) locations use the same rules with exact kernel
evaluation at the requested points; the grid only ever supplies the
integration rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence, Tuple

import numpy as np

from .domain import _COORD_NAMES, Grid, Observations
from .errors import NumericalError, ValidationError
from .kernels import (
    InteractionKind,
    InteractionSpec,
    MaternParams,
    _bisquare_profile,
    _squared_displacement,
    interaction_values,
    matern_cov,
)
from .linalg import DEFAULT_JITTER_MAX, check_jitter_max, chol_model

__all__ = [
    "MeanSpec",
    "ProcessNode",
    "ProcessNetwork",
    "build_interaction_matrix",
    "assemble_dag",
    "JointModel",
    "cross_cov_at",
    "cross_cov_matrix",
    "apply_mean",
    "mean_at",
    "coordinate_covariates",
]

_NAME_FORBIDDEN = set(" .~,\t\n")
_BISQUARES = (InteractionKind.BISQUARE, InteractionKind.SHIFTED_BISQUARE)


@dataclass(frozen=True)
class MeanSpec:
    """Linear mean: named covariates paired with coefficients."""

    covariates: Tuple[str, ...]
    coefficients: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        if len(self.covariates) == 0:
            raise ValidationError("mean spec needs at least one covariate")
        if len(self.covariates) != len(self.coefficients):
            raise ValidationError(
                f"{len(self.covariates)} covariates but "
                f"{len(self.coefficients)} coefficients"
            )
        if not np.all(np.isfinite(self.coefficients)):
            raise ValidationError("mean coefficients must be finite")


@dataclass(frozen=True)
class ProcessNode:
    """One variable: its conditional Matern plus edges to earlier variables.

    ``covariance`` is the marginal Matern for a root node and the conditional
    (residual) Matern otherwise. ``nugget`` is micro-scale variance added to
    the process itself; ``noise`` is measurement-error variance that only
    enters observation covariances.
    """

    name: str
    covariance: MaternParams
    parents: Tuple[Tuple[int, InteractionSpec], ...] = ()
    mean: Optional[MeanSpec] = None
    nugget: float = 0.0
    noise: float = 0.0

    def __post_init__(self):
        if not self.name or _NAME_FORBIDDEN & set(self.name):
            raise ValidationError(
                f"node name {self.name!r} is empty or contains reserved characters"
            )
        object.__setattr__(
            self,
            "parents",
            tuple((int(idx), spec) for idx, spec in self.parents),
        )
        for val, what in ((self.nugget, "nugget"), (self.noise, "noise")):
            if not np.isfinite(val) or val < 0:
                raise ValidationError(f"{what} must be finite and >= 0, got {val!r}")


@dataclass(frozen=True)
class ProcessNetwork:
    """Variables in conditioning order; parents always precede their node."""

    nodes: Tuple[ProcessNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValidationError("network needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate node names in {names}")
        for q, node in enumerate(self.nodes):
            seen = set()
            for idx, spec in node.parents:
                if not 0 <= idx < q:
                    raise ValidationError(
                        f"node {node.name!r}: parent index {idx} does not precede "
                        f"it in conditioning order (network must be acyclic)"
                    )
                if idx in seen:
                    raise ValidationError(
                        f"node {node.name!r}: duplicate edge to {names[idx]!r}"
                    )
                seen.add(idx)
                if not isinstance(spec, InteractionSpec):
                    raise ValidationError(
                        f"node {node.name!r}: parent {names[idx]!r} needs an "
                        f"InteractionSpec, got {type(spec).__name__}"
                    )

    @property
    def p(self) -> int:
        return len(self.nodes)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(
                f"unknown variable {name!r}; network has {list(self.names)}"
            ) from None


def _points_key(points: np.ndarray) -> tuple:
    return (points.shape, points.tobytes())


def build_interaction_matrix(grid: Grid, spec: InteractionSpec) -> np.ndarray:
    """n x n matrix of b(s_k, s_l) * weight_l over the grid.

    Dirac interactions contract the integral exactly, so they become
    amplitude * identity with no quadrature weight.
    """
    if spec.kind is InteractionKind.DIRAC:
        return spec.amplitude * np.eye(grid.n)
    vals = interaction_values(spec, grid.vertices, grid.vertices)
    return vals * grid.weights[None, :]


class _Geometry:
    """What no model parameter changes, and the leaf blocks built from it.

    Set 0 is always the grid (the integration nodes); the geometry keeps
    every registered point set and the distances between them. ``matern``
    keeps one block per (node, point-set pair), reused while the node's
    MaternParams are equal, and ``weighted`` keeps one array of squared
    displacements per (bisquare edge, point set), reused while the edge's
    shift is equal, so that a new amplitude or aperture costs only the
    profile. Each slot holds one entry, and kept blocks are read-only, so no
    evaluator sharing the geometry can alter what the next one reads.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.sets = [np.asarray(grid.vertices)]
        self._set_ids = {_points_key(self.sets[0]): 0}
        self._dist = {}
        self._slots = {}

    def add_points(self, points) -> int:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.grid.dim:
            raise ValidationError(
                f"points have dimension {points.shape[1]}, grid has {self.grid.dim}"
            )
        if not np.all(np.isfinite(points)):
            raise ValidationError("points must be finite")
        key = _points_key(points)
        idx = self._set_ids.get(key)
        if idx is None:
            self.sets.append(points)
            idx = len(self.sets) - 1
            self._set_ids[key] = idx
        return idx

    def distance(self, i: int, j: int) -> np.ndarray:
        """Distances between point sets i and j; for i == j, ``pairwise``
        gets one array twice and builds a same-set block."""
        key = (i, j)
        if key not in self._dist:
            self._dist[key] = self.grid.metric.pairwise(self.sets[i], self.sets[j])
        return self._dist[key]

    def _kept(self, key, param, build) -> np.ndarray:
        slot = self._slots.get(key)
        if slot is None or slot[0] != param:
            block = build()
            block.setflags(write=False)
            slot = self._slots[key] = (param, block)
        return slot[1]

    def matern(self, q: int, params: MaternParams, i: int, j: int) -> np.ndarray:
        """The Matern ``params`` of node q between point sets i and j; a
        same-set block (i == j) is evaluated on its upper triangle."""
        return self._kept(("matern", q, i, j), params, lambda: np.asarray(
            matern_cov(params, self.distance(i, j), symmetric=i == j)))

    def weighted(self, q: int, pos: int, spec: InteractionSpec, i: int) -> np.ndarray:
        """Quadrature-weighted values of edge ``pos`` of node q (``spec``),
        from point set i into the grid."""
        if spec.kind in _BISQUARES:
            d2 = self._kept(("d2", q, pos, i), spec.shift, partial(
                _squared_displacement, spec, self.sets[i], self.grid.vertices))
            vals = _bisquare_profile(spec, d2)
        else:
            vals = interaction_values(spec, self.sets[i], self.grid.vertices)
        return vals * self.grid.weights[None, :]


class CovarianceEvaluator:
    """Recursive cross-covariance evaluation over registered point sets.

    Set 0 is always the grid (the integration nodes). cov(q, r, i, j) returns
    cov{Y_q(P_i), Y_r(P_j)} as a matrix, built bottom-up through the network
    by the construction's two rules, C_22 = C_2|1 + B C_11 B' and
    C_21 = B C_11. Each nonzero edge of a node, seen from point set i, is
    one operator B_a(i): a dirac edge is its amplitude on set i, any other
    edge its quadrature-weighted values from set i into the grid. So

    - a marginal block is the node's own Matern (plus its nugget) plus, for
      each edge, B_a(i) applied to the cross block with that parent,
      cov(q, q, i, j) = M_q(i, j) + sum_a B_a(i) cov(a, q, ., j);
    - a cross block pushes the later variable's operators onto earlier
      blocks, cov(q, r, i, j) = sum_a cov(q, a, i, .) B_a(j)' over r's edges.

    Every block is kept for the life of the evaluator, so a marginal block
    reads the cross blocks that predictions read too; blocks are shared with
    the cache and must not be written to. Evaluators of different networks
    over one grid may share a ``geometry``, as all evaluations of a fit do
    (``fit_mle``): its kept Matern blocks and bisquare displacements are
    those a fresh geometry would build, so every covariance, and every
    likelihood, is bitwise that of a fresh evaluator.
    """

    def __init__(self, grid: Grid, network: ProcessNetwork,
                 geometry: Optional[_Geometry] = None):
        self.grid = grid
        self.network = network
        self._geometry = geometry if geometry is not None else _Geometry(grid)
        self._cov = {}
        self._ops = {}

    def add_points(self, points) -> int:
        """Register a point set and return its handle.

        Registering the same coordinates again returns the existing handle, so
        repeated predictions at fixed locations hit the covariance cache.
        """
        return self._geometry.add_points(points)

    def _edges(self, q: int, i: int) -> list:
        """(parent, point set it is read on, operator B_a(i)) of each nonzero
        edge of node q seen from point set i; np.dot applies either kind."""
        key = (q, i)
        if key not in self._ops:
            self._ops[key] = [
                (a, i, np.float64(spec.amplitude))
                if spec.kind is InteractionKind.DIRAC
                else (a, 0, self._geometry.weighted(q, pos, spec, i))
                for pos, (a, spec) in enumerate(self.network.nodes[q].parents)
                if spec.kind is not InteractionKind.ZERO
            ]
        return self._ops[key]

    def cov(self, q: int, r: int, i: int = 0, j: int = 0) -> np.ndarray:
        key = (q, r, i, j)
        if key not in self._cov:
            if q > r or (q == r and i > j):
                mat = self.cov(r, q, j, i).T
            else:
                mat = self._compute(q, r, i, j)
            self._cov[key] = mat
        return self._cov[key]

    def _compute(self, q: int, r: int, i: int, j: int) -> np.ndarray:
        if q == r:
            node = self.network.nodes[q]
            mat = self._geometry.matern(q, node.covariance, i, j)
            if node.nugget:
                mat = mat + node.nugget * (self._geometry.distance(i, j) == 0.0)
            for a, k, op in self._edges(q, i):
                mat = mat + np.dot(op, self.cov(a, q, k, j))
            return mat
        sets = self._geometry.sets
        mat = np.zeros((sets[i].shape[0], sets[j].shape[0]))
        for a, k, op in self._edges(r, j):
            mat = mat + np.dot(self.cov(q, a, i, k), op.T)
        return mat


class JointModel:
    """Joint covariance of a network over a grid, plus the evaluation engine.

    The network is checked against the grid on construction
    (ValidationError for what the grid can never evaluate).
    The p*n x p*n grid ``matrix`` and its factor ``chol`` (with ``jitter``)
    are built on first read and kept; a failed factorization raises
    InvalidModelError there. Prediction reads only ``evaluator``.
    """

    def __init__(self, grid: Grid, network: ProcessNetwork,
                 jitter_max: float = DEFAULT_JITTER_MAX):
        _check_network_on_grid(grid, network)
        self.grid = grid
        self.network = network
        self.jitter_max = check_jitter_max(jitter_max)
        self.evaluator = CovarianceEvaluator(grid, network)

    @property
    def p(self) -> int:
        return self.network.p

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def matrix(self) -> np.ndarray:
        ev, p = self.evaluator, self.p
        big = np.block([[ev.cov(q, r) for r in range(p)] for q in range(p)])
        # enforce exact symmetry; a marginal block B C_aq applies the edge
        # operators on one side only, so it is symmetric only to roundoff
        big = np.tril(big) + np.tril(big, -1).T
        big.setflags(write=False)
        return big

    @cached_property
    def _factor(self) -> Tuple[np.ndarray, float]:
        return chol_model(self.matrix, self.jitter_max)

    @property
    def chol(self) -> np.ndarray:
        return self._factor[0]

    @property
    def jitter(self) -> float:
        return self._factor[1]

    def block(self, q: int, r: int) -> np.ndarray:
        n = self.n
        return self.matrix[q * n:(q + 1) * n, r * n:(r + 1) * n]

    def __repr__(self):
        return (
            f"JointModel(p={self.p}, n={self.n}, "
            f"vars={list(self.network.names)})"
        )


def assemble_dag(grid: Grid, network: ProcessNetwork,
                 jitter_max: float = DEFAULT_JITTER_MAX) -> JointModel:
    """Joint model of a network over a grid; checks the network against it.

    ``jitter_max`` is the relative Cholesky jitter ceiling of every
    factorization made with the model: the grid covariance, and the
    observation covariances of ``cokrige``, ``krige`` and ``loo_cv``. It
    must be finite and >= 0 (ParameterError otherwise).
    The grid covariance and its Cholesky factor are built on first read of
    ``model.matrix`` / ``model.chol``, which raises InvalidModelError if the
    factorization fails. Prediction and the likelihood factor only
    observation covariances, whose failures are NumericalError.
    """
    return JointModel(grid, network, jitter_max)


def _check_network_on_grid(grid: Grid, network: ProcessNetwork) -> None:
    """Reject what the grid can never evaluate, before any covariance is built.

    That is a shift whose length is not the grid's dimension, a tabulated
    edge on a grid that is not 1-d, and a mean covariate other than
    ``const`` and the grid's coordinate names.
    """
    covariates = ("const",) + _COORD_NAMES[:grid.dim]
    for node in network.nodes:
        for idx, spec in node.parents:
            if spec.kind is InteractionKind.SHIFTED_BISQUARE \
                    and len(spec.shift) != grid.dim:
                raise ValidationError(
                    f"node {node.name!r}: shift has {len(spec.shift)} components "
                    f"for a {grid.dim}-d grid"
                )
            if spec.kind is InteractionKind.TABULATED and grid.dim != 1:
                raise ValidationError(
                    f"node {node.name!r}: tabulated edge from "
                    f"{network.names[idx]!r} needs a 1-d grid, not {grid.dim}-d"
                )
        if node.mean is None:
            continue
        unknown = [c for c in node.mean.covariates if c not in covariates]
        if unknown:
            raise ValidationError(
                f"node {node.name!r}: mean covariates {unknown} are not among "
                f"{list(covariates)} of the {grid.dim}-d grid"
            )


def cross_cov_matrix(model: JointModel, q: int, r: int, S, U) -> np.ndarray:
    """cov{Y_q(S), Y_r(U)} for arbitrary location arrays S (m1, dim), U (m2, dim)."""
    p = model.p
    if not (0 <= q < p and 0 <= r < p):
        raise ValidationError(f"variable indices ({q}, {r}) out of range for p={p}")
    ev = model.evaluator
    i = ev.add_points(S)
    j = ev.add_points(U)
    return ev.cov(q, r, i, j)


def cross_cov_at(model: JointModel, q: int, r: int, s, u) -> float:
    """cov{Y_q(s), Y_r(u)} at a single pair of locations."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(cross_cov_matrix(model, q, r, s[None, :], u[None, :])[0, 0])


def kept_observations(grid: Grid, network: ProcessNetwork,
                      obs: Sequence[Observations]) -> list:
    """Validate observation sets and keep the non-empty ones, in variable order."""
    seen = set()
    kept = []
    for o in obs:
        if not isinstance(o, Observations):
            raise ValidationError(f"expected Observations, got {type(o).__name__}")
        if o.variable >= network.p:
            raise ValidationError(
                f"observations reference variable {o.variable}, model has {network.p}"
            )
        if o.variable in seen:
            raise ValidationError(
                f"two observation sets for variable {o.variable}; merge them first"
            )
        seen.add(o.variable)
        if o.m > 0:
            if o.locations.shape[1] != grid.dim:
                raise ValidationError(
                    f"observation locations are {o.locations.shape[1]}-d, "
                    f"grid is {grid.dim}-d"
                )
            kept.append(o)
    kept.sort(key=lambda o: o.variable)
    return kept


def observation_covariance(ev: CovarianceEvaluator, kept: Sequence[Observations]):
    """Covariance of the stacked observation vector, plus its residuals.

    ``kept`` comes from :func:`kept_observations`. Returns (C, z) where C
    includes each variable's measurement-error variance on the diagonal and
    z is the observations minus their configured means; NumericalError when
    a mean overflows and leaves z non-finite.
    """
    handles = [ev.add_points(o.locations) for o in kept]
    offsets = np.concatenate([[0], np.cumsum([o.m for o in kept])]).astype(int)
    total = int(offsets[-1])
    C = np.empty((total, total))
    z = np.empty(total)
    for a, oa in enumerate(kept):
        rows = slice(offsets[a], offsets[a + 1])
        for b in range(a, len(kept)):
            cols = slice(offsets[b], offsets[b + 1])
            C[rows, cols] = ev.cov(oa.variable, kept[b].variable,
                                   handles[a], handles[b])
            if b > a:
                C[cols, rows] = C[rows, cols].T
        noise = ev.network.nodes[oa.variable].noise
        if noise:
            idx = np.arange(offsets[a], offsets[a + 1])
            C[idx, idx] += noise
        z[rows] = oa.values - mean_at(ev.network, oa.variable, oa.locations)
    # a mean can overflow; checked once here for every solve against z
    if not np.isfinite(z).all():
        raise NumericalError("observation residuals have non-finite entries")
    return C, z


def coordinate_covariates(locations: np.ndarray) -> dict:
    """The covariates of a mean: a constant plus the coordinate axes."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    cols = {"const": np.ones(locations.shape[0])}
    for axis, name in enumerate(_COORD_NAMES[: locations.shape[1]]):
        cols[name] = locations[:, axis]
    return cols


def mean_at(network: ProcessNetwork, q: int, locations) -> np.ndarray:
    """Mean of variable q at the given locations (zero when unconfigured)."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    node = network.nodes[q]
    if node.mean is None:
        return np.zeros(locations.shape[0])
    table = coordinate_covariates(locations)
    out = np.zeros(locations.shape[0])
    for name, coef in zip(node.mean.covariates, node.mean.coefficients):
        if name not in table:
            raise ValidationError(
                f"node {node.name!r}: covariate {name!r} not available; "
                f"known: {sorted(table)}"
            )
        out = out + coef * table[name]
    return out


def apply_mean(model: JointModel) -> np.ndarray:
    """Per-variable mean over the grid vertices, shape (p, n)."""
    return np.stack(
        [mean_at(model.network, q, model.grid.vertices) for q in range(model.p)]
    )
