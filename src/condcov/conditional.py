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

from .domain import (
    _COORD_NAMES,
    Grid,
    Observations,
    _differences,
    _grid_differences,
    _one_line,
    _squared_sum,
    _toeplitz,
    _toeplitz_rows,
)
from .errors import NumericalError, ValidationError
from .kernels import (
    InteractionKind,
    InteractionSpec,
    MaternParams,
    _bisquare_profile,
    _matern_of_squared,
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

_NAME_FORBIDDEN = set(" .~,\t")
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
        # a name heads lines of params.txt, which read_params strips and
        # skips if they then start with "#"; and it is one line
        if self.name[0].isspace() or self.name[0] == "#":
            raise ValidationError(f"node name {self.name!r} starts with whitespace "
                                  f"or '#', which params.txt strips or reads as a comment")
        _one_line(self.name, "node name")
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
    vals *= grid.weights
    return vals


# rows per group of a windowed product; 32 measured best on a 40 x 40 grid
_GROUP_ROWS = 32
# what one group of a windowed product costs beyond its multiply-adds,
# counted in multiply-adds: about 6.5 us per np.dot call, at about 23 G
# multiply-adds per second (one OpenBLAS thread on a 2-vCPU x86-64 host)
_GROUP_COST = 150_000


class _Operator:
    """Edge operator B_a(i) of the two rules, and its products from the left.

    ``values`` is a dirac edge's amplitude (a scalar), or the quadrature-
    weighted values of any other edge from point set i (m points) into the
    grid (n vertices), an m x n array. ``left(X)`` is B X, reading X row
    by row; both rules apply B from the left (see ``CovarianceEvaluator``).

    A compactly supported kernel is 0 in row r of B outside a window
    [lo_r, hi_r) of grid columns. The rows, sorted by lo_r, are taken in
    groups of _GROUP_ROWS, and a group G is multiplied on its window
    [lo, hi) = [min lo_r, max hi_r) only: B[G, lo:hi] X[lo:hi]. A product
    is windowed when the multiply-adds that the windows save exceed
    _GROUP_COST per group and X is stored row by row; otherwise, and for a
    scalar, it is one np.dot. Leaving out the zero terms moves sums in
    their last bits, and rows of X that no group's window reads are not
    read, so where they are not finite the product does not turn 0 * inf
    into a NaN there.

    ``left_toeplitz(wide)`` is B C for a product grid's multilevel Toeplitz
    C given by its outer row blocks (``domain._toeplitz_rows``), which it
    never expands: row block j of C is multiplied by the rows of B whose
    window meets it, a contiguous range of the rows in window order.
    """

    def __init__(self, values):
        self.values = values
        self.scalar = np.ndim(values) == 0
        self._row_blocks = {}

    def left(self, X: np.ndarray) -> np.ndarray:
        """B X."""
        B = self.values
        if not self._worth(X):
            return np.dot(B, X)
        _, _, groups = self._windows
        out = np.empty((B.shape[0], X.shape[1]))
        for g0, g1, lo, hi, block in groups:
            if block is None:
                out[g0:g1] = 0.0
            else:
                np.dot(block, X[lo:hi], out=out[g0:g1])
        return self._in_row_order(out)

    def left_toeplitz(self, wide: np.ndarray) -> np.ndarray:
        """B C, C the symmetric multilevel Toeplitz matrix with outer row
        blocks ``wide`` (``domain._toeplitz_rows``): for each row block j
        of C, the view of it in ``wide`` times the columns of j in the rows
        of B whose window meets them, summed block by block into those
        rows. A row of B without a nonzero entry is a row of zeros."""
        B = self.values
        m, n = wide.shape[0], B.shape[1]
        last = n // m - 1
        ranges = self._by_row_block(m)
        out = np.zeros((B.shape[0], n))
        part = np.empty((max((g1 - g0 for _, g0, g1, _ in ranges), default=0), n))
        for j, g0, g1, block in ranges:
            rows = part[:g1 - g0]
            # matmul hands the strided view to BLAS; np.dot copies it first
            np.matmul(block, wide[:, (last - j) * m:(2 * last + 1 - j) * m],
                      out=rows)
            out[g0:g1] += rows
        return self._in_row_order(out)

    def _in_row_order(self, out: np.ndarray) -> np.ndarray:
        """The rows ``out`` of a product in window order, put in B's."""
        order = self._bounds[2]
        if order is None:
            return out
        by_window, out = out, np.empty_like(out)
        out[order] = by_window
        return out

    def _worth(self, X: np.ndarray) -> bool:
        """Does a windowed B X save more than it costs?"""
        B = self.values
        if self.scalar or X.strides[1] != X.itemsize:
            return False
        k = X.shape[1]
        cost = -(-B.shape[0] // _GROUP_ROWS) * _GROUP_COST
        # the windows are found only where they can pay off at all
        return B.size * k > cost and self._windows[0] * k > cost

    @cached_property
    def _bounds(self):
        """Each row's window [lo, hi) in window order (a row without a
        nonzero entry gets [n, 0), and a NaN is nonzero), and the row order
        by window, or None if the rows are in it already."""
        B = self.values
        m, n = B.shape
        nonzero = B != 0.0
        lo = nonzero.argmax(axis=1)
        hit = nonzero[np.arange(m), lo]
        hi = np.where(hit, n - nonzero[:, ::-1].argmax(axis=1), 0)
        lo[~hit] = n
        if np.all(lo[1:] >= lo[:-1]):
            return lo, hi, None
        order = np.argsort(lo, kind="stable")
        return lo[order], hi[order], order

    def _rows(self, g0: int, g1: int, c0: int, c1: int) -> np.ndarray:
        """B[G, c0:c1] for the rows G = g0:g1 in window order."""
        order = self._bounds[2]
        rows = slice(g0, g1) if order is None else order[g0:g1]
        return self.values[rows, c0:c1]

    @cached_property
    def _windows(self):
        """(entries of B that the windows leave out, the row order by
        window or None if the rows are in it already, and per group
        (g0, g1, lo, hi, B[G, lo:hi] or None where that is empty))."""
        m, n = self.values.shape
        lo, hi, order = self._bounds
        starts = np.arange(0, m, _GROUP_ROWS)
        ends = np.minimum(starts + _GROUP_ROWS, m)
        group_lo = lo[starts]
        group_hi = np.maximum.reduceat(hi, starts)
        groups, kept = [], 0
        for g0, g1, a, b in zip(starts.tolist(), ends.tolist(),
                                group_lo.tolist(), group_hi.tolist()):
            block = self._rows(g0, g1, a, b) if a < b else None
            kept += 0 if block is None else block.size
            groups.append((g0, g1, a, b, block))
        return m * n - kept, order, groups

    def _by_row_block(self, m: int) -> list:
        """Per row block j of M = ``m`` columns that a row's window meets,
        (j, g0, g1, B[G, jM:(j + 1)M]) for the range G = g0:g1 of rows in
        window order from the first to the last such row; kept per M."""
        if m not in self._row_blocks:
            lo, hi, _ = self._bounds
            blocks = []
            for j in range(self.values.shape[1] // m):
                c0, c1 = j * m, (j + 1) * m
                meets = np.flatnonzero(hi[:np.searchsorted(lo, c1)] > c0)
                if meets.size:
                    g0, g1 = int(meets[0]), int(meets[-1]) + 1
                    blocks.append((j, g0, g1, self._rows(g0, g1, c0, c1)))
            self._row_blocks[m] = blocks
        return self._row_blocks[m]


class _Geometry:
    """What no model parameter changes, and the leaf blocks built from it.

    Set 0 is always the grid (the integration nodes); the geometry keeps
    every registered point set and the distances between two sets.
    ``matern`` keeps one block per (node, point-set pair), reused while the
    node's MaternParams (and, on a same-set block, its nugget) are equal,
    and ``weighted`` keeps one array of squared
    displacements per (bisquare edge, point set), reused while the edge's
    shift is equal, so that a new amplitude or aperture costs only the
    profile. Each slot holds one entry, and kept blocks are read-only, so no
    evaluator sharing the geometry can alter what the next one reads.

    This is the one place that picks how per-axis differences are taken.
    On a uniform product grid with the Euclidean metric, ``axes`` holds the
    grid's per-axis coordinates (:attr:`Grid.axes`; None otherwise), and
    distances and displacements between the grid and another set are
    summed from per-axis terms (``domain._grid_differences``); every other
    pair of sets sums full ones (``domain._differences``), through the
    one ``domain._squared_sum``. On such a grid the node's Matern plus
    nugget among the vertices comes from one table of offsets with the
    nugget at offset 0 (``_table``), expanded to the n x n block
    (``matern``) or, on two or more axes, kept as its outer row blocks
    (``toeplitz``), from which the cross rule multiplies without the block.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.axes = grid.axes if grid.metric.kind == "euclidean" else None
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
        gets one array twice and builds a same-set block. Between the grid
        and another set they are summed per axis where ``axes`` allows,
        bitwise those of ``pairwise``. Kept: a Matern between two sets
        reads them, and its nugget reads where they are 0."""
        key = (i, j)
        if key not in self._dist:
            if self.axes is not None and i != j and 0 in (i, j):
                d2 = _squared_sum(_grid_differences(
                    self.axes, self.sets[i or j], grid_first=i == 0),
                    (self.sets[i].shape[0], self.sets[j].shape[0]))
                self._dist[key] = np.sqrt(d2, out=d2)
            else:
                self._dist[key] = self.grid.metric.pairwise(self.sets[i],
                                                            self.sets[j])
        return self._dist[key]

    def _kept(self, key, param, build) -> np.ndarray:
        slot = self._slots.get(key)
        if slot is None or slot[0] != param:
            block = build()
            block.setflags(write=False)
            slot = self._slots[key] = (param, block)
        return slot[1]

    def matern(self, q: int, params: MaternParams, i: int, j: int,
               nugget: float = 0.0) -> np.ndarray:
        """The Matern ``params`` of node q between point sets i and j, plus
        ``nugget`` where two points coincide. A same-set block is kept per
        (params, nugget). The grid's, where ``axes`` allows, is expanded
        from ``_table``, so the nugget is on its diagonal; it equals
        matern_cov of ``distance(0, 0)`` up to the rounding of the
        coordinates. Any other same-set block is evaluated from the points,
        tile by tile on its upper triangle (``Metric._same_set``), with the
        nugget added in each tile where the squared distance is 0; it is
        bitwise matern_cov of ``distance(i, i)`` plus the nugget where that
        is 0, and no distances of the set are kept. On a block between two
        sets the nugget reads where ``distance(i, j)`` is 0, and is added
        into a fresh array."""
        if i == j:
            if i == 0 and self.axes is not None:
                def build():
                    table = self._table(params, nugget)
                    return _toeplitz(table, np.empty((table.size, table.size)))
            else:
                def into(d2, tile):
                    same = d2 == 0.0  # before the Matern overwrites d2
                    _matern_of_squared(params, d2, tile)
                    tile[same] += nugget

                def build():
                    return self.grid.metric._same_set(self.sets[i], into)
            return self._kept(("matern", q, i, i), (params, nugget), build)
        mat = self._kept(("matern", q, i, j), params, lambda: np.asarray(
            matern_cov(params, self.distance(i, j))))
        if nugget:
            mat = mat + nugget * (self.distance(i, j) == 0.0)
        return mat

    def toeplitz(self, q: int, params: MaternParams,
                 nugget: float) -> Optional[np.ndarray]:
        """The outer row blocks (``domain._toeplitz_rows``) of ``_table``,
        where ``axes`` has two or more axes; else None: expanded, they are
        bitwise ``matern(q, params, 0, 0, nugget)``."""
        if self.axes is None or len(self.axes) < 2:
            return None
        return self._kept(("toeplitz", q), (params, nugget),
                          lambda: _toeplitz_rows(self._table(params, nugget)))

    def _table(self, params: MaternParams, nugget: float) -> np.ndarray:
        """The Matern ``params`` at each per-axis index offset o of the
        grid's vertices, an (n_1, ..., n_d) table, plus ``nugget`` at
        offset 0 alone, as distinct vertices are at distance > 0.

        On a uniform product grid the distance between two vertices depends
        only on their offset, so its square is summed once per offset,
        sum_k (a_k[o_k] - a_k[0])**2. One that overflows is inf, which the
        Matern rejects."""
        first = np.array([[a[0] for a in self.axes]])
        with np.errstate(over="ignore"):
            d2 = _squared_sum(_grid_differences(self.axes, first,
                                                grid_first=True),
                              tuple(a.size for a in self.axes))
        table = _matern_of_squared(params, d2, np.empty(d2.shape))
        table[(0,) * table.ndim] += nugget
        return table

    def weighted(self, q: int, pos: int, spec: InteractionSpec, i: int) -> np.ndarray:
        """Quadrature-weighted values of edge ``pos`` of node q (``spec``),
        from point set i into the grid."""
        S, V = self.sets[i], self.grid.vertices
        if spec.kind in _BISQUARES:
            diffs = (_differences(S, V) if self.axes is None
                     else _grid_differences(self.axes, S))
            d2 = self._kept(("d2", q, pos, i), spec.shift, partial(
                _squared_displacement, spec, diffs, (S.shape[0], V.shape[0])))
            vals = _bisquare_profile(spec, d2)
        else:
            vals = interaction_values(spec, S, V)
        vals *= self.grid.weights  # in place on the fresh values
        return vals


class CovarianceEvaluator:
    """Recursive cross-covariance evaluation over registered point sets.

    Set 0 is always the grid (the integration nodes). cov(q, r, i, j) returns
    cov{Y_q(P_i), Y_r(P_j)} as a matrix, built bottom-up through the network
    by the construction's two rules, C_22 = C_2|1 + B C_11 B' and
    C_21 = B C_11. Each nonzero edge of a node, seen from point set i, is
    one operator B_a(i) (an :class:`_Operator`): a dirac edge is its
    amplitude on set i, any other edge its quadrature-weighted values from
    set i into the grid, multiplied on the kernel's support only. So

    - a marginal block is the node's own Matern plus nugget, one leaf
      block of the geometry (``_Geometry.matern``), plus, for each edge,
      B_a(i) applied to the cross block with that parent,
      cov(q, q, i, j) = M_q(i, j) + sum_a B_a(i) cov(a, q, ., j);
    - a cross block pushes the later variable's operators onto earlier
      blocks, cov(q, r, i, j) = sum_a cov(q, a, i, .) B_a(j)' over r's
      edges, each term added in place into one zeroed, row-major block.
      An integral edge's term is made as C_21 = B C_11 is written,
      the transpose of B_a(j) cov(a, q, 0, i), so that its product reads
      the kept block row by row. That block is the transpose of
      cov(q, a, i, 0) bit for bit, except that a same-set marginal
      (a = q, i = 0) is read as its own transpose: exact for a node
      without edges, whose block is a Matern plus nugget, and to roundoff
      otherwise. On a product grid of two or more axes, the block of such
      a node without edges is never built for this: its product is read
      from the Toeplitz rows of the same table of offsets
      (``_Geometry.toeplitz``, ``_Operator.left_toeplitz``), to roundoff
      of the product with the block.

    Every block is kept for the life of the evaluator, so a marginal block
    reads the cross blocks that predictions read too; blocks are shared with
    the cache and must not be written to. Evaluators of different networks
    over one grid may share a ``geometry``, as all evaluations of a fit do
    (``fit_mle``): its kept Matern blocks and bisquare displacements are
    those a fresh geometry would build, so every covariance, and every
    likelihood, is bitwise that of a fresh evaluator.

    A likelihood split that conditions on earlier observations builds
    only the scored node's own block and edge operators here; the rest of
    its conditioned block comes from a factor made once per fit
    (``inference._Split``).
    """

    def __init__(self, grid: Grid, network: ProcessNetwork,
                 geometry: Optional[_Geometry] = None):
        self.grid = grid
        self.network = network
        self._geometry = geometry if geometry is not None else _Geometry(grid)
        self._cov = {}
        self._ops = {}
        self._diag = {}

    def add_points(self, points) -> int:
        """Register a point set and return its handle.

        Registering the same coordinates again returns the existing handle, so
        repeated predictions at fixed locations hit the covariance cache.
        """
        return self._geometry.add_points(points)

    def _edges(self, q: int, i: int) -> list:
        """(parent, point set it is read on, operator B_a(i)) of each nonzero
        edge of node q seen from point set i."""
        key = (q, i)
        if key not in self._ops:
            self._ops[key] = [
                (a, i, _Operator(np.float64(spec.amplitude)))
                if spec.kind is InteractionKind.DIRAC
                else (a, 0, _Operator(self._geometry.weighted(q, pos, spec, i)))
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
            mat = self._geometry.matern(q, node.covariance, i, j, node.nugget)
            for a, k, op in self._edges(q, i):
                mat = mat + op.left(self.cov(a, q, k, j))
            return mat
        sets = self._geometry.sets
        mat = np.zeros((sets[i].shape[0], sets[j].shape[0]))
        for a, k, op in self._edges(r, j):
            if op.scalar:
                mat += np.dot(self.cov(q, a, i, k), op.values)
            elif a == q and i == 0 and (wide := self._toeplitz(q)) is not None:
                # the block read below is cov(q, q, 0, 0), a Matern plus
                # nugget on a product grid: B_a(j) times it, from its rows
                mat += op.left_toeplitz(wide).T
            else:
                # C_21 = B C_11 as written: cov(r, q, j, i) is
                # B_a(j) cov(a, q, k, i), read row by row
                mat += op.left(self.cov(a, q, k, i)).T
        return mat

    def _toeplitz(self, q: int) -> Optional[np.ndarray]:
        """The outer row blocks of cov(q, q, 0, 0) (``_Geometry.toeplitz``)
        when that block is node q's Matern plus its nugget, with no nonzero
        edge, on a product grid of two or more axes; else None."""
        node = self.network.nodes[q]
        if any(spec.kind is not InteractionKind.ZERO for _, spec in node.parents):
            return None
        return self._geometry.toeplitz(q, node.covariance, node.nugget)

    def variance(self, q: int, i: int) -> np.ndarray:
        """The diagonal of cov(q, q, i, i), without building the block."""
        return self._diagonal(q, q, i)

    def _diagonal(self, q: int, r: int, i: int) -> np.ndarray:
        """The diagonal of cov(q, r, i, i), by the two rules read on it.

        On a marginal (q == r) the Matern and the nugget give the node's
        variance plus nugget, as every point is at distance 0 from itself.
        Each edge a of the later variable adds, for an integral edge, the
        row sums of B_a(i) o cov(q, a, i, 0) (o the elementwise product),
        and for a dirac edge its amplitude times the diagonal of
        cov(q, a, i, i).
        """
        key = (min(q, r), max(q, r), i)
        if key in self._diag:
            return self._diag[key]
        q, r, _ = key
        if q == r:
            node = self.network.nodes[q]
            diag = np.full(self._geometry.sets[i].shape[0],
                           node.covariance.variance + node.nugget)
        else:
            diag = np.zeros(self._geometry.sets[i].shape[0])
        for a, k, op in self._edges(r, i):
            if op.scalar:
                diag = diag + op.values * self._diagonal(q, a, i)
            else:
                diag = diag + np.einsum("tl,tl->t", self.cov(q, a, i, k),
                                        op.values)
        diag.setflags(write=False)
        self._diag[key] = diag
        return diag


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
