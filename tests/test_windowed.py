"""Edge products on the kernels' support against the dense products.

``CovarianceEvaluator`` multiplies each integral edge operator B group of
rows by group of rows, on the window of grid columns where the group's
kernel values can be nonzero (``conditional._Operator``). The dense forms
it replaced are kept here: one ``np.dot`` per edge, for the marginal rule
B_a(i) cov(a, q, ., j) and for the cross rule cov(q, a, i, .) B_a(j)'.
Leaving out zero terms reorders the sums, so a windowed block must agree
with the dense one within 4e-15 of the block's largest entry.
"""
import numpy as np
import pytest

from condcov import (
    Grid,
    MaternParams,
    ProcessNetwork,
    ProcessNode,
    bisquare,
    dirac,
    regular_grid,
    shifted_bisquare,
    tabulated,
)
from condcov.conditional import _GROUP_ROWS, CovarianceEvaluator, _Operator
from condcov.kernels import InteractionKind, interaction_values, matern_cov

RTOL = 4e-15


def _close(got, want, rtol=RTOL):
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if want.size else 0.0
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


def _dense_cov(grid, network, sets):
    """The two rules with one dense np.dot per edge, as cov(q, r, i, j).

    Point set 0 is the grid and set i > 0 is ``sets[i - 1]``.
    """
    pts = [grid.vertices] + [np.atleast_2d(s) for s in sets]
    nodes = network.nodes
    memo = {}

    def edges(q, i):
        for a, spec in nodes[q].parents:
            if spec.kind is InteractionKind.DIRAC:
                yield a, i, np.float64(spec.amplitude)
            elif spec.kind is not InteractionKind.ZERO:
                vals = interaction_values(spec, pts[i], grid.vertices)
                yield a, 0, vals * grid.weights[None, :]

    def cov(q, r, i, j):
        key = (q, r, i, j)
        if key not in memo:
            if q > r or (q == r and i > j):
                memo[key] = cov(r, q, j, i).T
            elif q == r:
                node = nodes[q]
                dist = grid.metric.pairwise(pts[i], pts[j].copy())
                mat = matern_cov(node.covariance, dist) \
                    + node.nugget * (dist == 0.0)
                for a, k, op in edges(q, i):
                    mat = mat + np.dot(op, cov(a, q, k, j))
                memo[key] = mat
            else:
                mat = np.zeros((pts[i].shape[0], pts[j].shape[0]))
                for a, k, op in edges(r, j):
                    mat = mat + np.dot(cov(q, a, i, k), op.T)
                memo[key] = mat
        return memo[key]

    return cov


def _network(spec):
    """y1, y2 ~ y1 (``spec``), y3 ~ y1 (dirac), y2 (``spec``): a chain in
    which y3's edges read the marginal of y2, itself not a Matern."""
    m = MaternParams(1.0, 6.0, 1.5)
    return ProcessNetwork((
        ProcessNode("y1", m, nugget=0.02),
        ProcessNode("y2", MaternParams(0.4, 9.0, 2.5), parents=((0, spec),)),
        ProcessNode("y3", MaternParams(0.3, 12.0, 0.5),
                    parents=((0, dirac(0.7)), (1, spec)),
                    nugget=0.05),
    ))


_CASES = {
    "1d-bisquare": (regular_grid([(-1.0, 1.0)], [300]), bisquare(2.0, 0.2)),
    "1d-shifted": (regular_grid([(-1.0, 1.0)], [300]),
                   shifted_bisquare(-3.0, 0.15, (0.3,))),
    # nonzero for v in (-1, -0.3) only
    "1d-tabulated": (regular_grid([(-1.0, 1.0)], [300]), tabulated(
        [-1.0, -0.2, 0.3, 1.0], [-1.0, -0.8, -0.5, -0.3, 1.0],
        [[0.0, 2.0, 1.0, 0.0, 0.0], [0.0, 1.5, -1.0, 0.0, 0.0],
         [0.0, 0.0, 0.5, 0.0, 0.0], [0.0, 3.0, 1.0, 0.0, 0.0]])),
    "2d-bisquare": (regular_grid([(0.0, 1.0)] * 2, [20, 20]), bisquare(30.0, 0.15)),
    "2d-shifted": (regular_grid([(0.0, 1.0)] * 2, [20, 20]),
                   shifted_bisquare(30.0, 0.15, (0.1, -0.05))),
    "3d-bisquare": (regular_grid([(0.0, 1.0)] * 3, [8, 8, 8]), bisquare(60.0, 0.3)),
    "3d-shifted": (regular_grid([(0.0, 1.0)] * 3, [8, 8, 8]),
                   shifted_bisquare(-40.0, 0.3, (0.1, 0.0, -0.2))),
}


def _sites(grid, m=96, seed=0):
    rng = np.random.default_rng([seed, grid.dim])
    lo, hi = grid.vertices.min(axis=0), grid.vertices.max(axis=0)
    return rng.uniform(lo, hi, (m, grid.dim))


@pytest.mark.parametrize("case", list(_CASES))
def test_windowed_blocks_match_dense_products(case, monkeypatch):
    grid, spec = _CASES[case]
    net = _network(spec)
    S, U = _sites(grid), _sites(grid, 40, seed=1)
    want = _dense_cov(grid, net, [S, U])
    windowed = []
    left = _Operator.left

    def counting(op, X):
        windowed.append(op._worth(X))
        return left(op, X)

    monkeypatch.setattr(_Operator, "left", counting)
    ev = CovarianceEvaluator(grid, net)
    sets = [ev.add_points(S), ev.add_points(U)]
    assert sets == [1, 2]
    for i in range(3):
        for j in range(3):
            for q in range(net.p):
                for r in range(net.p):
                    _close(ev.cov(q, r, i, j), want(q, r, i, j))
    # the products were windowed, apart from the dirac ones
    assert any(windowed)


def _operator(case, points):
    grid, spec = _CASES[case]
    B = interaction_values(spec, points, grid.vertices) * grid.weights
    return grid, B


@pytest.mark.parametrize("case", list(_CASES))
def test_left_products_match_np_dot(case):
    grid = _CASES[case][0]
    rng = np.random.default_rng(5)
    grid, B = _operator(case, _sites(grid, 100))
    X = rng.standard_normal((grid.n, 250))
    op = _Operator(B)
    assert op._worth(X)
    _close(op.left(X), np.dot(B, X))
    # a transposed X is not read row by row: one np.dot, bit for bit
    Xt = np.ascontiguousarray(X.T).T
    assert not op._worth(Xt)
    assert np.array_equal(op.left(Xt), np.dot(B, Xt))


def test_a_shuffled_grid_gives_the_same_blocks():
    base, spec = _CASES["2d-shifted"]
    order = np.random.default_rng(2).permutation(base.n)
    grid = Grid(base.vertices[order], base.weights[order])
    net = _network(spec)
    S = _sites(grid)
    want = _dense_cov(grid, net, [S])
    ev = CovarianceEvaluator(grid, net)
    i = ev.add_points(S)
    for q in range(net.p):
        for r in range(net.p):
            for a, b in ((0, i), (i, i), (i, 0)):
                _close(ev.cov(q, r, a, b), want(q, r, a, b))


def test_rows_outside_every_support_are_zero():
    grid, B = _operator("1d-bisquare", np.linspace(-3.0, 3.0, 200)[:, None])
    empty = ~(B != 0.0).any(axis=1)
    assert 0 < empty.sum() < len(empty)
    X = np.random.default_rng(0).standard_normal((grid.n, 300))
    op = _Operator(B)
    assert op._worth(X)
    got = op.left(X)
    assert np.all(got[empty] == 0.0)
    _close(got, np.dot(B, X))


def test_an_all_zero_operator():
    grid, B = _operator("2d-bisquare", _sites(_CASES["2d-bisquare"][0]) + 5.0)
    assert not B.any()
    X = np.random.default_rng(0).standard_normal((grid.n, 300))
    op = _Operator(B)
    assert op._worth(X)  # nothing to multiply: every group is skipped
    assert all(block is None for *_, block in op._windows[2])
    assert np.array_equal(op.left(X), np.zeros((B.shape[0], 300)))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_operator_entries_stay_non_finite():
    grid, B = _operator("2d-shifted", _sites(_CASES["2d-shifted"][0], 120))
    rng = np.random.default_rng(4)
    rows, cols = np.nonzero(B)
    pick = rng.choice(len(rows), 6, replace=False)
    B[rows[pick[:3]], cols[pick[:3]]] = np.inf
    B[rows[pick[3:5]], cols[pick[3:5]]] = -np.inf
    B[rows[pick[5]], cols[pick[5]]] = np.nan
    X = rng.standard_normal((grid.n, 300))
    X[cols[pick[0]]] = 0.0  # inf * 0: a NaN either way
    op = _Operator(B)
    assert op._worth(X)
    got, want = op.left(X), np.dot(B, X)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    _close(got[finite], want[finite])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_entries_of_x_reach_every_row_that_reads_them():
    grid, B = _operator("2d-shifted", _sites(_CASES["2d-shifted"][0], 120))
    rng = np.random.default_rng(6)
    X = rng.standard_normal((grid.n, 300))
    bad = rng.choice(grid.n, 4, replace=False)
    X[bad[:2], 7] = np.inf
    X[bad[2:], 11] = np.nan
    op = _Operator(B)
    assert op._worth(X)
    got, want = op.left(X), np.dot(B, X)
    # np.dot also turns 0 * inf into NaN where B is 0; the windows may skip
    # those, never an entry that B's support reads
    assert np.all(np.isfinite(want[:, ~np.isin(np.arange(300), (7, 11))]))
    assert np.all(~np.isfinite(want[:, [7, 11]]))
    reads = (B[:, bad] != 0.0)
    assert np.all(~np.isfinite(got[reads[:, :2].any(axis=1), 7]))
    assert np.all(np.isnan(got[reads[:, 2:].any(axis=1), 11]))
    finite = np.isfinite(got)
    assert np.all(finite[:, ~np.isin(np.arange(300), (7, 11))])
    _close(got[np.isfinite(want)], want[np.isfinite(want)])


def test_small_products_stay_one_np_dot():
    grid, B = _operator("1d-shifted", _sites(_CASES["1d-shifted"][0], 8))
    X = np.random.default_rng(1).standard_normal((grid.n, 5))
    op = _Operator(B)
    assert not op._worth(X)
    assert "_windows" not in vars(op)  # not even looked for
    assert np.array_equal(op.left(X), np.dot(B, X))
    scalar = _Operator(np.float64(-0.7))
    assert np.array_equal(scalar.left(X), np.dot(np.float64(-0.7), X))


def test_groups_cover_every_row_once():
    grid, B = _operator("2d-shifted", _sites(_CASES["2d-shifted"][0], 3 * _GROUP_ROWS + 5))
    _, order, groups = _Operator(B)._windows
    assert order is not None  # random sites: rows are reordered by window
    assert sorted(order.tolist()) == list(range(B.shape[0]))
    covered = [r for g0, g1, *_ in groups for r in range(g0, g1)]
    assert covered == list(range(B.shape[0]))
    for g0, g1, lo, hi, block in groups:
        rows = B[order[g0:g1]]
        assert not rows[:, :lo].any() and not rows[:, hi:].any()
        assert np.array_equal(block, rows[:, lo:hi])
