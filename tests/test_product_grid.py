"""Grid blocks built from a uniform product grid's axes, against the paths
they replace.

``Grid.axes`` finds, from the vertices alone, whether a grid is the "ij"
meshgrid of uniformly spaced axes. On such a grid, with the Euclidean
metric, ``conditional._Geometry`` builds

- the grid's same-set Matern block from the Matern of its per-axis offsets,
  expanded as a multilevel Toeplitz matrix. Its distances are offsets
  a_k[o] - a_k[0] in place of differences a_k[i] - a_k[j], which differ by
  the rounding of the coordinates, so the block must agree with the tiled
  block of ``Metric._same_set`` within a stated tolerance, not bit for bit;
- distances and bisquare displacements between the grid and another point
  set per axis. Those sum the same squares in the same order as the outer
  differences, so they must agree bit for bit;
- a nugget on the grid's diagonal, without distances, bit for bit;
- on a grid of two or more axes, the product of an edge operator B with the
  grid's Matern block of a node without edges, from the Matern's outer
  Toeplitz row blocks and never the n x n block, within 1e-13 of the
  largest entry of the product with the block.

Every other grid, and a product grid with the chordal metric, must build
the blocks it built before, bit for bit.
"""
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from condcov import (
    EUCLIDEAN,
    Grid,
    MaternParams,
    Observations,
    ParameterError,
    ProcessNetwork,
    ProcessNode,
    assemble_dag,
    bisquare,
    chordal,
    cokrige,
    loo_cv,
    matern_cov,
    regular_grid,
    shifted_bisquare,
)
from condcov.conditional import CovarianceEvaluator, _Geometry, _Operator
from condcov.domain import _differences, _grid_differences, _toeplitz
from condcov.kernels import (
    _bisquare_profile,
    _matern_of_squared,
    _squared_displacement,
)

NUS = (0.5, 1.5, 2.5, 0.8)

# |Toeplitz - tiled| <= TOL * variance. The two distances differ by a few
# ulp of the largest coordinate; at scale <= 8 and coordinates <= 4 that
# moves the closed forms by about 1e-15 of the variance. scipy's kv (nu =
# 0.8) itself jumps by 1.6e-14 of the variance across x = 2, where it
# switches method, so one tolerance of 1e-13 covers every nu.
TOL = 1e-13

GRIDS = {
    "1d": ([(-3.7, 2.2)], [50]),
    "2d": ([(0.0, 1.0), (0.0, 1.0)], [40, 40]),
    "2d-uneven": ([(-1.0, 3.0), (2.0, 2.5)], [7, 13]),
    "3d": ([(0.0, 1.0), (-1.0, 2.0), (5.0, 6.0)], [4, 5, 6]),
}


def _grid(name, metric=EUCLIDEAN):
    bounds, counts = GRIDS[name]
    return regular_grid(bounds, counts, metric)


def _sites(dim, m=37, seed=0):
    return np.random.default_rng([seed, dim]).uniform(-1.0, 3.0, (m, dim))


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _tiled_matern(grid, params):
    return EUCLIDEAN._same_set(grid.vertices, partial(_matern_of_squared, params))


@pytest.mark.parametrize("name", list(GRIDS))
def test_regular_grids_are_uniform_product_grids(name):
    grid = _grid(name)
    bounds, counts = GRIDS[name]
    assert [a.size for a in grid.axes] == counts
    for k, a in enumerate(grid.axes):
        assert np.array_equal(a, np.unique(grid.vertices[:, k]))
    # detected from the vertices alone
    assert Grid(grid.vertices.copy(), grid.weights).axes is not None


def _shuffled(grid):
    order = np.random.default_rng(1).permutation(grid.n)
    return Grid(grid.vertices[order], grid.weights)


def _uneven(grid):
    vertices = grid.vertices.copy()
    vertices[:, 0] = vertices[:, 0] ** 3  # one axis no longer uniform
    return Grid(vertices, grid.weights)


def _jittered(grid):
    vertices = grid.vertices.copy()
    vertices[5, 0] += 1e-9
    return Grid(vertices, grid.weights)


def _off_by_rounding(grid):
    # 64 ulp off the line: more than rounding can explain
    vertices = grid.vertices.copy()
    a = np.unique(vertices[:, 0])
    vertices[vertices[:, 0] == a[2], 0] += 64 * np.spacing(a[-1])
    return Grid(vertices, grid.weights)


@pytest.mark.parametrize("make", [_shuffled, _uneven, _jittered,
                                  _off_by_rounding])
@pytest.mark.parametrize("name", ["1d", "2d-uneven", "3d"])
def test_other_grids_fall_back_bitwise(make, name):
    grid = make(_grid(name))
    assert grid.axes is None
    _assert_falls_back(grid)


@pytest.mark.parametrize("name", ["2d", "2d-uneven"])
def test_the_chordal_metric_falls_back_bitwise(name):
    bounds, counts = GRIDS[name]
    grid = regular_grid([(10 * lo, 10 * hi) for lo, hi in bounds], counts,
                        chordal(6371.0))
    assert grid.axes is not None
    _assert_falls_back(grid)


def _assert_falls_back(grid):
    geometry = _Geometry(grid)
    assert geometry.axes is None
    i = geometry.add_points(_sites(grid.dim))
    for q, nu in enumerate(NUS):
        params = MaternParams(1.3, 2.0, nu)
        _assert_bitwise(geometry.matern(q, params, 0, 0),
                        grid.metric._same_set(grid.vertices, partial(
                            _matern_of_squared, params)))
    _assert_bitwise(geometry.distance(0, i),
                    grid.metric.pairwise(grid.vertices, geometry.sets[i]))
    _assert_bitwise(geometry.distance(i, 0),
                    grid.metric.pairwise(geometry.sets[i], grid.vertices))
    spec = shifted_bisquare(2.0, 0.7, [0.1] * grid.dim)
    _assert_bitwise(geometry.weighted(0, 0, spec, i),
                    _squared_displacement_weighted(grid, spec, geometry.sets[i]))


def _squared_displacement_weighted(grid, spec, points):
    vals = _bisquare_profile(spec, _squared_displacement(
        spec, _differences(points, grid.vertices), (len(points), grid.n)))
    return vals * grid.weights


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("name", list(GRIDS))
def test_toeplitz_matern_matches_the_tiled_block(name, nu):
    grid = _grid(name)
    for params in (MaternParams(1.3, 8.0, nu), MaternParams(0.4, 0.9, nu)):
        got = _Geometry(grid).matern(0, params, 0, 0)
        want = _tiled_matern(grid, params)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= TOL * params.variance
        assert np.array_equal(got, got.T)
        # the diagonal is the variance exactly, as on the tiled path
        assert np.array_equal(np.diag(got), np.diag(want))


@pytest.mark.parametrize("shape", [(1,), (6,), (1, 1), (3, 1), (1, 4),
                                   (3, 5), (4, 3, 2), (2, 1, 3, 2)])
def test_toeplitz_expansion_reads_the_table_at_absolute_offsets(shape):
    table = np.random.default_rng(len(shape)).standard_normal(shape)
    n = table.size
    got = _toeplitz(table, np.empty((n, n)))
    index = np.array(np.unravel_index(np.arange(n), shape))
    offsets = np.abs(index[:, :, None] - index[:, None, :])
    _assert_bitwise(got, table[tuple(offsets)])


@pytest.mark.parametrize("name", list(GRIDS))
def test_grid_distances_are_built_per_axis_bitwise(name):
    grid = _grid(name)
    geometry = _Geometry(grid)
    assert geometry.axes is grid.axes
    points = _sites(grid.dim)
    points[3] = grid.vertices[2]  # a site on a vertex: a zero distance
    i = geometry.add_points(points)
    _assert_bitwise(geometry.distance(0, i),
                    EUCLIDEAN.pairwise(grid.vertices, points))
    _assert_bitwise(geometry.distance(i, 0),
                    EUCLIDEAN.pairwise(points, grid.vertices))
    params = MaternParams(1.3, 8.0, 1.5)
    _assert_bitwise(geometry.matern(0, params, 0, i),
                    matern_cov(params, EUCLIDEAN.pairwise(grid.vertices, points)))
    empty = geometry.add_points(np.empty((0, grid.dim)))
    assert geometry.distance(0, empty).shape == (grid.n, 0)
    assert geometry.distance(empty, 0).shape == (0, grid.n)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("name", list(GRIDS))
def test_grid_displacements_are_built_per_axis_bitwise(name, shifted):
    grid = _grid(name)
    spec = (shifted_bisquare(3.0, 0.4, np.linspace(-0.2, 0.3, grid.dim))
            if shifted else bisquare(3.0, 0.4))
    for points in (_sites(grid.dim), grid.vertices, np.empty((0, grid.dim))):
        shape = (len(points), grid.n)
        _assert_bitwise(
            _squared_displacement(spec, _grid_differences(grid.axes, points),
                                  shape),
            _squared_displacement(spec, _differences(points, grid.vertices),
                                  shape))
    geometry = _Geometry(grid)
    i = geometry.add_points(_sites(grid.dim))
    _assert_bitwise(geometry.weighted(0, 0, spec, i),
                    _squared_displacement_weighted(grid, spec, geometry.sets[i]))


def test_an_overflowing_grid_is_rejected_without_a_warning():
    # the offsets are finite (a span that overflows is not detected, see
    # below), their squares are not
    grid = Grid([[0.0, -1e200], [0.0, 0.0], [0.0, 1e200]], np.ones(3))
    assert grid.axes is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite"):
            _Geometry(grid).matern(0, MaternParams(1.0, 1.0, 1.5), 0, 0)


def test_spans_that_overflow_and_spacings_that_underflow_are_not_detected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Grid([[-1e308], [1e308]], np.ones(2)).axes is None
        assert Grid([[0.0], [1e-160], [2e-160]], np.ones(3)).axes is None
        assert Grid([[0.0], [1e-150], [2e-150]], np.ones(3)).axes is not None


@pytest.mark.parametrize("name", ["1d", "2d-uneven", "3d"])
def test_a_nugget_on_the_grid_needs_no_distances(name):
    grid = _grid(name)
    node = ProcessNode("y", MaternParams(1.3, 2.0, 1.5), nugget=0.25)
    ev = CovarianceEvaluator(grid, ProcessNetwork([node]))
    got = ev.cov(0, 0)
    distances = EUCLIDEAN.pairwise(grid.vertices, grid.vertices.copy())
    want = ev._geometry.matern(0, node.covariance, 0, 0) \
        + node.nugget * (distances == 0.0)
    _assert_bitwise(got, want)
    assert (0, 0) not in ev._geometry._dist
    # off the grid the nugget still reads where the distances are 0
    points = np.vstack([_sites(grid.dim, m=5), grid.vertices[:1]])
    i = ev.add_points(points)
    assert ev.cov(0, 0, i, 0)[5, 0] == node.covariance.variance + node.nugget


# Toeplitz rows: B C11 from the outer row blocks of a product grid's Matern,
# never the n x n block. The sum is split per row block, so the product must
# agree with np.dot(B, C11) within ROWS_TOL of its largest entry.
ROWS_TOL = 1e-13


def _expand(wide):
    """The matrix whose outer row blocks are ``wide``, block by block."""
    m = wide.shape[0]
    blocks = (wide.shape[1] // m + 1) // 2
    return np.vstack([wide[:, (blocks - 1 - i) * m:(2 * blocks - 1 - i) * m]
                      for i in range(blocks)])


def _in_window_order(B):
    nonzero = B != 0.0
    lo = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), B.shape[1])
    return B[np.argsort(lo, kind="stable")]


@pytest.mark.parametrize("in_order", [False, True], ids=["shuffled", "in-order"])
@pytest.mark.parametrize("shifted", [False, True], ids=["bisquare", "shifted"])
@pytest.mark.parametrize("name", ["2d", "2d-uneven", "3d"])
def test_the_row_block_product_matches_the_dense_product(name, shifted, in_order):
    grid = _grid(name)
    lo, hi = grid.vertices.min(axis=0), grid.vertices.max(axis=0)
    rng = np.random.default_rng([grid.dim, grid.n])
    points = np.vstack([rng.uniform(lo, hi, (90, grid.dim)),
                        hi + 5.0 * (hi - lo)])  # a site where B's row is 0
    aperture = 0.3 * (hi - lo).max()
    spec = (shifted_bisquare(2.0, aperture, 0.1 * (hi - lo)) if shifted
            else bisquare(2.0, aperture))
    geometry = _Geometry(grid)
    B = geometry.weighted(0, 0, spec, geometry.add_points(points))
    if in_order:
        B = _in_window_order(B)
    assert not B.any(axis=1).all()  # a row of zeros
    op = _Operator(B)
    assert (op._bounds[2] is None) == in_order
    for params in (MaternParams(1.3, 8.0, 1.5), MaternParams(0.4, 0.9, 0.8)):
        wide = geometry.toeplitz(0, params, 0.0)
        C = geometry.matern(0, params, 0, 0)
        _assert_bitwise(_expand(wide), C)
        got, want = op.left_toeplitz(wide), np.dot(B, C)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= ROWS_TOL * np.abs(want).max()
        assert np.all(got[~B.any(axis=1)] == 0.0)


@pytest.mark.parametrize("name", ["2d", "2d-uneven", "3d"])
def test_a_nugget_folded_into_offset_zero_is_the_diagonal_add(name):
    grid = _grid(name)
    node = ProcessNode("y", MaternParams(1.3, 2.0, 1.5), nugget=0.25)
    ev = CovarianceEvaluator(grid, ProcessNetwork([node]))
    wide = ev._toeplitz(0)
    _assert_bitwise(_expand(wide), ev.cov(0, 0))
    assert wide is ev._geometry.toeplitz(0, node.covariance, node.nugget)  # kept


def _root_and_child(nugget=0.0, child_edge=None):
    spec = child_edge or shifted_bisquare(30.0, 0.15, [0.1, -0.05])
    return ProcessNetwork([
        ProcessNode("y1", MaternParams(1.0, 8.0, 1.5), nugget=nugget, noise=0.1),
        ProcessNode("y2", MaternParams(0.3, 12.0, 1.5), noise=0.1,
                    parents=((0, spec),)),
    ])


@pytest.mark.parametrize("nugget", [0.0, 0.2])
@pytest.mark.parametrize("name", ["2d", "3d"])
def test_the_cross_rule_reads_the_rows_of_a_root(name, nugget):
    grid = _grid(name)
    hi = grid.vertices.max(axis=0)
    network = _root_and_child(nugget, shifted_bisquare(
        30.0, 0.3, np.linspace(0.1, -0.05, grid.dim)))
    ev = CovarianceEvaluator(grid, network)
    i = ev.add_points(np.random.default_rng(3).uniform(0.0, hi, (60, grid.dim)))
    got = ev.cov(0, 1, 0, i)
    assert (0, 0, 0, 0) not in ev._cov
    assert ("matern", 0, 0, 0) not in ev._geometry._slots
    (_, _, op), = ev._edges(1, i)
    want = op.left(ev.cov(0, 0)).T  # the expanded block, read as before
    assert np.abs(got - want).max() <= ROWS_TOL * np.abs(want).max()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _grid("1d"), id="1d"),
    pytest.param(lambda: _shuffled(_grid("2d-uneven")), id="not-a-product"),
    pytest.param(lambda: regular_grid([(0.0, 10.0), (0.0, 10.0)], [7, 13],
                                      chordal(6371.0)), id="chordal"),
])
def test_other_grids_read_the_expanded_block(make):
    grid = make()
    spec = shifted_bisquare(3.0, 0.5, [0.1] * grid.dim)
    ev = CovarianceEvaluator(grid, _root_and_child(0.1, spec))
    assert ev._toeplitz(0) is None
    i = ev.add_points(_sites(grid.dim, m=9))
    ev.cov(0, 1, 0, i)
    assert (0, 0, 0, 0) in ev._cov
    assert not any(key[0] == "toeplitz" for key in ev._geometry._slots)


def test_a_root_with_an_edge_is_not_read_from_rows():
    grid = _grid("2d-uneven")
    network = ProcessNetwork([
        ProcessNode("y0", MaternParams(1.0, 4.0, 1.5)),
        ProcessNode("y1", MaternParams(1.0, 8.0, 1.5),
                    parents=((0, bisquare(1.0, 0.5)),)),
        ProcessNode("y2", MaternParams(0.3, 12.0, 1.5),
                    parents=((1, bisquare(2.0, 0.5)),)),
    ])
    ev = CovarianceEvaluator(grid, network)
    assert ev._toeplitz(0) is not None
    assert ev._toeplitz(1) is None  # its block is not a Matern
    ev.cov(1, 2, 0, ev.add_points(_sites(2, m=9)))
    assert (1, 1, 0, 0) in ev._cov


def test_predict_and_cv_in_the_map2d_shape_build_no_grid_block():
    # a 40 x 40 grid, 250 off-grid sites of both variables, a shifted edge
    grid = _grid("2d")
    rng = np.random.default_rng(7)
    sites = rng.uniform(0.0, 1.0, (250, 2))
    obs = [Observations(q, sites, rng.standard_normal(250)) for q in (0, 1)]
    block = grid.n ** 2 * 8  # bytes of one n x n float block, 20.5 MB
    model = assemble_dag(grid, _root_and_child())
    tracemalloc.start()
    try:
        cokrige(model, obs, grid.vertices, 0)
        loo_cv(model, obs)
        kept, peak = tracemalloc.get_traced_memory()
        # what predict and cv read from the n x n block: B C11, with the
        # operator B of the sites built beforehand
        ev = CovarianceEvaluator(grid, model.network)
        i = ev.add_points(sites)
        ev._edges(1, i)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ev.cov(0, 1, 0, i)
        cross_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    for evaluator in (model.evaluator, ev):
        assert (0, 0, 0, 0) not in evaluator._cov
        assert ("matern", 0, 0, 0) not in evaluator._geometry._slots
    assert cross_peak < block
    # the blocks that predict and cv keep are about one n x n block
    # together; beyond them, neither call held one
    assert peak - kept < block
