"""The in-place leaf kernels against the forms they replaced.

``Metric.pairwise`` and ``kernels._squared_displacement`` once built the
(m, n, dim) array of differences and reduced it with ``einsum``;
``matern_cov`` once evaluated its closed forms as plain expressions. Those
forms are kept here as references.

- For 1- and 2-d locations the per-axis sums add the same squares in the
  same order, so the results must agree bit for bit.
- For 3-d locations (and the chordal metric, which sums over a 3-d
  embedding) ``einsum`` may add the three squares in another order, so the
  results must agree within 4 ulp of the reference: two orders of a sum of
  three nonnegative terms differ by less than that.
- The Matern closed forms must agree bit for bit, on arrays and on
  scalars, and so must the clipped kv path.
- Same-set blocks, built on one triangle and mirrored, and the in-place
  bisquare profile must agree bit for bit with the full forms. A same-set
  Matern, evaluated tile by tile from the points, must agree bit for bit
  with the two-pass form: the full distance matrix, then ``matern_cov``.
"""
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from condcov import (
    EUCLIDEAN,
    Grid,
    MaternParams,
    ParameterError,
    bisquare,
    chordal,
    matern_cov,
    shifted_bisquare,
)
from condcov.conditional import _Geometry
from condcov.domain import _ROW_TILE, _differences, _embed_lonlat
from condcov.kernels import (
    InteractionKind,
    _bisquare_profile,
    _kv_corr,
    _matern_of_squared,
    _squared_displacement,
)

SETTINGS = settings(max_examples=60, deadline=None)

ULPS = 4

coordinates = st.floats(min_value=-1e100, max_value=1e100)
positive = st.floats(min_value=1e-3, max_value=1e3)


def _pairwise_reference(metric, a, b):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if metric.kind == "chordal":
        a = _embed_lonlat(a, metric.radius)
        b = _embed_lonlat(b, metric.radius)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("mnd,mnd->mn", diff, diff))


def _squared_displacement_reference(spec, S, V):
    h = V[None, :, :] - S[:, None, :]
    if spec.kind is InteractionKind.SHIFTED_BISQUARE:
        h = h - np.asarray(spec.shift, dtype=float)
    return np.einsum("mnd,mnd->mn", h, h)


def _matern_reference(params, d):
    d_arr = np.asarray(d, dtype=float)
    x = params.scale * d_arr
    nu = params.smoothness
    if nu == 0.5:
        corr = np.exp(-x)
    elif nu == 1.5:
        corr = (1.0 + x) * np.exp(-x)
    elif nu == 2.5:
        corr = (1.0 + x + x * x / 3.0) * np.exp(-x)
    else:
        corr = np.clip(_kv_corr(nu, x), 0.0, 1.0)
    out = params.variance * corr
    if np.ndim(d) == 0:
        return float(out)
    return out


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _assert_within_ulps(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ULPS * np.spacing(want))


def _locations(dim):
    return arrays(float, st.tuples(st.integers(0, 6), st.just(dim)),
                  elements=coordinates)


lonlat = st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0))


def _lonlat_locations():
    return st.lists(lonlat, max_size=6).map(
        lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 3))
def test_pairwise_matches_the_einsum_form(data, dim):
    a = data.draw(_locations(dim))
    b = data.draw(_locations(dim))
    got = EUCLIDEAN.pairwise(a, b)
    want = _pairwise_reference(EUCLIDEAN, a, b)
    if dim < 3:
        _assert_bitwise(got, want)
    else:
        _assert_within_ulps(got, want)


@SETTINGS
@given(a=_lonlat_locations(), b=_lonlat_locations(), radius=positive)
def test_chordal_pairwise_matches_the_einsum_form(a, b, radius):
    metric = chordal(radius)
    _assert_within_ulps(metric.pairwise(a, b),
                        _pairwise_reference(metric, a, b))


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 3), shifted=st.booleans())
def test_squared_displacement_matches_the_einsum_form(data, dim, shifted):
    S = data.draw(_locations(dim))
    V = data.draw(_locations(dim))
    if shifted:
        shift = data.draw(st.lists(coordinates, min_size=dim, max_size=dim))
        spec = shifted_bisquare(1.0, 0.5, shift)
    else:
        spec = bisquare(1.0, 0.5)
    got = _squared_displacement(spec, _differences(S, V), (len(S), len(V)))
    want = _squared_displacement_reference(spec, S, V)
    if dim < 3:
        _assert_bitwise(got, want)
    else:
        _assert_within_ulps(got, want)


half_integers = st.sampled_from([0.5, 1.5, 2.5])
distances = st.floats(min_value=0.0, max_value=1e4)


@SETTINGS
@given(nu=half_integers, variance=positive, scale=positive,
       d=arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 6)),
                elements=distances))
def test_matern_matches_the_expression_forms_on_arrays(nu, variance, scale, d):
    params = MaternParams(variance, scale, nu)
    _assert_bitwise(matern_cov(params, d), _matern_reference(params, d))


@SETTINGS
@given(nu=half_integers, variance=positive, scale=positive, d=distances)
def test_matern_matches_the_expression_forms_on_scalars(nu, variance, scale, d):
    params = MaternParams(variance, scale, nu)
    got = matern_cov(params, d)
    assert type(got) is float
    assert np.float64(got).view(np.int64) \
        == np.float64(_matern_reference(params, d)).view(np.int64)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.7, 3.3])
def test_matern_leaves_its_distances_alone(nu):
    params = MaternParams(2.0, 3.0, nu)
    d = EUCLIDEAN.pairwise(np.linspace(0.0, 1.0, 7)[:, None],
                           np.linspace(0.0, 2.0, 5)[:, None])
    before = d.copy()
    matern_cov(params, d)
    assert np.array_equal(d, before)
    d.setflags(write=False)
    _assert_bitwise(matern_cov(params, d), _matern_reference(params, before))
    assert np.array_equal(d, before)


# Same-set blocks: pairwise(a, a) and a same-set Matern fill the upper
# triangle in row tiles and mirror it; they must equal the full evaluation
# (pairwise of two distinct arrays, then matern_cov) bit for bit.

TILE = _ROW_TILE
SAME_SET_SIZES = [1, TILE - 1, TILE, TILE + 1, 1600]
SAME_SET_MATERNS = [MaternParams(1.3, 8.0, nu)
                    for nu in (0.5, 1.5, 2.5, 0.7, 0.8)]


def _same_set_points(n, dim, seed=0, repeat=True):
    rng = np.random.default_rng([seed, n, dim])
    points = rng.uniform(-3.0, 3.0, (n, dim))
    if repeat and n > 2:
        points[-1] = points[0]  # a repeated point: a zero off the diagonal
    return points


@pytest.mark.parametrize("n", SAME_SET_SIZES)
@pytest.mark.parametrize("metric, dim", [
    (EUCLIDEAN, 1), (EUCLIDEAN, 2), (EUCLIDEAN, 3), (chordal(6371.0), 2)])
def test_same_set_blocks_equal_the_full_evaluation(metric, dim, n):
    a = _same_set_points(n, dim)
    if metric.kind == "chordal":
        a = a * np.array([60.0, 30.0])  # (lon, lat) degrees
    full = metric.pairwise(a, a.copy())
    _assert_bitwise(metric.pairwise(a, a), full)
    for params in SAME_SET_MATERNS:
        _assert_bitwise(metric._same_set(a, partial(_matern_of_squared, params)),
                        matern_cov(params, full))


@pytest.mark.parametrize("n", [1, TILE + 1, 1600])
def test_geometry_builds_same_set_blocks_on_one_triangle(n):
    # a grid may not repeat a vertex; the added set does
    grid = Grid(_same_set_points(n, 2, seed=1, repeat=False), np.ones(n))
    geometry = _Geometry(grid)
    i = geometry.add_points(_same_set_points(7, 2, seed=2))
    full = grid.metric.pairwise(grid.vertices, grid.vertices.copy())
    _assert_bitwise(geometry.distance(0, 0), full)
    _assert_bitwise(geometry.distance(0, i),
                    grid.metric.pairwise(grid.vertices, geometry.sets[i]))
    for q, params in enumerate(SAME_SET_MATERNS):
        _assert_bitwise(geometry.matern(q, params, 0, 0),
                        matern_cov(params, full))
    # the same-set Materns were built from the points: no distances kept
    geometry._dist.clear()
    for q, params in enumerate(SAME_SET_MATERNS):
        geometry.matern(q + len(SAME_SET_MATERNS), params, i, i)
    assert geometry._dist == {}


@pytest.mark.parametrize("metric, dim", [
    (EUCLIDEAN, 1), (EUCLIDEAN, 2), (chordal(6371.0), 2)])
def test_a_same_set_nugget_is_added_without_distances(metric, dim):
    # off a product grid, on the grid and on an added set, which repeats a
    # point; chordal sets also spell one point twice (the pole at two
    # longitudes, longitude 180 and -180), whose embeddings differ by
    # roundoff, so no nugget is added there
    grid = Grid(_same_set_points(TILE + 3, dim, seed=4, repeat=False) * 20.0,
                np.ones(TILE + 3), metric)
    points = _same_set_points(TILE + 5, dim, seed=5)
    if metric.kind == "chordal":
        points = points * np.array([60.0, 30.0])
        points[1:5] = [[0.0, 90.0], [45.0, 90.0], [180.0, 10.0], [-180.0, 10.0]]
    geometry = _Geometry(grid)
    i = geometry.add_points(points)
    params = MaternParams(1.3, 2.0, 1.5)
    for k, nugget in ((0, 0.0), (0, 0.25), (i, 0.25)):
        a = geometry.sets[k]
        full = metric.pairwise(a, a.copy())
        _assert_bitwise(geometry.matern(0, params, k, k, nugget),
                        matern_cov(params, full) + nugget * (full == 0.0))
    assert geometry._dist == {}
    # the slot is kept per nugget as well as per Matern
    assert geometry.matern(0, params, i, i, 0.25) is \
        geometry.matern(0, params, i, i, 0.25)
    assert geometry.matern(0, params, i, i)[0, -1] == params.variance


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_same_set_matern_rejects_overflowing_distances():
    # finite points whose distance overflows to inf, as matern_cov rejects
    points = np.array([[0.0, -1e308], [0.0, 1e308]])
    grid = Grid(points, np.ones(2))
    params = MaternParams(1.0, 1.0, 1.5)
    with pytest.raises(ParameterError, match="finite"):
        matern_cov(params, grid.metric.pairwise(points, points.copy()))
    with pytest.raises(ParameterError, match="finite"):
        _Geometry(grid).matern(0, params, 0, 0)


def _bisquare_profile_reference(spec, d2):
    u2 = d2 / (spec.aperture ** 2)
    out = np.zeros(u2.shape)
    inside = u2 <= 1.0
    out[inside] = spec.amplitude * (1.0 - u2[inside]) ** 2
    return out


@pytest.mark.parametrize("amplitude, aperture", [
    (2.5, 0.7), (-1.5, 1.0), (0.0, 2.0), (1e200, 0.3), (-3.0, 1e-150)])
def test_bisquare_profile_matches_the_masked_form(amplitude, aperture):
    rng = np.random.default_rng(8)
    d2 = rng.uniform(0.0, 2.0 * aperture ** 2, (40, 30))
    d2.flat[:5] = aperture ** 2  # u2 exactly 1: inside
    d2.flat[5:9] = [np.nan, np.inf, 1e300, 0.0]
    d2.setflags(write=False)
    spec = bisquare(amplitude, aperture)
    with warnings.catch_warnings(record=True) as before:
        warnings.simplefilter("always")
        want = _bisquare_profile_reference(spec, d2)
    with warnings.catch_warnings(record=True) as after:
        warnings.simplefilter("always")
        got = _bisquare_profile(spec, d2)
    _assert_bitwise(got, want)
    # outside entries may overflow, quietly: no warning the masked form
    # does not give
    assert {str(w.message) for w in after} <= {str(w.message) for w in before}
    assert np.count_nonzero(np.isnan(d2)) == 1  # d2 left alone
