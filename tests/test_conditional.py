"""Assembly of joint covariances from marginals and interaction functions.

The discretized construction must reproduce the defining identities:
dependent-block decomposition, cross-covariance consistency between the
two evaluation routes, and exact symmetry / asymmetry where each is
required by the interaction geometry.
"""
import numpy as np
import pytest

from condcov import (
    InvalidModelError,
    MaternParams,
    MeanSpec,
    Observations,
    ProcessNetwork,
    ProcessNode,
    ValidationError,
    apply_mean,
    assemble_dag,
    bisquare,
    build_interaction_matrix,
    cokrige,
    cross_cov_at,
    cross_cov_matrix,
    dirac,
    loo_cv,
    matern_cov,
    mean_at,
    regular_grid,
    sample_joint,
    shifted_bisquare,
    tabulated,
    zero,
)
from condcov import conditional
from condcov.kernels import InteractionKind, interaction_values
from condcov.linalg import chol_model

M11 = MaternParams(1.0, 25.0, 1.5)
M21 = MaternParams(0.2, 75.0, 1.5)


def _biv(spec, grid=None, nugget=0.0):
    g = grid if grid is not None else regular_grid([(-1.0, 1.0)], [60])
    net = ProcessNetwork((
        ProcessNode("y1", M11),
        ProcessNode("y2", M21, parents=((0, spec),), nugget=nugget),
    ))
    return assemble_dag(g, net)


def test_interaction_matrix_zero():
    g = regular_grid([(-1.0, 1.0)], [40])
    B = build_interaction_matrix(g, zero())
    assert B.shape == (40, 40)
    assert np.all(B == 0.0)


def test_interaction_matrix_dirac_contracts_exactly():
    g = regular_grid([(-1.0, 1.0)], [40])
    B = build_interaction_matrix(g, dirac(-14.30))
    assert np.array_equal(B, -14.30 * np.eye(40))


def test_interaction_matrix_rows_integrate():
    # quadrature weights are folded in, so interior row sums approximate
    # the analytic integral 16 A r / 15 = 1.6
    g = regular_grid([(-1.0, 1.0)], [200])
    B = build_interaction_matrix(g, shifted_bisquare(5.0, 0.3, (-0.3,)))
    rows = B.sum(axis=1)
    interior = rows[80:120]  # supports well inside the domain
    assert np.allclose(interior, 1.6, rtol=1e-2)


def test_single_cell_hand_check():
    """One grid cell with unit weight: the 2x2 joint matrix in closed form."""
    g = regular_grid([(0.0, 1.0)], [1])
    assert g.weights[0] == 1.0
    c = 0.7
    model = _biv(dirac(c), grid=g)
    want = np.array([[1.0, c], [c, 0.2 + c * c]])
    assert np.allclose(model.matrix, want, atol=1e-15)


def test_zero_interaction_is_block_diagonal():
    model = _biv(zero())
    n = model.grid.n
    assert np.all(model.block(0, 1) == 0.0)
    assert np.all(model.matrix[n:, :n] == 0.0)
    d = model.grid.distance_matrix()
    assert np.allclose(model.block(0, 0), matern_cov(M11, d), atol=1e-14)
    assert np.allclose(model.block(1, 1), matern_cov(M21, d), atol=1e-14)


def test_trivariate_all_zero_interactions():
    g = regular_grid([(0.0, 1.0)], [20])
    net = ProcessNetwork((
        ProcessNode("a", M11),
        ProcessNode("b", M21, parents=((0, zero()),)),
        ProcessNode("c", MaternParams(0.5, 10.0, 0.5), parents=((0, zero()), (1, zero()))),
    ))
    model = assemble_dag(g, net)
    for q in range(3):
        for r in range(q):
            assert np.all(model.block(q, r) == 0.0), (q, r)


def test_dependent_block_decomposition():
    """C22 - B C11 B' equals the conditional covariance matrix (no nugget)."""
    g = regular_grid([(-1.0, 1.0)], [80])
    spec = shifted_bisquare(5.0, 0.3, (-0.3,))
    model = _biv(spec, grid=g)
    B = build_interaction_matrix(g, spec)
    c11 = model.block(0, 0)
    resid = model.block(1, 1) - B @ c11 @ B.T
    cond = matern_cov(M21, g.distance_matrix())
    assert np.max(np.abs(resid - cond)) < 1e-10
    # and the cross block is exactly B C11 (stored transposed)
    assert np.max(np.abs(model.block(1, 0) - B @ c11)) < 1e-12


def test_nugget_only_on_own_diagonal():
    base = _biv(bisquare(2.0, 0.4), nugget=0.0)
    bumped = _biv(bisquare(2.0, 0.4), nugget=0.09)
    n = base.grid.n
    diff = bumped.matrix - base.matrix
    want = np.zeros_like(diff)
    want[n:, n:] = 0.09 * np.eye(n)
    assert np.allclose(diff, want, atol=1e-14)


def test_assembled_matrix_is_exactly_symmetric():
    model = _biv(shifted_bisquare(5.0, 0.3, (-0.3,)))
    assert np.array_equal(model.matrix, model.matrix.T)


def test_psd_random_networks():
    """Random valid draws stay PSD: Cholesky with tiny jitter, nonnegative forms."""
    rng = np.random.default_rng(2024)
    for trial in range(25):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(8, 30))
        g = regular_grid([(-1.0, 1.0)], [n])
        nodes = [ProcessNode("v0", MaternParams(
            float(rng.uniform(0.3, 3.0)), float(rng.uniform(2, 40)),
            float(rng.uniform(0.4, 2.5))))]
        for q in range(1, p):
            parents = []
            for a in range(q):
                kind = rng.integers(0, 4)
                if kind == 0:
                    spec = zero()
                elif kind == 1:
                    spec = dirac(float(rng.normal(scale=2)))
                elif kind == 2:
                    spec = bisquare(float(rng.normal(scale=3)), float(rng.uniform(0.05, 0.6)))
                else:
                    spec = shifted_bisquare(float(rng.normal(scale=3)),
                                            float(rng.uniform(0.05, 0.6)),
                                            (float(rng.uniform(-0.4, 0.4)),))
                parents.append((a, spec))
            nodes.append(ProcessNode(f"v{q}", MaternParams(
                float(rng.uniform(0.3, 3.0)), float(rng.uniform(2, 40)),
                float(rng.uniform(0.4, 2.5))), parents=tuple(parents),
                nugget=float(rng.uniform(0, 0.2))))
        model = assemble_dag(g, ProcessNetwork(tuple(nodes)))
        mean_diag = float(np.mean(np.diag(model.matrix)))
        assert model.jitter <= 1e-8 * mean_diag
        scale = np.max(np.abs(model.matrix))
        for _ in range(5):
            x = rng.normal(size=model.matrix.shape[0])
            q_form = float(x @ model.matrix @ x)
            assert q_form >= -1e-8 * scale * float(x @ x), trial


class TestCrossCovariance:
    """Off grid evaluation must agree with the defining discretized sums."""

    @staticmethod
    def _model():
        g = regular_grid([(-1.0, 1.0)], [100])
        spec = shifted_bisquare(5.0, 0.3, (-0.3,))
        net = ProcessNetwork((
            ProcessNode("y1", M11),
            ProcessNode("y2", M21, parents=((0, spec),)),
        ))
        return assemble_dag(g, net), spec

    def test_cross_matches_explicit_sum(self):
        model, spec = self._model()
        g = model.grid
        w = g.vertices[:, 0]
        eta = g.weights
        s_pts = np.array([[-0.721], [0.033], [0.58]])
        u_pts = np.array([[-0.4], [0.11]])
        got = cross_cov_matrix(model, 0, 1, s_pts, u_pts)
        for i, s in enumerate(s_pts[:, 0]):
            for j, u in enumerate(u_pts[:, 0]):
                c11 = matern_cov(M11, np.abs(s - w))
                b_u = np.array([
                    spec.amplitude * max(0.0, 1 - ((wl - u + 0.3) / 0.3) ** 2) ** 2
                    for wl in w
                ])
                want = float(np.sum(c11 * b_u * eta))
                assert np.isclose(got[i, j], want, rtol=0, atol=1e-12), (i, j)

    def test_dependent_block_explicit_sum(self):
        model, spec = self._model()
        g = model.grid
        w = g.vertices[:, 0]
        eta = g.weights
        s, u = -0.15, 0.22

        def b_at(x, v):
            return spec.amplitude * max(0.0, 1 - ((v - x + 0.3) / 0.3) ** 2) ** 2

        bs = np.array([b_at(s, v) for v in w]) * eta
        bu = np.array([b_at(u, v) for v in w]) * eta
        c11 = matern_cov(M11, np.abs(w[:, None] - w[None, :]))
        want = float(bs @ c11 @ bu) + matern_cov(M21, abs(s - u))
        got = cross_cov_at(model, 1, 1, [s], [u])
        assert np.isclose(got, want, rtol=0, atol=1e-12)

    def test_two_route_symmetry(self):
        """C12(s, u) == C21(u, s) pointwise, at off grid locations."""
        model, _ = self._model()
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = float(rng.uniform(-1, 1))
            u = float(rng.uniform(-1, 1))
            a = cross_cov_at(model, 0, 1, [s], [u])
            b = cross_cov_at(model, 1, 0, [u], [s])
            assert abs(a - b) < 1e-12

    def test_shift_breaks_grid_symmetry(self):
        model, _ = self._model()
        c12 = model.block(0, 1)
        asym = np.linalg.norm(c12 - c12.T)
        assert asym > 1e-3 * np.linalg.norm(c12)

    def test_dirac_grid_symmetry(self):
        # symmetric construction: Dirac interaction on a symmetric grid
        model = _biv(dirac(0.8))
        c12 = model.block(0, 1)
        assert np.max(np.abs(c12 - c12.T)) < 1e-10

    def test_subcell_aperture_grid_symmetry(self):
        # aperture below the cell size: only the diagonal of B survives,
        # so no boundary truncation and the cross block stays symmetric
        g = regular_grid([(-1.0, 1.0)], [100])  # h = 0.02
        model = _biv(bisquare(3.0, 0.015), grid=g)
        c12 = model.block(0, 1)
        assert np.max(np.abs(c12 - c12.T)) < 1e-10


def test_small_monte_carlo_agreement():
    """Sample covariance from the factorized draw approaches the matrix."""
    g = regular_grid([(0.0, 1.0)], [4])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 3.0, 1.5)),
        ProcessNode("y2", MaternParams(0.4, 5.0, 0.5),
                    parents=((0, dirac(0.6)),), nugget=0.05),
    ))
    model = assemble_dag(g, net)
    rng = np.random.default_rng(99)
    nrep = 40000
    xi = rng.standard_normal((model.matrix.shape[0], nrep))
    draws = model.chol @ xi
    emp = draws @ draws.T / nrep
    C = model.matrix
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2) / nrep)
    assert np.all(np.abs(emp - C) < 5 * se + 1e-12)
    assert sample_joint(model, seed=1).shape == (2, 4)


def test_mean_functions():
    g = regular_grid([(-1.0, 1.0)], [10])
    net = ProcessNetwork((
        ProcessNode("y1", M11),
        ProcessNode("y2", M21, parents=((0, zero()),),
                    mean=MeanSpec(("const", "x"), (1.0, 2.0))),
    ))
    model = assemble_dag(g, net)
    mu = apply_mean(model)
    assert mu.shape == (2, g.n)
    assert np.all(mu[0] == 0.0)
    assert np.allclose(mu[1], 1.0 + 2.0 * g.vertices[:, 0])
    # constant only
    m = mean_at(ProcessNetwork((ProcessNode("y", M11,
                mean=MeanSpec(("const",), (2.5,))),)), 0, g.vertices)
    assert np.all(m == 2.5)


def test_mean_requires_known_covariates():
    g = regular_grid([(0.0, 1.0)], [5])
    net = ProcessNetwork((
        ProcessNode("y", M11, mean=MeanSpec(("elevation",), (1.0,))),
    ))
    with pytest.raises(ValidationError):
        mean_at(net, 0, g.vertices)


def test_network_validation():
    with pytest.raises(ValidationError):
        ProcessNode("bad name", M11)
    with pytest.raises(ValidationError):
        ProcessNetwork((
            ProcessNode("y1", M11, parents=((0, zero()),)),  # self reference
        ))
    with pytest.raises(ValidationError):
        ProcessNetwork((
            ProcessNode("y1", M11),
            ProcessNode("y1", M21),  # duplicate name
        ))


def test_shift_dimension_checked_at_assembly():
    g = regular_grid([(0.0, 1.0), (0.0, 1.0)], [5, 5])
    net = ProcessNetwork((
        ProcessNode("y1", M11),
        ProcessNode("y2", M21, parents=((0, shifted_bisquare(1.0, 0.3, (-0.3,))),)),
    ))
    with pytest.raises((ValidationError, InvalidModelError)):
        assemble_dag(g, net)


def _map2d_like():
    g = regular_grid([(0.0, 1.0), (0.0, 1.0)], [8, 8])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 8.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.3, 12.0, 1.5), noise=0.1,
                    parents=((0, shifted_bisquare(30.0, 0.15, (0.1, -0.05))),)),
    ))
    rng = np.random.default_rng(11)
    obs = [Observations(q, rng.uniform(0.0, 1.0, (15, 2)),
                        rng.standard_normal(15)) for q in range(2)]
    return g, net, obs


def test_prediction_never_factors_the_grid_covariance(monkeypatch):
    """cokrige and loo_cv read observation and target covariances only."""
    def refuse(*args, **kwargs):
        raise InvalidModelError("the grid covariance was factored")

    monkeypatch.setattr(conditional, "chol_model", refuse)
    g, net, obs = _map2d_like()
    model = assemble_dag(g, net)
    on_grid = cokrige(model, obs, g.vertices, "y1")
    off_grid = cokrige(model, obs, np.array([[0.31, 0.77], [0.5, 0.05]]), "y2")
    loo = loo_cv(model, obs)
    for pred in (on_grid, off_grid):
        assert np.all(np.isfinite(pred.mean)) and np.all(pred.stderr > 0.0)
    assert len(loo.folds) == 30
    with pytest.raises(InvalidModelError):
        model.chol


def test_grid_covariance_is_factored_once_on_first_read(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return chol_model(*args, **kwargs)

    monkeypatch.setattr(conditional, "chol_model", counting)
    model = _biv(bisquare(5.0, 0.3), grid=regular_grid([(-1.0, 1.0)], [30]))
    assert calls == []
    L = model.chol
    assert model.jitter == 0.0
    first = sample_joint(model, seed=3)
    assert np.array_equal(sample_joint(model, seed=3), first)
    sample_joint(model, seed=3, index=1)
    assert len(calls) == 1 and calls[0][0] is model.matrix
    assert model.chol is L


def test_unfactorable_model_fails_at_first_read():
    """A near-rank-one grid covariance with jitter forbidden."""
    g = regular_grid([(0.0, 1.0)], [40])
    net = ProcessNetwork((ProcessNode("y", MaternParams(1.0, 1e-3, 2.5)),))
    model = assemble_dag(g, net, jitter_max=0.0)
    assert model.matrix.shape == (40, 40)
    with pytest.raises(InvalidModelError):
        model.chol
    with pytest.raises(InvalidModelError):
        model.jitter


_EDGE_KINDS = ("zero", "dirac", "bisquare", "shifted_bisquare", "tabulated")
_GRIDS = {1: regular_grid([(-1.0, 1.0)], [30]),
          2: regular_grid([(-1.0, 1.0)] * 2, [7, 6])}


def _trivariate(dim, kinds):
    """a, then b ~ a, then c ~ a, b, with edge kinds ``kinds`` (b~a, c~a, c~b)
    and parameters drawn from a stream keyed by the case."""
    rng = np.random.default_rng([dim] + [_EDGE_KINDS.index(k) for k in kinds])

    def edge(kind):
        if kind == "zero":
            return zero()
        if kind == "dirac":
            return dirac(float(rng.uniform(-1.5, 1.5)))
        if kind == "tabulated":
            return tabulated([-1.0, 1.0], [-1.0, 0.0, 1.0], rng.uniform(-1, 1, (2, 3)))
        amplitude = float(rng.uniform(-3.0, 3.0))
        aperture = float(rng.uniform(0.2, 0.6))
        if kind == "bisquare":
            return bisquare(amplitude, aperture)
        return shifted_bisquare(amplitude, aperture, rng.uniform(-0.3, 0.3, dim))

    def matern():
        return MaternParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(3.0, 20.0)),
                            float(rng.uniform(0.5, 2.5)))

    ba, ca, cb = (edge(k) for k in kinds)
    return ProcessNetwork((
        ProcessNode("a", matern(), nugget=0.02),
        ProcessNode("b", matern(), parents=((0, ba),), nugget=0.1),
        ProcessNode("c", matern(), parents=((0, ca), (1, cb)), nugget=0.05),
    ))


def _trivariate_cases():
    """Every edge kind in every edge position, in 1-d and (untabulated) 2-d."""
    for dim in (1, 2):
        kinds = _EDGE_KINDS if dim == 1 else _EDGE_KINDS[:4]
        for t in range(len(kinds)):
            chosen = tuple(kinds[(t + e) % len(kinds)] for e in range(3))
            yield pytest.param(dim, chosen, id=f"{dim}d-" + "-".join(chosen))


@pytest.mark.parametrize("dim, kinds", list(_trivariate_cases()))
def test_grid_covariance_is_the_closed_form(dim, kinds):
    """Y = B Y + e on the grid, so cov Y = (I - B)^-1 D (I - B)^-T."""
    grid = _GRIDS[dim]
    net = _trivariate(dim, kinds)
    n, p = grid.n, net.p
    B = np.zeros((p * n, p * n))
    D = np.zeros((p * n, p * n))
    for q, node in enumerate(net.nodes):
        rows = slice(q * n, (q + 1) * n)
        D[rows, rows] = matern_cov(node.covariance, grid.distance_matrix()) \
            + node.nugget * np.eye(n)
        for a, spec in node.parents:
            B[rows, a * n:(a + 1) * n] = build_interaction_matrix(grid, spec)
    # B is strictly block lower triangular, so B^3 = 0 for three variables
    inv = np.eye(p * n) + B + B @ B
    want = inv @ D @ inv.T
    got = assemble_dag(grid, net).matrix
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_cov(grid, network, sets):
    """The recursion CovarianceEvaluator replaced, as cov(q, r, i, j).

    Point set 0 is the grid and set i > 0 is ``sets[i - 1]``. A marginal
    block is the double sum over parent pairs, with one path for each of
    dirac x dirac, dirac x integral, integral x dirac and integral x
    integral; a cross block pushes the later variable's edges onto earlier
    blocks.
    """
    pts = [grid.vertices] + [np.atleast_2d(s) for s in sets]
    nodes = network.nodes
    memo = {}

    def weighted(q, pos, i):
        spec = nodes[q].parents[pos][1]
        return interaction_values(spec, pts[i], grid.vertices) * grid.weights[None, :]

    def cov(q, r, i, j):
        key = (q, r, i, j)
        if key in memo:
            return memo[key]
        if q > r or (q == r and i > j):
            memo[key] = cov(r, q, j, i).T
            return memo[key]
        if q == r:
            node = nodes[q]
            dist = grid.metric.pairwise(pts[i], pts[j])
            mat = matern_cov(node.covariance, dist) + node.nugget * (dist == 0.0)
            for apos, (a, sa) in enumerate(node.parents):
                for bpos, (b, sb) in enumerate(node.parents):
                    if InteractionKind.ZERO in (sa.kind, sb.kind):
                        continue
                    a_dirac = sa.kind is InteractionKind.DIRAC
                    b_dirac = sb.kind is InteractionKind.DIRAC
                    if a_dirac and b_dirac:
                        mat = mat + sa.amplitude * sb.amplitude * cov(a, b, i, j)
                    elif a_dirac:
                        mat = mat + sa.amplitude * (cov(a, b, i, 0) @ weighted(q, bpos, j).T)
                    elif b_dirac:
                        mat = mat + (weighted(q, apos, i) @ cov(a, b, 0, j)) * sb.amplitude
                    else:
                        mat = mat + (weighted(q, apos, i) @ cov(a, b, 0, 0)) \
                            @ weighted(q, bpos, j).T
        else:
            mat = np.zeros((pts[i].shape[0], pts[j].shape[0]))
            for apos, (a, sa) in enumerate(nodes[r].parents):
                if sa.kind is InteractionKind.DIRAC:
                    mat = mat + sa.amplitude * cov(q, a, i, j)
                elif sa.kind is not InteractionKind.ZERO:
                    mat = mat + cov(q, a, i, 0) @ weighted(r, apos, j).T
        memo[key] = mat
        return mat

    return cov


@pytest.mark.parametrize("dim, kinds", list(_trivariate_cases()))
def test_off_grid_blocks_equal_the_four_way_recursion(dim, kinds):
    grid = _GRIDS[dim]
    net = _trivariate(dim, kinds)
    rng = np.random.default_rng(3)
    S = rng.uniform(-0.9, 0.9, (11, dim))
    U = rng.uniform(-0.9, 0.9, (6, dim))
    ref = _reference_cov(grid, net, [S, U])
    model = assemble_dag(grid, net)
    for (i, A), (j, Z) in [((1, S), (1, S)), ((1, S), (2, U)), ((2, U), (1, S)),
                           ((1, S), (0, grid.vertices)), ((0, grid.vertices), (2, U))]:
        for q in range(net.p):
            for r in range(net.p):
                want = ref(q, r, i, j)
                got = cross_cov_matrix(model, q, r, A, Z)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), \
                    (q, r, i, j)
