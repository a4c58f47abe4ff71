"""Cokriging, CRPS scoring, and leave-one-out cross validation."""
import numpy as np
import pytest
from scipy import integrate, stats

import condcov.conditional
import condcov.predict
from condcov import (
    InsufficientDataError,
    MaternParams,
    MeanSpec,
    NumericalError,
    Observations,
    ParameterError,
    ProcessNetwork,
    ProcessNode,
    assemble_dag,
    bisquare,
    cokrige,
    crps_gaussian,
    dirac,
    krige,
    loo_cv,
    regular_grid,
    shifted_bisquare,
    summarize_folds,
    zero,
)
from condcov.conditional import kept_observations, mean_at, observation_covariance
from condcov.linalg import chol_solve, chol_with_jitter

M11 = MaternParams(1.0, 25.0, 1.5)
M21 = MaternParams(0.2, 75.0, 1.5)


def _model(spec, noise=0.25, n=60):
    from condcov import assemble_dag

    g = regular_grid([(-1.0, 1.0)], [n])
    net = ProcessNetwork((
        ProcessNode("y1", M11, noise=noise),
        ProcessNode("y2", M21, parents=((0, spec),), noise=noise),
    ))
    return assemble_dag(g, net)


class TestCrps:
    def test_standard_normal_at_center(self):
        got = crps_gaussian(0.0, 1.0, 0.0)
        assert abs(got - 0.23369497725510907) < 1e-14

    def test_point_forecast(self):
        assert crps_gaussian(5.0, 0.0, 5.0) == 0.0
        assert crps_gaussian(5.0, 0.0, 3.0) == 2.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = float(rng.normal())
            sigma = float(rng.uniform(0.1, 4))
            y = float(rng.normal())
            a = crps_gaussian(mu, sigma, y)
            b = sigma * crps_gaussian(0.0, 1.0, (y - mu) / sigma)
            assert np.isclose(a, b, rtol=1e-12)

    def test_matches_numerical_integral(self):
        def crps_num(mu, sigma, y):
            def ig(t):
                F = stats.norm.cdf(t, mu, sigma)
                return (F - (t >= y)) ** 2
            lo = min(mu, y) - 12 * sigma
            hi = max(mu, y) + 12 * sigma
            v1, _ = integrate.quad(ig, lo, y, limit=300)
            v2, _ = integrate.quad(ig, y, hi, limit=300)
            return v1 + v2

        rng = np.random.default_rng(17)
        for _ in range(10):
            mu = float(rng.normal(scale=2))
            sigma = float(rng.uniform(0.2, 3))
            y = float(rng.normal(scale=3))
            assert abs(crps_gaussian(mu, sigma, y) - crps_num(mu, sigma, y)) < 1e-6

    def test_equals_the_scipy_stats_closed_form(self):
        # crps_gaussian evaluates Phi and phi without scipy.stats; it must
        # agree bit for bit with norm.cdf and norm.pdf
        rng = np.random.default_rng(23)
        n = 100_000
        mu = rng.normal(scale=5.0, size=n)
        sigma = rng.uniform(1e-3, 5.0, n)
        y = mu + rng.uniform(-40.0, 40.0, n) * sigma
        y[:1000] = mu[:1000]  # z = 0 exactly
        sigma[1000:2000] = 0.0  # falls back to |y - mu|
        expected = np.abs(y - mu)
        pos = sigma > 0
        z = (y[pos] - mu[pos]) / sigma[pos]
        assert np.any(z == 0.0) and np.max(np.abs(z)) > 39.0
        expected[pos] = sigma[pos] * (
            z * (2.0 * stats.norm.cdf(z) - 1.0)
            + 2.0 * stats.norm.pdf(z)
            - 1.0 / np.sqrt(np.pi)
        )
        assert np.array_equal(crps_gaussian(mu, sigma, y), expected)
        assert crps_gaussian(mu[0], sigma[0], y[0]) == expected[0]

    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            crps_gaussian(0.0, -1.0, 0.0)
        # and NaN, for which sigma < 0 is False too
        with pytest.raises(ParameterError):
            crps_gaussian(0.0, np.nan, 1.0)
        with pytest.raises(ParameterError):
            crps_gaussian(np.zeros(3), np.array([1.0, np.nan, 0.0]), 1.0)

    def test_vector_broadcast(self):
        out = crps_gaussian(np.zeros(4), np.array([1.0, 1.0, 0.0, 2.0]),
                            np.array([0.0, 1.0, 3.0, 0.0]))
        assert out.shape == (4,)
        assert out[2] == 3.0
        assert np.isclose(out[3], 2 * out[0])


def test_zero_interaction_cokriging_equals_kriging():
    model = _model(zero())
    rng = np.random.default_rng(1)
    locs1 = rng.uniform(-1, 1, (12, 1))
    vals1 = rng.normal(size=12)
    obs = [
        Observations(0, locs1, vals1),
        Observations(1, rng.uniform(-1, 1, (9, 1)), rng.normal(size=9)),
    ]
    targets = rng.uniform(-1, 1, (15, 1))
    a = cokrige(model, obs, targets, 0)
    b = krige(model, obs[0], targets)
    assert b.jitter == 0.0
    assert np.max(np.abs(a.mean - b.mean)) < 1e-10
    assert np.max(np.abs(a.stderr - b.stderr)) < 1e-10


def test_noiseless_interpolation_is_exact():
    model = _model(shifted_bisquare(5.0, 0.3, (-0.3,)), noise=0.0)
    locs = np.array([[-0.61], [-0.13], [0.27], [0.8]])
    vals = np.array([1.2, -0.4, 0.0, 2.2])
    obs = [Observations(0, locs, vals)]
    r = cokrige(model, obs, locs, 0)
    assert np.max(np.abs(r.mean - vals)) < 1e-7
    assert np.max(r.stderr) < 1e-3


def test_prior_fallback_without_observations():
    model = _model(bisquare(5.0, 0.3))
    t = np.array([[0.0], [0.4]])
    r = cokrige(model, [], t, 0)
    assert np.allclose(r.mean, 0.0)
    # targets are process values: no noise in the prior sd
    assert np.allclose(r.stderr, 1.0)
    r2 = cokrige(model, [], t, 1)
    from condcov import cross_cov_at

    for i, loc in enumerate(t):
        marg = np.sqrt(cross_cov_at(model, 1, 1, loc, loc))
        assert np.isclose(r2.stderr[i], marg, rtol=1e-9)


def test_far_from_data_reverts_to_prior():
    model = _model(zero())
    obs = [Observations(0, np.array([[-0.95]]), np.array([3.0]))]
    r = cokrige(model, obs, np.array([[0.95]]), 0)
    # 1.9 units is ~47 correlation lengths at kappa=25
    assert abs(r.mean[0]) < 1e-6
    assert abs(r.stderr[0] - 1.0) < 1e-6


def test_duplicate_locations_with_noise():
    model = _model(zero(), noise=0.25)
    locs = np.array([[0.2], [0.2], [0.2]])
    vals = np.array([1.0, 1.3, 0.7])
    r = cokrige(model, [Observations(0, locs, vals)], np.array([[0.2]]), 0)
    # posterior mean shrinks the replicate average toward the prior
    assert 0.5 < r.mean[0] < 1.0
    assert np.isfinite(r.stderr[0])


def test_more_data_never_hurts():
    """Posterior standard errors are monotone in the conditioning set."""
    model = _model(shifted_bisquare(5.0, 0.3, (-0.3,)))
    rng = np.random.default_rng(23)
    locs = rng.uniform(-1, 1, (16, 1))
    vals = rng.normal(size=16)
    targets = rng.uniform(-1, 1, (8, 1))
    prev = None
    for m in (4, 8, 16):
        r = cokrige(model, [Observations(0, locs[:m], vals[:m])], targets, 1)
        if prev is not None:
            assert np.all(r.stderr <= prev + 1e-9)
        prev = r.stderr


def test_second_variable_tightens_prediction():
    model = _model(shifted_bisquare(5.0, 0.3, (-0.3,)))
    rng = np.random.default_rng(31)
    locs1 = rng.uniform(-1, 1, (10, 1))
    vals1 = rng.normal(size=10)
    locs2 = rng.uniform(-1, 1, (10, 1))
    vals2 = rng.normal(size=10)
    targets = rng.uniform(-1, 1, (12, 1))
    both = cokrige(model, [Observations(0, locs1, vals1),
                           Observations(1, locs2, vals2)], targets, 1)
    own = krige(model, Observations(1, locs2, vals2), targets)
    assert np.all(both.stderr <= own.stderr + 1e-9)


def test_prediction_result_fields():
    model = _model(zero())
    r = cokrige(model, [], np.array([[0.0]]), 1)
    assert r.variable == 1
    assert r.locations.shape == (1, 1)
    assert r.jitter == 0.0


def test_summarize_folds():
    with pytest.raises(InsufficientDataError):
        summarize_folds([], [])
    out = summarize_folds([3.0, -4.0], [0.5, 1.5])
    assert out["MAE"] == 3.5
    assert np.isclose(out["RMSPE"], np.sqrt(12.5))
    assert out["MCRPS"] == 1.0
    assert set(out) == {"MAE", "RMSPE", "MCRPS"}


class TestLoo:
    @staticmethod
    def _obs(n=12, seed=2):
        rng = np.random.default_rng(seed)
        return [
            Observations(0, rng.uniform(-1, 1, (n, 1)), rng.normal(size=n)),
            Observations(1, rng.uniform(-1, 1, (n, 1)), rng.normal(size=n)),
        ]

    def test_needs_two_observations(self):
        model = _model(zero())
        with pytest.raises(InsufficientDataError):
            loo_cv(model, [Observations(0, np.array([[0.1]]), np.array([1.0]))])

    def test_summary_per_variable(self):
        model = _model(bisquare(5.0, 0.3))
        res = loo_cv(model, self._obs())
        assert set(res.summary) == {"y1", "y2"}
        for v in res.summary.values():
            assert set(v) == {"MAE", "RMSPE", "MCRPS"}
            assert all(np.isfinite(x) for x in v.values())
        assert len(res.folds) == 24

    def test_colocated_observations_dropped_together(self):
        """A held-out location must not leak through a colocated observation."""
        model = _model(dirac(2.0), noise=0.01)
        rng = np.random.default_rng(9)
        locs = rng.uniform(-1, 1, (8, 1))
        y1 = rng.normal(size=8)
        # y2 observed at the same points, strongly coupled through the Dirac
        y2 = 2.0 * y1 + 0.05 * rng.normal(size=8)
        res = loo_cv(model, [Observations(0, locs, y1), Observations(1, locs, y2)])
        # if the colocated y2 leaked, y1 predictions would be near perfect;
        # honest folds keep a visible error
        y1_folds = [f for f in res.folds if f.variable == 0]
        assert len(y1_folds) == 8
        rmse = np.sqrt(np.mean([f.error ** 2 for f in y1_folds]))
        assert rmse > 0.1

    def test_fold_errors_consistent(self):
        model = _model(zero())
        res = loo_cv(model, self._obs(n=6, seed=4))
        for f in res.folds:
            assert np.isclose(f.error, f.observed - f.mean, atol=1e-12)


def _loo_reference(model, obs):
    """The per-fold path that loo_cv replaced: one Cholesky per location group.

    Returns the fold (variable, location, observed) keys and the arrays of
    fold means, stderrs and CRPS, in fold order.
    """
    kept = kept_observations(model.grid, model.network, obs)
    C, z = observation_covariance(model.evaluator, kept)
    variables = np.concatenate([np.full(o.m, o.variable) for o in kept])
    locations = np.vstack([o.locations for o in kept])
    values = np.concatenate([o.values for o in kept])
    means = np.concatenate(
        [mean_at(model.network, o.variable, o.locations) for o in kept]
    )
    groups = {}
    for idx, key in enumerate(map(tuple, locations)):
        groups.setdefault(key, []).append(idx)
    all_idx = np.arange(values.size)
    keys, scores = [], []
    for key in sorted(groups):
        held = np.array(groups[key])
        retained = np.setdiff1d(all_idx, held)
        L, _ = chol_with_jitter(C[np.ix_(retained, retained)])
        alpha = chol_solve(L, z[retained])
        cross = C[np.ix_(retained, held)]
        w = chol_solve(L, cross)
        pred_mean = means[held] + cross.T @ alpha
        pred_var = np.diag(C)[held] - np.einsum("mh,mh->h", cross, w)
        pred_sd = np.sqrt(np.clip(pred_var, 0.0, None))
        for pos, h in enumerate(held):
            keys.append((int(variables[h]), key, float(values[h])))
            scores.append((pred_mean[pos], pred_sd[pos],
                           crps_gaussian(pred_mean[pos], pred_sd[pos], values[h])))
    return keys, np.array(scores).T


def _loo_case_1d_bisquare():
    return _model(bisquare(5.0, 0.3)), TestLoo._obs()


def _loo_case_1d_dirac_colocated():
    rng = np.random.default_rng(9)
    locs = rng.uniform(-1, 1, (8, 1))
    y1 = rng.normal(size=8)
    obs = [Observations(0, locs, y1),
           Observations(1, locs, 2.0 * y1 + 0.05 * rng.normal(size=8))]
    return _model(dirac(2.0), noise=0.01), obs


def _loo_case_2d_shifted():
    from condcov import assemble_dag

    g = regular_grid([(-1.0, 1.0)] * 2, [10, 10])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 4.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.3, 6.0, 0.5),
                    parents=((0, shifted_bisquare(1.5, 0.5, (-0.2, 0.1))),),
                    noise=0.2),
    ))
    rng = np.random.default_rng(21)
    shared = rng.uniform(-1, 1, (5, 2))
    obs = [Observations(q, np.vstack([shared, rng.uniform(-1, 1, (7 + q, 2))]),
                        rng.normal(size=12 + q))
           for q in range(2)]
    return assemble_dag(g, net), obs


def _loo_case_trivariate_mean():
    from condcov import assemble_dag

    g = regular_grid([(-1.0, 1.0)], [40])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 4.0, 1.5), noise=0.1,
                    mean=MeanSpec(("const", "x"), (1.0, 0.5))),
        ProcessNode("y2", MaternParams(0.3, 6.0, 0.5), parents=((0, dirac(0.7)),),
                    nugget=0.05, noise=0.2),
        ProcessNode("y3", MaternParams(0.2, 3.0, 2.5),
                    parents=((0, bisquare(-0.8, 0.4)),
                             (1, shifted_bisquare(1.5, 0.5, (0.2,)))),
                    noise=0.05),
    ))
    rng = np.random.default_rng(3)
    shared = rng.uniform(-1, 1, (4, 1))  # sites observed for every variable
    obs = [Observations(q, np.vstack([shared, rng.uniform(-1, 1, (5 + q, 1))]),
                        rng.normal(size=9 + q))
           for q in range(3)]
    return assemble_dag(g, net), obs


def _loo_case_jittered():
    """Zero noise and duplicated y1 sites: the full C is singular."""
    rng = np.random.default_rng(0)
    locs = rng.uniform(-1, 1, (10, 1))
    vals = rng.normal(size=10)
    obs = [Observations(0, np.vstack([locs, locs[:3]]),
                        np.concatenate([vals, vals[:3]])),
           Observations(1, rng.uniform(-1, 1, (8, 1)), rng.normal(size=8))]
    return _model(bisquare(5.0, 0.3), noise=0.0), obs


def _fold_keys(result):
    return [(f.variable, f.location, f.observed) for f in result.folds]


def _fold_scores(result):
    return np.array([[f.mean, f.stderr, f.crps] for f in result.folds]).T


@pytest.mark.parametrize("case", [
    _loo_case_1d_bisquare, _loo_case_1d_dirac_colocated,
    _loo_case_2d_shifted, _loo_case_trivariate_mean,
])
def test_loo_matches_per_fold_reference(case):
    model, obs = case()
    result = loo_cv(model, obs)
    keys, want = _loo_reference(model, obs)
    assert _fold_keys(result) == keys
    assert result.jitter == 0.0
    for got_row, want_row in zip(_fold_scores(result), want):
        assert np.allclose(got_row, want_row, rtol=1e-10, atol=1e-12)


def test_loo_jittered_folds_are_those_of_the_jittered_covariance():
    model, obs = _loo_case_jittered()
    result = loo_cv(model, obs)
    keys, want = _loo_reference(model, obs)
    assert result.jitter > 0.0
    assert _fold_keys(result) == keys
    for got_row, want_row in zip(_fold_scores(result), want):
        assert np.allclose(got_row, want_row, rtol=1e-4, atol=0.0)


def test_prediction_factors_with_the_model_jitter_ceiling():
    model, obs = _loo_case_jittered()
    targets = np.array([[0.1], [0.5]])
    assert cokrige(model, obs, targets, 0).jitter > 0.0
    assert loo_cv(model, obs).jitter > 0.0
    strict = assemble_dag(model.grid, model.network, jitter_max=0.0)
    with pytest.raises(NumericalError):
        cokrige(strict, obs, targets, 0)
    with pytest.raises(NumericalError):
        loo_cv(strict, obs)


def test_loo_factors_the_observation_covariance_once(monkeypatch):
    calls = []
    real = condcov.predict.chol_with_jitter

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(condcov.predict, "chol_with_jitter", counting)
    res = loo_cv(_model(bisquare(5.0, 0.3)), TestLoo._obs(n=12))
    assert len(res.folds) == 24
    assert len(calls) == 1


def test_one_location_fails_before_building_the_covariance(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("observation covariance built")

    for module in (condcov.conditional, condcov.predict):
        monkeypatch.setattr(module, "observation_covariance", boom)
    site = np.array([[0.3]])
    obs = [Observations(0, site, np.array([1.0])),
           Observations(1, site, np.array([2.0]))]
    with pytest.raises(InsufficientDataError, match="share one location"):
        loo_cv(_model(bisquare(5.0, 0.3)), obs)


def test_a_non_finite_cross_covariance_fails_cleanly(monkeypatch):
    # the triangular solves skip scipy's finiteness check, so an inf in the
    # target-to-observation covariance must stop cokrige before them; with a
    # finite prior and observation covariance that takes rounding, so the
    # block is made non-finite here
    g = regular_grid([(-1.0, 1.0)], [60])
    net = ProcessNetwork((
        ProcessNode("y1", M11, noise=0.25),
        ProcessNode("y2", M21, parents=((0, bisquare(5.0, 0.3)),), noise=0.25),
    ))
    obs = [Observations(0, np.linspace(-0.9, 0.9, 5)[:, None],
                        np.linspace(-1.0, 1.0, 5))]
    block = condcov.predict.cross_cov_matrix

    def overflowing(model, a, b, xa, xb):
        out = block(model, a, b, xa, xb)
        return out if a == b else np.full_like(out, np.inf)

    monkeypatch.setattr(condcov.predict, "cross_cov_matrix", overflowing)
    with pytest.raises(NumericalError, match="cross-covariance"):
        cokrige(assemble_dag(g, net), obs, np.array([[0.123]]), "y2")


@pytest.mark.parametrize("observed", [True, False], ids=["y1-observed",
                                                         "prior-only"])
def test_an_overflowing_prior_variance_fails_cleanly(observed):
    # y2 <- y1 through amplitude 1e308: var(y2) overflows at an off-grid
    # target; it used to come out as a NaN stderr (inf - inf) with observed
    # y1, and an infinite one with nothing observed
    g = regular_grid([(-1.0, 1.0)], [60])
    net = ProcessNetwork((
        ProcessNode("y1", M11, noise=0.25),
        ProcessNode("y2", M21, parents=((0, bisquare(1e308, 10.0)),),
                    noise=0.25),
    ))
    obs = [Observations(0, np.linspace(-0.9, 0.9, 5)[:, None],
                        np.linspace(-1.0, 1.0, 5))] if observed else []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="prior variance"):
            cokrige(assemble_dag(g, net), obs, np.array([[0.123]]), "y2")


def test_an_overflowing_mean_fails_cleanly():
    # the residuals z = y - mean overflow to -inf for x > 0; every solve
    # against z sees them checked once
    from condcov import loglik

    g = regular_grid([(-1.0, 1.0)], [60])
    net = ProcessNetwork((
        ProcessNode("y1", M11, noise=0.25,
                    mean=MeanSpec(("const", "x"), (1e308, 1e308))),))
    obs = [Observations(0, np.linspace(-0.9, 0.9, 5)[:, None],
                        np.linspace(-1.0, 1.0, 5))]
    model = assemble_dag(g, net)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="residuals"):
            cokrige(model, obs, np.array([[0.1]]), 0)
        with pytest.raises(NumericalError, match="residuals"):
            loo_cv(model, obs)
        assert loglik(g, net, obs) == -np.inf


def _cokrige_two_solves(model, obs, targets, q):
    """cokrige's mean and stderr with the variance from two triangular
    solves, c (C^-1 c^T) read on the diagonal, as before one forward solve."""
    kept = kept_observations(model.grid, model.network, obs)
    prior = np.diag(condcov.conditional.cross_cov_matrix(model, q, q, targets, targets))
    C, z = observation_covariance(model.evaluator, kept)
    c = np.hstack([condcov.conditional.cross_cov_matrix(
        model, q, o.variable, targets, o.locations) for o in kept])
    L, jitter = chol_with_jitter(C, model.jitter_max)
    mean = mean_at(model.network, q, targets) + c @ chol_solve(L, z)
    var = prior - np.einsum("tm,mt->t", c, chol_solve(L, c.T))
    return mean, np.sqrt(np.clip(var, 0.0, None)), prior, jitter


@pytest.mark.parametrize("case", [
    pytest.param(_loo_case_1d_bisquare, id="1d"),
    pytest.param(_loo_case_2d_shifted, id="2d-shifted"),
    pytest.param(_loo_case_jittered, id="1d-jittered"),
])
@pytest.mark.parametrize("on_grid", [True, False], ids=["on-grid", "off-grid"])
def test_cokrige_stderr_matches_the_two_solve_form(case, on_grid):
    model, obs = case()
    if on_grid:
        targets = model.grid.vertices
    else:
        rng = np.random.default_rng(12)
        targets = rng.uniform(-1.0, 1.0, (37, model.grid.dim))
    for q in range(model.p):
        got = cokrige(model, obs, targets, q)
        mean, stderr, prior, jitter = _cokrige_two_solves(model, obs, targets, q)
        assert got.jitter == jitter
        assert (jitter > 0.0) == (case is _loo_case_jittered)
        assert np.array_equal(got.mean, mean)
        # the variance is prior - c C^-1 c^T, so both forms round it on the
        # scale of the prior; where the data explain nearly all of the prior
        # a stderr is far smaller than that scale, and only the variance
        # keeps the relative bound
        np.testing.assert_allclose(got.stderr ** 2, stderr ** 2, rtol=0.0,
                                   atol=1e-12 * prior.max())
        kept = stderr ** 2 >= 1e-2 * prior
        assert kept.sum() >= targets.shape[0] // 2
        np.testing.assert_allclose(got.stderr[kept], stderr[kept],
                                   rtol=1e-12, atol=0.0)


def test_the_variances_are_solved_in_the_memory_of_c(monkeypatch):
    model, obs = _loo_case_2d_shifted()
    targets = model.grid.vertices
    solve = condcov.predict.solve_triangular
    calls = []

    def in_place(a, b, **kwargs):
        x = solve(a, b, **kwargs)
        calls.append((kwargs.get("overwrite_b"), np.shares_memory(x, b)))
        return x

    def copying(a, b, **kwargs):
        return solve(a, b, **{**kwargs, "overwrite_b": False})

    monkeypatch.setattr(condcov.predict, "solve_triangular", in_place)
    got = cokrige(model, obs, targets, 1)
    assert calls == [(True, True)]
    monkeypatch.setattr(condcov.predict, "solve_triangular", copying)
    want = cokrige(model, obs, targets, 1)
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.stderr.tobytes() == want.stderr.tobytes()
    # c is a new array, never a kept block: a second call reads the same
    monkeypatch.setattr(condcov.predict, "solve_triangular", solve)
    once = krige(model, obs[0], targets)
    again = krige(model, obs[0], targets)
    assert once.stderr.tobytes() == again.stderr.tobytes()


def test_loo_cv_in_the_map2d_shape_peaks_below_5_mb():
    import tracemalloc

    # bench/workloads.py's Map2d: a 40 x 40 grid, 250 sites with both
    # variables observed, a shifted edge
    grid = regular_grid([(0.0, 1.0), (0.0, 1.0)], [40, 40])
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 8.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.3, 12.0, 1.5), noise=0.1,
                    parents=((0, shifted_bisquare(30.0, 0.15, (0.1, -0.05))),)),
    ))
    rng = np.random.default_rng(40)
    sites = rng.uniform(0.0, 1.0, (250, 2))
    obs = [Observations(q, sites, rng.standard_normal(250)) for q in (0, 1)]
    model = assemble_dag(grid, network)
    # the evaluator's blocks are cached first, as after a prediction
    observation_covariance(model.evaluator, kept_observations(grid, network, obs))
    tracemalloc.start()
    try:
        result = loo_cv(model, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.folds) == 500
    # C (500 x 500, 2 MB) becomes L and then L^-1 in one array; the inverse
    # (LL')^-1 of the form it replaced, with its copy and P + P', peaked at
    # 6.1 MB
    assert peak < 5e6
