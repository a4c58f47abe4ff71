"""Likelihood evaluation, parameter addressing, and maximum likelihood fits."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from condcov import (
    InsufficientDataError,
    JointModel,
    MaternParams,
    MeanSpec,
    Observations,
    OptimizerConfig,
    ParameterError,
    ProcessNetwork,
    ProcessNode,
    ValidationError,
    assemble_dag,
    bisquare,
    cross_cov_matrix,
    default_free_parameters,
    dirac,
    fit_mle,
    get_parameter,
    list_parameters,
    loglik,
    mean_at,
    read_params,
    regular_grid,
    sample_joint,
    set_parameter,
    shifted_bisquare,
    tabulated,
    write_fit_result,
    zero,
)
from condcov.inference import compare_directions, reverse_bivariate

GRID = regular_grid([(-1.0, 1.0)], [40])


def _bivariate(spec=None, noise=0.25):
    spec = spec if spec is not None else shifted_bisquare(5.0, 0.3, (-0.3,))
    return ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=noise),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5),
                    parents=((0, spec),), noise=noise),
    ))


def test_loglik_single_standard_observation():
    # unit variance, zero mean, one observation at zero: -log(2 pi)/2
    net = ProcessNetwork((ProcessNode("y", MaternParams(1.0, 25.0, 1.5)),))
    obs = [Observations(0, np.array([[0.105]]), np.array([0.0]))]
    got = loglik(GRID, net, obs)
    assert abs(got - (-0.9189385332046727)) < 1e-12


def test_loglik_adds_over_independent_blocks():
    net = _bivariate(zero())
    rng = np.random.default_rng(3)
    o1 = Observations(0, rng.uniform(-1, 1, (6, 1)), rng.normal(size=6))
    o2 = Observations(1, rng.uniform(-1, 1, (5, 1)), rng.normal(size=5))
    only1 = ProcessNetwork((net.nodes[0],))
    only2 = ProcessNetwork((ProcessNode("y2", MaternParams(0.2, 75.0, 1.5), noise=0.25),))
    joint = loglik(GRID, net, [o1, o2])
    sep = loglik(GRID, only1, [o1]) + loglik(
        GRID, only2, [Observations(0, o2.locations, o2.values)])
    assert np.isclose(joint, sep, rtol=0, atol=1e-9)


def test_loglik_permutation_invariant():
    net = _bivariate()
    rng = np.random.default_rng(8)
    locs = rng.uniform(-1, 1, (7, 1))
    vals = rng.normal(size=7)
    perm = rng.permutation(7)
    a = loglik(GRID, net, [Observations(0, locs, vals)])
    b = loglik(GRID, net, [Observations(0, locs[perm], vals[perm])])
    assert np.isclose(a, b, rtol=0, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_loglik_matches_reference_density(dim):
    """loglik equals a Gaussian log-density built from the public API."""
    grid = regular_grid([(-1.0, 1.0)] * dim, [30] if dim == 1 else [8, 8])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 4.0, 1.5), noise=0.1,
                    mean=MeanSpec(("const", "x"), (1.0, 0.5))),
        ProcessNode("y2", MaternParams(0.3, 6.0, 0.5), parents=((0, dirac(0.7)),),
                    nugget=0.05, noise=0.2),
        ProcessNode("y3", MaternParams(0.2, 3.0, 2.5),
                    parents=((1, bisquare(1.5, 0.5)),), noise=0.05),
    ))
    rng = np.random.default_rng(dim)
    shared = rng.uniform(-1, 1, (4, dim))  # sites observed for every variable
    obs = [
        Observations(q, np.vstack([shared, rng.uniform(-1, 1, (5 + q, dim))]),
                     rng.normal(size=9 + q))
        for q in range(3)
    ]
    model = assemble_dag(grid, net)
    cov = np.block([
        [cross_cov_matrix(model, a.variable, b.variable, a.locations, b.locations)
         for b in obs]
        for a in obs
    ])
    cov += np.diag(np.concatenate(
        [np.full(o.m, net.nodes[o.variable].noise) for o in obs]))
    resid = np.concatenate(
        [o.values - mean_at(net, o.variable, o.locations) for o in obs])
    want = multivariate_normal.logpdf(resid, cov=cov)
    assert loglik(grid, net, obs) == pytest.approx(want, rel=1e-10)


class TestParameterAddressing:
    net = _bivariate()

    def test_listing(self):
        names = list_parameters(self.net)
        assert "y1.variance" in names
        assert "y2~y1.amplitude" in names
        assert "y2~y1.shift1" in names
        assert names == sorted(names, key=names.index)  # stable order

    def test_default_free_excludes_noise(self):
        free = default_free_parameters(self.net)
        assert not any(name.endswith(".noise") for name in free)
        assert "y2~y1.aperture" in free

    def test_zero_edge_has_no_edge_parameters(self):
        free = default_free_parameters(_bivariate(zero()))
        assert not any("~" in name for name in free)

    def test_get_set_roundtrip(self):
        for name in list_parameters(self.net):
            val = get_parameter(self.net, name)
            net2 = set_parameter(self.net, name, val + 0.01)
            assert np.isclose(get_parameter(net2, name), val + 0.01)
            # original is untouched
            assert get_parameter(self.net, name) == val

    def test_shift_component(self):
        assert get_parameter(self.net, "y2~y1.shift1") == -0.3
        net2 = set_parameter(self.net, "y2~y1.shift1", 0.1)
        assert get_parameter(net2, "y2~y1.shift1") == 0.1

    def test_unknown_names_rejected(self):
        with pytest.raises(ValidationError):
            get_parameter(self.net, "y3.variance")
        with pytest.raises(ValidationError):
            get_parameter(self.net, "y2~y1.nope")
        with pytest.raises(ValidationError):
            set_parameter(self.net, "y1.shift1", 0.0)  # nodes have no shift


def _synthetic_obs(net, seed, noise_sd=0.5):
    from condcov import assemble_dag

    model = assemble_dag(GRID, net)
    fields = sample_joint(model, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    obs = []
    for q in range(2):
        z = fields[q] + noise_sd * rng.standard_normal(GRID.n)
        obs.append(Observations(q, GRID.vertices, z))
    return obs


def test_fit_requires_free_parameters():
    with pytest.raises(ValidationError):
        fit_mle(GRID, _bivariate(), [], free=[])


_SITES = np.linspace(-0.9, 0.9, 5)[:, None]


@pytest.mark.parametrize("grid, obs, error, match", [
    pytest.param(GRID, [Observations(0, np.hstack([_SITES, _SITES]), np.zeros(5))],
                 ValidationError, "2-d", id="wrong-dimension"),
    pytest.param(GRID, [Observations(2, _SITES, np.zeros(5))],
                 ValidationError, "variable 2", id="variable-out-of-range"),
    pytest.param(GRID, [], InsufficientDataError, "observation",
                 id="no-observations"),
    pytest.param(regular_grid([(-1.0, 1.0)] * 2, [6, 6]),
                 [Observations(1, np.hstack([_SITES, _SITES]), np.zeros(5))],
                 ValidationError, "'y2'", id="shift-dimension"),
])
def test_fit_rejects_bad_input_before_optimizing(grid, obs, error, match):
    # not an OptimizationError after every restart has scored -inf
    with pytest.raises(error, match=match):
        fit_mle(grid, _bivariate(), obs, free=["y1.variance"],
                config=OptimizerConfig(restarts=2, max_evals=20))


_QUICK = OptimizerConfig(restarts=1, max_evals=20)
_JITTER_ENTRIES = {
    "assemble_dag": lambda net, obs, jm: assemble_dag(GRID, net, jm),
    "JointModel": lambda net, obs, jm: JointModel(GRID, net, jm),
    "loglik": lambda net, obs, jm: loglik(GRID, net, obs, jm),
    "fit_mle": lambda net, obs, jm: fit_mle(
        GRID, net, obs, free=["y1.variance"], config=_QUICK, jitter_max=jm),
    "compare_directions": lambda net, obs, jm: compare_directions(
        GRID, net, obs, free=["y1.variance"], config=_QUICK, jitter_max=jm),
}


@pytest.mark.parametrize("jitter_max", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("entry", list(_JITTER_ENTRIES))
def test_an_unusable_jitter_ceiling_is_a_parameter_error(entry, jitter_max):
    # these covariances factor without jitter, so only the check of the
    # ceiling itself can reject it
    obs = [Observations(0, _SITES, np.linspace(-1.0, 1.0, 5))]
    with pytest.raises(ParameterError, match="jitter_max must be finite"):
        _JITTER_ENTRIES[entry](_bivariate(), obs, jitter_max)


_GRID_2D = regular_grid([(-1.0, 1.0)] * 2, [6, 6])
_SITES_2D = np.hstack([_SITES, _SITES[::-1]])


_UNEVALUABLE = [
    pytest.param(_GRID_2D, _bivariate(tabulated([0.0, 1.0], [0.0, 1.0],
                                                 [[1.0, 0.5], [0.5, 1.0]])),
                 [Observations(1, _SITES_2D, np.zeros(5))],
                 "'y2'.*tabulated", id="tabulated-on-2d-grid"),
    pytest.param(GRID, ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25,
                    mean=MeanSpec(("const", "elev"), (1.0, 0.5))),)),
                 [Observations(0, _SITES, np.zeros(5))],
                 "'y1'.*'elev'", id="unknown-covariate"),
    pytest.param(GRID, ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25,
                    mean=MeanSpec(("y",), (0.5,))),)),
                 [Observations(0, _SITES, np.zeros(5))],
                 "'y1'.*'y'", id="coordinate-the-grid-lacks"),
]


@pytest.mark.parametrize("grid, network, obs, match", _UNEVALUABLE)
def test_fit_rejects_a_network_the_grid_cannot_evaluate(grid, network, obs,
                                                       match):
    # each used to score -inf at every evaluation: OptimizationError
    with pytest.raises(ValidationError, match=match):
        fit_mle(grid, network, obs, free=["y1.variance"],
                config=OptimizerConfig(restarts=2, max_evals=20))
    with pytest.raises(ValidationError, match=match):
        assemble_dag(grid, network)


@pytest.mark.parametrize("entry", ["JointModel", "loglik"])
@pytest.mark.parametrize("grid, network, obs, match", _UNEVALUABLE + [
    pytest.param(_GRID_2D, _bivariate(), [Observations(1, _SITES_2D, np.zeros(5))],
                 "'y2'.*shift", id="shift-dimension"),
])
def test_every_entry_checks_the_network_against_the_grid(entry, grid, network,
                                                         obs, match):
    # bisquare values broadcast a 1-component shift over 2-d displacements
    # without complaint, so only this check stops it
    with pytest.raises(ValidationError, match=match):
        if entry == "JointModel":
            JointModel(grid, network)
        else:
            loglik(grid, network, obs)


def test_an_overflowing_covariance_scores_minus_inf():
    # the y2 marginal overflows to inf: the likelihood is -inf, and a fit
    # that finds nothing else fails as an optimization, not a traceback
    from condcov.errors import NumericalError, OptimizationError
    from condcov.linalg import chol_with_jitter

    net = _bivariate(shifted_bisquare(1e200, 0.3, (-0.3,)))
    obs = [Observations(q, _SITES, np.linspace(-1.0, 1.0, 5)) for q in range(2)]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert loglik(GRID, net, obs) == -np.inf
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(OptimizationError, match="-inf at every evaluation"):
        fit_mle(GRID, net, obs, free=["y2~y1.amplitude"], config=_QUICK)
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericalError, match="non-finite"):
            chol_with_jitter(np.array([[1.0, 0.0], [0.0, bad]]))


def test_a_restart_rejected_everywhere_ends_once_its_simplex_has_shrunk(
        monkeypatch):
    # Nelder-Mead cannot stop on a simplex that is -inf everywhere; each
    # restart used to run to max_evals (6,000 evaluations here). It now ends
    # after the n + 1 simplex points and the steps of n + 2 evaluations that
    # halve the simplex from its 5% start to within 1e-6 of the point
    import condcov.inference
    from condcov.errors import OptimizationError

    net = _bivariate(shifted_bisquare(1e200, 0.3, (-0.3,)))
    obs = [Observations(q, _SITES, np.linspace(-1.0, 1.0, 5)) for q in range(2)]
    free = ["y2~y1.amplitude", "y2~y1.aperture"]
    calls = []
    score = condcov.inference._Split.score

    def counted(*args):
        calls.append(None)
        return score(*args)

    monkeypatch.setattr(condcov.inference._Split, "score", counted)
    n = len(free)
    steps = int(np.ceil(np.log2(0.05 / 1e-6))) + 2
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(OptimizationError, match="-inf at every evaluation"):
        fit_mle(GRID, net, obs, free=free,
                config=OptimizerConfig(restarts=3, max_evals=2000))
    assert len(calls) <= 3 * (n + 1 + steps * (n + 2))


def _variance_capped(monkeypatch, cap):
    """Make every covariance whose mean diagonal exceeds ``cap`` unfactorable."""
    import condcov.inference
    from condcov.errors import NumericalError

    factor = condcov.inference.chol_with_jitter

    def capped(mat, jitter_max):
        if np.mean(np.diag(mat)) > cap:
            raise NumericalError("refused")
        return factor(mat, jitter_max)

    monkeypatch.setattr(condcov.inference, "chol_with_jitter", capped)


def _one_node(variance):
    net = ProcessNetwork((ProcessNode("y", MaternParams(variance, 5.0, 1.5),
                                      noise=0.1),))
    rng = np.random.default_rng(2)
    return net, [Observations(0, rng.uniform(-1, 1, (10, 1)),
                              rng.normal(size=10))]


def test_a_rejected_restart_is_traced_as_not_converged(monkeypatch):
    # variance 1e4 with variances above 1e3 refused: the first restart never
    # leaves the refused region; with seed 3 the second starts at variance
    # 1.1 and fits as it does when nothing is refused
    net, obs = _one_node(1e4)
    cfg = OptimizerConfig(seed=3, restarts=2, max_evals=200)
    clean = fit_mle(GRID, net, obs, free=["y.variance"], config=cfg)
    _variance_capped(monkeypatch, 1e3)
    fit = fit_mle(GRID, net, obs, free=["y.variance"], config=cfg)
    first, second = fit.trace
    assert first["nfev"] < 60
    assert first["loglik"] == -np.inf
    assert not first["converged"]
    assert "rejected" in first["message"]
    assert second == clean.trace[1]
    assert fit.rejected == first["nfev"]


def test_a_rejected_start_still_escapes_to_a_finite_point(monkeypatch):
    # variance 1060 with variances above 1e3 refused: the start and the
    # other simplex point are refused, the reflected point (variance ~750)
    # is not, and the restart goes on as plain Nelder-Mead does
    net, obs = _one_node(1060.0)
    cfg = OptimizerConfig(seed=0, restarts=1, max_evals=200)
    _variance_capped(monkeypatch, 1e3)
    fit = fit_mle(GRID, net, obs, free=["y.variance"], config=cfg)
    fitted, ll, nfev = _fresh_evaluation_fit(GRID, net, obs, ["y.variance"],
                                             cfg)
    assert fit.rejected >= 2
    assert np.isfinite(fit.loglik)
    assert fit.network == fitted
    assert fit.loglik == ll
    assert [t["nfev"] for t in fit.trace] == nfev


def test_a_rejected_fit_at_small_coordinates_fails_without_a_warning(
        monkeypatch):
    # an amplitude of 0.5 is its own coordinate: the simplex shrinks within
    # the absolute x tolerance before the relative all-rejected stop, and the
    # convergence test used to take inf - inf, a RuntimeWarning (an error
    # under the test settings) in place of OptimizationError
    from condcov.errors import OptimizationError

    net = _bivariate(shifted_bisquare(0.5, 0.3, (-0.3,)))
    obs = [Observations(q, _SITES, np.linspace(-1.0, 1.0, 5)) for q in range(2)]
    _variance_capped(monkeypatch, -np.inf)
    with pytest.raises(OptimizationError, match="-inf at every evaluation"):
        fit_mle(GRID, net, obs, free=["y2~y1.amplitude"],
                config=OptimizerConfig(restarts=2, max_evals=200))


def test_fit_aic_identity_and_determinism():
    net = _bivariate(bisquare(5.0, 0.3))
    obs = _synthetic_obs(net, seed=42)
    cfg = OptimizerConfig(seed=7, restarts=2, max_evals=300)
    fit1 = fit_mle(GRID, net, obs, free=["y2~y1.amplitude"], config=cfg)
    fit2 = fit_mle(GRID, net, obs, free=["y2~y1.amplitude"], config=cfg)
    assert fit1.aic == -2.0 * fit1.loglik + 2.0 * fit1.k
    assert fit1.k == 1
    assert fit1.estimates == fit2.estimates
    assert fit1.loglik == fit2.loglik
    # the fitted network carries the estimate
    assert np.isclose(get_parameter(fit1.network, "y2~y1.amplitude"),
                      fit1.estimates["y2~y1.amplitude"])


def test_fit_recovers_variance():
    # short correlation length so one field carries many effective dof
    truth = ProcessNetwork((ProcessNode("y", MaternParams(1.0, 100.0, 1.5),
                                        noise=0.25),))
    g = regular_grid([(-1.0, 1.0)], [400])
    from condcov import assemble_dag

    model = assemble_dag(g, truth)
    f = sample_joint(model, seed=3)[0]
    rng = np.random.default_rng(0)
    vals = f + 0.5 * rng.standard_normal(g.n)
    start = ProcessNetwork((ProcessNode("y", MaternParams(0.5, 100.0, 1.5),
                                        noise=0.25),))
    fit = fit_mle(g, start, [Observations(0, g.vertices, vals)],
                  free=["y.variance"],
                  config=OptimizerConfig(seed=1, restarts=1, max_evals=200))
    assert 0.7 < fit.estimates["y.variance"] < 1.4
    assert fit.converged


def test_fit_recovers_interaction_shape():
    """Amplitude, aperture and shift of the interaction from dense data."""
    g = regular_grid([(-1.0, 1.0)], [120])
    truth = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.05),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5),
                    parents=((0, shifted_bisquare(5.0, 0.3, (-0.3,))),),
                    noise=0.05),
    ))
    from condcov import assemble_dag

    model = assemble_dag(g, truth)
    fields = sample_joint(model, seed=11)
    rng = np.random.default_rng(11)
    obs = [Observations(q, g.vertices,
                        fields[q] + np.sqrt(0.05) * rng.standard_normal(g.n))
           for q in range(2)]
    start = ProcessNetwork((
        truth.nodes[0],
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5),
                    parents=((0, shifted_bisquare(3.0, 0.4, (-0.2,))),),
                    noise=0.05),
    ))
    fit = fit_mle(g, start, obs,
                  free=["y2~y1.amplitude", "y2~y1.aperture", "y2~y1.shift1"],
                  config=OptimizerConfig(seed=2, restarts=1, max_evals=600))
    assert abs(fit.estimates["y2~y1.amplitude"] - 5.0) / 5.0 < 0.25
    assert abs(fit.estimates["y2~y1.aperture"] - 0.3) / 0.3 < 0.25
    assert abs(fit.estimates["y2~y1.shift1"] - (-0.3)) / 0.3 < 0.25


def test_reverse_bivariate_swaps_direction():
    net = _bivariate()
    rev = reverse_bivariate(net)
    assert [n.name for n in rev.nodes] == ["y2", "y1"]
    assert "y1~y2.amplitude" in list_parameters(rev)
    # reversing twice restores the original edge naming
    back = reverse_bivariate(rev)
    assert list_parameters(back) == list_parameters(net)


def test_compare_directions_ranks_by_aic():
    net = _bivariate(bisquare(4.0, 0.3))
    obs = _synthetic_obs(net, seed=5)
    cfg = OptimizerConfig(seed=3, restarts=1, max_evals=150)
    fits = compare_directions(GRID, net, obs, free=["y2~y1.amplitude"],
                              config=cfg)
    assert len(fits) == 2
    assert fits[0].aic <= fits[1].aic
    labels = {f.label for f in fits}
    assert len(labels) == 2
    assert [f.delta_aic for f in fits] == [0.0, fits[1].aic - fits[0].aic]
    assert fits[1].delta_aic > 1e-6
    assert not any(f.tie for f in fits)


def test_compare_directions_reports_a_tie_for_exchangeable_orders():
    # a dirac edge between Materns of one scale and smoothness: both orders
    # span the same models and reach the same maximum
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25),
        ProcessNode("y2", MaternParams(0.75, 25.0, 1.5),
                    parents=((0, dirac(0.5)),), noise=0.25),
    ))
    obs = _synthetic_obs(net, seed=0)
    fits = compare_directions(
        GRID, net, obs, free=["y1.variance", "y2.variance", "y2~y1.amplitude"],
        config=OptimizerConfig(seed=0, restarts=1, max_evals=300))
    assert fits[0].aic <= fits[1].aic  # the ranking is still by AIC
    assert fits[0].delta_aic == 0.0
    assert 0.0 <= fits[1].delta_aic <= 4e-8
    assert all(f.tie for f in fits)


def test_write_read_roundtrip(tmp_path):
    net = _bivariate(bisquare(5.0, 0.3))
    obs = _synthetic_obs(net, seed=13)
    fit = fit_mle(GRID, net, obs, free=["y2~y1.amplitude"],
                  config=OptimizerConfig(seed=0, restarts=1, max_evals=100))
    path = tmp_path / "params.txt"
    write_fit_result(path, fit)
    back = read_params(path)
    for name, val in fit.estimates.items():
        assert back[name] == val, name


def test_a_label_that_is_not_one_line_is_not_written(tmp_path):
    # "# label = a" then a bare "b" line would not read back
    net = _bivariate(bisquare(5.0, 0.3))
    fit = fit_mle(GRID, net, _synthetic_obs(net, seed=13),
                  free=["y2~y1.amplitude"], label="a\nb",
                  config=OptimizerConfig(seed=0, restarts=1, max_evals=100))
    path = tmp_path / "params.txt"
    for label in ("a\nb", "a\r\nb", "trailing\n", "a\x0bb"):
        with pytest.raises(ValidationError, match="is not one line"):
            write_fit_result(path, dataclasses.replace(fit, label=label))
    assert not path.exists()
    write_fit_result(path, dataclasses.replace(fit, label="a = b # c"))
    assert read_params(path) == fit.estimates


# every str.splitlines boundary
_LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029")


def test_node_names_that_are_not_one_line_are_rejected():
    params = MaternParams(1.0, 25.0, 1.5)
    for brk in _LINE_BREAKS:
        for name in (f"a{brk}b", f"a{brk}"):
            with pytest.raises(ValidationError, match="not one line"):
                ProcessNode(name, params)


def test_node_names_that_start_a_comment_are_rejected():
    # read_params strips a line's leading whitespace and skips it as a
    # comment if it then starts with "#", so such a node's parameters would
    # not read back
    for name in ("#n", "#", "\xa0#n", "\xa0n", "\u2003n"):
        with pytest.raises(ValidationError, match="starts with whitespace or '#'"):
            ProcessNode(name, MaternParams(1.0, 25.0, 1.5))


def test_node_names_round_trip_through_params_txt(tmp_path):
    # names that are one line and hold no reserved character read back,
    # an "=" included
    names = ['a"b', "x:y", "\u00e9t\u00e9", "q=1", "n#"]
    net = ProcessNetwork([ProcessNode(name, MaternParams(1.0, 25.0, 1.5),
                                      noise=0.25) for name in names])
    obs = [Observations(q, GRID.vertices[::4], np.sin(3.0 * q + GRID.vertices[::4, 0]))
           for q in range(len(names))]
    fit = fit_mle(GRID, net, obs, free=[f"{name}.variance" for name in names],
                  config=OptimizerConfig(seed=0, restarts=1, max_evals=20))
    path = tmp_path / "params.txt"
    write_fit_result(path, fit)
    assert read_params(path) == fit.estimates
    assert {key.rsplit(".", 1)[0] for key in fit.estimates} == set(names)


def test_read_params_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("y1.variance = 1.0\nnot a parameter line\n")
    with pytest.raises(ValidationError):
        read_params(path)


# parameter moves that reach every kind of free parameter; each step applies
# its moves to the network of the step before, and the later steps return to
# earlier values so that slots are refilled after being invalidated
_BIVARIATE_STEPS = [
    {},
    {"y2~y1.amplitude": 4.0},
    {"y2~y1.aperture": 0.35},
    {"y2~y1.shift1": -0.25},
    {"y1.variance": 1.3, "y2~y1.amplitude": 4.5},
    {"y1.scale": 20.0},
    {"y1.smoothness": 1.3},
    {"y2.smoothness": 0.5, "y2.scale": 60.0},
    {"y1.nugget": 0.02, "y2.noise": 0.3},
    {"y2~y1.shift1": -0.3, "y1.smoothness": 1.5},
    {},
    {"y2~y1.amplitude": 5.0, "y2~y1.aperture": 0.3, "y1.scale": 25.0},
]


def _three_nodes():
    return ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 10.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.5, 12.0, 2.3),
                    parents=((0, dirac(0.7)),), noise=0.1),
        ProcessNode("y3", MaternParams(0.3, 8.0, 0.5), nugget=0.05, noise=0.1,
                    parents=((0, tabulated([-1.0, 1.0], [-1.0, 0.0, 1.0],
                                           [[0.5, 1.0, 0.2], [0.1, 0.8, 0.6]])),
                             (1, shifted_bisquare(2.0, 0.4, (0.1,))))),
    ))


_THREE_STEPS = [
    {},
    {"y2~y1.amplitude": 0.5},
    {"y3~y2.amplitude": 1.5, "y3~y2.aperture": 0.5},
    {"y3~y2.shift1": 0.0},
    {"y2.smoothness": 1.7, "y1.variance": 0.8},
    {"y3.nugget": 0.1, "y1.noise": 0.2},
    {"y1.scale": 14.0, "y3.smoothness": 1.5},
    {"y2~y1.amplitude": 0.7, "y3~y2.shift1": 0.1},
    {},
]


@pytest.mark.parametrize("network, steps", [
    pytest.param(_bivariate(), _BIVARIATE_STEPS, id="bivariate-shifted"),
    pytest.param(_three_nodes(), _THREE_STEPS, id="dirac-tabulated-bisquare"),
])
def test_fit_evaluations_equal_fresh_loglik(network, steps):
    """One fit geometry over a sequence of networks gives, at every step,
    bitwise the value of a fresh loglik."""
    from condcov.conditional import _Geometry
    from condcov.inference import _Split

    rng = np.random.default_rng(21)
    obs = [Observations(q, rng.uniform(-1, 1, (9 + 3 * q, 1)),
                        rng.normal(size=9 + 3 * q))
           for q in range(network.p)]
    geometry = _Geometry(GRID)
    net = network
    for step in steps:
        for name, value in step.items():
            net = set_parameter(net, name, value)
        value, _ = _Split(tuple(obs)).score(GRID, net, geometry, 1e-8)
        assert np.array_equal(value, loglik(GRID, net, obs)), step


def _fresh_evaluation_fit(grid, network, obs, free, config):
    """fit_mle's optimization, scored by fresh-evaluator loglik calls."""
    from scipy.optimize import minimize

    from condcov.errors import CondcovError
    from condcov.inference import (_FATOL, _PERTURBATION, _XATOL,
                                   _from_transformed, _to_transformed)
    from condcov.rng import rng_from_seed

    fields = [name.rpartition(".")[2] for name in free]
    x0 = np.array([_to_transformed(f, get_parameter(network, n))
                   for n, f in zip(free, fields)])

    def apply(x):
        net = network
        for name, field, xi in zip(free, fields, x):
            net = set_parameter(net, name, _from_transformed(field, float(xi)))
        return net

    def objective(x):
        try:
            return -loglik(grid, apply(x), obs)
        except CondcovError:
            return np.inf

    runs = []
    for start in range(config.restarts):
        xs = x0
        if start:
            rng = rng_from_seed(config.seed, start)
            xs = x0 + _PERTURBATION * (1.0 + np.abs(x0)) * rng.standard_normal(x0.size)
        runs.append(minimize(objective, xs, method="Nelder-Mead", options={
            "xatol": _XATOL, "fatol": _FATOL, "maxfev": config.max_evals}))
    best = min(runs, key=lambda r: r.fun)
    return apply(best.x), -best.fun, [int(r.nfev) for r in runs]


def _dirac_into_the_last_node():
    """Three nodes whose last node has an integral and a dirac edge."""
    first, second, _ = _three_nodes().nodes
    return ProcessNetwork((first, second, ProcessNode(
        "y3", MaternParams(0.3, 8.0, 0.5), nugget=0.05, noise=0.1,
        parents=((0, bisquare(1.2, 0.4)), (1, dirac(0.6))))))


@pytest.mark.parametrize("network, free", [
    pytest.param(_bivariate(), ["y2~y1.amplitude", "y2~y1.shift1", "y1.scale"],
                 id="bivariate-shifted"),
    pytest.param(_three_nodes(), ["y3~y2.aperture", "y2.smoothness",
                                  "y3.nugget"], id="dirac-tabulated-bisquare"),
    pytest.param(_dirac_into_the_last_node(),
                 ["y3~y2.amplitude", "y3~y1.aperture", "y3.scale"],
                 id="last-node-dirac"),
])
def test_fit_equals_optimizing_fresh_loglik(network, free):
    rng = np.random.default_rng(4)
    obs = [Observations(q, rng.uniform(-1, 1, (12, 1)), rng.normal(size=12))
           for q in range(network.p)]
    cfg = OptimizerConfig(seed=5, restarts=2, max_evals=80)
    fit = fit_mle(GRID, network, obs, free=free, config=cfg)
    fitted, ll, nfev = _fresh_evaluation_fit(GRID, network, obs, free, cfg)
    assert fit.network == fitted
    assert fit.estimates == {n: get_parameter(fitted, n)
                             for n in list_parameters(fitted)}
    assert fit.loglik == ll
    assert [t["nfev"] for t in fit.trace] == nfev


def _quadratic(x):
    return float(np.sum((x - np.arange(x.size) - 0.7) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _plateaus(x):
    # ties between evaluations, which every comparison must break as scipy's
    return float(np.floor(_rosenbrock(x)))


def _inf_beyond_half_space(x):
    # the unconstrained minimum (0.7, 1.7) lies where x0 + x1 > 1.5
    return _quadratic(x) if x[0] + x[1] <= 1.5 else np.inf


def _lower_inside_the_shrink(x):
    # from x0 = (1, 1), finite at the simplex and lowest on the edges that
    # a shrink halves: the first reflection and contraction score inf, so a
    # shrink follows the fifth evaluation, and its first point becomes best
    if tuple(x.tolist()) in ((1.0, 1.0), (1.05, 1.0), (1.0, 1.05)):
        return float(x @ x)
    edge = [1.0 < xi < 1.05 for xi in x]
    return 1.0 if sorted(edge) == [False, True] and 1.0 in x else np.inf


def _inf_on_the_first_simplex(x):
    # from x0 = (1, 1), +inf on the simplex (x1 >= 1) and finite at its
    # first reflected point, (1.05, 0.95): the first convergence test meets
    # a simplex that is +inf everywhere
    return float(np.sum((x - 0.5) ** 2)) if x[1] < 1.0 else np.inf


@pytest.mark.parametrize("fun, x0, max_evals", [
    pytest.param(_quadratic, [0.3], 2000, id="quadratic-1d"),
    pytest.param(_quadratic, [0.3, -2.0], 2000, id="quadratic-2d"),
    pytest.param(_quadratic, [0.3, -2.0, 5.0], 2000, id="quadratic-3d"),
    pytest.param(_rosenbrock, [-1.2, 1.0], 2000, id="rosenbrock"),
    pytest.param(_plateaus, [-1.2, 1.0, 0.5], 2000, id="ties"),
    pytest.param(_quadratic, [0.0, 1.0, 0.0], 2000, id="zero-coordinate"),
    pytest.param(_inf_beyond_half_space, [0.0, 0.0], 2000, id="inf-half-space"),
    pytest.param(_rosenbrock, [-1.2, 1.0, 0.5], 3, id="cap-below-simplex"),
    pytest.param(_rosenbrock, [-1.2, 1.0], 50, id="cap-mid-run"),
    pytest.param(_lower_inside_the_shrink, [1.0, 1.0], 6,
                 id="cap-inside-shrink"),
    pytest.param(_inf_on_the_first_simplex, [1.0, 1.0], 2000,
                 id="inf-first-simplex"),
])
def test_nelder_mead_takes_scipy_s_steps(fun, x0, max_evals):
    # fit_mle's in-package Nelder-Mead against the scipy routine it
    # transcribes, with fit_mle's tolerances: the same points in the same
    # order, and the same result
    from scipy.optimize import minimize

    from condcov.inference import _FATOL, _XATOL, _nelder_mead

    def recorded(points):
        def f(x):
            points.append(x.copy())
            x[:] = np.nan  # a copy: the run does not read it back
            return fun(points[-1])
        return f

    ours, theirs = [], []
    got = _nelder_mead(recorded(ours), np.array(x0), max_evals)
    want = minimize(recorded(theirs), np.array(x0), method="Nelder-Mead",
                    options={"xatol": _XATOL, "fatol": _FATOL,
                             "maxfev": max_evals})
    assert len(ours) == len(theirs) == got.nfev == want.nfev
    for a, b in zip(ours, theirs):
        assert a.tobytes() == b.tobytes()
    assert got.x.tobytes() == want.x.tobytes()
    assert np.array_equal(got.fun, want.fun)
    assert (got.success, got.message) == (want.success, want.message)
    if fun is _lower_inside_the_shrink:
        # the cap fell between the shrink's two points, after the first,
        # which the last sort put first
        assert [fun(p) for p in ours[3:]] == [np.inf, np.inf, 1.0]
        assert got.x.tobytes() == ours[5].tobytes()
        assert not got.success
    if fun is _inf_on_the_first_simplex:
        assert [np.isfinite(fun(p)) for p in ours[:4]] == [False] * 3 + [True]
        assert got.success


# the evaluations of the all-rejected first restart of
# test_a_rejected_restart_is_traced_as_not_converged, and of that fit with
# y.scale (5) free too, in their fit traces before the simplex owned the stop
@pytest.mark.parametrize("x0, nfev", [
    ([math.log(1e4)], 54), ([math.log(1e4), math.log(5.0)], 68)])
@pytest.mark.parametrize("overwrite", [False, True])
def test_nelder_mead_gives_up_on_a_simplex_that_is_inf_everywhere(
        x0, nfev, overwrite):
    from condcov.inference import _XATOL, _nelder_mead

    points = []

    def f(x):
        points.append(x.copy())
        if overwrite:
            x[:] = 0.0  # a copy: the stop rule keeps its own
        return np.inf

    got = _nelder_mead(f, np.array(x0), 200)
    assert (got.nfev, len(points)) == (nfev, nfev)
    assert got.fun == np.inf and not got.success
    assert got.message == ("every evaluation was rejected until the simplex "
                           "shrank below xatol")
    assert got.x.tolist() == x0
    # the last n + 2 points lie within the tolerance, the n + 2 before not
    n = len(x0)
    for last, within in ((nfev, True), (nfev - 1, False)):
        step = np.array(points[last - n - 2:last])
        assert np.all(np.ptp(step, axis=0) <= _XATOL * (
            1.0 + np.abs(step[-1]))) == within


def test_fit_reports_rejected_evaluations_and_jitter(monkeypatch):
    import condcov.inference
    from condcov.conditional import CovarianceEvaluator, observation_covariance
    from condcov.errors import NumericalError
    from condcov.linalg import chol_with_jitter

    net = ProcessNetwork((ProcessNode("y", MaternParams(1.0, 5.0, 1.5),
                                      noise=0.1),))
    rng = np.random.default_rng(2)
    obs = [Observations(0, rng.uniform(-1, 1, (10, 1)), rng.normal(size=10))]
    cfg = OptimizerConfig(seed=0, restarts=1, max_evals=60)
    clean = fit_mle(GRID, net, obs, free=["y.variance"], config=cfg)
    assert clean.rejected == 0
    assert clean.jitter == 0.0

    # the starting point of the fit fails to factor, and only that one
    calls = []
    factor = condcov.inference.chol_with_jitter

    def first_fails(mat, jitter_max):
        calls.append(None)
        if len(calls) == 1:
            raise NumericalError("refused")
        return factor(mat, jitter_max)

    monkeypatch.setattr(condcov.inference, "chol_with_jitter", first_fails)
    fit = fit_mle(GRID, net, obs, free=["y.variance"], config=cfg)
    assert fit.rejected == 1
    assert np.isfinite(fit.loglik)
    assert fit.jitter == 0.0
    monkeypatch.undo()

    # a near-rank-one covariance without noise: every evaluation needs jitter
    flat = ProcessNetwork((ProcessNode("y", MaternParams(1.0, 1e-3, 2.5)),))
    sites = [Observations(0, np.linspace(-1, 1, 10)[:, None], rng.normal(size=10))]
    fit = fit_mle(GRID, flat, sites, free=["y.variance"], config=cfg)
    assert fit.rejected == 0
    C, _ = observation_covariance(CovarianceEvaluator(GRID, fit.network), sites)
    assert fit.jitter > 0.0
    assert fit.jitter == chol_with_jitter(C)[1]


def test_fit_accepts_an_array_shift_on_a_2d_grid():
    """A spec built directly with a numpy shift fits like one with a tuple."""
    from condcov.kernels import InteractionKind, InteractionSpec

    grid = regular_grid([(-1.0, 1.0), (-1.0, 1.0)], [7, 7])
    rng = np.random.default_rng(5)
    obs = [Observations(q, rng.uniform(-1, 1, (8, 2)), rng.normal(size=8))
           for q in range(2)]
    fits = []
    for shift in (np.array([0.1, -0.2]), (0.1, -0.2)):
        spec = InteractionSpec(InteractionKind.SHIFTED_BISQUARE, amplitude=2.0,
                               aperture=0.6, shift=shift)
        fits.append(fit_mle(grid, _bivariate(spec), obs,
                            free=["y2~y1.amplitude", "y2~y1.aperture"],
                            config=OptimizerConfig(seed=0, restarts=1,
                                                   max_evals=40)))
    assert fits[0].estimates == fits[1].estimates
    assert fits[0].loglik == fits[1].loglik
    assert fits[0].network.nodes[1].parents[0][1].shift == (0.1, -0.2)


def _chained_substitute():
    """The per-name path that fit_mle's apply replaced: one network per name."""
    from condcov.inference import _substitute

    def chained(network, located, values):
        for loc, value in zip(located, values):
            network = _substitute(network, [loc], [value])
        return network

    return chained


@pytest.mark.parametrize("network, step", [
    pytest.param(_bivariate(), _BIVARIATE_STEPS[4], id="node-and-edge"),
    pytest.param(_bivariate(), {"y1.scale": 3.0, "y1.noise": 0.4,
                                "y2~y1.shift1": 0.2, "y2~y1.aperture": 0.6,
                                "y2.variance": 0.7}, id="shift"),
    pytest.param(_three_nodes(), {"y3~y2.shift1": 0.3, "y3~y2.amplitude": -1.0,
                                  "y2~y1.amplitude": 0.2, "y3.nugget": 0.0,
                                  "y2.smoothness": 2.5}, id="three-nodes"),
])
def test_one_network_per_evaluation_equals_chained_set_parameter(network, step):
    from condcov.inference import _locate, _substitute

    located = [_locate(network, name) for name in step]
    got = _substitute(network, located, list(step.values()))
    want = network
    for name, value in step.items():
        want = set_parameter(want, name, value)
    assert got == want
    for name, value in step.items():
        assert get_parameter(got, name) == value


@pytest.mark.parametrize("name, value", [
    ("y1.variance", -1.0), ("y1.scale", float("inf")), ("y1.nugget", -0.1),
    ("y2~y1.aperture", 0.0), ("y2~y1.shift1", float("nan")),
    ("y2~y1.amplitude", float("inf")),
])
def test_one_network_per_evaluation_rejects_what_set_parameter_rejects(name, value):
    from condcov.errors import CondcovError
    from condcov.inference import _locate, _substitute

    network = _bivariate()
    with pytest.raises(CondcovError) as chained:
        set_parameter(set_parameter(network, "y1.smoothness", 2.0), name, value)
    with pytest.raises(type(chained.value)):
        _substitute(network, [_locate(network, "y1.smoothness"),
                              _locate(network, name)], [2.0, value])


def test_fit_with_one_network_per_evaluation_is_unchanged(monkeypatch):
    import condcov.inference

    network = _bivariate()
    free = ["y1.scale", "y2.variance", "y2~y1.amplitude", "y2~y1.shift1"]
    rng = np.random.default_rng(6)
    obs = [Observations(q, rng.uniform(-1, 1, (12, 1)), rng.normal(size=12))
           for q in range(network.p)]
    cfg = OptimizerConfig(seed=2, restarts=2, max_evals=120)
    fit = fit_mle(GRID, network, obs, free=free, config=cfg)
    monkeypatch.setattr(condcov.inference, "_substitute", _chained_substitute())
    old = fit_mle(GRID, network, obs, free=free, config=cfg)
    assert fit.trace == old.trace
    assert fit.estimates == old.estimates
    assert fit.loglik == old.loglik and fit.rejected == old.rejected


# Fits that free only the last node q score p(z_<q) p(z_q | z_<q): the
# earlier observations are factored once per fit, and each evaluation
# factors only q's block (inference._condition). Three networks where it
# applies, each with the parameter points the route is checked at.
SIM1D_GRID = regular_grid([(-1.0, 1.0)], [200])
PLANE = regular_grid([(0.0, 1.0), (0.0, 1.0)], [12, 10])


def _sim1d_refit_case():
    network = _bivariate(bisquare(5.0, 0.3))
    rng = np.random.default_rng(31)
    v = SIM1D_GRID.vertices
    obs = [Observations(0, v[v[:, 0] >= 0.0], rng.normal(size=100)),
           Observations(1, v, rng.normal(size=200))]
    steps = [{"y2~y1.amplitude": a, "y2~y1.aperture": h}
             for a, h in ((5.0, 0.3), (3.0, 0.5), (-1.0, 0.05), (8.0, 1.5))]
    return SIM1D_GRID, network, obs, steps


def _plane_case():
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 6.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.4, 9.0, 2.5), nugget=0.02, noise=0.1,
                    parents=((0, shifted_bisquare(1.5, 0.3, (0.1, -0.05))),)),
    ))
    rng = np.random.default_rng(32)
    obs = [Observations(0, rng.uniform(0, 1, (15, 2)), rng.normal(size=15)),
           Observations(1, rng.uniform(0, 1, (12, 2)), rng.normal(size=12))]
    steps = [{"y2.nugget": g, "y2.scale": k, "y2~y1.shift1": s}
             for g, k, s in ((0.02, 9.0, 0.1), (0.3, 4.0, -0.2),
                             (1e-6, 20.0, 0.0))]
    return PLANE, network, obs, steps


def _two_parents_case():
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 10.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.5, 12.0, 0.5), noise=0.1,
                    parents=((0, bisquare(0.9, 0.3)),)),
        ProcessNode("y3", MaternParams(0.3, 8.0, 1.5), noise=0.1,
                    parents=((0, bisquare(1.2, 0.4)),
                             (1, shifted_bisquare(0.8, 0.3, (0.1,))))),
    ))
    rng = np.random.default_rng(33)
    obs = [Observations(q, rng.uniform(-1, 1, (8 + 2 * q, 1)),
                        rng.normal(size=8 + 2 * q)) for q in range(3)]
    steps = [{"y3~y1.amplitude": a, "y3~y2.aperture": h, "y3.variance": v}
             for a, h, v in ((1.2, 0.3, 0.3), (-0.5, 0.6, 1.0),
                             (2.0, 0.1, 0.05))]
    return GRID, network, obs, steps


def _conditioned(grid, network, obs, free, jitter_max=1e-8):
    from condcov.conditional import kept_observations
    from condcov.inference import _condition, _locate

    return _condition(grid, network, kept_observations(grid, network, obs),
                      [_locate(network, name) for name in free], jitter_max)


def _scored(split):
    """The variables whose observations ``split`` scores."""
    return [o.variable for o in split.scored]


def _conditions_on_nothing(split):
    return (split.loglik, split.jitter, split.factors, split.means) == (
        0.0, 0.0, {}, {})


@pytest.mark.parametrize("case", [
    pytest.param(_sim1d_refit_case, id="sim1d-refit"),
    pytest.param(_plane_case, id="product-grid-shifted"),
    pytest.param(_two_parents_case, id="two-integral-parents"),
])
def test_the_conditional_route_scores_the_joint_likelihood(case):
    from condcov.conditional import _Geometry

    grid, network, obs, steps = case()
    cond = _conditioned(grid, network, obs, list(steps[0]))
    assert _scored(cond) == [network.p - 1]
    geometry = _Geometry(grid)  # shared, as over the evaluations of a fit
    for step in steps:
        net = network
        for name, value in step.items():
            net = set_parameter(net, name, value)
        got, jitter = cond.score(grid, net, geometry, 1e-8)
        want = loglik(grid, net, obs)
        assert jitter == 0.0
        assert abs(got - want) <= 1e-12 * abs(want), step


def _observed(network, variables, seed=34):
    rng = np.random.default_rng(seed)
    return [Observations(q, rng.uniform(-1, 1, (9, 1)), rng.normal(size=9))
            for q in variables]


@pytest.mark.parametrize("network, free, variables, taken", [
    pytest.param(_bivariate(), ["y2~y1.amplitude", "y2~y1.shift1", "y2.scale",
                                "y2.noise"], (0, 1), True, id="last-node"),
    pytest.param(_bivariate(zero()), ["y2.scale"], (0, 1), True,
                 id="zero-edge"),
    pytest.param(_three_nodes(), ["y3~y2.aperture", "y3.nugget"], (1, 2), True,
                 id="first-node-unobserved"),
    pytest.param(_bivariate(), ["y2~y1.amplitude", "y1.scale"], (0, 1), False,
                 id="an-earlier-node-is-free"),
    pytest.param(_bivariate(), ["y2~y1.amplitude"], (1,), False,
                 id="only-the-last-node-observed"),
    pytest.param(_bivariate(), ["y2~y1.amplitude"], (0,), False,
                 id="last-node-unobserved"),
    pytest.param(_bivariate(dirac(0.5)), ["y2~y1.amplitude"], (0, 1), False,
                 id="dirac-edge"),
    pytest.param(_dirac_into_the_last_node(), ["y3~y2.amplitude", "y3.scale"],
                 (0, 1, 2), False, id="a-dirac-edge-among-integral-ones"),
])
def test_which_fits_take_the_conditional_route(network, free, variables, taken):
    obs = _observed(network, variables)
    got = _conditioned(GRID, network, obs, free)
    if taken:
        # z_q is scored given the earlier observations, whose loglik the
        # split holds
        assert _scored(got) == [network.p - 1]
        assert got.loglik == pytest.approx(loglik(GRID, network, obs[:-1]),
                                           rel=1e-12)
    else:
        assert _scored(got) == list(variables)
        assert _conditions_on_nothing(got)


def test_a_sim1d_shaped_fit_converges_on_the_conditional_route():
    truth = _bivariate(shifted_bisquare(5.0, 0.3, (-0.3,)))
    fields = sample_joint(assemble_dag(SIM1D_GRID, truth), seed=8)
    rng = np.random.default_rng(8)
    v = SIM1D_GRID.vertices
    y1 = v[:, 0] >= 0.0
    obs = [Observations(0, v[y1], fields[0][y1] + 0.5 * rng.normal(size=100)),
           Observations(1, v, fields[1] + 0.5 * rng.normal(size=200))]
    start = _bivariate(bisquare(5.0, 0.3))
    free = ["y2~y1.amplitude", "y2~y1.aperture"]
    assert _scored(_conditioned(SIM1D_GRID, start, obs, free)) == [1]
    fit = fit_mle(SIM1D_GRID, start, obs, free=free,
                  config=OptimizerConfig(seed=0, restarts=1))
    assert fit.converged
    assert 90 <= fit.trace[0]["nfev"] <= 140
    # the reported loglik is the joint one of the returned network, which
    # the conditional value it was optimized on equals to roundoff
    assert fit.loglik == loglik(SIM1D_GRID, fit.network, obs)
    assert abs(fit.trace[0]["loglik"] - fit.loglik) <= 1e-12 * abs(fit.loglik)


def test_the_conditional_route_reports_the_larger_jitter():
    from condcov.conditional import (CovarianceEvaluator, kept_observations,
                                     observation_covariance)
    from condcov.linalg import chol_with_jitter

    # y1 is near rank one without noise: its covariance factors only with
    # jitter, while y2's given it needs none
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 1e-3, 2.5)),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5), noise=0.25,
                    parents=((0, bisquare(2.0, 0.4)),)),
    ))
    rng = np.random.default_rng(35)
    obs = [Observations(0, np.linspace(-1, 1, 10)[:, None], rng.normal(size=10)),
           Observations(1, rng.uniform(-1, 1, (10, 1)), rng.normal(size=10))]
    free = ["y2~y1.amplitude", "y2~y1.aperture"]
    joint = _conditioned(GRID, network, obs, free, jitter_max=0.0)
    assert _scored(joint) == [0, 1] and _conditions_on_nothing(joint)
    cond = _conditioned(GRID, network, obs, free)
    C, _ = observation_covariance(CovarianceEvaluator(GRID, network),
                                  kept_observations(GRID, network, obs)[:1])
    assert cond.jitter == chol_with_jitter(C)[1] > 0.0
    fit = fit_mle(GRID, network, obs, free=free,
                  config=OptimizerConfig(seed=0, restarts=1, max_evals=40))
    assert fit.jitter == cond.jitter


def test_a_rank_deficient_conditioned_block_keeps_the_conditional_route():
    from condcov.conditional import _Geometry

    # y1 is near rank one, with noise so that C_< factors without jitter:
    # its grid block given its observations is positive semidefinite with a
    # numerical rank far below n, which a plain Cholesky factor refuses and
    # the pivoted one stops at
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 1e-3, 2.5), noise=0.25),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5), noise=0.25,
                    parents=((0, bisquare(2.0, 0.4)),)),
    ))
    rng = np.random.default_rng(35)
    obs = [Observations(0, np.linspace(-1, 1, 10)[:, None], rng.normal(size=10)),
           Observations(1, rng.uniform(-1, 1, (10, 1)), rng.normal(size=10))]
    cond = _conditioned(GRID, network, obs, ["y2~y1.amplitude", "y2~y1.aperture"])
    assert _scored(cond) == [1] and cond.jitter == 0.0
    assert list(cond.factors) == [0]
    assert 0 < cond.factors[0].shape[1] < GRID.n
    geometry = _Geometry(GRID)
    for amplitude, aperture in ((2.0, 0.4), (5.0, 0.2), (-1.0, 0.8)):
        net = set_parameter(set_parameter(network, "y2~y1.amplitude", amplitude),
                            "y2~y1.aperture", aperture)
        got, jitter = cond.score(GRID, net, geometry, 1e-8)
        want = loglik(GRID, net, obs)
        assert jitter == 0.0
        assert abs(got - want) <= 1e-12 * abs(want)


def test_conditioning_a_40x40_fit_peaks_below_a_block_and_its_copy():
    import tracemalloc

    from condcov.conditional import kept_observations
    from condcov.inference import _condition, _locate

    # the shape where the conditioned grid block is largest against the
    # observations: 1600 vertices, 150 y1 and 100 y2 sites
    grid = regular_grid([(0.0, 1.0), (0.0, 1.0)], [40, 40])
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 8.0, 1.5), noise=0.1),
        ProcessNode("y2", MaternParams(0.3, 12.0, 1.5), noise=0.1,
                    parents=((0, bisquare(2.0, 0.15)),)),
    ))
    rng = np.random.default_rng(0)
    obs = [Observations(0, rng.uniform(0, 1, (150, 2)), rng.normal(size=150)),
           Observations(1, rng.uniform(0, 1, (100, 2)), rng.normal(size=100))]
    kept = kept_observations(grid, network, obs)
    located = [_locate(network, "y2~y1.amplitude")]
    tracemalloc.start()
    try:
        split = _condition(grid, network, kept, located, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _scored(split) == [1]
    assert split.factors[0].shape[0] == grid.n
    # 47.3 MB: the peak of the form that kept the grid block K_00 as a
    # dense array made from a copy of cov(0, 0, 0, 0); two n x n arrays
    # are 41.0 MB
    assert peak <= 47.3e6


def _evalcost_shape(name):
    """(grid, network, observations) of ``tools/evalcost.py``'s shape."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "evalcost.py"
    spec = importlib.util.spec_from_file_location("evalcost", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.shape(name)


def _fresh_score(split, grid, network, geometry, jitter_max):
    """``split.score`` the way it was taken before the block was built and
    factored in place: a fresh A + G @ G.T, ``chol_with_jitter`` of that
    fresh array, and the quadratic form from ``chol_solve``'s two solves."""
    from condcov.conditional import CovarianceEvaluator
    from condcov.linalg import chol_logdet, chol_solve, chol_with_jitter

    ev = CovarianceEvaluator(grid, network, geometry)
    last = split.scored[-1]
    q, node = last.variable, network.nodes[last.variable]
    sites = ev.add_points(last.locations)
    edges = ev._edges(q, sites)
    G = sum(op.left(split.factors[a]) for a, _, op in edges)
    resid = last.values - mean_at(network, q, last.locations)
    for a, _, op in edges:
        resid = resid - op.values @ split.means[a]
    S = (G @ G.T + geometry.matern(q, node.covariance, sites, sites, node.nugget)
         + node.noise * np.eye(last.m))
    L, jitter = chol_with_jitter(S, jitter_max)
    value = -0.5 * (resid.size * math.log(2.0 * math.pi) + chol_logdet(L)
                    + float(resid @ chol_solve(L, resid)))
    return split.loglik + value, max(split.jitter, jitter)


def _edge_at(network, amplitude, aperture):
    return set_parameter(set_parameter(network, "y2~y1.amplitude", amplitude),
                         "y2~y1.aperture", aperture)


@pytest.mark.parametrize("name", ["sim1d", "sparse2d"])
def test_the_in_place_score_equals_the_fresh_arrays_path(name):
    from condcov.conditional import _Geometry

    grid, network, obs = _evalcost_shape(name)
    split = _conditioned(grid, network, obs, ["y2~y1.amplitude",
                                              "y2~y1.aperture"])
    assert _scored(split) == [1] and split.block.shape == (obs[1].m,) * 2
    geometry = _Geometry(grid)
    for amplitude, aperture in ((5.0, 0.3), (2.0, 0.15), (-1.0, 0.5)):
        net = _edge_at(network, amplitude, aperture)
        got, jitter = split.score(grid, net, geometry, 1e-8)
        want, want_jitter = _fresh_score(split, grid, net, geometry, 1e-8)
        assert jitter == want_jitter
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _repeated_sites_case():
    """A conditioned split whose z_q block is singular: y2 has neither
    noise nor nugget and is observed twice at each of 6 sites."""
    network = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5),
                    parents=((0, bisquare(1.0, 0.3)),)),
    ))
    rng = np.random.default_rng(36)
    sites = rng.uniform(-1, 1, (6, 1))
    obs = [Observations(0, rng.uniform(-1, 1, (10, 1)), rng.normal(size=10)),
           Observations(1, np.vstack([sites, sites]), rng.normal(size=12))]
    return network, _conditioned(GRID, network, obs, ["y2~y1.amplitude"]), obs


def test_the_in_place_score_reports_the_jitter_of_the_fresh_arrays_path():
    from condcov.conditional import _Geometry
    from condcov.errors import NumericalError, OptimizationError

    network, split, obs = _repeated_sites_case()
    assert _scored(split) == [1] and split.jitter == 0.0
    geometry = _Geometry(GRID)
    got, jitter = split.score(GRID, network, geometry, 1e-8)
    want, want_jitter = _fresh_score(split, GRID, network, geometry, 1e-8)
    assert jitter == want_jitter > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # without a jitter it cannot be factored, and a fit scores it -inf
    with pytest.raises(NumericalError, match="jitter escalation"):
        split.score(GRID, network, geometry, 0.0)
    with pytest.raises(NumericalError, match="jitter escalation"):
        _fresh_score(split, GRID, network, geometry, 0.0)
    with pytest.raises(OptimizationError, match="-inf at every evaluation"):
        fit_mle(GRID, network, obs, free=["y2~y1.amplitude"], config=_QUICK,
                jitter_max=0.0)
    # a failed factorization leaves nothing behind for the next one
    assert split.score(GRID, network, geometry, 1e-8) == (got, jitter)


def test_an_overflowing_edge_scores_minus_inf_on_the_conditional_route():
    from condcov.conditional import _Geometry
    from condcov.errors import NumericalError

    # G G' overflows: numpy's matmul warns, where a raw syrk would not
    network = _bivariate(bisquare(5.0, 0.3))
    obs = [Observations(q, _SITES, np.linspace(-1.0, 1.0, 5)) for q in range(2)]
    split = _conditioned(GRID, network, obs, ["y2~y1.amplitude"])
    assert _scored(split) == [1]
    geometry = _Geometry(GRID)
    before = split.score(GRID, network, geometry, 1e-8)
    huge = set_parameter(network, "y2~y1.amplitude", 1e200)
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(NumericalError, match="non-finite"):
        split.score(GRID, huge, geometry, 1e-8)
    assert split.score(GRID, network, geometry, 1e-8) == before


def test_scores_depend_on_their_parameters_alone():
    from condcov.conditional import _Geometry

    grid, network, obs, steps = _sim1d_refit_case()
    split = _conditioned(grid, network, obs, list(steps[0]))
    geometry = _Geometry(grid)
    first, second = (_edge_at(network, a, h) for a, h in ((5.0, 0.3),
                                                          (3.0, 0.5)))
    one = split.score(grid, first, geometry, 1e-8)
    block = split.block.copy()
    assert split.score(grid, second, geometry, 1e-8) != one
    assert split.score(grid, first, geometry, 1e-8) == one
    assert np.array_equal(split.block, block)
    # a public loglik, and another fit's split of the same data, keep
    # blocks of their own
    other = _conditioned(grid, network, obs, list(steps[0]))
    assert other.block is not split.block
    other.score(grid, second, _Geometry(grid), 1e-8)
    loglik(grid, second, obs)
    assert np.array_equal(split.block, block)
    assert split.score(grid, first, geometry, 1e-8) == one


def test_scoring_writes_over_no_kept_or_read_only_array():
    from condcov.conditional import (CovarianceEvaluator, _Geometry,
                                     kept_observations, observation_covariance)
    from condcov.linalg import chol_with_jitter
    from condcov.predict import cokrige, loo_cv

    grid, network, obs, steps = _sim1d_refit_case()
    split = _conditioned(grid, network, obs, list(steps[0]))
    geometry = _Geometry(grid)
    split.score(grid, network, geometry, 1e-8)
    loglik(grid, network, obs)
    slots = {key: block.copy() for key, (_, block) in geometry._slots.items()}
    factors = {a: F.copy() for a, F in split.factors.items()}
    for step in steps:
        net = network
        for name, value in step.items():
            net = set_parameter(net, name, value)
        split.score(grid, net, geometry, 1e-8)
    split.score(grid, network, geometry, 1e-8)
    for key, block in slots.items():
        assert not geometry._slots[key][1].flags.writeable
        assert np.array_equal(geometry._slots[key][1], block), key
    for a, F in split.factors.items():
        assert not F.flags.writeable and np.array_equal(F, factors[a])
    # cokrige and loo_cv factor a fresh copy of the evaluator's blocks
    model = JointModel(grid, network)
    kept = kept_observations(grid, network, obs)
    observation_covariance(model.evaluator, kept)
    cached = {key: block.copy() for key, block in model.evaluator._cov.items()}
    cokrige(model, obs, grid.vertices[::7], 1)
    loo_cv(model, obs)
    for key, block in cached.items():
        assert np.array_equal(model.evaluator._cov[key], block), key
    # a read-only matrix is factored in a copy
    matrix = model.matrix
    before = matrix.copy()
    L, jitter = chol_with_jitter(matrix, model.jitter_max)
    assert not matrix.flags.writeable and np.array_equal(matrix, before)
    assert np.array_equal(np.tril(L), model.chol) and jitter == model.jitter
