"""Joint field simulation and the replicated prediction study driver."""
import numpy as np
import pytest

from condcov import (
    MaternParams,
    MeanSpec,
    ProcessNetwork,
    ProcessNode,
    SimStudyConfig,
    ValidationError,
    assemble_dag,
    asymmetric_1d_study,
    bisquare,
    dirac,
    regular_grid,
    run_sim_study,
    sample_joint,
    simulate_replicate,
    zero,
)


def _small_model(nugget=0.0):
    g = regular_grid([(0.0, 1.0)], [4])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 3.0, 1.5)),
        ProcessNode("y2", MaternParams(0.4, 5.0, 0.5),
                    parents=((0, dirac(0.6)),), nugget=nugget),
    ))
    return assemble_dag(g, net)


def test_sample_joint_deterministic():
    model = _small_model()
    a = sample_joint(model, seed=12, index=3)
    b = sample_joint(model, seed=12, index=3)
    assert np.array_equal(a, b)
    c = sample_joint(model, seed=12, index=4)
    assert not np.array_equal(a, c)
    d = sample_joint(model, seed=13, index=3)
    assert not np.array_equal(a, d)


def test_sample_joint_shape_and_mean():
    g = regular_grid([(0.0, 1.0)], [5])
    net = ProcessNetwork((
        ProcessNode("y", MaternParams(1.0, 3.0, 1.5),
                    mean=MeanSpec(("const",), (2.5,))),
    ))
    model = assemble_dag(g, net)
    f = sample_joint(model, seed=0)
    assert f.shape == (1, 5)
    many = np.stack([sample_joint(model, seed=1, index=i)[0] for i in range(400)])
    assert abs(np.mean(many) - 2.5) < 0.2


def test_zero_covariance_returns_mean_exactly():
    """Degenerate model: zero covariance, so every draw equals the mean."""
    from condcov import JointModel

    g = regular_grid([(0.0, 1.0)], [3])
    net = ProcessNetwork((
        ProcessNode("y", MaternParams(1.0, 3.0, 1.5),
                    mean=MeanSpec(("const",), (2.5,))),
    ))
    degenerate = JointModel(g, net)
    degenerate.matrix = np.zeros((3, 3))
    assert np.array_equal(degenerate.chol, np.zeros((3, 3)))
    for i in range(5):
        f = sample_joint(degenerate, seed=9, index=i)
        assert np.array_equal(f, np.full((1, 3), 2.5))


def test_sample_moments_match_model():
    model = _small_model(nugget=0.05)
    nrep = 20000
    draws = np.stack([sample_joint(model, seed=7, index=i).ravel()
                      for i in range(nrep)])
    emp = draws.T @ draws / nrep
    C = model.matrix
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2) / nrep)
    assert np.all(np.abs(emp - C) < 5 * se + 1e-12)
    # marginal variance at one vertex within 5%
    assert abs(np.var(draws[:, 0]) - C[0, 0]) < 0.05 * C[0, 0]


def _study_cfg(replicates=2):
    from condcov import OptimizerConfig

    g = regular_grid([(-1.0, 1.0)], [40])
    net = ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5),
                    parents=((0, bisquare(5.0, 0.3)),), noise=0.25),
    ))
    x = g.vertices[:, 0]
    return SimStudyConfig(
        grid=g, network=net,
        observed=(x >= 0.0, np.ones(40, dtype=bool)),
        eval_mask=x < 0.0,
        target=0, replicates=replicates, seed=0,
        optimizer=OptimizerConfig(seed=0, restarts=1, max_evals=100),
    )


class TestStudyConfig:
    def test_rejects_nothing_observed(self):
        cfg = _study_cfg()
        with pytest.raises(ValidationError):
            SimStudyConfig(
                grid=cfg.grid, network=cfg.network,
                observed=(np.zeros(40, dtype=bool), np.zeros(40, dtype=bool)),
                eval_mask=cfg.eval_mask)

    def test_rejects_empty_eval(self):
        cfg = _study_cfg()
        with pytest.raises(ValidationError):
            SimStudyConfig(
                grid=cfg.grid, network=cfg.network, observed=cfg.observed,
                eval_mask=np.zeros(40, dtype=bool))

    def test_rejects_bad_target(self):
        cfg = _study_cfg()
        with pytest.raises(ValidationError):
            SimStudyConfig(
                grid=cfg.grid, network=cfg.network, observed=cfg.observed,
                eval_mask=cfg.eval_mask, target=5)

    def test_rejects_mask_shape_mismatch(self):
        cfg = _study_cfg()
        with pytest.raises(ValidationError):
            SimStudyConfig(
                grid=cfg.grid, network=cfg.network,
                observed=(np.ones(39, dtype=bool), np.ones(40, dtype=bool)),
                eval_mask=cfg.eval_mask)

    def test_refit_needs_free_names(self):
        cfg = _study_cfg()
        with pytest.raises(ValidationError):
            SimStudyConfig(
                grid=cfg.grid, network=cfg.network, observed=cfg.observed,
                eval_mask=cfg.eval_mask, refit_network=cfg.network,
                refit_free=())


def test_simulate_replicate_arms():
    cfg = _study_cfg()
    run = simulate_replicate(cfg, replicate=0)
    assert set(run.predictions) == {"cokriging", "kriging"}
    assert run.fields.shape == (2, 40)
    # observations respect the masks
    assert run.observations[0].locations.shape[0] == int(np.sum(cfg.observed[0]))
    assert run.observations[1].locations.shape[0] == 40
    # noise was added: observed values differ from the latent field
    f0 = run.fields[0][cfg.observed[0]]
    assert not np.allclose(run.observations[0].values, f0)


def test_run_sim_study_summary_and_determinism():
    cfg = _study_cfg(replicates=3)
    res1 = run_sim_study(cfg)
    res2 = run_sim_study(cfg)
    assert len(res1.scores) == 3
    assert res1.summary["replicates"] == 3
    assert set(res1.summary["mean_rmse"]) == {"cokriging", "kriging"}
    assert "cokriging_wins_vs_kriging" in res1.summary
    for s1, s2 in zip(res1.scores, res2.scores):
        assert s1.rmse == s2.rmse


def test_asymmetric_study_config():
    cfg = asymmetric_1d_study(replicates=2, seed=0)
    assert cfg.replicates == 2
    assert cfg.grid.n == 200
    assert cfg.refit_network is not None
    assert cfg.refit_free == ("y2~y1.amplitude", "y2~y1.aperture")
    # the refit network has no displacement to estimate
    from condcov import list_parameters

    assert "y2~y1.shift1" not in list_parameters(cfg.refit_network)
    run = simulate_replicate(cfg, replicate=0)
    assert set(run.predictions) == {"cokriging", "kriging", "refit"}
    assert set(run.estimates) == {"y2~y1.amplitude", "y2~y1.aperture"}
