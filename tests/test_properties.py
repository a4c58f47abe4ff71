"""Property tests: Matern continuity, parameter addressing, config round trip.

Networks and configs are generated with hypothesis over every interaction
kind, 1-d and 2-d grids, optional means, nuggets and noise, and every
optional config section.
"""
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from condcov import (
    EUCLIDEAN,
    MaternParams,
    MeanSpec,
    OptimizerConfig,
    ProcessNetwork,
    ProcessNode,
    bisquare,
    chordal,
    dirac,
    get_parameter,
    list_parameters,
    matern_cov,
    regular_grid,
    set_parameter,
    shifted_bisquare,
    tabulated,
    zero,
)
from condcov.cli import (
    FitSettings,
    ParsedConfig,
    RefitSettings,
    Region,
    SimulationSettings,
    SpectralSettings,
    config_to_dict,
    parse_config_dict,
)

SETTINGS = settings(max_examples=25, deadline=None)

positive = st.floats(min_value=1e-3, max_value=1e3)
nonnegative = st.floats(min_value=0.0, max_value=10.0)
finite = st.floats(min_value=-1e3, max_value=1e3)

# the admissible values of each addressable field
FIELD_VALUES = {
    "variance": positive, "scale": positive, "smoothness": positive,
    "aperture": positive, "nugget": nonnegative, "noise": nonnegative,
    "amplitude": finite,
}

maternals = st.builds(MaternParams, positive, positive, positive)

# from 0 and the tiny arguments where kv overflows to the huge ones where it
# underflows
DISTANCES = np.concatenate([[0.0], np.logspace(-300, 5, 400)])


@SETTINGS
@given(nu=st.sampled_from([0.5, 1.5, 2.5]),
       delta=st.floats(min_value=-1e-7, max_value=1e-7),
       variance=positive, scale=positive)
def test_matern_closed_forms_meet_the_kv_path(nu, delta, variance, scale):
    closed = matern_cov(MaternParams(variance, scale, nu), DISTANCES)
    general = matern_cov(MaternParams(variance, scale, nu + delta), DISTANCES)
    assert np.max(np.abs(closed - general)) <= 1e-6 * variance


@SETTINGS
@given(params=maternals)
def test_matern_is_a_bounded_nonincreasing_covariance(params):
    assert matern_cov(params, 0.0) == params.variance
    values = matern_cov(params, DISTANCES)
    assert np.all(np.isfinite(values))
    assert np.all((values >= 0.0) & (values <= params.variance))
    # up to the rounding of ~1e3 recurrence steps for the largest smoothness
    assert np.all(np.diff(values) <= 1e-12 * params.variance)


def interactions(dim):
    # like shifts of length dim, tabulated edges exist only on 1-d grids
    table = st.lists(finite, min_size=4, max_size=4).map(
        lambda v: tabulated([0.0, 1.0], [0.0, 1.0], [v[:2], v[2:]]))
    return st.one_of(
        st.just(zero()),
        st.builds(dirac, finite),
        st.builds(bisquare, finite, positive),
        st.builds(shifted_bisquare, finite, positive,
                  st.lists(finite, min_size=dim, max_size=dim)),
        *([table] if dim == 1 else []),
    )


@st.composite
def networks(draw, dim=1):
    p = draw(st.integers(min_value=2, max_value=3))
    nodes = []
    for q in range(p):
        parents = draw(st.lists(st.integers(0, q - 1), unique=True,
                                max_size=q)) if q else []
        mean = draw(st.none() | st.builds(
            MeanSpec, st.just(("const", "x")),
            st.lists(finite, min_size=2, max_size=2)))
        nodes.append(ProcessNode(
            f"y{q + 1}", draw(maternals),
            parents=tuple((a, draw(interactions(dim))) for a in sorted(parents)),
            mean=mean, nugget=draw(nonnegative), noise=draw(nonnegative)))
    return ProcessNetwork(tuple(nodes))


@SETTINGS
@given(network=networks(), data=st.data())
def test_set_then_get_round_trips(network, data):
    names = list_parameters(network)
    for name in names:
        field = name.rpartition(".")[2]
        values = finite if field.startswith("shift") else FIELD_VALUES[field]
        value = data.draw(values, label=name)
        changed = set_parameter(network, name, value)
        assert get_parameter(changed, name) == value
        for other in names:
            if other != name:
                assert get_parameter(changed, other) == \
                    get_parameter(network, other), (name, other)


def regions(dim, unobserved=False):
    boxes = st.lists(finite, min_size=2 * dim, max_size=2 * dim).map(
        lambda c: Region("box", lo=tuple(c[:dim]), hi=tuple(c[dim:])))
    kinds = ["all", "none"] + (["unobserved"] if unobserved else [])
    return st.sampled_from([Region(k) for k in kinds]) | boxes


@st.composite
def configs(draw):
    dim = draw(st.integers(min_value=1, max_value=2))
    # chordal distances are between (lon, lat) pairs
    metric = EUCLIDEAN if dim == 1 \
        else draw(st.just(EUCLIDEAN) | st.builds(chordal, positive))
    counts = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    bounds = [(-1.0, draw(positive)) for _ in range(dim)]
    grid = regular_grid(bounds, counts, metric)
    network = draw(networks(dim))
    params = list_parameters(network)
    free_names = st.lists(st.sampled_from(params), min_size=1, unique=True)
    fit = draw(st.none() | st.builds(
        FitSettings, st.sampled_from(["model", "demo"]),
        st.none() | free_names.map(tuple),
        st.builds(OptimizerConfig, seed=st.integers(0, 99),
                  restarts=st.integers(1, 5), max_evals=st.integers(1, 5000))))
    simulation = None
    if draw(st.booleans()):
        names = network.names
        refit = None
        if draw(st.booleans()):
            # one refit edge, in place of the child's edge from that parent
            q = draw(st.integers(1, network.p - 1))
            a = draw(st.integers(0, q - 1))
            node = network.nodes[q]
            edges = sorted([e for e in node.parents if e[0] != a]
                           + [(a, draw(interactions(dim)))], key=lambda e: e[0])
            nodes = list(network.nodes)
            nodes[q] = dataclasses.replace(node, parents=tuple(edges))
            refit = RefitSettings(free=draw(free_names.map(tuple)),
                                  network=ProcessNetwork(tuple(nodes)))
        simulation = SimulationSettings(
            replicates=draw(st.integers(1, 100)),
            seed=draw(st.integers(0, 99)),
            target=draw(st.sampled_from(names)),
            observed=tuple((name, draw(regions(dim))) for name in names),
            evaluate=draw(regions(dim, unobserved=True)),
            refit=refit,
        )
    table = st.lists(st.tuples(finite, finite), min_size=2, max_size=4).map(tuple)
    spectral = draw(st.none() | st.builds(
        SpectralSettings, maternals, maternals, maternals | table,
        wmax=st.none() | positive, nsamples=st.integers(2, 8192)))
    return ParsedConfig(grid=grid, network=network, fit=fit,
                        simulation=simulation, spectral=spectral)


@SETTINGS
@given(cfg=configs())
def test_config_dict_round_trips(cfg):
    assert parse_config_dict(config_to_dict(cfg), ".", "roundtrip") == cfg
