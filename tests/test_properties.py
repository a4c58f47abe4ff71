"""Property tests: Matern continuity, parameter addressing and CSV round
trips.

Networks are generated with hypothesis over every interaction kind, with
optional means, nuggets and noise.
"""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from condcov import (
    Grid,
    MaternParams,
    MeanSpec,
    Observations,
    ProcessNetwork,
    ProcessNode,
    ValidationError,
    bisquare,
    dirac,
    get_parameter,
    list_parameters,
    load_mesh,
    load_observations,
    matern_cov,
    save_mesh,
    save_observations,
    set_parameter,
    shifted_bisquare,
    tabulated,
    zero,
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


interactions = st.one_of(
    st.just(zero()),
    st.builds(dirac, finite),
    st.builds(bisquare, finite, positive),
    st.builds(shifted_bisquare, finite, positive,
              st.lists(finite, min_size=1, max_size=1)),
    st.lists(finite, min_size=4, max_size=4).map(
        lambda v: tabulated([0.0, 1.0], [0.0, 1.0], [v[:2], v[2:]])),
)


@st.composite
def networks(draw):
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
            parents=tuple((a, draw(interactions)) for a in sorted(parents)),
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


# every finite double, with -0.0, subnormals and the extremes always among
# the candidates
doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(dim=st.integers(1, 3), n=st.integers(1, 6), data=st.data())
def test_meshes_round_trip_exactly(tmp_path_factory, dim, n, data):
    grid = Grid(data.draw(arrays(float, (n, dim), elements=doubles)),
                data.draw(arrays(float, n, elements=doubles.filter(
                    lambda w: w > 0.0))))
    path = tmp_path_factory.mktemp("mesh") / "mesh.csv"
    save_mesh(grid, path)
    back = load_mesh(path)
    assert _same_bits(back.vertices, grid.vertices)
    assert _same_bits(back.weights, grid.weights)


def _accepted(name: str) -> bool:
    try:
        ProcessNode(name, MaternParams(1.0, 1.0, 1.0))
    except ValidationError:
        return False
    return True


# every name ProcessNode accepts, with quotes, "=", "#" after the start, a
# no-break space and a name that reads as an index among the candidates
node_names = (st.sampled_from(['a"b', '"', "q=1", "n#", "y\xa0", "y\xa0z", "2"])
              | st.text(min_size=1, max_size=6)).filter(_accepted)


@SETTINGS
@given(names=st.lists(node_names, min_size=1, max_size=3, unique=True),
       dim=st.integers(1, 3), data=st.data())
def test_observations_round_trip_exactly(tmp_path_factory, names, dim, data):
    obs = []
    for q in range(len(names)):
        m = data.draw(st.integers(min_value=0 if q else 1, max_value=4))
        obs.append(Observations(
            q, data.draw(arrays(float, (m, dim), elements=doubles)),
            data.draw(arrays(float, m, elements=doubles))))
    path = tmp_path_factory.mktemp("obs") / "obs.csv"
    save_observations(obs, names, path)
    for a, b in zip(obs, load_observations(path, names), strict=True):
        assert b.variable == a.variable
        assert _same_bits(b.locations, a.locations)
        assert _same_bits(b.values, a.values)
