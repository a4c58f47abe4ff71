"""Tests for the Matern covariance and the interaction function kernels."""
import re

import numpy as np
import pytest

from condcov import (
    InteractionKind,
    MaternParams,
    ParameterError,
    TabulatedValues,
    ValidationError,
    bisquare,
    dirac,
    interaction_eval,
    interaction_values,
    load_tabulated,
    matern_cov,
    shifted_bisquare,
    tabulated,
    zero,
)


class TestMatern:
    @staticmethod
    def test_zero_distance_returns_variance():
        """At d = 0 the covariance is exactly the variance."""
        assert matern_cov(MaternParams(1.0, 25.0, 1.5), 0.0) == 1.0
        assert matern_cov(MaternParams(3.0, 2.0, 0.7), 0.0) == 3.0

    @staticmethod
    def test_exponential_special_case():
        # nu = 1/2 reduces to sigma2 * exp(-kappa d)
        got = matern_cov(MaternParams(1.0, 1.0, 0.5), 1.0)
        assert np.isclose(got, 0.36787944117144233, rtol=0, atol=1e-15)

    @staticmethod
    def test_half_integer_closed_forms():
        """nu in {0.5, 1.5, 2.5} admit closed forms; the kv route must agree."""
        d, kappa, s2 = 0.37, 4.2, 1.7
        x = kappa * d
        expected = {
            0.5: s2 * np.exp(-x),
            1.5: s2 * (1 + x) * np.exp(-x),
            2.5: s2 * (1 + x + x * x / 3) * np.exp(-x),
        }
        for nu, want in expected.items():
            got = matern_cov(MaternParams(s2, kappa, nu), d)
            assert np.isclose(got, want, rtol=1e-12), (nu, got, want)
        # perturbing nu off the half integer must stay continuous
        for nu in (0.5, 1.5, 2.5):
            a = matern_cov(MaternParams(s2, kappa, nu), d)
            b = matern_cov(MaternParams(s2, kappa, nu + 1e-7), d)
            assert abs(a - b) < 1e-5

    @staticmethod
    def test_monotone_and_decay():
        d = np.linspace(0.0, 2.0, 1000)
        for nu in (0.5, 1.0, 1.5):
            c = matern_cov(MaternParams(1.0, 25.0, nu), d)
            assert np.all(np.diff(c) <= 1e-15), nu
        # far field: essentially zero many correlation lengths out
        far = matern_cov(MaternParams(2.0, 25.0, 1.5), 1e3 / 25.0)
        assert far < 1e-6 * 2.0

    @staticmethod
    def test_large_smoothness_matches_log_space_evaluation():
        """Past nu ~ 171 Gamma(nu) overflows; the correlation must not."""
        from scipy.special import gammaln, kve

        x = np.array([0.5, 2.0, 10.0, 50.0, 200.0])
        for nu in (30.1, 170.9, 400.2):
            k = kve(nu, x)
            ok = np.isfinite(k)
            want = np.exp((1 - nu) * np.log(2.0) - gammaln(nu)
                          + nu * np.log(x[ok]) + np.log(k[ok]) - x[ok])
            got = matern_cov(MaternParams(1.0, 1.0, nu), x[ok])
            assert ok.any() and np.allclose(got, want, rtol=1e-11, atol=0), nu

    @staticmethod
    def test_vectorized_matches_scalar():
        p = MaternParams(0.2, 75.0, 1.5)
        d = np.array([0.0, 0.01, 0.05, 0.2])
        vec = matern_cov(p, d)
        assert vec.shape == (4,)
        for i, di in enumerate(d):
            assert vec[i] == matern_cov(p, float(di))

    @staticmethod
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    @pytest.mark.parametrize("nu", [1.5, 0.7])
    def test_distances_must_be_finite_and_nonnegative(bad, nu):
        p = MaternParams(1.0, 2.0, nu)
        for d in (bad, np.array([0.0, bad, 1.0]), np.array([[bad], [0.5]])):
            with pytest.raises(ParameterError, match="finite and nonnegative"):
                matern_cov(p, d)

    @staticmethod
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.7])
    def test_no_distances_give_no_covariances(nu):
        p = MaternParams(1.0, 2.0, nu)
        for shape in ((0,), (0, 3), (4, 0)):
            got = matern_cov(p, np.empty(shape))
            assert isinstance(got, np.ndarray) and got.shape == shape

    @staticmethod
    def test_invalid_params_rejected():
        for bad in [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ParameterError):
                MaternParams(*bad)


class TestInteractions:
    @staticmethod
    def test_zero_kind():
        spec = zero()
        assert spec.kind is InteractionKind.ZERO
        assert interaction_eval(spec, [0.1], [0.4]) == 0.0

    @staticmethod
    def test_dirac_has_no_pointwise_value():
        spec = dirac(-14.30)
        assert spec.amplitude == -14.30
        with pytest.raises(ParameterError):
            interaction_eval(spec, [0.0], [0.0])
        with pytest.raises(ParameterError):
            interaction_values(spec, np.zeros((2, 1)), np.zeros((2, 1)))

    @staticmethod
    def test_bisquare_shape():
        spec = bisquare(2.0, 1.0)
        # peak at coincident points, zero on the aperture boundary
        assert interaction_eval(spec, [0.0], [0.0]) == 2.0
        assert interaction_eval(spec, [0.0], [1.0]) == 0.0
        assert interaction_eval(spec, [0.0], [1.7]) == 0.0
        mid = interaction_eval(spec, [0.0], [0.5])
        assert np.isclose(mid, 2.0 * (1 - 0.25) ** 2)

    @staticmethod
    def test_shifted_bisquare_peak_at_shift():
        spec = shifted_bisquare(5.0, 0.3, (-0.3,))
        # v - s = -0.3 lands on the peak
        assert interaction_eval(spec, [0.0], [-0.3]) == 5.0
        assert interaction_eval(spec, [0.3], [0.0]) == 5.0
        # unshifted coincidence is on the support edge now
        assert interaction_eval(spec, [0.0], [0.0]) == 0.0

    @staticmethod
    def test_shifted_bisquare_2d():
        spec = shifted_bisquare(1.5, 0.5, (0.2, -0.1))
        assert interaction_eval(spec, [0.0, 0.0], [0.2, -0.1]) == 1.5
        h = np.array([0.2, -0.1]) + np.array([0.3, 0.0])
        got = interaction_eval(spec, [0.0, 0.0], h)
        assert np.isclose(got, 1.5 * (1 - (0.3 / 0.5) ** 2) ** 2)

    @staticmethod
    def test_shift_is_kept_as_a_tuple_of_floats():
        from condcov.kernels import InteractionSpec

        spec = InteractionSpec(InteractionKind.SHIFTED_BISQUARE, amplitude=1.0,
                               aperture=0.5, shift=np.array([0.2, -0.1]))
        assert spec.shift == (0.2, -0.1)
        assert spec == shifted_bisquare(1.0, 0.5, [0.2, -0.1])
        assert hash(spec) == hash(shifted_bisquare(1.0, 0.5, (0.2, -0.1)))
        assert shifted_bisquare(1.0, 0.5, -0.3).shift == (-0.3,)
        with pytest.raises(ParameterError):
            shifted_bisquare(1.0, 0.5, ("north",))

    @staticmethod
    def test_interaction_values_grid_block():
        spec = bisquare(5.0, 0.3)
        s = np.linspace(-1, 1, 11).reshape(-1, 1)
        v = np.linspace(-1, 1, 11).reshape(-1, 1)
        block = interaction_values(spec, s, v)
        assert block.shape == (11, 11)
        assert np.allclose(np.diag(block), 5.0)

    @staticmethod
    def test_aperture_must_be_positive():
        with pytest.raises(ParameterError):
            bisquare(1.0, 0.0)
        with pytest.raises(ParameterError):
            shifted_bisquare(1.0, -0.2, (0.0,))
        # amplitude of either sign is fine, including zero
        bisquare(-3.0, 0.5)
        bisquare(0.0, 0.5)


def test_bisquare_quadrature_mass():
    """Sum of |b| weighted by cell sizes approximates the analytic integral.

    int_{-r}^{r} A (1 - (t/r)^2)^2 dt = 16 A r / 15, checked on a grid with
    at least 20 cells per aperture width.
    """
    A, r = 5.0, 0.3
    n = 400  # h = 0.005, 60 cells per half-support
    x = np.linspace(-1 + 1 / n, 1 - 1 / n, n).reshape(-1, 1)
    h = 2.0 / n
    spec = bisquare(A, r)
    row = interaction_values(spec, np.array([[0.0]]), x)[0]
    mass = np.sum(np.abs(row)) * h
    assert np.isclose(mass, 16 * A * r / 15, rtol=1e-2)
    assert np.isclose(mass, 1.6, rtol=1e-2)


class TestTabulated:
    @staticmethod
    def _table():
        s_axis = np.array([0.0, 1.0])
        v_axis = np.array([0.0, 1.0, 2.0])
        values = np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 0.0]])
        return tabulated(s_axis, v_axis, values)

    def test_bilinear_interp(self):
        spec = self._table()
        assert interaction_eval(spec, [0.0], [1.0]) == 1.0
        assert interaction_eval(spec, [1.0], [0.0]) == 2.0
        # midpoint of the four corners
        got = interaction_eval(spec, [0.5], [0.5])
        assert np.isclose(got, (0.0 + 1.0 + 2.0 + 3.0) / 4)

    def test_outside_table_is_zero(self):
        spec = self._table()
        assert interaction_eval(spec, [-0.5], [0.5]) == 0.0
        assert interaction_eval(spec, [0.5], [2.5]) == 0.0

    def test_axes_must_increase(self):
        with pytest.raises(ValidationError):
            TabulatedValues(np.array([0.0, 0.0]), np.array([0.0, 1.0]),
                            np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            TabulatedValues(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                            np.zeros((2, 2)))

    def test_only_1d_locations(self):
        spec = self._table()
        with pytest.raises(ValidationError):
            interaction_values(spec, np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("sizes", [(2, 3), (17, 9), (1, 4), (5, 1), (1, 1)])
    def test_separable_lookup_matches_scipy(self, sizes):
        """Against RegularGridInterpolator (linear, 0 outside), within
        1e-15 of the table's largest value (a few ulp): both combine the
        same four corner values, in another order."""
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(list(sizes))

        def axis(size):
            if size == 1:
                return np.array([0.25])
            return np.sort(rng.uniform(-1.0, 1.0, size))

        s_axis, v_axis = axis(sizes[0]), axis(sizes[1])
        values = rng.normal(size=sizes) * 10.0
        table = TabulatedValues(s_axis, v_axis, values)

        def queries(ax):
            # inside, outside, on every node and just outside each end
            return np.concatenate([
                rng.uniform(-1.5, 1.5, 40), ax,
                [np.nextafter(ax[0], -np.inf), np.nextafter(ax[-1], np.inf)]])

        s, v = queries(s_axis), queries(v_axis)
        ref = RegularGridInterpolator(
            (s_axis, v_axis), values, method="linear", bounds_error=False,
            fill_value=0.0)(np.stack(np.broadcast_arrays(s[:, None], v[None, :]), -1))
        got = table(s, v)
        assert got.shape == (s.size, v.size)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(values))
        assert np.all(got[(s < s_axis[0]) | (s > s_axis[-1])] == 0.0)
        assert np.all(got[:, (v < v_axis[0]) | (v > v_axis[-1])] == 0.0)

    def test_lookup_forms_no_query_array(self):
        """Peak allocation of a product-grid lookup is two result arrays
        (tracemalloc), not the (m, n, 2) query points and more."""
        import tracemalloc

        rng = np.random.default_rng(3)
        table = TabulatedValues(np.linspace(-1.0, 1.0, 41),
                                np.linspace(-1.0, 1.0, 31),
                                rng.normal(size=(41, 31)))
        x = np.linspace(-1.2, 1.2, 800)
        tracemalloc.start()
        try:
            out = table(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (800, 800)
        assert peak <= 2.2 * out.nbytes


def test_load_tabulated_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "s,v,value\n"
        "0.0,0.0,0.0\n0.0,1.0,1.0\n0.0,2.0,0.0\n"
        "1.0,0.0,2.0\n1.0,1.0,3.0\n1.0,2.0,0.0\n"
    )
    spec = load_tabulated(path)
    assert spec.kind is InteractionKind.TABULATED
    assert interaction_eval(spec, [1.0], [1.0]) == 3.0


def test_load_tabulated_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("x,v,value\n0,0,1\n")
    with pytest.raises(ValidationError):
        load_tabulated(bad_header)

    incomplete = tmp_path / "bad2.csv"
    incomplete.write_text("s,v,value\n0,0,1\n0,1,2\n1,0,3\n")
    with pytest.raises(ValidationError):
        load_tabulated(incomplete)

    for cells in ("0,1,abc", "0,1"):
        garbled = tmp_path / "bad3.csv"
        garbled.write_text(f"s,v,value\n0,0,1\n{cells}\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{garbled}: line 3: expected numbers")):
            load_tabulated(garbled)


def test_load_tabulated_rejects_a_repeated_point(tmp_path):
    # two values for one (s, v), the later of which used to win unremarked
    path = tmp_path / "table.csv"
    path.write_text("s,v,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n0,0,9\n")
    with pytest.raises(ValidationError, match="not one per point"):
        load_tabulated(path)
