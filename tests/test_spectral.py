"""Spectral envelope checks and the closed-form candidate bounds."""
import numpy as np
import pytest
from scipy import integrate

from condcov import (
    MaternParams,
    ParameterError,
    ValidationError,
    check_cross_validity,
    matern_cov,
    matern_cross_smoothness,
    matern_cross_variance,
    matern_spectral_density,
    parsimonious_bounds,
)


def test_density_at_origin():
    # all-ones Matern in the plane: G(0) = 1/pi
    got = matern_spectral_density(MaternParams(1.0, 1.0, 1.0), 0.0)
    assert np.isclose(got, 0.3183098861837907, rtol=0, atol=1e-15)


def test_density_normalization():
    """2 pi Int_0^inf w G(w) dw recovers the variance."""
    for s2, kap, nu in [(1.0, 1.0, 1.0), (0.7, 25.0, 1.5), (2.0, 3.0, 0.8)]:
        p = MaternParams(s2, kap, nu)
        total, _ = integrate.quad(
            lambda w: 2 * np.pi * w * matern_spectral_density(p, w),
            0, np.inf, limit=400)
        assert np.isclose(total, s2, rtol=1e-6), (s2, kap, nu)


def test_density_vanishes_at_high_frequency():
    p = MaternParams(1.0, 1.0, 1.0)
    w = np.geomspace(1e-2, 1e5, 200)
    dens = matern_spectral_density(p, w)
    assert np.all(np.diff(dens) < 0)
    assert dens[-1] < 1e-18


def test_density_rejects_negative_frequency():
    with pytest.raises(ParameterError):
        matern_spectral_density(MaternParams(1.0, 1.0, 1.0), -0.5)


C11 = MaternParams(1.0, 2.0, 1.0)
C22 = MaternParams(1.0, 2.0, 4.0)


def test_zero_candidate_always_valid():
    table = np.array([[0.0, 0.0], [1.0, 0.0], [1e3, 0.0]])
    rep = check_cross_validity(C11, C22, table)
    assert rep.valid
    assert rep.worst_margin == 1.0  # nothing used of the envelope


def test_boundary_candidate_sits_on_envelope():
    b = parsimonious_bounds(1.0, 4.0, 1.0, 1.0, 2.0)
    bo = MaternParams(b["sig2_b_max"], 2.0, b["nu_b_min"])
    rep = check_cross_validity(C11, C22, bo)
    assert rep.valid
    assert rep.worst_margin >= -1e-9
    # it genuinely touches: the margin is ~0 somewhere, not slack everywhere
    assert rep.worst_margin < 1e-6
    # conditional spectral density G22 - B^2 G11 stays nonnegative up to tol
    g11 = matern_spectral_density(C11, rep.w)
    g22 = matern_spectral_density(C22, rep.w)
    cond = g22 - rep.candidate * g11
    assert np.all(cond >= -1e-9 * g22)


def test_inflated_candidate_fails():
    b = parsimonious_bounds(1.0, 4.0, 1.0, 1.0, 2.0)
    bo = MaternParams(1.5 * b["sig2_b_max"], 2.0, b["nu_b_min"])
    rep = check_cross_validity(C11, C22, bo)
    assert not rep.valid
    assert rep.worst_margin < -1e-9


def test_scale_mismatch_rejected():
    bo = MaternParams(0.1, 3.0, 1.0)  # different inverse range
    with pytest.raises(ValidationError, match="tabulated"):
        check_cross_validity(C11, C22, bo)


def test_tabulated_candidate_scanned_at_own_frequencies():
    w = np.geomspace(1e-3, 1e3, 64)
    bvals = matern_spectral_density(MaternParams(0.05, 2.0, 1.0), w)
    rep = check_cross_validity(C11, C22, np.column_stack([w, bvals]))
    assert rep.valid
    assert np.array_equal(rep.w, w)


def test_tabulated_candidate_shape_checked():
    with pytest.raises(ValidationError):
        check_cross_validity(C11, C22, np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        check_cross_validity(C11, C22, np.zeros((4, 3)))


class TestParsimoniousBounds:
    def test_requires_smoothness_gap(self):
        with pytest.raises(ParameterError):
            parsimonious_bounds(1.0, 3.0, 1.0, 1.0, 2.0)  # nu22 = nu11 + 2
        with pytest.raises(ParameterError):
            parsimonious_bounds(1.5, 1.0, 1.0, 1.0, 2.0)

    def test_boundary_identities(self):
        # nu11 = 0.5, nu22 = 3.5: the induced cross smoothness is the average
        b = parsimonious_bounds(0.5, 3.5, 1.0, 1.0, 1.0)
        assert b["nu12"] == (0.5 + 3.5) / 2 == 2.0
        assert b["nu_b_min"] == 0.5
        # amplitude cap: 2 s11 s22 sqrt(nu11 nu22)/(nu11+nu22)
        b2 = parsimonious_bounds(1.0, 4.0, 1.0, 1.0, 2.0)
        cap = 2 * 1.0 * 1.0 * np.sqrt(1.0 * 4.0) / (1.0 + 4.0)
        assert np.isclose(b2["sig2_12_max"], cap, rtol=0, atol=1e-12)
        assert cap == 0.8

    def test_all_ones_cross_variance(self):
        got = matern_cross_variance(1.0, 1.0, 1.0, 1.0, 1.0)
        assert np.isclose(got, 0.1061032953945969, rtol=0, atol=1e-15)

    def test_cross_smoothness(self):
        assert matern_cross_smoothness(0.5, 0.5) == 2.0
        assert matern_cross_smoothness(1.0, 1.5) == 3.5


def test_product_identity_of_spectral_densities():
    """B(w) G11(w) is again a Matern density, with the documented parameters.

    This is the spectral face of the fact that the boundary construction
    induces a Matern cross covariance.
    """
    nu11, nu22, kap = 1.0, 4.0, 2.0
    b = parsimonious_bounds(nu11, nu22, 1.0, 1.0, kap)
    bo = MaternParams(b["sig2_b_max"], kap, b["nu_b_min"])
    c11 = MaternParams(1.0, kap, nu11)
    induced = MaternParams(b["sig2_12_max"], kap, b["nu12"])
    w = np.geomspace(1e-3, 1e3, 200)
    lhs = matern_spectral_density(bo, w) * matern_spectral_density(c11, w)
    rhs = matern_spectral_density(induced, w)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_induced_cross_covariance_is_matern():
    """Hankel-transforming B G11 recovers the closed-form Matern in space."""
    from scipy.special import j0

    nu11, kap = 1.0, 2.0
    b = parsimonious_bounds(nu11, 4.0, 1.0, 1.0, kap)
    bo = MaternParams(b["sig2_b_max"], kap, b["nu_b_min"])
    c11 = MaternParams(1.0, kap, nu11)
    induced = MaternParams(b["sig2_12_max"], kap, b["nu12"])

    def f12(w):
        return matern_spectral_density(bo, w) * matern_spectral_density(c11, w)

    lags = np.linspace(0.01, 1.2, 20)
    for d in lags:
        got, _ = integrate.quad(lambda w: 2 * np.pi * w * j0(w * d) * f12(w),
                                0, np.inf, limit=800)
        want = matern_cov(induced, float(d))
        assert abs(got - want) <= 0.005 * abs(want), d
