"""The one factor path: chol_with_jitter in place, against scipy's copy."""
import numpy as np
import pytest
import scipy.linalg

from condcov.errors import NumericalError
from condcov.linalg import chol_inverse, chol_with_jitter


def _scipy_ladder(mat, jitter_max=1e-8):
    """The jitter ladder through ``scipy.linalg.cholesky``, which factors a
    copy of mat + jitter I for each rung: (L, jitter), or None at the cap."""
    d = float(np.mean(np.diagonal(mat)))
    jitter = 0.0
    while jitter <= jitter_max * d * (1 + 1e-12):
        try:
            L = scipy.linalg.cholesky(mat + jitter * np.eye(len(mat)),
                                      lower=True, check_finite=False)
            return L, jitter
        except scipy.linalg.LinAlgError:
            jitter = 1e-10 * d if jitter == 0.0 else 10.0 * jitter
    return None


def _matrices():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(30, 30))
    full = A @ A.T + 30.0 * np.eye(30)
    B = rng.normal(size=(30, 10))
    low_rank = B @ B.T  # singular: factors only with a jitter
    indefinite = full - 200.0 * np.eye(30)
    return {"full": full, "low-rank": low_rank, "indefinite": indefinite}


@pytest.mark.parametrize("name", ["full", "low-rank", "indefinite"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_the_in_place_factor_is_scipy_s(name, order):
    mat = np.array(_matrices()[name], order=order)
    want = _scipy_ladder(mat)
    # one factors as it is, one on a rung of the ladder, one not at all
    if name == "indefinite":
        assert want is None
    else:
        assert (want[1] > 0.0) == (name == "low-rank")
    for overwrite in (False, True):
        given = mat.copy(order=order)
        if want is None:
            with pytest.raises(NumericalError, match="jitter escalation"):
                chol_with_jitter(given, overwrite=overwrite)
            continue
        L, jitter = chol_with_jitter(given, overwrite=overwrite)
        assert jitter == want[1]
        assert np.array_equal(np.tril(L), want[0])
        if overwrite:
            # the caller's memory holds the factor
            assert np.shares_memory(L, given)
        else:
            assert np.array_equal(given, mat)
            assert not np.triu(L, 1).any()


def test_a_zero_diagonal_fails_instead_of_retrying_for_ever():
    # its jitter would be 1e-10 * 0
    with pytest.raises(NumericalError, match="jitter escalation"):
        chol_with_jitter(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_the_cholesky_inverse_reads_only_the_lower_triangle():
    mat = _matrices()["full"]
    L, _ = chol_with_jitter(mat.copy(), overwrite=True)
    assert np.triu(L, 1).any()  # the matrix's upper triangle is still there
    P = chol_inverse(L)
    assert np.array_equal(P, chol_inverse(np.tril(L)))
    np.testing.assert_allclose(P @ mat, np.eye(len(mat)), atol=1e-12)
