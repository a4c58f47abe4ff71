"""Every factorization goes through linalg: the jittered factor, in place
where the matrix allows it, against scipy's copy; its triangular inverse;
the pivoted factor; and the boundary that no other module calls LAPACK."""
import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import condcov
from condcov.errors import NumericalError
from condcov.linalg import chol_with_jitter, pivoted_factor, tri_inverse


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


def _given(mat, layout):
    """mat as a writable C- or F-order matrix, a read-only one (as
    ``JointModel.matrix`` is) or a strided view of a larger array."""
    if layout in ("C", "F"):
        return np.array(mat, order=layout)
    if layout == "read-only":
        given = mat.copy()
        given.setflags(write=False)
        return given
    wide = np.zeros((2 * len(mat), 2 * len(mat)))
    wide[::2, ::2] = mat
    return wide[::2, ::2]


@pytest.mark.parametrize("name", ["full", "low-rank", "indefinite"])
@pytest.mark.parametrize("layout", ["C", "F", "read-only", "strided"])
def test_the_in_place_factor_is_scipy_s(name, layout):
    mat = _matrices()[name]
    want = _scipy_ladder(mat)
    # one factors as it is, one on a rung of the ladder, one not at all
    if name == "indefinite":
        assert want is None
    else:
        assert (want[1] > 0.0) == (name == "low-rank")
    given = _given(mat, layout)
    in_place = layout in ("C", "F")
    if want is None:
        with pytest.raises(NumericalError, match="jitter escalation"):
            chol_with_jitter(given)
    else:
        L, jitter = chol_with_jitter(given)
        assert jitter == want[1]
        assert np.array_equal(np.tril(L), want[0])
        # a writable contiguous matrix holds the factor; any other is
        # factored in a copy whose upper triangle is 0
        assert np.shares_memory(L, given) == in_place
        if not in_place:
            assert not np.triu(L, 1).any()
    if not in_place:
        assert given.tobytes() == mat.tobytes()


def test_a_zero_diagonal_fails_instead_of_retrying_for_ever():
    # its jitter would be 1e-10 * 0
    with pytest.raises(NumericalError, match="jitter escalation"):
        chol_with_jitter(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_the_triangular_inverse_reads_only_the_lower_triangle():
    mat = _matrices()["full"]
    L, _ = chol_with_jitter(mat.copy(order="F"))
    assert np.triu(L, 1).any()  # the matrix's upper triangle is still there
    lower = np.tril(L)
    R = tri_inverse(L)
    assert np.shares_memory(R, L)  # inverted where the factor lies
    assert np.array_equal(R, tri_inverse(lower.copy()))
    assert not np.triu(R, 1).any()
    np.testing.assert_allclose(R @ lower, np.eye(len(mat)), rtol=0.0,
                               atol=1e-12)


def test_a_zero_pivot_fails_the_triangular_inverse_cleanly():
    with pytest.raises(NumericalError, match="trtri"):
        tri_inverse(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_the_pivoted_factor_keeps_k_s_rows_on_a_rank_deficient_k():
    rng = np.random.default_rng(8)
    # rows of growing scale, so that the pivots reorder them
    B = rng.normal(size=(30, 10)) * np.linspace(0.5, 2.0, 30)[:, None]
    K = B @ B.T
    F = pivoted_factor(K.copy(order="F"))
    assert F.shape == (30, 10)
    assert not F.flags.writeable
    np.testing.assert_allclose(F @ F.T, K, rtol=0.0, atol=1e-12)
    # not lower trapezoidal: its rows were put back in K's order
    assert np.triu(F, 1).any()


def test_only_linalg_imports_lapack():
    def lapack_imports(path):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}"
                                               for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[:3] == ["scipy", "linalg", "lapack"]
                   for n in names):
                yield f"{path.name}:{node.lineno}"

    src = Path(condcov.__file__).parent
    found = [line for path in sorted(src.glob("*.py"))
             for line in lapack_imports(path)]
    assert found  # linalg's own import is seen
    assert all(line.startswith("linalg.py:") for line in found), found
