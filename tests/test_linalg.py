import warnings

import numpy as np
import numpy.testing as npt
import pytest

from proxkit.linalg import (
    DimensionMismatchError,
    LinearOperator,
    SPDSolveError,
    as_vector,
    identity,
    inner,
    norm,
    op_norm,
    solve_spd,
    spd_inverse,
)


def test_as_vector_coercions():
    npt.assert_array_equal(as_vector([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
    v = as_vector(2.5)
    assert v.shape == (1,) and v[0] == 2.5
    assert as_vector(np.arange(4)).dtype == np.float64


def test_as_vector_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        as_vector(np.zeros(0))
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_vector_finiteness_check(bad):
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        as_vector([0.0, bad, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = as_vector([1e308, -1e308])
    npt.assert_array_equal(v, [1e308, -1e308])


def test_inner_and_norm():
    x = np.array([3.0, 4.0])
    assert inner(x, x) == 25.0
    assert norm(x) == 5.0
    with pytest.raises(DimensionMismatchError):
        inner(x, np.ones(3))


def test_linear_operator_roundtrip():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 3))
    a = LinearOperator(m)
    x = rng.standard_normal(3)
    y = rng.standard_normal(4)
    npt.assert_allclose(a.apply(x), m @ x)
    npt.assert_allclose(a @ x, m @ x)
    npt.assert_allclose(a.adjoint_apply(y), m.T @ y)
    npt.assert_allclose(a.T.apply(y), m.T @ y)
    assert a.shape == (4, 3) and a.n_out == 4 and a.n_in == 3
    # adjoint identity <Ax, y> = <x, A'y>
    assert abs(inner(a.apply(x), y) - inner(x, a.adjoint_apply(y))) < 1e-12


def test_linear_operator_guards():
    a = LinearOperator(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        a.apply(np.ones(2))
    with pytest.raises(DimensionMismatchError):
        a.adjoint_apply(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        LinearOperator(np.ones(3))
    with pytest.raises(ValueError):
        LinearOperator(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 7.0  # stored matrix is write-protected


def test_identity_operator():
    e = identity(3)
    x = np.array([1.0, -2.0, 0.5])
    npt.assert_array_equal(e.apply(x), x)
    assert op_norm(e) == pytest.approx(1.0, abs=1e-10)


def test_op_norm_matches_svd():
    rng = np.random.default_rng(5)
    for trial in range(8):
        m = rng.standard_normal((rng.integers(2, 9), rng.integers(2, 9)))
        a = LinearOperator(m)
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        assert op_norm(a) == pytest.approx(sigma, rel=1e-8)


def test_op_norm_zero_and_cache():
    a = LinearOperator(np.zeros((3, 3)))
    assert op_norm(a) == 0.0
    b = LinearOperator(np.diag([2.0, 1.0]))
    first = op_norm(b)
    assert b.cached_norm_estimate == first
    assert op_norm(b) == first
    assert first == pytest.approx(2.0, rel=1e-10)


def test_op_norm_deterministic():
    m = np.random.default_rng(2).standard_normal((6, 4))
    assert op_norm(LinearOperator(m)) == op_norm(LinearOperator(m.copy()))


def test_solve_spd_matches_dense_solve():
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = int(rng.integers(2, 20))
        b0 = rng.standard_normal((n, n))
        mat = b0 @ b0.T + n * np.eye(n)
        rhs = rng.standard_normal(n)
        s = solve_spd(mat, rhs)
        npt.assert_allclose(s, np.linalg.solve(mat, rhs), rtol=0, atol=1e-9)
        assert np.linalg.norm(mat @ s - rhs) <= 1e-12 * np.linalg.norm(rhs) * 10


def test_solve_spd_zero_rhs():
    npt.assert_array_equal(solve_spd(np.eye(3), np.zeros(3)), np.zeros(3))


def test_solve_spd_flags_indefinite_matrix():
    mat = np.diag([1.0, -1.0])
    with pytest.raises(SPDSolveError, match="nonpositive curvature"):
        solve_spd(mat, np.array([0.0, 1.0]))


def test_solve_spd_rejects_near_singular_and_singular_blocks():
    rng = np.random.default_rng(3)
    b0 = rng.standard_normal((40, 1))
    mat = b0 @ b0.T + 1e-8 * np.eye(40)
    with pytest.raises(SPDSolveError, match="residual"):
        solve_spd(mat, rng.standard_normal(40), tol=1e-15)
    singular = np.zeros((3, 3))
    singular[0, 0] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="LU failed"):
        solve_spd(singular, np.ones(3))


def test_solve_spd_dimension_guard():
    with pytest.raises(DimensionMismatchError):
        solve_spd(np.eye(3), np.ones(2))


# --- the SPD inverse from the Cholesky factor ----------------------------------------


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 400])
def test_spd_inverse_matches_numpy_inverse_and_is_symmetric(n):
    # sizes at, around and past the 64-row triangular leaf
    rng = np.random.default_rng(n)
    b0 = rng.standard_normal((n, n))
    mat = b0 @ b0.T / n + np.eye(n)
    inv = spd_inverse(mat)
    ref = np.linalg.inv(mat)
    assert np.array_equal(inv, inv.T)
    assert np.linalg.norm(inv - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [100, 300])
@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12])
def test_spd_inverse_residual_is_within_four_times_numpy_inverse(n, kappa):
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (u * np.logspace(0, -np.log10(kappa), n)) @ u.T
    mat = 0.5 * mat + 0.5 * mat.T
    eye = np.eye(n)
    inv = spd_inverse(mat)
    assert np.array_equal(inv, inv.T)
    ours = np.linalg.norm(mat @ inv - eye)
    assert ours <= 4.0 * np.linalg.norm(mat @ np.linalg.inv(mat) - eye)


def _leading_leaf_pd_but_indefinite():
    rng = np.random.default_rng(5)
    b0 = rng.standard_normal((100, 100))
    mat = b0 @ b0.T / 100 + np.eye(100)
    mat[90:, 90:] -= 50.0 * np.eye(10)
    # the recursion's first leaf at n = 100 is the leading 50 x 50 block
    assert np.linalg.eigvalsh(mat[:50, :50])[0] > 0.0 > np.linalg.eigvalsh(mat)[0]
    return mat


@pytest.mark.parametrize(
    "mat",
    [
        np.diag([1.0, -1.0]),
        np.ones((2, 2)),  # singular PSD: the second pivot is exactly 0
        np.diag(np.r_[np.ones(99), 0.0]),
        _leading_leaf_pd_but_indefinite(),
    ],
    ids=["indefinite", "singular-2x2", "singular-100", "leaf-pd-but-indefinite"],
)
def test_spd_inverse_rejects_what_is_not_positive_definite(mat):
    with pytest.raises(SPDSolveError, match="not positive definite"):
        spd_inverse(mat)


# --- norm without numpy's wrapper ----------------------------------------------------


def test_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(21)
    mat = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-100, 100, size=(7, 5))
    cases = [rng.standard_normal(n) for n in (1, 2, 3, 17, 100, 1001)]
    cases += [
        np.zeros(6), np.array([-0.0]), np.array([-0.0, 0.0]), np.array([1e-200, 3e-200]),
        [3.0, 4.0], [1, 2, 2], 2.5,
        mat, np.asfortranarray(mat), mat.T, mat[::2, ::-1],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in cases:
            assert np.float64(norm(x)).tobytes() == np.float64(np.linalg.norm(x)).tobytes()
            assert type(norm(x)) is float


def test_norm_overflows_to_inf_like_numpy_norm():
    big = np.array([1e200, -1e200, 3.0])
    # whatever numpy's own norm warns about the overflow in its dot, so
    # does this one, and both return inf
    caught = []
    for fn in (norm, np.linalg.norm):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert fn(big) == np.inf
        caught.append([(w.category, str(w.message)) for w in seen])
    assert caught[0] == caught[1]


# --- op_norm as an upper bound -------------------------------------------------------


def _svd_top(m):
    return np.linalg.svd(m, compute_uv=False)[0]


def _rotated(spectrum, seed):
    # exactly symmetric V diag(spectrum) V'
    v, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(spectrum),) * 2))
    m = (v * spectrum) @ v.T
    return 0.5 * (m + m.T)


_RNG = np.random.default_rng(31)
_OP_NORM_CASES = {
    "tall": _RNG.standard_normal((40, 7)),
    "wide": _RNG.standard_normal((6, 35)),
    "square_nonsymmetric": _RNG.standard_normal((12, 12)),
    "symmetric_psd": _rotated(np.array([4.0, 2.0, 1.0, 1e-9, 0.0, 0.0]), 3),
    "symmetric_indefinite": _rotated(np.array([-3.0, 2.5, 1.0, -0.5, 0.0]), 4),
    "rank_one": np.outer(_RNG.standard_normal(9), _RNG.standard_normal(5)),
    "row": _RNG.standard_normal((1, 30)),
    "column": _RNG.standard_normal((30, 1)),
    "one_by_one": np.array([[-2.5]]),
    "tiny_entries": _RNG.standard_normal((8, 5)) * 1e-170,
    "huge_entries": _RNG.standard_normal((5, 8)) * 1e170,
    "huge_symmetric": _rotated(np.array([-4.0, 1.0, 3.0]), 5) * 1e300,
}


@pytest.mark.parametrize("name", sorted(_OP_NORM_CASES))
def test_op_norm_is_an_upper_bound_within_rounding(name):
    m = _OP_NORM_CASES[name]
    top = _svd_top(m)
    got = op_norm(LinearOperator(m))
    assert type(got) is float
    assert top <= got <= top * (1 + 1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (1, 4), (4, 1), (2, 5)])
def test_op_norm_of_zero_matrix_is_zero(shape):
    got = op_norm(LinearOperator(np.zeros(shape)))
    assert got == 0.0 and np.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("seed", range(50))
def test_op_norm_bounds_a_clustered_spectrum(seed):
    rng = np.random.default_rng(1000 + seed)
    u, _ = np.linalg.qr(rng.standard_normal((60, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    spectrum = np.concatenate([[1.0, 1.0 - 1e-7], np.linspace(0.9, 0.1, 38)])
    m = (u * spectrum) @ v.T
    for op in (m, m.T, _rotated(np.concatenate([-spectrum, spectrum[2:5]]), seed)):
        got = op_norm(LinearOperator(op))
        top = _svd_top(op)
        assert top <= got <= top * (1 + 1e-12)


def _certifies_norm_bound(m, bound) -> bool:
    """True when bound^2 I - m'm is positive definite in exact rational
    arithmetic, i.e. bound > ||m||_2 for the integer matrix m."""
    from fractions import Fraction

    ints = [[int(t) for t in row] for row in m]
    cols = len(ints[0])
    t = Fraction(bound) ** 2
    h = [
        [(t if i == j else 0) - sum(r[i] * r[j] for r in ints) for j in range(cols)]
        for i in range(cols)
    ]
    for k in range(cols):
        if h[k][k] <= 0:
            return False
        for i in range(k + 1, cols):
            f = h[i][k] / h[k][k]
            for j in range(k, cols):
                h[i][j] -= f * h[k][j]
    return True


@pytest.mark.parametrize("seed", range(12))
def test_op_norm_is_a_certified_upper_bound_on_integer_matrices(seed):
    # ||M||^2 is an algebraic number here; exact elimination on
    # op_norm^2 I - M'M shows op_norm is above it, not just near it
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 7, size=2)
    b = rng.integers(-9, 10, size=(rows, cols))
    u, v = rng.integers(-9, 10, size=rows), rng.integers(1, 10, size=cols)
    for m in (b, b.T @ b - 40 * np.eye(cols, dtype=int), np.outer(u, v), u[None, :], u[:, None]):
        if not m.any():
            continue
        assert _certifies_norm_bound(m, op_norm(LinearOperator(m)))
