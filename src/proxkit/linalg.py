"""Dense vectors and operators on R^N.

Everything downstream works in plain Euclidean coordinates: vectors are 1-d
numpy arrays, operators are dense matrices with explicit adjoints.  This
module adds the three pieces of dense linear algebra the solvers need: a
rounding-tight upper bound on an operator's spectral norm, a direct solve
for SPD Newton systems that rejects what it cannot certify, and the
explicit inverse of an SPD matrix from its Cholesky factor.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "SPDSolveError",
    "as_vector",
    "inner",
    "norm",
    "LinearOperator",
    "identity",
    "op_norm",
    "solve_spd",
    "spd_inverse",
]

_LEAF = 64  # largest triangle spd_inverse inverts directly; 32 ran as fast, 128 slower


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class SPDSolveError(np.linalg.LinAlgError):
    """solve_spd or spd_inverse could not produce a certified result: the
    matrix is singular, too ill-conditioned, or not positive definite."""


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array (the only vector type used here)."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    if v.size < 1:
        raise DimensionMismatchError("vectors must have dimension >= 1")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def inner(x, y) -> float:
    """Euclidean inner product; raises on mismatched dimensions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"inner: shapes {x.shape} and {y.shape} differ")
    return float(np.dot(x, y))


def norm(x) -> float:
    """Euclidean (Frobenius) norm, by the formula np.linalg.norm uses for
    vectors, without its Python wrapper: sqrt of the raveled self-dot."""
    v = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


class LinearOperator:
    """Dense matrix with adjoint application and a cached spectral norm.

    Immutable after construction except the norm cache, which is only ever
    set to the same value, so concurrent reads/updates are idempotent.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatchError(f"operator matrix must be 2-d, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.cached_norm_estimate: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_in,):
            raise DimensionMismatchError(
                f"operator of shape {self.shape} applied to vector of shape {x.shape}"
            )
        return self.matrix @ x

    def adjoint_apply(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_out,):
            raise DimensionMismatchError(
                f"adjoint of operator with shape {self.shape} applied to shape {y.shape}"
            )
        return self.matrix.T @ y

    # convenience aliases so call sites read like math
    def __matmul__(self, x):
        return self.apply(x)

    @property
    def T(self) -> "LinearOperator":
        return LinearOperator(self.matrix.T)

    def __repr__(self):
        return f"LinearOperator(shape={self.shape})"


def identity(n: int) -> LinearOperator:
    return LinearOperator(np.eye(n))


def op_norm(A: LinearOperator) -> float:
    """Largest singular value of A, rounded up to an upper bound and cached.

    Exactly symmetric A: max |lambda| from np.linalg.eigvalsh.  Otherwise
    sqrt(lambda_max) of the smaller Gram matrix of A scaled to a largest
    entry of 1, so G neither overflows nor underflows to 0.  Symmetric QR is
    backward stable, with eigenvalue error at most p(n) * eps * ||G||_2 for
    a modestly growing p (Golub & Van Loan, Matrix Computations, 8.3); the
    factor 1 + (rows + cols) * eps takes p = rows + cols.  A dense SVD is
    accurate to rounding in either direction, not an upper bound.
    """
    if A.cached_norm_estimate is None:
        M = A.matrix
        rows, cols = M.shape
        scale = float(np.abs(M).max(initial=0.0))
        if scale == 0.0:
            top = 0.0
        elif rows == cols and np.array_equal(M, M.T):
            top = np.abs(np.linalg.eigvalsh(M)).max()
        else:
            S = M / scale
            G = S.T @ S if rows >= cols else S @ S.T
            top = scale * math.sqrt(np.linalg.eigvalsh(G)[-1])
        A.cached_norm_estimate = float(top * (1.0 + (rows + cols) * np.finfo(float).eps))
    return A.cached_norm_estimate


def solve_spd(M, b, tol: float = 1e-12) -> np.ndarray:
    """Solve M s = b for symmetric positive definite M by one dense LU solve.

    M may be a LinearOperator or a dense symmetric array.  SPD-ness is not
    checked up front; SPDSolveError is raised when the LU factorization fails,
    when the true residual ||M s - b|| exceeds tol * ||b||, or when s.b <= 0,
    i.e. the solve met nonpositive curvature along s.
    """
    A = M.matrix if isinstance(M, LinearOperator) else np.asarray(M, dtype=float)
    b = as_vector(b)
    n = b.size
    if A.shape != (n, n):
        raise DimensionMismatchError(f"solve_spd: matrix {A.shape} vs rhs {b.shape}")
    nb = norm(b)
    if nb == 0.0:
        return np.zeros(n)
    try:
        s = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SPDSolveError(f"solve_spd: LU failed ({exc})") from None
    res = norm(A @ s - b)
    if not res <= tol * nb:
        raise SPDSolveError(f"solve_spd: residual {res:.3e} above tol*||b|| = {tol * nb:.3e}")
    curv = float(s @ b)
    if not curv > 0.0:
        raise SPDSolveError(f"solve_spd: nonpositive curvature s.b = {curv:.6g}")
    return s


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for lower triangular L as a left inverse, X L = I, by 2x2 block
    recursion with X21 = -(X22 L21) X11; a leaf inverts L' by LU, which
    pivots nowhere on a triangular matrix.  X22 (L21 X11) on inv(L) leaves
    gave up to 4.7 times np.linalg.inv's ||M M^-1 - I|| at condition 1e12."""
    n = L.shape[0]
    if n <= _LEAF:
        return np.tril(np.linalg.inv(L.T).T)
    h = n // 2
    X = np.zeros_like(L)
    X[:h, :h] = X11 = _tril_inverse(L[:h, :h])
    X[h:, h:] = X22 = _tril_inverse(L[h:, h:])
    X[h:, :h] = -(X22 @ L[h:, :h]) @ X11
    return X


def spd_inverse(M) -> np.ndarray:
    """M^-1 for symmetric positive definite M from its Cholesky factor, as
    X'X with X = L^-1 (LAPACK potri's route; Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 14): exactly symmetric, as accurate as
    np.linalg.inv and about twice as fast at n = 400.  Reads the lower
    triangle of M; SPDSolveError when M is not numerically positive definite."""
    try:
        L = np.linalg.cholesky(np.asarray(M, dtype=float))
    except np.linalg.LinAlgError:
        raise SPDSolveError("spd_inverse: matrix is not positive definite") from None
    X = _tril_inverse(L)
    return X.T @ X  # one syrk in numpy, so the result is exactly symmetric
