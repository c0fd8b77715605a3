"""Dense vectors and operators on R^N.

Everything downstream works in plain Euclidean coordinates: vectors are 1-d
numpy arrays, operators are dense matrices with explicit adjoints.  This
module adds the two pieces of numerical plumbing the solvers need, a seeded
power iteration for operator norms and a conjugate-gradient solve for
symmetric positive definite Newton systems.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NegativeCurvatureError",
    "as_vector",
    "inner",
    "norm",
    "LinearOperator",
    "identity",
    "op_norm",
    "solve_spd",
    "vector_to_json",
    "vector_from_json",
]


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NegativeCurvatureError(RuntimeError):
    """CG met a direction of nonpositive curvature; the matrix is not SPD."""

    def __init__(self, iteration: int, curvature: float):
        self.iteration = iteration
        self.curvature = curvature
        super().__init__(
            f"negative curvature {curvature:.6g} at CG iteration {iteration}: "
            "matrix is not symmetric positive definite"
        )


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
    """Dense matrix with adjoint application and a cached norm estimate.

    Immutable after construction except the norm cache, which is only ever
    set to the same value for the same (tol-dominated) request, so concurrent
    reads/updates are idempotent.
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


def op_norm(A: LinearOperator, tol: float = 1e-10, max_iter: int = 5000) -> float:
    """Largest singular value of A, by power iteration on A*A.

    The start vector is drawn from a fixed seed so repeated runs give the
    same estimate.  The result is cached on the operator.  Iteration stops
    once the relative change drops below tol, or after max_iter sweeps with
    the last estimate; no flag records which.  Power iteration approaches
    the norm from below, so the estimate can sit slightly under it: about
    1e-12 to 1e-9 relative on generic matrices, and up to the relative gap
    between the top two singular values when they nearly coincide.
    """
    if tol <= 0:
        raise ValueError("op_norm: tol must be positive")
    if A.cached_norm_estimate is not None:
        return A.cached_norm_estimate

    M = A.matrix
    if not M.any():
        A.cached_norm_estimate = 0.0
        return 0.0

    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(A.n_in)
    v /= norm(v)
    est_prev = 0.0
    est = 0.0
    for _ in range(max_iter):
        w = M.T @ (M @ v)
        nw = norm(w)
        if nw == 0.0:
            # v landed in the null space; restart deterministically
            v = rng.standard_normal(A.n_in)
            v /= norm(v)
            continue
        est = math.sqrt(nw)  # ||A*A v||^(1/2) -> sigma_max as v aligns
        v = w / nw
        if est_prev > 0 and abs(est - est_prev) <= tol * est:
            break
        est_prev = est
    A.cached_norm_estimate = float(est)
    return float(est)


def solve_spd(M, b, tol: float = 1e-12, max_iter: int | None = None) -> np.ndarray:
    """Solve M s = b for symmetric positive definite M by conjugate gradients.

    Returns s with ||M s - b|| <= tol * ||b||.  M may be a LinearOperator or a
    dense symmetric array.  SPD-ness is the caller's responsibility; a
    direction of nonpositive curvature raises NegativeCurvatureError naming
    the iteration where it surfaced.
    """
    A = M.matrix if isinstance(M, LinearOperator) else np.asarray(M, dtype=float)
    b = as_vector(b)
    n = b.size
    if A.shape != (n, n):
        raise DimensionMismatchError(f"solve_spd: matrix {A.shape} vs rhs {b.shape}")
    nb = norm(b)
    if nb == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = max(10 * n, 100)

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for k in range(max_iter):
        if math.sqrt(rs) <= tol * nb:
            return x
        Ap = A @ p
        curv = float(p @ Ap)
        if curv <= 0.0:
            raise NegativeCurvatureError(k, curv)
        alpha = rs / curv
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        # periodic true-residual refresh guards against drift on ill scaling
        if k % 50 == 49:
            r = b - A @ x
            rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    # final check: CG on SPD systems reaches the tolerance in <= n exact steps;
    # if rounding kept us above it, report the true residual honestly
    res = norm(A @ x - b)
    if res <= tol * nb:
        return x
    raise RuntimeError(
        f"solve_spd: residual {res:.3e} above tol*||b|| = {tol * nb:.3e} "
        f"after {max_iter} iterations"
    )


def vector_to_json(x) -> list:
    return [float(t) for t in np.asarray(x, dtype=float)]


def vector_from_json(data) -> np.ndarray:
    return as_vector(data)
