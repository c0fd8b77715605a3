"""Benchmark problem family: generators, exact oracles, and optimality measures.

Four problem kinds, each a dataclass with JSON round-trip, a seeded
generator that is bit-identical per seed, an independent oracle that does
not share code with any iterative solver, and a scalar optimality measure.
The registry KINDS gives each kind's spec class, generator and solver forms.
Spec fields carry their symbolic shapes, which drive both the checks every
constructor makes and the one generic JSON pair:

  lasso    1/2||Ax-b||^2 + alpha*||x||_1, planted sparse ground truth
  boxqp    1/2 x'Qx + c'x over a box, Q symmetric positive definite
  control  1/2||Su-z||^2 + alpha/2||u||^2 over a box
  huber    alpha*sum huber_gamma(x_i) + 1/2||x-b||^2, unconstrained

The lasso and boxqp oracles enumerate all 3^N sign or bound patterns and
certify the KKT conditions of the winner, so they are exact up to one linear
solve; they exist to judge the iterative solvers and are deliberately
exponential.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from numbers import Real
from typing import Callable, ClassVar

import numpy as np

from .functionals import (
    BoxIndicator,
    L1,
    Quadratic,
    SquaredL2,
    Zero,
    _json_value,
    _symmetric,
    fenchel_young_gap,
    scale,
    shift,
)
from .linalg import LinearOperator, as_vector, norm, op_norm
from .splitting import CompositeProblem, SmoothFn, duality_gap

__all__ = [
    "LassoSpec",
    "BoxQPSpec",
    "ControlSpec",
    "HuberSpec",
    "gen_lasso",
    "gen_boxqp",
    "gen_control",
    "gen_huber",
    "oracle_lasso",
    "oracle_boxqp",
    "oracle_control",
    "oracle_huber",
    "kkt_residual",
    "lasso_duality_gap",
    "control_as_boxqp",
    "lasso_composite_smooth",
    "lasso_composite_split",
    "lasso_dr_pair",
    "boxqp_composite",
    "boxqp_dr_pair",
    "control_composite",
    "huber_composite",
    "ProblemKind",
    "KINDS",
    "problem_to_json",
    "problem_from_json",
]

_ENUM_CAP = 12  # 3^12 is half a million linear solves; beyond that, refuse
_FLOAT_MAX = float(np.finfo(float).max)  # a larger JSON integer does not fit a float


def _param(*shape, default=dataclasses.MISSING, bound=False):
    """A spec field of symbolic shape, e.g. ("m", "n"); () is a positive scalar.
    A bound takes a scalar for all n entries and may be +-inf."""
    return dataclasses.field(default=default, metadata={"shape": shape, "bound": bound})


def _coerce(kind: str, f: dataclasses.Field, value, dims: dict):
    """value as the field f of a kind spec holds it, binding the symbolic
    sizes in dims; a one-line ValueError naming the field otherwise."""
    where = f"{kind} problem: {f.name}"
    shape = f.metadata["shape"]
    if not shape:
        if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value <= _FLOAT_MAX:
            raise ValueError(f"{where} must be a positive number, got {value!r:.40}")
        return float(value)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} must be a rectangular array of numbers") from None
    if f.metadata["bound"]:
        if arr.ndim == 0:
            arr = np.full(dims[shape[0]], float(arr))
        if np.isnan(arr).any():
            raise ValueError(f"{where} entries must not be NaN")
    elif not np.isfinite(arr).all():
        raise ValueError(f"{where} entries must be finite")
    if arr.ndim != len(shape) or arr.size == 0:
        raise ValueError(f"{where} must be a nonempty {len(shape)}-d array, got shape {arr.shape}")
    want = tuple(dims.setdefault(d, size) for d, size in zip(shape, arr.shape))
    if arr.shape != want:
        raise ValueError(f"{where} has shape {arr.shape}, expected {want}")
    return arr


class _Spec:
    """Coerces and checks every field in declaration order, so a spec built
    from arrays, lists or a JSON document holds float arrays of consistent
    shapes and positive scalars; n is the number of unknowns."""

    kind: ClassVar[str]
    n: int

    def __post_init__(self):
        dims: dict[str, int] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:  # only an optional field may be unset
                setattr(self, f.name, _coerce(self.kind, f, value, dims))
        self.n = dims["n"]
        if hasattr(self, "lo") and np.any(self.lo > self.hi):
            raise ValueError(f"{self.kind} problem: need lo <= hi")


@dataclass
class LassoSpec(_Spec):
    """min 1/2||Ax - b||^2 + alpha*||x||_1; x_true is the planted signal, if any."""

    kind: ClassVar[str] = "lasso"
    a: np.ndarray = _param("m", "n")
    b: np.ndarray = _param("m")
    alpha: float = _param()
    x_true: np.ndarray | None = _param("n", default=None)

    def objective(self, x) -> float:
        x = as_vector(x)
        r = self.a @ x - self.b
        return 0.5 * float(r @ r) + self.alpha * float(np.abs(x).sum())


@dataclass
class BoxQPSpec(_Spec):
    """min 1/2 x'Qx + c'x subject to lo <= x <= hi, Q symmetric positive definite."""

    kind: ClassVar[str] = "boxqp"
    q: np.ndarray = _param("n", "n")
    c: np.ndarray = _param("n")
    lo: np.ndarray = _param("n", bound=True)
    hi: np.ndarray = _param("n", bound=True)

    def objective(self, x) -> float:
        x = as_vector(x)
        box = BoxIndicator(self.lo, self.hi)
        return 0.5 * float(x @ (self.q @ x)) + float(self.c @ x) + box.value(x)


@dataclass
class ControlSpec(_Spec):
    """min 1/2||Su - z||^2 + alpha/2||u||^2 subject to lo <= u <= hi."""

    kind: ClassVar[str] = "control"
    s: np.ndarray = _param("m", "n")
    z: np.ndarray = _param("m")
    alpha: float = _param()
    lo: np.ndarray = _param("n", bound=True)
    hi: np.ndarray = _param("n", bound=True)

    def objective(self, u) -> float:
        u = as_vector(u)
        r = self.s @ u - self.z
        box = BoxIndicator(self.lo, self.hi)
        return 0.5 * float(r @ r) + 0.5 * self.alpha * float(u @ u) + box.value(u)


@dataclass
class HuberSpec(_Spec):
    """min alpha*sum_i huber_gamma(x_i) + 1/2||x - b||^2.

    huber_gamma(t) = t^2/(2 gamma) for |t| <= gamma, |t| - gamma/2 beyond;
    smooth everywhere, solvable coordinatewise in closed form.
    """

    kind: ClassVar[str] = "huber"
    b: np.ndarray = _param("n")
    alpha: float = _param()
    gamma: float = _param()

    def objective(self, x) -> float:
        return self._objective(as_vector(x))

    # the two forms below take a validated vector; huber_composite hands
    # them to the solvers as the smooth term

    def _objective(self, x: np.ndarray) -> float:
        ax = np.abs(x)
        inside = ax <= self.gamma
        vals = np.where(inside, x * x / (2.0 * self.gamma), ax - self.gamma / 2.0)
        d = x - self.b
        return self.alpha * float(vals.sum()) + 0.5 * float(d @ d)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        return self.alpha * np.clip(x / self.gamma, -1.0, 1.0) + (x - self.b)


# --- generators (bit-identical per seed) -----------------------------------


def gen_lasso(
    n: int,
    m: int | None = None,
    seed: int = 0,
    density: float = 0.1,
    noise: float = 0.01,
    alpha_scale: float = 0.1,
) -> LassoSpec:
    """Planted sparse regression instance.

    Columns of A are near unit norm, the signal has ceil(density*n) nonzero
    entries of unit scale, b = A x_true + noise * standard normal, and
    alpha = alpha_scale * ||A'b||_inf so the planted support survives.
    """
    if m is None:
        m = 2 * n
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    k = max(1, int(round(density * n)))
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
    b = a @ x_true + noise * rng.standard_normal(m)
    alpha = alpha_scale * float(np.max(np.abs(a.T @ b)))
    return LassoSpec(a, b, alpha, x_true)


def gen_boxqp(n: int, seed: int = 0, cond_shift: float = 0.5) -> BoxQPSpec:
    """Random SPD quadratic over a random box.

    Q = B B'/n + cond_shift * I, verified SPD by an explicit Cholesky
    factorization before the spec is returned.
    """
    rng = np.random.default_rng(seed)
    bmat = rng.standard_normal((n, n))
    q = bmat @ bmat.T / n + cond_shift * np.eye(n)
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("generated Q failed its Cholesky SPD check") from exc
    c = rng.standard_normal(n)
    lo = -rng.uniform(0.5, 1.5, size=n)
    hi = rng.uniform(0.5, 1.5, size=n)
    return BoxQPSpec(q, c, lo, hi)


def gen_control(
    n: int,
    m: int | None = None,
    seed: int = 0,
    alpha: float = 0.1,
    bound: float = 1.0,
) -> ControlSpec:
    """Tikhonov-regularized box-constrained least squares instance.

    The target z is built from a control that violates the box on a few
    coordinates, so the constraint is genuinely active at the solution.
    """
    if m is None:
        m = 2 * n
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((m, n)) / np.sqrt(m)
    u_free = 2.0 * bound * rng.standard_normal(n)
    z = s @ u_free + 0.05 * rng.standard_normal(m)
    return ControlSpec(s, z, alpha, -bound * np.ones(n), bound * np.ones(n))


def gen_huber(
    n: int, seed: int = 0, alpha: float = 1.0, gamma: float = 0.5
) -> HuberSpec:
    """Coordinatewise huber shrinkage instance with b straddling both branches."""
    rng = np.random.default_rng(seed)
    b = 3.0 * rng.standard_normal(n)
    return HuberSpec(b, alpha, gamma)


# --- exact oracles ----------------------------------------------------------


def _check_enum_size(n: int, name: str):
    if n > _ENUM_CAP:
        raise ValueError(f"{name}: 3^{n} patterns is past the enumeration cap")


def oracle_lasso(spec: LassoSpec, zero_tol: float = 1e-10) -> np.ndarray:
    """Exact lasso solution by enumerating all 3^n sign patterns.

    For each pattern s, solves the stationarity system on the support,
    then keeps the candidate whose signs match strictly and whose inactive
    coordinates satisfy |A'(Ax - b)| <= alpha + zero_tol.
    """
    _check_enum_size(spec.n, "oracle_lasso")
    a, b, alpha, n = spec.a, spec.b, spec.alpha, spec.n
    gram = a.T @ a
    atb = a.T @ b
    best = None
    best_obj = np.inf
    for code in range(3**n):
        s = np.zeros(n)
        c = code
        for i in range(n):
            s[i] = (c % 3) - 1
            c //= 3
        supp = np.flatnonzero(s)
        x = np.zeros(n)
        if supp.size:
            try:
                x[supp] = np.linalg.solve(
                    gram[np.ix_(supp, supp)], atb[supp] - alpha * s[supp]
                )
            except np.linalg.LinAlgError:
                continue
            if not np.all(s[supp] * x[supp] > 0):
                continue
        g = a.T @ (a @ x - b)
        off = np.setdiff1d(np.arange(n), supp)
        if off.size and np.any(np.abs(g[off]) > alpha + zero_tol):
            continue
        obj = spec.objective(x)
        if obj < best_obj:
            best, best_obj = x, obj
    if best is None:
        raise RuntimeError("oracle_lasso: no sign pattern satisfied the KKT system")
    return best


def oracle_boxqp(spec: BoxQPSpec, mult_tol: float = 1e-10) -> np.ndarray:
    """Exact box QP solution by enumerating lower/free/upper partitions.

    Fixes the bound coordinates, solves the free block, and keeps the
    candidate whose multipliers g = Qx + c have the right signs: g >= 0 on
    the lower set, g <= 0 on the upper set.
    """
    _check_enum_size(spec.n, "oracle_boxqp")
    q, c, lo, hi, n = spec.q, spec.c, spec.lo, spec.hi, spec.n
    best = None
    best_obj = np.inf
    for code in range(3**n):
        part = np.zeros(n, dtype=int)  # -1 lower, 0 free, +1 upper
        cc = code
        for i in range(n):
            part[i] = (cc % 3) - 1
            cc //= 3
        if np.any((part == -1) & ~np.isfinite(lo)):
            continue
        if np.any((part == 1) & ~np.isfinite(hi)):
            continue
        x = np.where(part == -1, lo, np.where(part == 1, hi, 0.0))
        free = np.flatnonzero(part == 0)
        if free.size:
            fixed = np.flatnonzero(part != 0)
            rhs = -c[free]
            if fixed.size:
                rhs = rhs - q[np.ix_(free, fixed)] @ x[fixed]
            try:
                x[free] = np.linalg.solve(q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[free] < lo[free] - mult_tol) or np.any(
                x[free] > hi[free] + mult_tol
            ):
                continue
        g = q @ x + c
        if np.any(g[part == -1] < -mult_tol) or np.any(g[part == 1] > mult_tol):
            continue
        obj = 0.5 * float(x @ (q @ x)) + float(c @ x)
        if obj < best_obj:
            best, best_obj = np.clip(x, lo, hi), obj
    if best is None:
        raise RuntimeError("oracle_boxqp: no partition satisfied the KKT system")
    return best


def _control_normal(spec: ControlSpec) -> tuple[np.ndarray, np.ndarray]:
    """(S'S, S'z), or a one-line ValueError naming s or z where one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g, sz = spec.s.T @ spec.s, spec.s.T @ spec.z
    if not np.isfinite(g).all():
        raise ValueError("control problem: s is too large (S'S overflows)")
    if not np.isfinite(sz).all():
        raise ValueError("control problem: z is too large for s (S'z overflows)")
    return g, sz


def control_as_boxqp(spec: ControlSpec) -> BoxQPSpec:
    """The control problem is a box QP with Q = S'S + alpha*I, c = -S'z."""
    q, sz = _control_normal(spec)
    if float(q.diagonal().max()) + spec.alpha > _FLOAT_MAX:  # a Python sum: inf, no warning
        raise ValueError("control problem: alpha is too large for s (S'S + alpha*I overflows)")
    q.flat[:: spec.n + 1] += spec.alpha
    return BoxQPSpec(q, -sz, spec.lo, spec.hi)


def oracle_control(spec: ControlSpec) -> np.ndarray:
    return oracle_boxqp(control_as_boxqp(spec))


def oracle_huber(spec: HuberSpec) -> np.ndarray:
    """Closed-form coordinatewise solution.

    x_i = b_i / (1 + alpha/gamma) while that stays inside the quadratic
    branch (|b_i| <= gamma + alpha), else x_i = b_i - alpha*sign(b_i).
    """
    b, alpha, gamma = spec.b, spec.alpha, spec.gamma
    inner = b / (1.0 + alpha / gamma)
    outer = b - alpha * np.sign(b)
    return np.where(np.abs(b) <= gamma + alpha, inner, outer)


# --- optimality measures -----------------------------------------------------


def lasso_duality_gap(spec: LassoSpec, x) -> float:
    """Duality gap at x with the standard rescaled dual certificate.

    y = Ax - b pulled inside the dual feasible set by
    y * min(1, alpha/||A'y||_inf); the gap then upper-bounds the objective
    suboptimality and vanishes exactly at the solution.
    """
    x = as_vector(x)
    y = spec.a @ x - spec.b
    s = float(np.max(np.abs(spec.a.T @ y))) if y.size else 0.0
    if s > spec.alpha:
        y = y * (spec.alpha / s)
    return duality_gap(lasso_composite_split(spec), x, y)


def kkt_residual(spec, x) -> float:
    """Scalar optimality measure, zero exactly at the solution.

    lasso: rescaled duality gap.  boxqp and control: Fenchel-Young gap of
    the box indicator paired with the negative gradient, +inf off the box.
    huber: gradient norm of the smooth objective.
    """
    x = as_vector(x)
    if isinstance(spec, LassoSpec):
        return lasso_duality_gap(spec, x)
    if isinstance(spec, BoxQPSpec):
        g = spec.q @ x + spec.c
        return fenchel_young_gap(BoxIndicator(spec.lo, spec.hi), x, -g)
    if isinstance(spec, ControlSpec):
        return kkt_residual(control_as_boxqp(spec), x)
    if isinstance(spec, HuberSpec):
        return norm(spec._gradient(x))
    raise TypeError(f"kkt_residual: unknown spec type {type(spec).__name__}")


# --- composite builders -------------------------------------------------------


def lasso_composite_smooth(spec: LassoSpec) -> CompositeProblem:
    """Smooth-plus-prox form for gradient methods: F = 1/2||A.-b||^2, G = alpha*l1."""
    a_op = LinearOperator(spec.a)
    try:
        lip = op_norm(a_op) ** 2
    except OverflowError:
        raise ValueError("lasso problem: a is too large (||a||^2 overflows)") from None

    def value_and_gradient(x):  # one residual for both
        r = spec.a @ x - spec.b
        return 0.5 * float((r**2).sum()), spec.a.T @ r

    smooth = SmoothFn(
        value=lambda x: 0.5 * float(((spec.a @ x - spec.b) ** 2).sum()),
        gradient=lambda x: spec.a.T @ (spec.a @ x - spec.b),
        lipschitz=lip if lip > 0 else None,
        value_and_gradient=value_and_gradient,
    )
    return CompositeProblem(smooth=smooth, g=scale(L1(), spec.alpha))


def lasso_composite_split(spec: LassoSpec) -> CompositeProblem:
    """Coupled form for primal-dual: f = alpha*l1, g = 1/2||.-b||^2, A the design."""
    return CompositeProblem(
        f=scale(L1(), spec.alpha),
        g=shift(SquaredL2(), spec.b),
        a=LinearOperator(spec.a),
    )


def lasso_dr_pair(spec: LassoSpec) -> CompositeProblem:
    """Two-prox form: f the least squares term as a quadratic, g = alpha*l1."""
    gram = spec.a.T @ spec.a
    return CompositeProblem(
        f=Quadratic(gram, -spec.a.T @ spec.b, 0.5 * float(spec.b @ spec.b)),
        g=scale(L1(), spec.alpha),
    )


def boxqp_composite(spec: BoxQPSpec) -> CompositeProblem:
    """Smooth-plus-prox form: F the quadratic, G the box indicator."""
    quad = Quadratic(spec.q, spec.c)
    lip = op_norm(LinearOperator(spec.q))
    smooth = SmoothFn(
        quad._value, quad._gradient, lip if lip > 0 else None, quad._value_and_gradient
    )
    return CompositeProblem(smooth=smooth, g=BoxIndicator(spec.lo, spec.hi))


def boxqp_dr_pair(spec: BoxQPSpec) -> CompositeProblem:
    """Two-prox form: f the quadratic by its resolvent, g the box indicator."""
    return CompositeProblem(
        f=Quadratic(spec.q, spec.c), g=BoxIndicator(spec.lo, spec.hi)
    )


def control_composite(spec: ControlSpec) -> CompositeProblem:
    return boxqp_composite(control_as_boxqp(spec))


def huber_composite(spec: HuberSpec) -> CompositeProblem:
    """Fully smooth problem: G is the zero functional."""
    lip = spec.alpha / spec.gamma + 1.0
    if lip > _FLOAT_MAX:
        raise ValueError("huber problem: gamma is too small for alpha (alpha/gamma overflows)")
    smooth = SmoothFn(value=spec._objective, gradient=spec._gradient, lipschitz=lip)
    return CompositeProblem(smooth=smooth, g=Zero())


# --- the registry ---------------------------------------------------------------


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind: its spec type, its seeded generator(n, m, seed) (m
    ignored by kinds with one size), and a builder for each solver form, None
    where the kind has none: smooth, the smooth-plus-prox form of pg, pg-ls and
    fista; dr_pair, the two-prox form of dr; split, the f(x) + g(Ax) form of
    pdhg.  Control has no forms of its own: the solvers run its
    control_as_boxqp under the boxqp entry."""

    spec: type
    generate: Callable[[int, int | None, int], _Spec]
    smooth: Callable[[_Spec], CompositeProblem] | None
    dr_pair: Callable[[_Spec], CompositeProblem] | None
    split: Callable[[_Spec], CompositeProblem] | None


# Entries call the module globals, not stored references, so patching a function reaches them.
KINDS = {entry.spec.kind: entry for entry in (
    ProblemKind(
        LassoSpec, lambda n, m, seed: gen_lasso(n, m, seed=seed),
        lambda spec: lasso_composite_smooth(spec), lambda spec: lasso_dr_pair(spec),
        lambda spec: lasso_composite_split(spec),
    ),
    ProblemKind(
        BoxQPSpec, lambda n, m, seed: gen_boxqp(n, seed=seed),
        lambda spec: boxqp_composite(spec), lambda spec: boxqp_dr_pair(spec),
        # the box as f, so pdhg's primal iterate is feasible; A is the identity
        lambda spec: CompositeProblem(
            f=BoxIndicator(spec.lo, spec.hi), g=Quadratic(spec.q, spec.c)
        ),
    ),
    ProblemKind(ControlSpec, lambda n, m, seed: gen_control(n, m, seed=seed), None, None, None),
    ProblemKind(
        HuberSpec, lambda n, m, seed: gen_huber(n, seed=seed),
        lambda spec: huber_composite(spec), None, None,
    ),
)}


# --- JSON ---------------------------------------------------------------------


def problem_to_json(spec) -> dict:
    """{"kind": ..., "params": {field: number or nested list}}, unset fields left out."""
    values = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    params = {k: _json_value(v) for k, v in values.items() if v is not None}
    return {"kind": spec.kind, "params": params}


def problem_from_json(data: dict):
    """The spec that data describes; a one-line ValueError naming the kind or
    the field on anything malformed, including a boxqp q that Quadratic would
    not take as symmetric or that fails its Cholesky, which reads one triangle
    (control's S'S + alpha*I is positive definite for any alpha > 0)."""
    if not isinstance(data, dict):
        raise ValueError(f"problem JSON must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r:.40} (expected one of {', '.join(KINDS)})")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{kind} problem: params must be an object")
    fields = dataclasses.fields(KINDS[kind].spec)
    unknown = sorted(set(params) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{kind} problem: unknown field(s) {', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in params]
    if missing:
        raise ValueError(f"{kind} problem: missing field(s) {', '.join(missing)}")
    spec = KINDS[kind].spec(**params)
    if kind == "boxqp":
        if not _symmetric(spec.q):
            raise ValueError("boxqp problem: q must be symmetric")
        try:
            np.linalg.cholesky(spec.q)
        except np.linalg.LinAlgError:
            raise ValueError("boxqp problem: q is not positive definite") from None
    return spec
