"""First-order splitting solvers for composite convex problems.

The problem template is J(x) = F(x) + G(Ax) where each part is either smooth
with a known gradient or prox-friendly through the functional catalog.  The
solvers share one trace format so runs can be compared column by column, and
every stopping rule is a fixed-point residual of the iteration map rather
than an objective difference.

Inputs are validated once, at solver entry: the start point is coerced and
checked finite, each functional's dimension is checked against it, a smooth
term's gradient at the start point must have the iterate's shape, and step
sizes become floats.  The loops then run on raw arrays, calling the
functionals' ``_prox``/``_value`` and the smooth term's own callables.
Finiteness costs one test per step: a non-finite residual, which any inf or
nan entry in the old or new iterate produces, ends the run with
``trace.diverged`` set; the solver returns the last finite iterate and does
not record the non-finite row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .functionals import ProxFunctional, prox_conjugate
from .linalg import DimensionMismatchError, LinearOperator, as_vector, norm, op_norm

__all__ = [
    "SmoothFn",
    "SolverConfig",
    "IterTrace",
    "CompositeProblem",
    "proximal_point",
    "prox_gradient",
    "fista",
    "douglas_rachford",
    "primal_dual",
    "duality_gap",
    "dr_as_pdhg_check",
]


class SmoothFn:
    """Differentiable term given by value and gradient callables.

    lipschitz, when supplied, is a Lipschitz constant for the gradient and
    feeds default step sizes (gamma = 1/L).
    """

    def __init__(self, value, gradient, lipschitz: float | None = None):
        self._value = value
        self._gradient = gradient
        if lipschitz is not None and not (lipschitz > 0):
            raise ValueError("lipschitz must be positive when given")
        self.lipschitz = lipschitz

    def value(self, x) -> float:
        return float(self._value(as_vector(x)))

    def gradient(self, x) -> np.ndarray:
        g = as_vector(self._gradient(as_vector(x)))
        return g


@dataclass
class SolverConfig:
    """Step sizes and stopping controls shared by all splitting solvers.

    gamma is the prox step (also the gradient step); tau and sigma are the
    primal and dual steps for the primal-dual solver.  Unset step sizes fall
    back to solver defaults where one exists.
    """

    gamma: float | None = None
    tau: float | None = None
    sigma: float | None = None
    tol: float = 1e-8
    max_iter: int = 1000
    store_iterates: bool = False

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        for name in ("gamma", "tau", "sigma"):
            v = getattr(self, name)
            if v is not None and not (v > 0):
                raise ValueError(f"{name} must be positive when set")


_CSV_HEADER = "iter,objective,residual,gap,step,ms"


def _csv_num(v: float) -> str:
    return "%.17g" % v


@dataclass
class IterTrace:
    """Per-iteration record: row k describes the state at iterate x^k.

    residual is the solver's fixed-point residual norm measured on arrival
    at x^k (inf at row 0), gap is a duality gap when the solver produces a
    certificate and NaN otherwise, step is the step size used to reach the
    row, ms is wall time since the solve started.  diverged is set when the
    residual came out non-finite; that row is not recorded.
    """

    iters: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
    step: list[float] = field(default_factory=list)
    ms: list[float] = field(default_factory=list)
    fejer: list[float] | None = None
    taus: list[float] | None = None
    iterates: list[np.ndarray] | None = None
    converged: bool = False
    diverged: bool = False

    def append(self, k, objective, residual, gap, step, ms):
        self.iters.append(int(k))
        self.objective.append(float(objective))
        self.residual.append(float(residual))
        self.gap.append(float(gap))
        self.step.append(float(step))
        self.ms.append(float(ms))

    def __len__(self):
        return len(self.iters)

    @property
    def n_iter(self) -> int:
        return self.iters[-1] if self.iters else 0

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for i in range(len(self.iters)):
            lines.append(
                ",".join(
                    [str(self.iters[i])]
                    + [
                        _csv_num(col[i])
                        for col in (
                            self.objective,
                            self.residual,
                            self.gap,
                            self.step,
                            self.ms,
                        )
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


@dataclass
class CompositeProblem:
    """Container for the pieces of J(x) = smooth(x) + f(x) + g(Ax).

    Solvers use the slots they need: gradient methods take smooth and g,
    the two-prox methods take f and g, and the primal-dual method couples
    f and g through a.  Unused slots stay None.
    """

    smooth: SmoothFn | None = None
    f: ProxFunctional | None = None
    g: ProxFunctional | None = None
    a: LinearOperator | None = None

    def objective(self, x) -> float:
        x = as_vector(x)
        self._check_point(x)
        return self._objective(x)

    def _check_point(self, x: np.ndarray):
        """Raise DimensionMismatchError unless f, and g after a, accept x."""
        if self.f is not None:
            self.f._check(x)
        if self.g is not None:
            self.g._check(x if self.a is None else self.a.apply(x))

    def _objective(self, x: np.ndarray) -> float:
        """The objective at a vector that has already passed the checks."""
        total = 0.0
        if self.smooth is not None:
            total += float(self.smooth._value(x))
        if self.f is not None:
            v = self.f._value(x)
            if v == math.inf:
                return math.inf
            total += v
        if self.g is not None:
            z = self.a.apply(x) if self.a is not None else x
            v = self.g._value(z)
            if v == math.inf:
                return math.inf
            total += v
        return total


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _start(problem: CompositeProblem, x0) -> np.ndarray:
    """A validated copy of x0 that every part of problem accepts."""
    x = as_vector(x0).copy()
    problem._check_point(x)
    if problem.smooth is not None:
        grad = problem.smooth.gradient(x)
        if grad.shape != x.shape:
            raise DimensionMismatchError(
                f"gradient has shape {grad.shape}, iterate has shape {x.shape}"
            )
    return x


def proximal_point(g: ProxFunctional, x0, cfg: SolverConfig, x_ref=None):
    """Iterate x <- prox_{gamma g}(x) until the scaled residual passes tol.

    Returns (x, trace).  When x_ref is given the trace records the distance
    to it at every iterate, which for a minimizer must be nonincreasing.
    """
    _require(cfg.gamma is not None, "proximal_point: cfg.gamma is required")
    gamma = float(cfg.gamma)
    x = g._check(x0).copy()
    ref = None if x_ref is None else as_vector(x_ref)
    trace = IterTrace()
    if ref is not None:
        trace.fejer = []
    if cfg.store_iterates:
        trace.iterates = []
    t0 = time.perf_counter()

    def record(k, xk, res):
        trace.append(
            k, g._value(xk), res, math.nan, gamma, (time.perf_counter() - t0) * 1e3
        )
        if ref is not None:
            trace.fejer.append(norm(xk - ref))
        if trace.iterates is not None:
            trace.iterates.append(xk.copy())

    record(0, x, math.inf)
    for k in range(1, cfg.max_iter + 1):
        x_next = g._prox(gamma, x)
        res = norm(x - x_next) / gamma
        if not math.isfinite(res):
            trace.diverged = True
            break
        x = x_next
        record(k, x, res)
        if res <= cfg.tol:
            trace.converged = True
            break
    return x, trace


def _linesearch_step(smooth, g, x, fx, grad, gamma, gamma0, k):
    """Backtrack gamma until the quadratic upper bound holds at the new point."""
    slack = 1e-12 * (1.0 + abs(fx))
    while True:
        x_next = g._prox(gamma, x - gamma * grad)
        d = x_next - x
        bound = fx + float(grad @ d) + float(d @ d) / (2.0 * gamma) + slack
        if float(smooth._value(x_next)) <= bound:
            return x_next, gamma
        gamma *= 0.5
        if gamma < 1e-18 * gamma0:
            raise RuntimeError(
                f"prox_gradient: line search underflow at iteration {k} "
                f"(gamma shrank to {gamma:.3e})"
            )


def prox_gradient(
    problem: CompositeProblem,
    x0,
    cfg: SolverConfig,
    line_search: bool = False,
    x_ref=None,
):
    """Proximal gradient iteration x <- prox_{gamma g}(x - gamma grad(x)).

    With line_search=True the step is halved until the smooth part satisfies
    its quadratic upper bound at the trial point, and each iteration restarts
    from min(2*previous, initial).  Fixed-step mode needs gamma <= 1/L for
    the descent guarantee.
    """
    _require(problem.g is not None, "prox_gradient: problem.g is required")
    _require(problem.smooth is not None, "prox_gradient: problem.smooth is required")
    smooth, g = problem.smooth, problem.g
    gamma0 = cfg.gamma
    if gamma0 is None:
        _require(
            smooth.lipschitz is not None,
            "prox_gradient: need cfg.gamma or smooth.lipschitz",
        )
        gamma0 = 1.0 / smooth.lipschitz
    gamma0 = float(gamma0)
    x = _start(problem, x0)
    ref = None if x_ref is None else as_vector(x_ref)
    trace = IterTrace()
    if ref is not None:
        trace.fejer = []
    if cfg.store_iterates:
        trace.iterates = []
    t0 = time.perf_counter()

    def record(k, xk, res, step):
        trace.append(
            k,
            problem._objective(xk),
            res,
            math.nan,
            step,
            (time.perf_counter() - t0) * 1e3,
        )
        if ref is not None:
            trace.fejer.append(norm(xk - ref))
        if trace.iterates is not None:
            trace.iterates.append(xk.copy())

    record(0, x, math.inf, gamma0)
    gamma = gamma0
    for k in range(1, cfg.max_iter + 1):
        grad = smooth._gradient(x)
        if line_search:
            gamma = min(2.0 * gamma, gamma0)
            fx = float(smooth._value(x))
            x_next, gamma = _linesearch_step(smooth, g, x, fx, grad, gamma, gamma0, k)
        else:
            x_next = g._prox(gamma, x - gamma * grad)
        res = norm(x - x_next) / gamma
        if not math.isfinite(res):
            trace.diverged = True
            break
        x = x_next
        record(k, x, res, gamma)
        if res <= cfg.tol:
            trace.converged = True
            break
    return x, trace


def fista(problem: CompositeProblem, x0, cfg: SolverConfig):
    """Accelerated proximal gradient with the standard momentum sequence.

    tau_0 = 1 and tau_{k+1} = (1 + sqrt(1 + 4 tau_k^2))/2; the extrapolated
    point is x^{k+1} + ((1 - tau_k)/tau_{k+1}) (x^k - x^{k+1}).  The trace
    keeps the tau sequence so the recurrence can be audited afterwards.
    """
    _require(problem.g is not None, "fista: problem.g is required")
    _require(problem.smooth is not None, "fista: problem.smooth is required")
    smooth, g = problem.smooth, problem.g
    gamma = cfg.gamma
    if gamma is None:
        _require(
            smooth.lipschitz is not None, "fista: need cfg.gamma or smooth.lipschitz"
        )
        gamma = 1.0 / smooth.lipschitz
    gamma = float(gamma)
    x = _start(problem, x0)
    xbar = x.copy()
    tau = 1.0
    trace = IterTrace()
    trace.taus = [tau]
    if cfg.store_iterates:
        trace.iterates = []
    t0 = time.perf_counter()

    def record(k, xk, res):
        trace.append(
            k,
            problem._objective(xk),
            res,
            math.nan,
            gamma,
            (time.perf_counter() - t0) * 1e3,
        )
        if trace.iterates is not None:
            trace.iterates.append(xk.copy())

    record(0, x, math.inf)
    for k in range(1, cfg.max_iter + 1):
        x_next = g._prox(gamma, xbar - gamma * smooth._gradient(xbar))
        res = norm(x - x_next) / gamma
        if not math.isfinite(res):
            trace.diverged = True
            break
        tau_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        xbar = x_next + ((1.0 - tau) / tau_next) * (x - x_next)
        x, tau = x_next, tau_next
        trace.taus.append(tau)
        record(k, x, res)
        if res <= cfg.tol:
            trace.converged = True
            break
    return x, trace


def douglas_rachford(problem: CompositeProblem, z0, cfg: SolverConfig):
    """Douglas-Rachford splitting on f + g, both taken by their proxes.

    One sweep: x = prox_{gamma f}(z); y = prox_{gamma g}(2x - z);
    z <- z + y - x.  Stops when ||y - x|| <= tol and returns the g-side
    iterate y, which lies in dom g exactly.
    """
    _require(problem.f is not None, "douglas_rachford: problem.f is required")
    _require(problem.g is not None, "douglas_rachford: problem.g is required")
    _require(problem.a is None, "douglas_rachford: coupling operator not supported")
    _require(cfg.gamma is not None, "douglas_rachford: cfg.gamma is required")
    f, g, gamma = problem.f, problem.g, float(cfg.gamma)
    z = _start(problem, z0)
    trace = IterTrace()
    if cfg.store_iterates:
        trace.iterates = []
    t0 = time.perf_counter()
    x = f._prox(gamma, z)
    y = x

    def record(k, yk, res):
        trace.append(
            k,
            problem._objective(yk),
            res,
            math.nan,
            gamma,
            (time.perf_counter() - t0) * 1e3,
        )
        if trace.iterates is not None:
            trace.iterates.append(yk.copy())

    record(0, x, math.inf)
    for k in range(1, cfg.max_iter + 1):
        x = f._prox(gamma, z)
        y_next = g._prox(gamma, 2.0 * x - z)
        res = norm(y_next - x)
        if not math.isfinite(res):
            trace.diverged = True
            break
        y = y_next
        z = z + y - x
        record(k, y, res)
        if res <= cfg.tol:
            trace.converged = True
            break
    return y, trace


def primal_dual(problem: CompositeProblem, x0, y0, cfg: SolverConfig):
    """Primal-dual hybrid gradient on f(x) + g(Ax).

    x <- prox_{tau f}(x - tau A'y); y <- prox_{sigma g*}(y + sigma A xbar)
    with xbar the extrapolation 2x^{k+1} - x^k.  Requires
    sigma * tau * ||A||^2 < 1, checked against the power-iteration estimate
    before any work happens.  The dual prox comes from g's own prox through
    the Moreau identity.  Returns (x, y, trace); the trace gap column is the
    raw duality gap at (x^k, y^k).
    """
    _require(problem.f is not None, "primal_dual: problem.f is required")
    _require(problem.g is not None, "primal_dual: problem.g is required")
    _require(cfg.tau is not None, "primal_dual: cfg.tau is required")
    _require(cfg.sigma is not None, "primal_dual: cfg.sigma is required")
    f, g, a = problem.f, problem.g, problem.a
    tau, sigma = float(cfg.tau), float(cfg.sigma)
    anorm = 1.0 if a is None else op_norm(a)
    product = sigma * tau * anorm * anorm
    if not product < 1.0:
        raise ValueError(
            f"primal_dual: step sizes violate sigma*tau*||A||^2 < 1 "
            f"(computed product {product:.6g})"
        )
    x = _start(problem, x0)
    y = as_vector(y0).copy()
    aty = y if a is None else a.adjoint_apply(y)
    if aty.shape != x.shape:
        raise DimensionMismatchError(
            f"primal_dual: y0 of shape {y.shape} does not pair with x0 of shape {x.shape}"
        )
    trace = IterTrace()
    if cfg.store_iterates:
        trace.iterates = []
    t0 = time.perf_counter()

    def record(k, xk, yk, res):
        trace.append(
            k,
            problem._objective(xk),
            res,
            duality_gap(problem, xk, yk),
            tau,
            (time.perf_counter() - t0) * 1e3,
        )
        if trace.iterates is not None:
            trace.iterates.append(xk.copy())

    record(0, x, y, math.inf)
    for k in range(1, cfg.max_iter + 1):
        aty = y if a is None else a.adjoint_apply(y)
        x_next = f._prox(tau, x - tau * aty)
        xbar = 2.0 * x_next - x
        axbar = xbar if a is None else a.apply(xbar)
        y_next = prox_conjugate(g, sigma, y + sigma * axbar)
        res = norm(x - x_next) / tau + norm(y - y_next) / sigma
        if not math.isfinite(res):
            trace.diverged = True
            break
        x, y = x_next, y_next
        record(k, x, y, res)
        if res <= cfg.tol:
            trace.converged = True
            break
    return x, y, trace


def duality_gap(problem: CompositeProblem, x, y) -> float:
    """Primal minus dual value for f(x) + g(Ax) at the pair (x, y).

    primal = f(x) + g(Ax); dual = -f*(-A'y) - g*(y).  Nonnegative by weak
    duality, +inf whenever either point is infeasible for its side.
    """
    _require(problem.f is not None, "duality_gap: problem.f is required")
    _require(problem.g is not None, "duality_gap: problem.g is required")
    x = as_vector(x)
    y = as_vector(y)
    a = problem.a
    ax = x if a is None else a.apply(x)
    aty = y if a is None else a.adjoint_apply(y)
    primal = problem.f.value(x) + problem.g.value(ax)
    dual = -problem.f.conjugate().value(-aty) - problem.g.conjugate().value(y)
    return primal - dual


def dr_as_pdhg_check(
    f: ProxFunctional, g: ProxFunctional, z0, gamma: float, n_iter: int = 50
) -> float:
    """Max deviation between Douglas-Rachford and its primal-dual disguise.

    With A = Id, tau = gamma, sigma = 1/gamma, x^0 = z^0, y^0 = 0, the
    combination x^k - gamma*y^k of the primal-dual iterates reproduces the
    Douglas-Rachford z^k exactly.  Both loops run inline here because the
    parameter choice sits on the sigma*tau*||A||^2 = 1 boundary that the
    solver's strict admissibility check refuses.  Returns
    max_k ||z_dr^k - (x^k - gamma*y^k)||.
    """
    if not (gamma > 0):
        raise ValueError("dr_as_pdhg_check: gamma must be positive")
    z = as_vector(z0).copy()
    x = z.copy()
    y = np.zeros_like(z)
    sigma = 1.0 / gamma
    worst = 0.0
    for _ in range(n_iter):
        # Douglas-Rachford sweep
        xd = f.prox(gamma, z)
        yd = g.prox(gamma, 2.0 * xd - z)
        z = z + yd - xd
        # primal-dual sweep with A = Id
        x_next = f.prox(gamma, x - gamma * y)
        xbar = 2.0 * x_next - x
        y = prox_conjugate(g, sigma, y + sigma * xbar)
        x = x_next
        worst = max(worst, norm(z - (x - gamma * y)))
    return worst
