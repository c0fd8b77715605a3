"""First-order splitting solvers for composite convex problems.

The problem template is J(x) = F(x) + G(Ax) where each part is either smooth
with a known gradient or prox-friendly through the functional catalog.  The
solvers and the semismooth Newton ones share one trace type, IterTrace, so
runs can be compared column by column, and every stopping rule is a
fixed-point residual of the iteration map rather than an objective difference.

Inputs are validated once, at solver entry, by ``_start``: the problem
slots and step sizes a solver needs must be set, the start point is coerced
and checked finite, each functional's dimension is checked against it, and
step sizes become floats.  The first gradient a method computes must be
finite and of the iterate's shape.  Each solver then supplies a step kernel
to one shared loop, ``_run``, which owns trace rows (row 0 included), their
wall clock, the final and the stored iterates, and both stopping rules; the
semismooth Newton driver, ``newton.ssn_solve``, runs on it too.  The
kernels run on raw arrays, calling the functionals' ``_prox``/``_value``
and the smooth term's own callables; Douglas-Rachford and the primal-dual
method each keep their sweep in one function, which ``dr_as_pdhg_check``
runs too.  Finiteness costs one test per step: a non-finite residual, which
any inf or nan entry in the old or new iterate produces, ends the run with
``trace.diverged`` set; the solver returns the last finite iterate and does
not record the non-finite row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .functionals import ProxFunctional, _prox_conjugate
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
    feeds default step sizes (gamma = 1/L).  value_and_gradient returns both
    at one point, bit for bit, from shared work such as one matrix product;
    it defaults to calling the two, and prox_gradient calls only it.
    """

    def __init__(self, value, gradient, lipschitz: float | None = None, value_and_gradient=None):
        self._value = value
        self._gradient = gradient
        self._value_and_gradient = value_and_gradient or (lambda x: (float(value(x)), gradient(x)))
        if lipschitz is not None and not (lipschitz > 0):
            raise ValueError("lipschitz must be positive when given")
        self.lipschitz = lipschitz

    def value(self, x) -> float:
        return float(self._value(as_vector(x)))

    def gradient(self, x) -> np.ndarray:
        return as_vector(self._gradient(as_vector(x)))


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
    """Per-iteration record of any solver: row k describes the state at x^k.

    residuals[k] is the fixed-point residual norm measured on arrival at x^k
    (at row 0 inf, or Newton's ||Phi(x^0)||), gap a duality gap when the
    solver produces a certificate and NaN otherwise, step the step size used
    to reach the row (Newton's damping factor), ms the wall time since the
    solve started.  x is the last recorded iterate, the one the solver
    returns.  diverged is set when the residual came out non-finite; that
    row is not recorded.
    """

    objective: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
    step: list[float] = field(default_factory=list)
    ms: list[float] = field(default_factory=list)
    x: np.ndarray | None = None
    taus: list[float] | None = None
    iterates: list[np.ndarray] | None = None
    converged: bool = False
    diverged: bool = False

    def append(self, objective, residual, gap, step, ms):
        self.objective.append(float(objective))
        self.residuals.append(float(residual))
        self.gap.append(float(gap))
        self.step.append(float(step))
        self.ms.append(float(ms))

    def __len__(self):
        return len(self.residuals)

    @property
    def n_iter(self) -> int:
        return len(self.residuals) - 1

    def to_csv(self) -> str:
        cols = (self.objective, self.residuals, self.gap, self.step, self.ms)
        lines = [_CSV_HEADER]
        for k, row in enumerate(zip(*cols)):
            lines.append(",".join([str(k)] + [_csv_num(v) for v in row]))
        return "\n".join(lines) + "\n"


@dataclass
class CompositeProblem:
    """Container for the pieces of J(x) = smooth(x) + f(x) + g(Ax).

    Solvers use the slots they need: gradient methods take smooth and g,
    the two-prox methods take f and g, and the primal-dual method couples
    f and g through a.  A solver refuses a set slot that it does not use.
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

    def _objective(self, x: np.ndarray, smooth_x=None, fx=None, gax=None) -> float:
        """The objective at a checked vector; smooth_x = smooth(x), fx = f(x)
        and gax = g(Ax) stand in for their values if known."""
        total = 0.0
        if self.smooth is not None:
            total += float(self.smooth._value(x)) if smooth_x is None else smooth_x
        if self.f is not None:
            v = self.f._value(x) if fx is None else fx
            if v == math.inf:
                return math.inf
            total += v
        if self.g is not None:
            v = self.g._value(x if self.a is None else self.a.apply(x)) if gax is None else gax
            if v == math.inf:
                return math.inf
            total += v
        return total


def _start(name: str, problem: CompositeProblem, x0, cfg, slots: str, steps=()):
    """[x, *steps]: a copy of x0 that every part of problem accepts, then the
    cfg step sizes named in steps as floats (a smooth problem's gamma
    defaults to 1/L).  slots names the problem slots the solver reads: each
    must be set, except a (unset means the identity), and no other may be."""
    slots = slots.split()
    for slot in slots:
        if slot != "a" and getattr(problem, slot) is None:
            raise ValueError(f"{name}: problem.{slot} is required")
    for slot in ("smooth", "f", "g", "a"):
        if slot not in slots and getattr(problem, slot) is not None:
            what = "coupling operator" if slot == "a" else f"problem.{slot}"
            raise ValueError(f"{name}: {what} not supported")
    sizes = []
    for step in steps:
        size = getattr(cfg, step)
        if size is None and "smooth" in slots:
            if problem.smooth.lipschitz is None:
                raise ValueError(f"{name}: need cfg.gamma or smooth.lipschitz")
            size = 1.0 / problem.smooth.lipschitz
        if size is None:
            raise ValueError(f"{name}: cfg.{step} is required")
        sizes.append(float(size))
    x = as_vector(x0).copy()
    problem._check_point(x)
    return [x, *sizes]


def _check_gradient(grad, x: np.ndarray):
    """Raise unless grad, the first gradient a method computes, is a finite
    vector of the iterate's shape."""
    shape = as_vector(grad).shape
    if shape != x.shape:
        raise DimensionMismatchError(f"gradient has shape {shape}, iterate has shape {x.shape}")


def _run(cfg: SolverConfig, state, step, row, size: float, res=math.inf):
    """The loop of every splitting solver and of ssn_solve; returns (state, trace).

    step(state, k) returns (next state, residual, step size) for iteration
    k >= 1, and row(state) returns (iterate, objective, gap) for the trace.
    Row 0 records the start with residual ``res`` (infinite unless the
    caller measured one) and step size ``size``.  A non-finite residual
    ends the run with ``trace.diverged`` set, keeping the previous state and
    recording no row; a residual of at most cfg.tol, row 0's included, ends
    it with ``trace.converged`` set.  trace.x is the last recorded iterate;
    with cfg.store_iterates the trace keeps a copy of every x^k.
    """
    trace = IterTrace()
    if cfg.store_iterates:
        trace.iterates = []
    t0 = time.perf_counter()
    for k in range(cfg.max_iter + 1):
        if k:
            next_state, res, size = step(state, k)
            if not math.isfinite(res):
                trace.diverged = True
                break
            state = next_state
        x, objective, gap = row(state)
        trace.append(objective, res, gap, size, (time.perf_counter() - t0) * 1e3)
        if trace.iterates is not None:
            trace.iterates.append(x.copy())
        if res <= cfg.tol:
            trace.converged = True
            break
    trace.x = x
    return state, trace


def _objective_row(problem: CompositeProblem):
    """row(state) for a state whose first entry is the iterate; no gap."""
    return lambda s: (s[0], problem._objective(s[0]), math.nan)


def proximal_point(g: ProxFunctional, x0, cfg: SolverConfig):
    """Iterate x <- prox_{gamma g}(x) until the scaled residual passes tol;
    returns (x, trace)."""
    x, gamma = _start("proximal_point", CompositeProblem(g=g), x0, cfg, "g", ("gamma",))

    def step(x, k):
        x_next = g._prox(gamma, x)
        return x_next, norm(x - x_next) / gamma, gamma

    return _run(cfg, x, step, lambda x: (x, g._value(x), math.nan), gamma)


def _linesearch_step(smooth, g, x, fx, grad, gamma, gamma0, k):
    """Backtrack gamma until the quadratic upper bound holds at the new point;
    returns (x_next, gamma, smooth(x_next), its gradient)."""
    slack = 1e-12 * (1.0 + abs(fx))
    while True:
        x_next = g._prox(gamma, x - gamma * grad)
        d = x_next - x
        bound = fx + float(grad @ d) + float(d @ d) / (2.0 * gamma) + slack
        f_next, grad_next = smooth._value_and_gradient(x_next)
        if f_next <= bound:
            return x_next, gamma, f_next, grad_next
        gamma *= 0.5
        if gamma < 1e-18 * gamma0:
            raise RuntimeError(
                f"prox_gradient: line search underflow at iteration {k} "
                f"(gamma shrank to {gamma:.3e})"
            )


def prox_gradient(problem: CompositeProblem, x0, cfg: SolverConfig, line_search: bool = False):
    """Proximal gradient iteration x <- prox_{gamma g}(x - gamma grad(x)).

    With line_search=True the step is halved until the smooth part satisfies
    its quadratic upper bound at the trial point, and each iteration restarts
    from min(2*previous, initial).  Fixed-step mode needs gamma <= 1/L for
    the descent guarantee.  One value_and_gradient per new point serves the
    line search, the trace row and the next step.
    """
    x, gamma0 = _start("prox_gradient", problem, x0, cfg, "smooth g", ("gamma",))
    smooth, g = problem.smooth, problem.g

    def step(s, k):
        x, gamma, fx, grad = s
        if line_search:
            gamma = min(2.0 * gamma, gamma0)
            x_next, gamma, fx, grad = _linesearch_step(smooth, g, x, fx, grad, gamma, gamma0, k)
        else:
            x_next = g._prox(gamma, x - gamma * grad)
            fx, grad = smooth._value_and_gradient(x_next)
        return (x_next, gamma, fx, grad), norm(x - x_next) / gamma, gamma

    def row(s):
        return s[0], problem._objective(s[0], s[2]), math.nan

    fx, grad = smooth._value_and_gradient(x)
    _check_gradient(grad, x)
    (x, *_), trace = _run(cfg, (x, gamma0, fx, grad), step, row, gamma0)
    return x, trace


def fista(problem: CompositeProblem, x0, cfg: SolverConfig):
    """Accelerated proximal gradient with the standard momentum sequence.

    tau_0 = 1 and tau_{k+1} = (1 + sqrt(1 + 4 tau_k^2))/2; the extrapolated
    point is x^{k+1} + ((1 - tau_k)/tau_{k+1}) (x^k - x^{k+1}).  The trace
    keeps the tau sequence so the recurrence can be audited afterwards.
    """
    x, gamma = _start("fista", problem, x0, cfg, "smooth g", ("gamma",))
    smooth, g = problem.smooth, problem.g
    objective_row = _objective_row(problem)
    taus = []

    def step(s, k):
        x, xbar, tau = s
        grad = smooth._gradient(xbar)
        if k == 1:
            _check_gradient(grad, xbar)
        x_next = g._prox(gamma, xbar - gamma * grad)
        res = norm(x - x_next) / gamma
        tau_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        xbar = x_next + ((1.0 - tau) / tau_next) * (x - x_next)
        return (x_next, xbar, tau_next), res, gamma

    def row(s):
        taus.append(s[2])
        return objective_row(s)

    (x, _, _), trace = _run(cfg, (x, x.copy(), 1.0), step, row, gamma)
    trace.taus = taus
    return x, trace


def _dr_sweep(f: ProxFunctional, g: ProxFunctional, gamma: float, z):
    """One Douglas-Rachford sweep from z; returns (x, y, z_next)."""
    x = f._prox(gamma, z)
    y = g._prox(gamma, 2.0 * x - z)
    return x, y, z + y - x


def douglas_rachford(problem: CompositeProblem, z0, cfg: SolverConfig):
    """Douglas-Rachford splitting on f + g, both taken by their proxes.

    One sweep: x = prox_{gamma f}(z); y = prox_{gamma g}(2x - z);
    z <- z + y - x.  Stops when ||y - x|| <= tol and returns the g-side
    iterate y, which lies in dom g exactly.
    """
    z, gamma = _start("douglas_rachford", problem, z0, cfg, "f g", ("gamma",))
    f, g = problem.f, problem.g

    def step(s, k):
        x, y, z = _dr_sweep(f, g, gamma, s[1])
        return (y, z), norm(y - x), gamma

    (y, _), trace = _run(
        cfg, (f._prox(gamma, z), z), step, _objective_row(problem), gamma
    )
    return y, trace


def _pdhg_sweep(f: ProxFunctional, g: ProxFunctional, a, tau: float, sigma: float, x, y, aty):
    """One primal-dual sweep from (x, y) given aty = A'y, A = a or the
    identity when a is None; returns (x_next, y_next)."""
    x_next = f._prox(tau, x - tau * aty)
    xbar = 2.0 * x_next - x
    axbar = xbar if a is None else a.apply(xbar)
    return x_next, _prox_conjugate(g, sigma, y + sigma * axbar)


def primal_dual(problem: CompositeProblem, x0, y0, cfg: SolverConfig):
    """Primal-dual hybrid gradient on f(x) + g(Ax).

    x <- prox_{tau f}(x - tau A'y); y <- prox_{sigma g*}(y + sigma A xbar)
    with xbar the extrapolation 2x^{k+1} - x^k.  Requires
    sigma * tau * ||A||^2 < 1, checked against op_norm, an upper bound on
    ||A||, before any work happens.  The dual prox comes from g's own prox
    through the Moreau identity.  Returns (x, y, trace); the trace gap
    column is the raw duality gap at (x^k, y^k).

    An iteration makes 3 matvecs: A xbar in the sweep, then A'y^{k+1} and
    A x^{k+1}.  The trace row's objective and gap share that A x, f(x) and
    g(Ax), and the row's A'y is the one the next sweep starts from.
    """
    x, tau, sigma = _start("primal_dual", problem, x0, cfg, "f g a", ("tau", "sigma"))
    f, g, a = problem.f, problem.g, problem.a
    anorm = 1.0 if a is None else op_norm(a)
    product = sigma * tau * anorm * anorm
    if not product < 1.0:
        raise ValueError(
            f"primal_dual: step sizes violate sigma*tau*||A||^2 < 1 "
            f"(computed product {product:.6g})"
        )
    y = as_vector(y0).copy()
    aty = y if a is None else a.adjoint_apply(y)
    if aty.shape != x.shape:
        raise DimensionMismatchError(
            f"primal_dual: y0 of shape {y.shape} does not pair with x0 of shape {x.shape}"
        )
    fc, gc = f.conjugate(), g.conjugate()

    def step(s, k):
        x, y, aty = s
        x_next, y_next = _pdhg_sweep(f, g, a, tau, sigma, x, y, aty)
        aty = y_next if a is None else a.adjoint_apply(y_next)
        res = norm(x - x_next) / tau + norm(y - y_next) / sigma
        return (x_next, y_next, aty), res, tau

    def row(s):
        x, y, aty = s
        fx, gax = f._value(x), g._value(x if a is None else a.apply(x))
        return x, problem._objective(x, fx=fx, gax=gax), _duality_gap(fx, gax, fc, gc, y, aty)

    (x, y, _), trace = _run(cfg, (x, y, aty), step, row, tau)
    return x, y, trace


def duality_gap(problem: CompositeProblem, x, y) -> float:
    """Primal minus dual value for f(x) + g(Ax) at the pair (x, y).

    primal = f(x) + g(Ax); dual = -f*(-A'y) - g*(y).  Nonnegative by weak
    duality, +inf whenever either point is infeasible for its side.
    """
    (x,) = _start("duality_gap", problem, x, None, "f g a")
    f, g, a = problem.f, problem.g, problem.a
    y = as_vector(y)
    aty = y if a is None else a.adjoint_apply(y)
    fc = f.conjugate()
    fc._check(aty)
    gc = g.conjugate()
    gc._check(y)
    return _duality_gap(f._value(x), g._value(x if a is None else a.apply(x)), fc, gc, y, aty)


def _duality_gap(fx, gax, fc, gc, y, aty) -> float:
    """The duality gap at a checked pair (x, y), given fx = f(x), gax = g(Ax),
    the conjugates fc = f*, gc = g* and the product aty = A'y."""
    primal = fx + gax
    dual = -fc._value(-aty) - gc._value(y)
    return primal - dual


def dr_as_pdhg_check(
    f: ProxFunctional, g: ProxFunctional, z0, gamma: float, n_iter: int = 50
) -> float:
    """Max deviation between Douglas-Rachford and its primal-dual disguise.

    With A = Id, tau = gamma, sigma = 1/gamma, x^0 = z^0, y^0 = 0, the
    combination x^k - gamma*y^k of the primal-dual iterates reproduces the
    Douglas-Rachford z^k exactly.  The two iterations run side by side
    through the sweeps that douglas_rachford and primal_dual use; this
    parameter choice sits on the sigma*tau*||A||^2 = 1 boundary that
    primal_dual's strict admissibility check refuses, so the check hands
    the sweeps to ``_run`` itself.  Returns
    max_k ||z_dr^k - (x^k - gamma*y^k)|| over k <= n_iter, or inf when an
    iterate turns non-finite.
    """
    if not (gamma > 0):
        raise ValueError("dr_as_pdhg_check: gamma must be positive")
    gamma = float(gamma)
    sigma = 1.0 / gamma
    z = f._check(z0).copy()
    g._check(z)

    def step(s, k):
        z, x, y = s
        z_next = _dr_sweep(f, g, gamma, z)[2]
        x_next, y_next = _pdhg_sweep(f, g, None, gamma, sigma, x, y, y)
        res = norm(z_next - z) + norm(x_next - x) + norm(y_next - y)
        return (z_next, x_next, y_next), res, gamma

    def row(s):
        z, x, y = s
        return z, math.nan, norm(z - (x - gamma * y))

    # tol is the least positive float: in practice the run ends early only
    # once neither iteration moves, and from there the deviation is final
    cfg = SolverConfig(tol=math.ulp(0.0), max_iter=n_iter)
    _, trace = _run(cfg, (z, z.copy(), np.zeros_like(z)), step, row, gamma)
    return math.inf if trace.diverged else max(trace.gap)
