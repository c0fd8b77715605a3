"""Semismooth Newton solvers for piecewise-smooth optimality systems.

l1_ssn, moreau_yosida_ssn and control_ssn are one projection-Newton kernel
on Phi(x) = x - P(w(x)), P a soft threshold, a scaled soft threshold or a
clip.  A step reuses the w the residual computed, picks one element of the
generalized derivative through an activity mask on w, and eliminates the
masked rows by hand: pinned coordinates take their residual value directly
(landing exactly on a bound or at zero after the update), and only the
free block is formed and goes to the dense SPD solve.  When the solve
rejects that block (singular, as for a lasso with more active columns than
rows), the step solves the Levenberg-Marquardt shifted block B_aa + mu I
with mu = 0.1 ||Phi(x)|| instead (Yamashita & Fukushima, 2001); well-posed
blocks keep the exact Newton step.  Dense blocks throughout, sized for N up
to a few hundred.

``ssn_solve`` runs one damped Newton step as a kernel on the splitting
solvers' shared loop, ``splitting._run``, and every solver here returns its
IterTrace: residuals[k] = ||Phi(x^k)||, step the damping factor, every
iterate kept.  A failed full step is retried at the t = j/16 that P and the
w at both ends of the step predict to minimize ||Phi|| (no product, exact
for affine w), then halved if that fails too.  A residual past 1e6 times its
start, or a non-finite one, ends a run diverged at the last finite iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SPDSolveError, as_vector, norm, solve_spd
from .problems import ControlSpec, _control_gram
from .splitting import IterTrace, SolverConfig, _run

__all__ = [
    "NewtonDerivativeMask",
    "NewtonSystem",
    "ssn_solve",
    "scaled_soft_threshold",
    "l1_ssn",
    "moreau_yosida_ssn",
    "control_ssn",
    "ContinuationSchedule",
    "continuation",
    "superlinear_diagnostic",
]

_DIVERGE_FACTOR = 1e6


@dataclass
class NewtonDerivativeMask:
    """One element of a piecewise derivative: the bool array active marks the
    smooth branch; on the rest the projection derivative is zero."""

    active: np.ndarray


@dataclass
class NewtonSystem:
    """The eliminated Newton system for one step.

    The full system is diag(pinned) s + diag(active) (B s) = rhs; pinned
    rows give s_i = rhs_i directly, and the active block solves
    B_aa s_a = rhs_a - B_ap s_p.  step is the assembled full-dimension step.
    """

    mask: NewtonDerivativeMask
    step: np.ndarray


def _masked_step(block, mask: NewtonDerivativeMask, rhs: np.ndarray) -> NewtonSystem:
    """The eliminated step for the system B.  block(act) returns the fresh rows
    B[act], the one gather of B per step; B_ap and B_aa are C-ordered column
    selections of them (a Fortran-ordered rows[:, pin] sums in another order).
    A B_aa that solve_spd rejects gets 0.1 ||rhs|| added to its diagonal."""
    act, pin = mask.active, ~mask.active
    s = rhs.copy()  # pinned rows: s_p = rhs_p
    if act.any():
        rows = block(act)
        r = rhs[act]
        if pin.any():
            r -= np.compress(pin, rows, axis=1) @ s[pin]
        b_aa = np.compress(act, rows, axis=1)
        try:
            s[act] = solve_spd(b_aa, r)
        except SPDSolveError:
            b_aa.flat[:: r.size + 1] += 0.1 * norm(rhs)
            s[act] = solve_spd(b_aa, r)
    return NewtonSystem(mask, s)


def ssn_solve(residual, step, x0, tol: float = 1e-10, max_iter: int = 50,
              damped: bool = True, *, _projection=None) -> IterTrace:
    """Generic semismooth Newton iteration x <- x + t * step(x, Phi(x)).

    residual maps x to Phi(x); step maps (x, Phi(x)) to a NewtonSystem.
    Runs on the shared loop ``splitting._run`` (SolverConfig checks tol and
    max_iter >= 1) and stops when ||Phi(x)|| <= tol, at x0 included; a
    non-finite Phi(x0) raises ValueError.  With damped=True the step is
    halved until the residual norm decreases; the full step is always tried
    first, so the exact one-step behavior on a correctly identified piece is
    preserved, while the backtracking breaks the mask cycles that undamped
    active-set Newton is prone to; if halving underflows, the full step is
    taken.  The private _projection = (w, project) declares Phi(x) = x -
    project(w(x)); a failed full step is then first retried at _search_t's t
    and halved as above only if that fails too.  A residual that blows up
    past 1e6 times its starting value (or stops being finite) marks the
    result diverged instead of raising, so outer drivers can react; trace.x
    is then the last finite iterate and the blown-up row is not recorded.
    """
    cfg = SolverConfig(tol=tol, max_iter=max_iter, store_iterates=True)
    x = as_vector(x0).copy()
    r = residual(x)
    nr = norm(r)
    if not math.isfinite(nr):
        raise ValueError("ssn_solve: the residual at x0 is not finite")
    blowup = _DIVERGE_FACTOR * max(nr, tol)

    def newton_step(state, k):
        x, r, nr = state
        d = step(x, r).step
        x_full = x + d
        x_try, t = x_full, 1.0
        r_try = r_full = residual(x_full)
        if damped and _projection is not None and norm(r_full) >= nr:
            t = _search_t(x, d, x_full, *_projection)
            x_try = x + t * d
            r_try = residual(x_try)
            if norm(r_try) >= nr:
                x_try, r_try, t = x_full, r_full, 1.0
        while damped and norm(r_try) >= nr and t > 2.0**-24:
            t *= 0.5
            x_try = x + t * d
            r_try = residual(x_try)
        if t <= 2.0**-24:
            x_try, r_try, t = x_full, r_full, 1.0
        nr = norm(r_try)
        # the loop reads an infinite residual as divergence
        return (x_try, r_try, nr), math.inf if nr > blowup else nr, t

    _, trace = _run(cfg, (x, r, nr), newton_step, lambda s: (s[0], math.nan, math.nan), 1.0, res=nr)
    return trace


def _search_t(x, d, x_full, w, project):
    """The t = j/16, 0 < j < 16, least in ||x + t d - project(w0 + t (w1 - w0))||,
    w0 = w(x), w1 = w(x_full): Phi along the step as predicted, exact for affine w."""
    t = np.arange(1.0, 16.0)[:, None] / 16.0
    w0 = w(x)
    e = x + t * d - project(w0 + t * (w(x_full) - w0))
    return float(t[np.argmin(np.einsum("ij,ij->i", e, e)), 0])


def scaled_soft_threshold(t, gamma: float):
    """(1/gamma) * (t - clip(t, -1, 1)) elementwise.

    Solves min_s gamma/2 s^2 + |s| - t s in closed form; the resolvent map
    behind the Tikhonov-regularized l1 system below.
    """
    t = np.asarray(t, dtype=float)
    return (t - np.clip(t, -1.0, 1.0)) / gamma


def _as_hess(hess):
    if callable(hess):
        return hess
    H = np.asarray(hess, dtype=float)
    return lambda _x: H


def _projection_ssn(w_of, project, active, rows, x0, tol, max_iter, damped):
    """ssn_solve on Phi(x) = x - project(w_of(x)); a step masks by active(w) and
    eliminates with the Newton matrix rows rows(x, act).  w is cached on the
    identity of the last two x, so a step and the search reuse the residual's."""
    seen = []

    def w_at(x):
        for y, w in seen:
            if y is x:
                return w
        seen[:] = seen[-1:] + [(x, w_of(x))]
        return seen[-1][1]

    def residual(x):
        return x - project(w_at(x))

    def step(x, r):
        mask = NewtonDerivativeMask(active(as_vector(w_at(x))))
        return _masked_step(lambda act: rows(x, act), mask, -r)

    return ssn_solve(residual, step, x0, tol=tol, max_iter=max_iter, damped=damped,
                     _projection=(w_at, project))


def l1_ssn(grad, hess, alpha: float, gamma: float, x0, tol: float = 1e-10,
           max_iter: int = 50, damped: bool = True) -> IterTrace:
    """Semismooth Newton on Phi(x) = x - soft(x - gamma*grad(x), gamma*alpha).

    Zeros of Phi minimize F(x) + alpha*||x||_1 for smooth F with Hessian
    hess (constant matrix or callable).  Pinned coordinates, where the
    threshold argument falls strictly inside the dead zone, land exactly at
    zero after each step; ties |w_i| = gamma*alpha count as active.
    """
    if not (alpha > 0 and gamma > 0):
        raise ValueError("l1_ssn: alpha and gamma must be positive")
    hess_at = _as_hess(hess)
    thresh = gamma * alpha
    return _projection_ssn(
        lambda x: x - gamma * as_vector(grad(x)),
        lambda w: np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0),
        lambda w: np.abs(w) >= thresh,
        lambda x, act: gamma * hess_at(x)[act], x0, tol, max_iter, damped,
    )


def moreau_yosida_ssn(grad, hess, gamma: float, u0, tol: float = 1e-10,
                      max_iter: int = 50, damped: bool = True) -> IterTrace:
    """Newton on the Tikhonov-regularized l1 system for given gamma > 0.

    Solves Psi(u) = u - h(-grad(u)) = 0, h = scaled_soft_threshold at gamma,
    whose root is the unique minimizer of F(u) + ||u||_1 + (gamma/2)||u||^2.
    The free block is I + H/gamma on coordinates with |grad(u)_i| >= 1.
    """
    if not (gamma > 0):
        raise ValueError("moreau_yosida_ssn: gamma must be positive")
    hess_at = _as_hess(hess)

    def rows(u, act):  # I + H/gamma, one identity entry per active row
        b = hess_at(u)[act] / gamma
        b[np.arange(b.shape[0]), np.flatnonzero(act)] += 1.0
        return b

    return _projection_ssn(
        lambda u: -as_vector(grad(u)),
        lambda w: scaled_soft_threshold(w, gamma),
        lambda w: np.abs(w) >= 1.0,
        rows, u0, tol, max_iter, damped,
    )


def control_ssn(S, z, alpha: float, lo, hi, u0=None, tol: float = 1e-10,
                max_iter: int = 50, damped: bool = True) -> IterTrace:
    """Box-constrained Tikhonov least squares by projection Newton.

    Solves min 1/2||Su - z||^2 + alpha/2 ||u||^2 over the box [lo, hi]
    through Phi(u) = u - clip(v(u), lo, hi), v(u) = -(1/alpha) S'(Su - z).
    Coordinates whose v hits or crosses a bound are pinned and sit exactly
    on that bound after the step; only lo < v_i < hi strictly is active.
    S, z, alpha, lo and hi are checked as a problems.ControlSpec.
    """
    spec = ControlSpec(S, z, alpha, lo, hi)
    S, z, alpha, lo, hi, n = spec.s, spec.z, spec.alpha, spec.lo, spec.hi, spec.n
    x_start = np.zeros(n) if u0 is None else as_vector(u0)
    if x_start.size != n:
        raise ValueError("control_ssn: u0 does not match S")
    StS = _control_gram(S)
    Stz = S.T @ z
    B = StS / alpha
    B.flat[:: n + 1] += 1.0
    return _projection_ssn(
        lambda u: (Stz - StS @ u) / alpha,
        lambda v: np.clip(v, lo, hi),
        lambda v: (v > lo) & (v < hi),
        lambda u, act: B[act], x_start, tol, max_iter, damped,
    )


@dataclass
class ContinuationSchedule:
    """Geometric gamma ladder gamma0 * factor^k down to gamma_min inclusive."""

    gamma0: float = 1.0
    factor: float = 0.5
    gamma_min: float = 2.0 ** -10

    def __post_init__(self):
        if not (self.gamma0 > 0 and self.gamma_min > 0):
            raise ValueError("gamma0 and gamma_min must be positive")
        if not (0 < self.factor < 1):
            raise ValueError("factor must lie in (0, 1)")
        if self.gamma_min > self.gamma0:
            raise ValueError("gamma_min must not exceed gamma0")

    def gammas(self) -> list[float]:
        out = []
        g = self.gamma0
        while g >= self.gamma_min * (1.0 - 1e-12):
            out.append(g)
            g *= self.factor
        return out


def continuation(solve_at, schedule: ContinuationSchedule, u0):
    """Warm-started sweep of solve_at(gamma, u) down the schedule.

    solve_at returns an IterTrace.  Returns (u, stages) where each stage
    records gamma, iterations, final residual, and flags.  A diverged inner
    solve stops the sweep immediately and keeps the last good iterate; the
    failing stage stays in the list with diverged=True.
    """
    u = as_vector(u0).copy()
    stages = []
    for gamma in schedule.gammas():
        result = solve_at(gamma, u)
        stages.append(
            {
                "gamma": gamma,
                "n_iter": result.n_iter,
                "residual": result.residuals[-1],
                "converged": result.converged,
                "diverged": result.diverged,
            }
        )
        if result.diverged:
            break
        u = result.x
    return u, stages


def superlinear_diagnostic(iterates, x_ref):
    """Error norms against x_ref and their successive ratios.

    The error sequence stops once it reaches the roundoff floor
    1000*eps*(1 + ||x_ref||): the first sub-floor entry is kept, so the
    final ratio records the drop into roundoff (an upper bound on the true
    contraction there), but no ratios of pure noise are formed.  Returns
    (errors, ratios); superlinear convergence shows up as ratios heading
    to zero.
    """
    ref = as_vector(x_ref)
    floor = 1000.0 * np.finfo(float).eps * (1.0 + norm(ref))
    errors = []
    for x in iterates:
        e = norm(as_vector(x) - ref)
        errors.append(e)
        if e < floor:
            break
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    return errors, ratios
