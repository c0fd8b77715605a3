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
iterate kept.  A step takes the first t in one trial list that lowers
||Phi||: 1, then the j/16 that P and the w at both ends of the step predict
to be best (no product, exact for affine w), then 1/2, 1/4, ... 2**-24.  A
residual past 1e6 times its start, or a non-finite one, ends a run diverged
at the last finite iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SPDSolveError, as_vector, norm, solve_spd
from .problems import ControlSpec, _control_normal
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
_HALVINGS = tuple(0.5**j for j in range(1, 25))  # a damped step's last trials: 2.0**-1 ... 2.0**-24


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
    non-finite Phi(x0) raises ValueError.  A step takes the first t of a trial
    list whose ||Phi|| is below the current one, and else the full step: t = 1,
    then with damped=True the t of _search_t, given the private _projection =
    (w, project) that declares Phi(x) = x - project(w(x)), and t = 1/2, 1/4,
    ... 2**-24.  Trying the full step first keeps the one-step solve on a
    correctly identified piece; the damping breaks the mask cycles that
    undamped active-set Newton is prone to.  A residual that blows up past
    1e6 times its starting value (or stops being finite) marks the result
    diverged instead of raising, so outer drivers can react; trace.x is then
    the last finite iterate and the blown-up row is not recorded.
    """
    cfg = SolverConfig(tol=tol, max_iter=max_iter, store_iterates=True)
    x = as_vector(x0).copy()
    r = residual(x)
    nr = norm(r)
    if not math.isfinite(nr):
        raise ValueError("ssn_solve: the residual at x0 is not finite")
    blowup = _DIVERGE_FACTOR * max(nr, tol)

    def trials(x, d):  # (x + t d, t), lazily: _search_t reads the w cached at x + d
        x_full = x + d
        yield x_full, 1.0
        search = (_search_t(x, d, x_full, *_projection),) if damped and _projection else ()
        for t in search + _HALVINGS if damped else ():
            yield x + t * d, t

    def newton_step(state, k):
        x, r, nr = state
        full = None
        for x_try, t in trials(x, step(x, r).step):
            r_try = residual(x_try)
            full = full or (x_try, r_try, t)
            if not norm(r_try) >= nr:  # a NaN is taken too
                break
        else:  # no trial lowers ||Phi||
            x_try, r_try, t = full
        nr = norm(r_try)  # the loop reads an infinite or NaN residual as divergence
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
    alpha, lo, hi, n = spec.alpha, spec.lo, spec.hi, spec.n
    x_start = np.zeros(n) if u0 is None else as_vector(u0)
    if x_start.size != n:
        raise ValueError("control_ssn: u0 does not match S")
    StS, Stz = _control_normal(spec)
    with np.errstate(over="ignore"):
        B, v_finite = StS / alpha, np.isfinite(Stz / alpha).all()
    if not (v_finite and np.isfinite(B).all()):
        raise ValueError("control problem: alpha is too small (S'S/alpha or S'z/alpha overflows)")
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
