"""Catalog of proper convex lsc functionals on R^N.

Every catalog entry carries a closed-form value, proximal map, and Fenchel
conjugate, with the conjugate returned as another catalog entry so conjugate
values are exact and biconjugation is structural.  On top of the catalog sit
the Moreau envelope, the Yosida approximation, the Fenchel-Young gap, and
Clarke subdifferential intervals for piecewise-C1 scalar functions.

Extended-real convention: +inf is float('inf'); no operation here can produce
inf - inf (the only subtraction in the module is of a finite inner product),
and a gap coming out below the roundoff floor raises instead of propagating.
"""

from __future__ import annotations

import inspect

import numpy as np

from .linalg import DimensionMismatchError, as_vector, inner, norm, spd_inverse

__all__ = [
    "ProxFunctional",
    "Zero",
    "SquaredL2",
    "L1",
    "L2Norm",
    "BoxIndicator",
    "InfBallIndicator",
    "L2BallIndicator",
    "BoxSupport",
    "Quadratic",
    "Scaled",
    "Shifted",
    "Tilted",
    "SeparableSum",
    "scale",
    "shift",
    "tilt",
    "value",
    "prox",
    "conjugate",
    "prox_conjugate",
    "moreau_envelope",
    "yosida",
    "fenchel_young_gap",
    "ScalarPC1",
    "clarke_interval",
    "functional_to_json",
    "functional_from_json",
]

_FEAS = 1e-12  # feasibility slack for indicator values, so value(prox(...)) is finite
INF = float("inf")


def _read_only(a) -> np.ndarray:
    """A read-only float copy of a, so caches derived from it stay valid."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _symmetric(Q: np.ndarray) -> bool:
    """Q equals Q.T exactly, or is finite and equal to it to 1e-12 relative roundoff."""
    return np.array_equal(Q, Q.T) or bool(
        np.isfinite(Q).all() and np.allclose(Q, Q.T, rtol=1e-12, atol=1e-12 * (1 + np.abs(Q).max()))
    )


def _feas_tol(bound):
    """Per-coordinate slack scaled to the bound's magnitude (0 slack for inf bounds)."""
    b = np.abs(np.asarray(bound, dtype=float))
    return np.where(np.isfinite(b), _FEAS * (1.0 + b), 0.0)


class ProxFunctional:
    """A proper convex lsc functional with closed-form value, prox, conjugate.

    Subclasses implement ``_value``, ``_prox`` and ``_conjugate``; the public
    ``value``/``prox`` wrappers coerce and dimension-check their inputs.
    ``conjugate()`` builds the conjugate with ``_conjugate`` on the first
    call and returns that same object on every later call; catalog entries
    own read-only copies of their data, so the memo cannot go stale.
    ``expected_dim`` is None for dimension-agnostic kinds.

    ``_params`` names the constructor's arguments in order as (JSON key,
    attribute) pairs; ``params()`` (so JSON and structural comparison) and
    ``functional_from_json`` read it.
    """

    kind = "abstract"
    expected_dim: int | None = None
    _params: tuple[tuple[str, str], ...] = ()
    _conj: "ProxFunctional | None" = None

    def _check(self, x) -> np.ndarray:
        v = as_vector(x)
        if self.expected_dim is not None and v.size != self.expected_dim:
            raise DimensionMismatchError(
                f"{self.kind}: expected dimension {self.expected_dim}, got {v.size}"
            )
        return v

    def value(self, x) -> float:
        return self._value(self._check(x))

    def prox(self, gamma: float, x) -> np.ndarray:
        if not (gamma > 0):
            raise ValueError(f"prox: gamma must be positive, got {gamma}")
        return self._prox(float(gamma), self._check(x))

    def conjugate(self) -> "ProxFunctional":
        if self._conj is None:
            self._conj = self._conjugate()
        return self._conj

    def _conjugate(self) -> "ProxFunctional":
        raise NotImplementedError

    def _value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # --- serialization -------------------------------------------------
    def params(self) -> dict:
        return {key: _json_value(getattr(self, attr)) for key, attr in self._params}

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    # --- structural comparison -----------------------------------------
    def structurally_equal(self, other: "ProxFunctional", tol: float = 1e-12) -> bool:
        if type(self) is not type(other):
            return False
        return _params_close(self.params(), other.params(), tol)

    def __repr__(self):
        ps = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


def _json_value(v):
    """A parameter as JSON: arrays as (nested) lists, functionals as documents."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, ProxFunctional):
        return v.to_json()
    if isinstance(v, list):
        return [_json_value(p) for p in v]
    return v


def _params_close(a, b, tol) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_params_close(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_params_close(u, v, tol) for u, v in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        if np.isinf(fa) or np.isinf(fb):
            return fa == fb
        return abs(fa - fb) <= tol * (1.0 + abs(fa) + abs(fb))
    return a == b


class Zero(ProxFunctional):
    """F(x) = 0."""

    kind = "Zero"

    def _value(self, x):
        return 0.0

    def _prox(self, gamma, x):
        return x.copy()

    def _conjugate(self):
        # sup_x <y,x> is the indicator of {0}
        return InfBallIndicator(0.0)


class SquaredL2(ProxFunctional):
    """F(x) = 1/2 ||x||^2; self-conjugate."""

    kind = "SquaredL2"

    def _value(self, x):
        return 0.5 * float(x @ x)

    def _prox(self, gamma, x):
        return x / (1.0 + gamma)

    def _conjugate(self):
        return SquaredL2()


class L1(ProxFunctional):
    """F(x) = ||x||_1; prox is coordinatewise soft thresholding."""

    kind = "L1"

    def _value(self, x):
        return float(np.abs(x).sum())

    def _prox(self, gamma, x):
        return np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)

    def _conjugate(self):
        return InfBallIndicator(1.0)


class L2Norm(ProxFunctional):
    """F(x) = ||x||_2; prox shrinks radially, collapsing to 0 inside radius gamma."""

    kind = "L2Norm"

    def _value(self, x):
        return norm(x)

    def _prox(self, gamma, x):
        nx = norm(x)
        if nx <= gamma:
            return np.zeros_like(x)
        return (1.0 - gamma / nx) * x

    def _conjugate(self):
        return L2BallIndicator(1.0)


def _as_bounds(lo, hi):
    """(lo, hi, dimension) of a box: read-only bounds, and the length of a
    1-d bound (None when both are scalars)."""
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    if lo_a.ndim > 1 or hi_a.ndim > 1:
        raise DimensionMismatchError("bounds must be scalars or 1-d")
    if np.any(np.isnan(lo_a)) or np.any(np.isnan(hi_a)):
        raise ValueError("bounds must not be NaN")
    if np.any(lo_a > hi_a):
        raise ValueError("need lo <= hi per coordinate")
    if np.all(np.isinf(lo_a) & (lo_a > 0)) or np.all(np.isinf(hi_a) & (hi_a < 0)):
        raise ValueError("empty box")
    dim = lo_a.size if lo_a.ndim == 1 else hi_a.size if hi_a.ndim == 1 else None
    return _read_only(lo_a), _read_only(hi_a), dim


class BoxIndicator(ProxFunctional):
    """Indicator of the box [lo, hi]; bounds per coordinate, one-sided
    infinities allowed.  prox is the metric projection (clip).  The bounds
    are read-only copies, so the slackened bounds are computed once."""

    kind = "BoxIndicator"
    _params = (("lo", "lo"), ("hi", "hi"))

    def __init__(self, lo, hi):
        self.lo, self.hi, self.expected_dim = _as_bounds(lo, hi)
        self._lo_slack = self.lo - _feas_tol(self.lo)
        self._hi_slack = self.hi + _feas_tol(self.hi)

    def _value(self, x):
        ok = (x >= self._lo_slack).all() and (x <= self._hi_slack).all()
        return 0.0 if ok else INF

    def _prox(self, gamma, x):
        return np.clip(x, self.lo, self.hi)

    def _conjugate(self):
        return BoxSupport(self.lo, self.hi)


class BoxSupport(ProxFunctional):
    """Support function of the box [lo, hi]: sum_i sup_{t in [lo_i,hi_i]} t*y_i.

    This is the conjugate of BoxIndicator; with one-sided infinite bounds it
    is itself an indicator along the unbounded directions.
    """

    kind = "BoxSupport"
    _params = (("lo", "lo"), ("hi", "hi"))

    def __init__(self, lo, hi):
        self.lo, self.hi, self.expected_dim = _as_bounds(lo, hi)

    def _value(self, x):
        if (((x > 0.0) & np.isinf(self.hi)) | ((x < 0.0) & np.isinf(self.lo))).any():
            return INF
        # choosing the bound before multiplying never forms inf * 0; cumsum
        # adds left to right (np.sum is pairwise), and + 0.0 turns an
        # all-zero -0.0 into 0.0, so this matches a scalar loop bit for bit
        terms = np.where(x > 0.0, self.hi, np.where(x < 0.0, self.lo, 0.0)) * x
        return float(np.cumsum(terms)[-1] + 0.0)

    def _prox(self, gamma, x):
        # support functions inherit their prox from the box projection:
        # prox_{g*sigma}(x) = x - g*clip(x/g, lo, hi)
        return x - gamma * np.clip(x / gamma, self.lo, self.hi)

    def _conjugate(self):
        return BoxIndicator(self.lo, self.hi)


class InfBallIndicator(ProxFunctional):
    """Indicator of {x : ||x||_inf <= radius}; radius 0 gives the origin."""

    kind = "InfBallIndicator"
    _params = (("radius", "radius"),)

    def __init__(self, radius: float):
        r = float(radius)
        if r < 0 or not np.isfinite(r):
            raise ValueError("radius must be finite and >= 0")
        self.radius = r

    def _value(self, x):
        tol = _FEAS * (1.0 + self.radius)
        return 0.0 if (np.abs(x) <= self.radius + tol).all() else INF

    def _prox(self, gamma, x):
        return np.clip(x, -self.radius, self.radius)

    def _conjugate(self):
        if self.radius == 0.0:
            return Zero()
        if self.radius == 1.0:
            return L1()
        return Scaled(self.radius, L1())


class L2BallIndicator(ProxFunctional):
    """Indicator of {x : ||x||_2 <= radius}; prox is radial projection."""

    kind = "L2BallIndicator"
    _params = (("radius", "radius"),)

    def __init__(self, radius: float):
        r = float(radius)
        if r < 0 or not np.isfinite(r):
            raise ValueError("radius must be finite and >= 0")
        self.radius = r

    def _value(self, x):
        tol = _FEAS * (1.0 + self.radius)
        return 0.0 if norm(x) <= self.radius + tol else INF

    def _prox(self, gamma, x):
        nx = norm(x)
        if nx <= self.radius:
            return x.copy()
        if self.radius == 0.0:
            return np.zeros_like(x)
        return (self.radius / nx) * x

    def _conjugate(self):
        if self.radius == 0.0:
            return Zero()
        if self.radius == 1.0:
            return L2Norm()
        return Scaled(self.radius, L2Norm())


class Quadratic(ProxFunctional):
    """F(x) = 1/2 x'Qx + c'x + d with Q symmetric positive semidefinite.

    Q and c are read-only copies of the inputs (a Q symmetric to roundoff is
    averaged with its transpose), which makes both caches sound.  prox
    applies the inverse of I + gamma*Q, cached for the last gamma since
    solvers hold gamma fixed, to x - gamma*c; conjugate inverts Q once, on
    the first call.  Both inverses come from spd_inverse, which raises
    SPDSolveError on an indefinite I + gamma*Q or a singular Q.
    """

    kind = "Quadratic"
    _params = (("q", "Q"), ("c", "c"), ("d", "d"))

    def __init__(self, Q, c, d: float = 0.0):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatchError("Q must be square")
        if not np.array_equal(Q, Q.T):
            if not _symmetric(Q):
                raise ValueError("Q must be symmetric")
            Q = 0.5 * Q + 0.5 * Q.T
        if not np.isfinite(Q).all():
            raise ValueError("Q must be finite")
        self.Q = _read_only(Q)
        self.c = _read_only(as_vector(c))
        if self.c.size != Q.shape[0]:
            raise DimensionMismatchError("c does not match Q")
        self.d = float(d)
        self.expected_dim = self.c.size
        self._prox_cache: tuple[float, np.ndarray] | None = None

    def _value(self, x):
        return 0.5 * float(x @ (self.Q @ x)) + float(self.c @ x) + self.d

    def _value_and_gradient(self, x):
        """(F(x), grad F(x)) from one product Q x, bit-identical to the two apart."""
        p = self.Q @ x
        return 0.5 * float(x @ p) + float(self.c @ x) + self.d, p + self.c

    def _prox(self, gamma, x):
        if self._prox_cache is None or self._prox_cache[0] != gamma:
            M = gamma * self.Q
            M.flat[:: self.expected_dim + 1] += 1.0
            self._prox_cache = (gamma, spd_inverse(M))
        return self._prox_cache[1] @ (x - gamma * self.c)

    def _conjugate(self):
        Qinv = spd_inverse(self.Q)
        ic = Qinv @ self.c
        return Quadratic(Qinv, -ic, 0.5 * float(self.c @ ic) - self.d)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        return self.Q @ x + self.c


class Scaled(ProxFunctional):
    """alpha * F for alpha > 0.

    Only the base norm-like kinds may be wrapped directly; everything else is
    normalized by the ``scale`` factory (indicators absorb positive scaling,
    combinators push it inward) so that conjugation stays inside the catalog.
    """

    kind = "Scaled"
    _params = (("alpha", "alpha"), ("inner", "inner"))
    _wrappable = ("SquaredL2", "L1", "L2Norm")

    def __init__(self, alpha: float, inner_f: ProxFunctional):
        if not (alpha > 0):
            raise ValueError("alpha must be positive")
        if inner_f.kind not in self._wrappable:
            raise TypeError(
                f"Scaled wraps only {self._wrappable}; use scale() for {inner_f.kind}"
            )
        self.alpha = float(alpha)
        self.inner = inner_f

    def _value(self, x):
        return self.alpha * self.inner._value(x)

    def _prox(self, gamma, x):
        return self.inner._prox(gamma * self.alpha, x)

    def _conjugate(self):
        # (a F)*(y) = a F*(y/a); closed form per wrapped kind
        if isinstance(self.inner, SquaredL2):
            return scale(SquaredL2(), 1.0 / self.alpha)
        if isinstance(self.inner, L1):
            return InfBallIndicator(self.alpha)
        return L2BallIndicator(self.alpha)


class Shifted(ProxFunctional):
    """F(. - x0): the graph of F translated to sit at x0."""

    kind = "Shifted"
    _params = (("x0", "x0"), ("inner", "inner"))

    def __init__(self, x0, inner_f: ProxFunctional):
        self.x0 = _read_only(as_vector(x0))
        self.inner = inner_f
        if inner_f.expected_dim is not None and inner_f.expected_dim != self.x0.size:
            raise DimensionMismatchError("shift does not match inner dimension")
        self.expected_dim = self.x0.size

    def _value(self, x):
        return self.inner._value(x - self.x0)

    def _prox(self, gamma, x):
        return self.x0 + self.inner._prox(gamma, x - self.x0)

    def _conjugate(self):
        # sup <y,x> - F(x-x0) = F*(y) + <y,x0>
        return Tilted(self.inner.conjugate(), self.x0)


class Tilted(ProxFunctional):
    """F + <v, .>: a linear tilt; arises as the conjugate of Shifted."""

    kind = "Tilted"
    _params = (("inner", "inner"), ("v", "v"))

    def __init__(self, inner_f: ProxFunctional, v):
        self.v = _read_only(as_vector(v))
        self.inner = inner_f
        if inner_f.expected_dim is not None and inner_f.expected_dim != self.v.size:
            raise DimensionMismatchError("tilt does not match inner dimension")
        self.expected_dim = self.v.size

    def _value(self, x):
        base = self.inner._value(x)
        if base == INF:
            return INF
        return base + float(self.v @ x)

    def _prox(self, gamma, x):
        return self.inner._prox(gamma, x - gamma * self.v)

    def _conjugate(self):
        # sup <y,x> - F(x) - <v,x> = F*(y - v)
        return Shifted(self.v, self.inner.conjugate())


class SeparableSum(ProxFunctional):
    """F(x) = sum_i f_i(x_i) with one scalar catalog entry per coordinate.

    value, prox, and conjugate all act coordinatewise.
    """

    kind = "SeparableSum"
    _params = (("pieces", "pieces"),)

    def __init__(self, pieces):
        self.pieces = list(pieces)
        if not self.pieces:
            raise ValueError("need at least one piece")
        for p in self.pieces:
            if p.expected_dim not in (None, 1):
                raise DimensionMismatchError("pieces must be scalar functionals")
        self.expected_dim = len(self.pieces)

    def _value(self, x):
        total = 0.0
        for p, xi in zip(self.pieces, x):
            v = p._value(np.array([xi]))
            if v == INF:
                return INF
            total += v
        return total

    def _prox(self, gamma, x):
        return np.array(
            [p._prox(gamma, np.array([xi]))[0] for p, xi in zip(self.pieces, x)]
        )

    def _conjugate(self):
        return SeparableSum([p.conjugate() for p in self.pieces])


# --- normalizing factories ----------------------------------------------


def scale(F: ProxFunctional, alpha: float) -> ProxFunctional:
    """alpha*F as a catalog entry, normalizing so Scaled only wraps base norms.

    Positive scaling leaves indicators unchanged, rescales BoxSupport's box,
    merges nested scalings, and distributes over shifts, tilts, separable
    sums, and quadratics.
    """
    if not (alpha > 0):
        raise ValueError("scale: alpha must be positive")
    if alpha == 1.0:
        return F
    if isinstance(F, (Zero, BoxIndicator, InfBallIndicator, L2BallIndicator)):
        return F
    if isinstance(F, BoxSupport):
        return BoxSupport(alpha * F.lo, alpha * F.hi)
    if isinstance(F, Scaled):
        return scale(F.inner, alpha * F.alpha)
    if isinstance(F, Shifted):
        return Shifted(F.x0, scale(F.inner, alpha))
    if isinstance(F, Tilted):
        return Tilted(scale(F.inner, alpha), alpha * F.v)
    if isinstance(F, SeparableSum):
        return SeparableSum([scale(p, alpha) for p in F.pieces])
    if isinstance(F, Quadratic):
        return Quadratic(alpha * F.Q, alpha * F.c, alpha * F.d)
    return Scaled(alpha, F)


def shift(F: ProxFunctional, x0) -> ProxFunctional:
    """F(. - x0) as a catalog entry; boxes translate, shifts merge."""
    x0 = as_vector(x0)
    if not np.any(x0):
        return F
    if isinstance(F, BoxIndicator):
        return BoxIndicator(F.lo + x0, F.hi + x0)
    if isinstance(F, Shifted):
        return shift(F.inner, F.x0 + x0)
    return Shifted(x0, F)


def tilt(F: ProxFunctional, v) -> ProxFunctional:
    """F + <v, .> as a catalog entry; tilts merge."""
    v = as_vector(v)
    if not np.any(v):
        return F
    if isinstance(F, Tilted):
        return tilt(F.inner, F.v + v)
    return Tilted(F, v)


# --- catalog-level operations --------------------------------------------


def value(F: ProxFunctional, x) -> float:
    """F(x), +inf exactly when x is outside an indicator's set."""
    return F.value(x)


def prox(F: ProxFunctional, gamma: float, x) -> np.ndarray:
    """The unique minimizer of z |-> 1/2||z-x||^2 + gamma*F(z)."""
    return F.prox(gamma, x)


def conjugate(F: ProxFunctional) -> ProxFunctional:
    """The Fenchel conjugate F*(y) = sup_x <y,x> - F(x), as a catalog entry."""
    return F.conjugate()


def prox_conjugate(F: ProxFunctional, gamma: float, x) -> np.ndarray:
    """prox of F* at parameter gamma, computed from F's own prox.

    Uses prox_{gamma F*}(x) = x - gamma * prox_{F/gamma}(x/gamma); never
    consults conjugate(F), so it stays exact for every catalog kind.  x is
    checked once, on entry.
    """
    if not (gamma > 0):
        raise ValueError("prox_conjugate: gamma must be positive")
    return _prox_conjugate(F, gamma, F._check(x))


def _prox_conjugate(F: ProxFunctional, gamma: float, x: np.ndarray) -> np.ndarray:
    """prox_conjugate at a vector that has already passed F's checks."""
    return x - gamma * F._prox(1.0 / gamma, x / gamma)


def moreau_envelope(F: ProxFunctional, gamma: float, x) -> float:
    """The envelope F_gamma(x) = ||p - x||^2/(2 gamma) + F(p), p = prox_{gamma F}(x)."""
    if not (gamma > 0):
        raise ValueError("moreau_envelope: gamma must be positive")
    x = as_vector(x)
    p = F.prox(gamma, x)
    d = p - x
    fp = F.value(p)
    if fp == INF:  # prox lands in the domain; this would be a catalog bug
        raise ArithmeticError(f"{F.kind}: prox output left the effective domain")
    return float(d @ d) / (2.0 * gamma) + fp


def yosida(F: ProxFunctional, gamma: float, x) -> np.ndarray:
    """(x - prox_{gamma F}(x)) / gamma; the gradient of the Moreau envelope."""
    if not (gamma > 0):
        raise ValueError("yosida: gamma must be positive")
    x = as_vector(x)
    return (x - F.prox(gamma, x)) / gamma


def fenchel_young_gap(F: ProxFunctional, x, xstar) -> float:
    """F(x) + F*(x*) - <x*, x>, nonnegative; 0 iff x* is a subgradient at x.

    Values within the roundoff floor below zero clamp to 0; anything further
    negative means the catalog's conjugate is inconsistent and raises.
    """
    x = as_vector(x)
    xstar = as_vector(xstar)
    fx = F.value(x)
    fs = F.conjugate().value(xstar)
    if fx == INF or fs == INF:
        return INF
    ip = inner(xstar, x)
    raw = fx + fs - ip
    floor = 1e-12 * (1.0 + abs(fx) + abs(fs) + abs(ip))
    if raw < -floor:
        raise ArithmeticError(
            f"Fenchel-Young gap {raw:.3e} below the roundoff floor for {F.kind}"
        )
    return max(raw, 0.0)


# --- piecewise-C1 scalar functions and Clarke intervals -------------------


class ScalarPC1:
    """Continuous selection of finitely many C1 scalar pieces.

    pieces : list of (value_fn, derivative_fn) pairs
    breakpoints : strictly increasing reals splitting the line into intervals
    owners : index into pieces for each of the len(breakpoints)+1 open
        intervals; defaults to positional order.  Pieces that own no interval
        may be listed (they are never essentially active).

    Adjacent owners must agree in value at their shared breakpoint.
    """

    def __init__(self, pieces, breakpoints, owners=None):
        self.pieces = [(p[0], p[1]) for p in pieces]
        self.breakpoints = np.asarray(sorted(float(b) for b in breakpoints))
        if len(set(self.breakpoints.tolist())) != self.breakpoints.size:
            raise ValueError("breakpoints must be distinct")
        m = self.breakpoints.size
        if owners is None:
            if len(self.pieces) != m + 1:
                raise ValueError(
                    "without owners, need exactly len(breakpoints)+1 pieces"
                )
            owners = list(range(m + 1))
        owners = [int(i) for i in owners]
        if len(owners) != m + 1:
            raise ValueError("owners must cover every interval")
        if any(i < 0 or i >= len(self.pieces) for i in owners):
            raise ValueError("owner index out of range")
        self.owners = owners
        for j, b in enumerate(self.breakpoints):
            vl = self.pieces[owners[j]][0](b)
            vr = self.pieces[owners[j + 1]][0](b)
            if abs(vl - vr) > 1e-9 * (1.0 + abs(vl)):
                raise ValueError(
                    f"selection discontinuous at breakpoint {b}: {vl} vs {vr}"
                )

    def _interval_of(self, t: float) -> int:
        return int(np.searchsorted(self.breakpoints, t, side="right"))

    def value(self, t: float) -> float:
        return float(self.pieces[self.owners[self._interval_of(t)]][0](t))

    def derivative(self, t: float) -> float:
        return float(self.pieces[self.owners[self._interval_of(t)]][1](t))


def clarke_interval(f: ScalarPC1, t: float, eps: float = 1e-8) -> tuple[float, float]:
    """[min, max] of derivatives of the essentially active pieces at t.

    A piece is essentially active iff it owns an open interval touching t;
    ownership is read off the intervals immediately left and right of t
    within eps.  Two breakpoints within eps of t cannot be separated and
    raise.
    """
    if not (eps > 0):
        raise ValueError("clarke_interval: eps must be positive")
    t = float(t)
    near = np.flatnonzero(np.abs(f.breakpoints - t) <= eps)
    if near.size >= 2:
        raise ValueError(
            f"clarke_interval: {near.size} breakpoints within eps={eps} of t={t}"
        )
    if near.size == 0:
        d = float(f.pieces[f.owners[f._interval_of(t)]][1](t))
        return (d, d)
    j = int(near[0])
    dl = float(f.pieces[f.owners[j]][1](t))
    dr = float(f.pieces[f.owners[j + 1]][1](t))
    return (min(dl, dr), max(dl, dr))


# --- JSON ------------------------------------------------------------------


def functional_to_json(F: ProxFunctional) -> dict:
    return F.to_json()


def functional_from_json(data: dict) -> ProxFunctional:
    """The catalog entry a functional_to_json document describes.  A Scaled
    document goes through scale(), so it comes back normalized; a key left
    out takes its constructor default, if the constructor has one."""
    cls = _KINDS.get(data["kind"])
    if cls is None:
        raise ValueError(f"unknown functional kind: {data['kind']}")
    params = data.get("params", {})
    args = [
        _from_json_value(params[key])
        for (key, _), arg in zip(cls._params, inspect.signature(cls).parameters.values())
        if key in params or arg.default is arg.empty
    ]
    return scale(args[1], args[0]) if cls is Scaled else cls(*args)


def _from_json_value(v):
    """A JSON parameter as its constructor takes it: documents as functionals."""
    if isinstance(v, dict):
        return functional_from_json(v)
    if isinstance(v, list) and v and isinstance(v[0], dict):
        return [functional_from_json(p) for p in v]
    return v


_KINDS = {cls.kind: cls for cls in ProxFunctional.__subclasses__()}
