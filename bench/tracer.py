"""Spans around proxkit's public callables, installed from outside the library.

``installed(tracer)`` patches every proxkit module namespace that binds a
traced function (``splitting``, ``newton``, ``problems``, ``functionals`` and
``cli`` import ``as_vector``, ``op_norm``, ``solve_spd``, ``duality_gap`` and
the solvers with ``from ... import``) and the traced methods on their
classes, and restores the originals on exit.  A span records name, start,
end, parent and op id; spans stay in memory until the run ends, and a
layer's self time is its span's duration minus that of its child spans.
Calls made while no op is open (the runner's certificates) are not traced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

SPLITTING_SOLVERS = ("proximal_point", "prox_gradient", "fista", "douglas_rachford", "primal_dual")
GENERATORS = ("gen_lasso", "gen_boxqp", "gen_control", "gen_huber")
BUILDERS = (
    "lasso_composite_smooth", "lasso_composite_split", "lasso_dr_pair", "boxqp_composite",
    "boxqp_dr_pair", "control_composite", "huber_composite", "control_as_boxqp",
)
BOOKKEEPING = ("splitting.objective", "splitting.duality_gap", "splitting.trace_append")
SETUP_OP = 0  # op id of the traced instance generation; timed ops count from 1


class Tracer:
    """Spans of one traced pass, stored column-wise to keep them small."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1  # -1: no op open, calls pass straight through
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        self.op_id = op_id
        i = self.open("op")
        try:
            yield
        finally:
            self.close(i)
            self.op_id = -1

    def summary(self):
        """Per span name: calls, self ms and inclusive ms; plus bookkeeping ms
        (objective, duality gap and trace rows) inside splitting solves."""
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        in_solve = [False] * n
        solve_id = self._name_ids.get("splitting.solve", -2)
        book_ids = {self._name_ids[b] for b in BOOKKEEPING if b in self._name_ids}
        calls, self_ms, incl_ms = defaultdict(int), defaultdict(float), defaultdict(float)
        bookkeeping_ms = 0.0
        for i in range(n):
            p = self.parent[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                self_s[p] -= dur
                in_solve[i] = in_solve[p] or self.name[p] == solve_id
            if in_solve[i] and self.name[i] in book_ids:
                bookkeeping_ms += dur * 1e3
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ms[name] += self_s[i] * 1e3
            incl_ms[name] += (self.end[i] - self.start[i]) * 1e3
        return calls, self_ms, incl_ms, bookkeeping_ms


def _spanned(tracer: Tracer, name, fn, after=None):
    """fn inside a span; name is a string or a function of the call's args.
    after(args, kwargs, result) updates tracer.extra once the span has closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op_id < 0:
            return fn(*args, **kwargs)
        i = tracer.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _proxkit_modules():
    return [m for k, m in sys.modules.items() if k == "proxkit" or k.startswith("proxkit.")]


@contextlib.contextmanager
def installed(pk, tracer: Tracer):
    """Trace the currently imported proxkit into tracer until the block exits."""
    F, L, N, P, S = pk.functionals, pk.linalg, pk.newton, pk.problems, pk.splitting
    extra = tracer.extra
    undo = []

    def patch_function(fn, wrapper):
        for mod in _proxkit_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def patch_method(cls, attr, wrapper):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def span_function(fn, name, after=None):
        patch_function(fn, _spanned(tracer, name, fn, after))

    def span_method(cls, attr, name, after=None):
        patch_method(cls, attr, _spanned(tracer, name, cls.__dict__[attr], after))

    # linalg
    span_function(L.as_vector, "linalg.as_vector")
    span_function(L.op_norm, "linalg.op_norm")

    def count_dim(args, kwargs, result):
        extra["linalg.solve_spd.dim"] += len(result)

    span_function(L.solve_spd, "linalg.solve_spd", count_dim)

    def count_bytes(args, kwargs, result):
        extra["linalg.matvec.bytes"] += 8 * args[0].matrix.size

    for attr in ("apply", "adjoint_apply"):
        span_method(L.LinearOperator, attr, "linalg.matvec", count_bytes)

    # functionals
    def count_prox(args, kwargs, result):
        extra["functionals.prox.calls"] += 1

    span_method(F.ProxFunctional, "prox", lambda args: "functionals.prox." + args[0].kind, count_prox)
    span_method(F.ProxFunctional, "value", "functionals.value")
    for cls in vars(F).values():
        if isinstance(cls, type) and issubclass(cls, F.ProxFunctional) and "conjugate" in cls.__dict__:
            span_method(cls, "conjugate", "functionals.conjugate")
    span_function(F.prox_conjugate, "functionals.prox_conjugate")

    # splitting
    span_method(S.CompositeProblem, "objective", "splitting.objective")
    span_method(S.IterTrace, "append", "splitting.trace_append")
    span_method(S.SmoothFn, "value", "splitting.smooth_value")
    span_method(S.SmoothFn, "gradient", "splitting.gradient")
    span_function(S.duality_gap, "splitting.duality_gap")
    for solver in SPLITTING_SOLVERS:
        fn = getattr(S, solver)
        line_search = solver == "prox_gradient"
        patch_function(fn, _traced_solver(tracer, fn, line_search))

    # newton
    patch_function(N.ssn_solve, _traced_ssn(tracer, N.ssn_solve))

    # problems and cli
    for fn in GENERATORS:
        span_function(getattr(P, fn), "problems.gen")
    for fn in BUILDERS:
        span_function(getattr(P, fn), "problems.build")
    span_function(P.kkt_residual, "problems.kkt_residual")
    span_function(P.problem_to_json, "problems.json")
    span_function(P.problem_from_json, "problems.json")
    span_function(pk.cli.main, "cli.main")
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _traced_solver(tracer: Tracer, fn, may_line_search: bool):
    """A splitting solver in a "splitting.solve" span that adds up iterations,
    and for prox_gradient(line_search=True) accepted steps and trial proxes."""
    extra = tracer.extra
    spanned = _spanned(tracer, "splitting.solve", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op_id < 0:
            return fn(*args, **kwargs)
        proxes = extra["functionals.prox.calls"]
        result = spanned(*args, **kwargs)
        iters = result[-1].n_iter
        extra["splitting.iters"] += iters
        if may_line_search and kwargs.get("line_search", args[3] if len(args) > 3 else False):
            extra["splitting.linesearch.accepted"] += iters
            extra["splitting.linesearch.trials"] += extra["functionals.prox.calls"] - proxes
        return result

    return wrapper


def _traced_ssn(tracer: Tracer, fn):
    """ssn_solve in a "newton.solve" span with its residual and step callables
    timed; each step adds the size of its active set."""
    extra = tracer.extra
    spanned = _spanned(tracer, "newton.solve", fn)

    def count_active(args, kwargs, system):
        extra["newton.active"] += int(system.mask.active.sum())

    @functools.wraps(fn)
    def wrapper(residual, step, *args, **kwargs):
        if tracer.op_id < 0:
            return fn(residual, step, *args, **kwargs)
        return spanned(
            _spanned(tracer, "newton.residual", residual),
            _spanned(tracer, "newton.step", step, count_active),
            *args,
            **kwargs,
        )

    return wrapper
