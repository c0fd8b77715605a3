"""Workloads of the proxkit benchmark: instances, ops and their certificates.

An op is one time-to-solution unit that a user waits for.  In the library
workloads it is the problem builder from ``proxkit.problems`` plus one call
into ``proxkit.splitting`` or ``proxkit.newton``, on an instance generated
during set-up.  In ``cli`` it is one in-process ``proxkit.cli.main(argv)``
call.  Each op has a certificate that runs after its timed span and does not
reuse the solver that produced the answer: ``problems.kkt_residual`` under a
bound per problem family, ``oracle_huber`` for huber, the 3^N oracle for any
instance with n <= 8, and for CLI ops the exit code and the files written.

The proxkit modules are passed in as ``pk`` (the imported package) rather
than imported here, because the runner re-imports proxkit for every set-up
repetition and patches the modules it traces.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

TOL_SMALL = 1e-10
TOL_DENSE = 1e-8
TOL_NEWTON = 1e-10
TOL_CLI = 1e-8  # the CLI's own default --tol
MAX_ITER = 20000

# A certificate may exceed the solver's stopping tolerance by a factor per
# solver.  Solvers stop on a fixed-point residual, and the gap or distance it
# bounds depends on conditioning; gaps are also scaled by max(1, |objective|).
# Over eight seeds of every workload the worst certificate, in units of that
# scale, was 5.7 for pg, pg-ls, dr and pdhg, and 7e-3 for the Newton solvers.
# FISTA's stop test measures the step from its extrapolated point, and on
# fo-small lasso its certificate reached 1.3e3.
CERT_FACTOR = 1e2
FISTA_CERT_FACTOR = 1e4
NEWTON_CERT_FACTOR = 1.0
ORACLE_MAX_N = 8

# Which end-to-end metric each layer metric is predicted to move, on which
# workload, and where it should not move.  Why each workload exists is the
# "why" of its entry in BENCHMARK.json.
PREDICTIONS = [
    {
        "layer_metrics": [
            "linalg.as_vector.{calls,self_ms}", "splitting.objective.{calls,self_ms}",
            "splitting.trace_append.{calls,self_ms}", "splitting.us_per_iter",
            "splitting.bookkeeping_share", "splitting.fista.overhead_ratio",
        ],
        "moves": {"fo-small": ["op_ms_p50", "ops_per_s"]},
        "no_change": ["newton"],
    },
    {
        "layer_metrics": [
            "functionals.conjugate.{calls,self_ms}", "splitting.duality_gap.{calls,self_ms}",
            "functionals.prox.<kind>.{calls,self_ms}", "functionals.value.{calls,self_ms}",
            "functionals.prox_conjugate.{calls,self_ms}",
        ],
        # the PDHG boxqp and control solves are the tail of fo-dense
        "moves": {"fo-dense": ["op_ms_p90"]},
        "no_change": ["newton"],
    },
    {
        "layer_metrics": [
            "linalg.op_norm.{calls,self_ms}", "linalg.matvec.{calls,self_ms,bytes}",
            "splitting.gradient.{calls,self_ms}", "splitting.iters", "splitting.solves",
            "splitting.solve.self_ms",
        ],
        "moves": {"fo-dense": ["op_ms_p50"]},
        "no_change": [],
    },
    {
        "layer_metrics": ["splitting.smooth_value.calls", "splitting.linesearch.accept_ratio"],
        "moves": {"fo-small": ["op_ms_p50"]},
        "no_change": [],
    },
    {
        "layer_metrics": [
            "linalg.solve_spd.{calls,self_ms,dim_mean}", "newton.{solves,steps}",
            "newton.step.self_ms", "newton.residual.{calls,self_ms}",
            "newton.residual_per_step", "newton.active_mean",
        ],
        "moves": {"newton": ["op_ms_p50", "op_ms_p90"]},
        "no_change": ["fo-small"],
    },
    {
        "layer_metrics": [
            "cli.main.{calls,self_ms}", "cli.bytes_written", "problems.json.self_ms",
            "problems.kkt_residual.{calls,self_ms}", "problems.build.{calls,self_ms}",
        ],
        "moves": {"cli": ["op_ms_p50"]},
        "no_change": ["fo-small", "fo-dense", "newton"],
    },
    {
        "layer_metrics": ["problems.gen.{calls,self_ms}"],
        "moves": {w: ["setup_s"] for w in ("fo-small", "fo-dense", "newton", "cli")},
        "no_change": [],
    },
]


class OpFailed(Exception):
    """An op returned without a certified solution."""


@dataclass
class Outcome:
    """What a certified op leaves for the deterministic record."""

    iters: int
    text: str  # trace CSV without its ms column, or the solver's residual history
    bytes_written: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], Outcome]  # raises OpFailed
    reset: Callable[[], None] | None = None  # runs after every attempt, untimed


def drop_ms(csv_text: str) -> str:
    """A trace CSV without its last (wall-time) column."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def _history(values) -> str:
    return "\n".join("%.17g" % v for v in values)


def cert_factor(solver: str) -> float:
    return FISTA_CERT_FACTOR if solver == "fista" else CERT_FACTOR


def certify(pk, spec, x, tol: float, factor: float):
    """Raise OpFailed unless x solves spec within factor * tol."""
    P = pk.problems
    x = np.asarray(x, dtype=float)
    if isinstance(spec, P.HuberSpec):
        err = float(np.max(np.abs(x - P.oracle_huber(spec))))
        bound = factor * tol
        what = "distance to oracle_huber"
    else:
        err = P.kkt_residual(spec, x)
        bound = factor * tol * max(1.0, abs(spec.objective(x)))
        what = "kkt_residual"
    if not err <= bound:
        raise OpFailed(f"{what} {err:.3e} above bound {bound:.3e}")
    if spec.n <= ORACLE_MAX_N:
        oracle = {
            P.LassoSpec: P.oracle_lasso,
            P.BoxQPSpec: P.oracle_boxqp,
            P.ControlSpec: P.oracle_control,
        }[type(spec)]
        err = float(np.max(np.abs(x - oracle(spec))))
        if not err <= factor * tol:
            raise OpFailed(f"distance to the 3^N oracle {err:.3e} above {factor * tol:.1e}")


def _kind(pk, spec) -> str:
    P = pk.problems
    return {P.LassoSpec: "lasso", P.BoxQPSpec: "boxqp", P.ControlSpec: "control",
            P.HuberSpec: "huber"}[type(spec)]


# --- library ops ---------------------------------------------------------------

_SMOOTH_BUILDER = {
    "lasso": "lasso_composite_smooth",
    "boxqp": "boxqp_composite",
    "control": "control_composite",
    "huber": "huber_composite",
}


def splitting_op(pk, name: str, spec, solver: str, tol: float) -> Op:
    """One solve with the step sizes the CLI uses by default."""
    P, S, F = pk.problems, pk.splitting, pk.functionals
    kind = _kind(pk, spec)

    def run():
        x0 = np.zeros(spec.n)
        if solver in ("pg", "pg-ls", "fista"):
            comp = getattr(P, _SMOOTH_BUILDER[kind])(spec)
            cfg = S.SolverConfig(tol=tol, max_iter=MAX_ITER)
            if solver == "fista":
                return S.fista(comp, x0, cfg)
            return S.prox_gradient(comp, x0, cfg, line_search=solver == "pg-ls")
        if solver == "dr":
            if kind == "lasso":
                comp = P.lasso_dr_pair(spec)
            else:
                comp = P.boxqp_dr_pair(spec if kind == "boxqp" else P.control_as_boxqp(spec))
            return S.douglas_rachford(comp, x0, S.SolverConfig(gamma=1.0, tol=tol, max_iter=MAX_ITER))
        if kind == "lasso":
            comp = P.lasso_composite_split(spec)
            y0 = np.zeros(spec.a.shape[0])
            step = 0.9 / pk.linalg.op_norm(comp.a)
        else:
            # box side as f so the returned primal iterate is feasible
            qp = spec if kind == "boxqp" else P.control_as_boxqp(spec)
            comp = S.CompositeProblem(f=F.BoxIndicator(qp.lo, qp.hi), g=F.Quadratic(qp.q, qp.c))
            y0 = np.zeros(spec.n)
            step = 0.9
        cfg = S.SolverConfig(tau=step, sigma=step, tol=tol, max_iter=MAX_ITER)
        x, _y, trace = S.primal_dual(comp, x0, y0, cfg)
        return x, trace

    def check(result):
        x, trace = result
        if not trace.converged:
            raise OpFailed(f"stopped without converging after {trace.n_iter} iterations")
        certify(pk, spec, x, tol, cert_factor(solver))
        return Outcome(trace.n_iter, drop_ms(trace.to_csv()))

    return Op(name, run, check)


def _newton_check(pk, spec, tol):
    def check(res):
        if not res.converged:
            state = "diverged" if res.diverged else "stopped without converging"
            raise OpFailed(f"{state} after {res.n_iter} steps (residual {res.residuals[-1]:.3e})")
        certify(pk, spec, res.x, tol, NEWTON_CERT_FACTOR)
        return Outcome(res.n_iter, _history(res.residuals))

    return check


def l1_ssn_op(pk, name: str, spec, tol: float) -> Op:
    """l1_ssn on the lasso at gamma = 1 from raw gradient and Hessian
    callables, as the tests call it, so that no splitting code runs.  The
    Gram matrix and A'b are made with the instance, so ops time Newton alone."""
    h = spec.a.T @ spec.a
    atb = spec.a.T @ spec.b

    def run():
        return pk.newton.l1_ssn(lambda x: h @ x - atb, h, spec.alpha, 1.0, np.zeros(spec.n), tol=tol)

    return Op(name, run, _newton_check(pk, spec, tol))


def control_ssn_op(pk, name: str, spec, tol: float) -> Op:
    def run():
        return pk.newton.control_ssn(spec.s, spec.z, spec.alpha, spec.lo, spec.hi, tol=tol)

    return Op(name, run, _newton_check(pk, spec, tol))


def continuation_op(pk, name: str, spec, tol: float) -> Op:
    """moreau_yosida_ssn on lasso / alpha down the default halving schedule."""
    N, P = pk.newton, pk.problems
    schedule = N.ContinuationSchedule()
    h = spec.a.T @ spec.a
    atb = spec.a.T @ spec.b
    alpha = spec.alpha

    def solve_at(gamma, u0):
        return N.moreau_yosida_ssn(
            lambda u: (h @ u - atb) / alpha, lambda u: h / alpha, gamma, u0, tol=tol
        )

    def run():
        return N.continuation(solve_at, schedule, np.zeros(spec.n))

    def check(result):
        u, stages = result
        bad = [s["gamma"] for s in stages if not s["converged"]]
        if bad or stages[-1]["gamma"] != schedule.gammas()[-1]:
            raise OpFailed(f"continuation stages not converged at gamma {bad}")
        # The last stage minimizes 1/2||Au-b||^2 + alpha||u||_1 + alpha*gamma/2 ||u||^2,
        # a lasso with A stacked on sqrt(alpha*gamma) I; certify that lasso.
        gamma = stages[-1]["gamma"]
        n = spec.n
        ridge = P.LassoSpec(
            np.vstack([spec.a, math.sqrt(spec.alpha * gamma) * np.eye(n)]),
            np.concatenate([spec.b, np.zeros(n)]),
            spec.alpha,
        )
        certify(pk, ridge, u, tol, NEWTON_CERT_FACTOR)
        text = "\n".join("%.17g,%d,%.17g" % (s["gamma"], s["n_iter"], s["residual"]) for s in stages)
        return Outcome(sum(s["n_iter"] for s in stages), text)

    return Op(name, run, check)


# --- CLI ops -------------------------------------------------------------------


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cli_op(pk, name: str, argv: list, opdir: str, verify) -> Op:
    """One cli.main(argv) call writing under opdir; verify(stdout, out) certifies it."""
    out = os.path.join(opdir, "out")
    if argv[0] != "check":  # check writes no files
        argv = argv + ["--out", out]

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = pk.cli.main(argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    def check(result):
        rc, stdout, stderr = result
        if rc != 0:
            raise OpFailed(f"exit code {rc}: {(stderr or stdout).strip()[:200]}")
        outcome = verify(stdout, out)
        if os.path.isdir(out):
            outcome.bytes_written = _dir_bytes(out)
        return outcome

    return Op(name, run, check, reset=lambda: shutil.rmtree(opdir, ignore_errors=True))


def _verify_gen(pk, spec):
    def verify(stdout, out):
        doc = json.loads(_read(os.path.join(out, "problem.json")))
        if doc != pk.problems.problem_to_json(spec):
            raise OpFailed("problem.json differs from the generator's instance")
        return Outcome(0, "")

    return verify


def _verify_solve(pk, spec, solver):
    def verify(stdout, out):
        sol = json.loads(_read(os.path.join(out, "solution.json")))
        if not sol["converged"]:
            raise OpFailed(f"solution.json reports no convergence after {sol['iterations']} iterations")
        x = np.asarray(sol["x"], dtype=float)
        obj = spec.objective(x)
        if not abs(sol["objective"] - obj) <= 1e-12 * max(1.0, abs(obj)):
            raise OpFailed(f"objective {sol['objective']!r} in solution.json is not J(x) = {obj!r}")
        certify(pk, spec, x, TOL_CLI, cert_factor(solver))
        return Outcome(sol["iterations"], drop_ms(_read(os.path.join(out, "trace.csv"))))

    return verify


def _verify_bench(stdout, out):
    manifest = json.loads(_read(os.path.join(out, "manifest.json")))
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 6 and parts[0] in manifest["solvers"]:
            rows[parts[0]] = parts
    iters, texts = 0, []
    for solver in manifest["solvers"]:
        if solver not in rows:
            raise OpFailed(f"bench printed no row for {solver}")
        _, it, conv, obj, opt, _ms = rows[solver]
        bound = cert_factor(solver) * TOL_CLI * max(1.0, abs(float(obj)))
        if conv != "yes" or not float(opt) <= bound:
            raise OpFailed(f"bench {solver}: converged={conv}, optimality {opt} (bound {bound:.1e})")
        iters += int(it)
        texts.append(drop_ms(_read(os.path.join(out, manifest["outputs"][solver]))))
    return Outcome(iters, "\n".join(texts))


def _verify_check(stdout, out):
    lines = stdout.splitlines()
    if not lines or not all(line.endswith("PASS") for line in lines):
        raise OpFailed(f"check output has a failing suite: {stdout.strip()[:200]}")
    return Outcome(0, stdout)


# --- workloads -----------------------------------------------------------------

SOLVERS = ("pg", "pg-ls", "fista", "dr", "pdhg")
SMOOTH_SOLVERS = SOLVERS[:3]  # the ones that apply to huber, which has no second prox
SMALL_ALPHA = 0.05
# m = 0.8n below n: at m = 0.6n the iteration counts spread over a factor of
# four across seeds, and a few instances would set the tail of every run.
SMALL_LASSO = ((50, 75), (50, 40), (75, 110), (75, 60), (100, 150), (100, 80))
FISTA_REF = SMALL_LASSO[0]  # the bare-numpy baseline runs on the first fo-small instance
CLI_SUITES = ("moreau", "envelope", "rate", "superlinear", "drpdhg")
# Instances per size and kind: each run pools many random instances, so its
# statistics move little from one seed to the next.
SMALL_COPIES = 12
DENSE_COPIES = 4
NEWTON_COPIES = 16
# Two instances at n=50 per one at n=200: with one of each, the median and p90
# sat in gaps of the op-time distribution (the heaviest ops are all n=200) and
# jumped between neighbouring ops from run to run.
CLI_INSTANCES = ((50, 4), (200, 2))


def _seeds(seed: int):
    """Instance seeds of one workload seed; instance i of a workload gets seed*1000 + i."""
    return iter(range(seed * 1000, seed * 1000 + 1000))


def _fo_small(pk, seed, workdir):
    P = pk.problems
    seeds = _seeds(seed)
    ops = []
    for n, m in SMALL_LASSO:
        for s in islice(seeds, SMALL_COPIES):
            spec = P.gen_lasso(n, m, seed=s, alpha_scale=SMALL_ALPHA)
            ops += [splitting_op(pk, f"lasso-n{n}-m{m}-s{s}/{v}", spec, v, TOL_SMALL) for v in SOLVERS]
    for s in islice(seeds, SMALL_COPIES):
        spec = P.gen_huber(50, seed=s)
        ops += [splitting_op(pk, f"huber-n50-s{s}/{v}", spec, v, TOL_SMALL) for v in SMOOTH_SOLVERS]
    for s in islice(seeds, SMALL_COPIES):
        spec = P.gen_boxqp(20, seed=s)
        ops += [splitting_op(pk, f"boxqp-n20-s{s}/{v}", spec, v, TOL_SMALL) for v in SOLVERS]
    return ops, []


def _fo_dense(pk, seed, workdir):
    """Lasso stops at n=300: power iteration in op_norm on a 800 x 400 design
    takes 40-300 ms depending on the seed's spectral gap, which would set the
    tail on its own.  PDHG on boxqp and control (an explicit n x n inverse per
    row, about 50 rows on every seed) is the steady tail."""
    P = pk.problems
    seeds = _seeds(seed)
    ops = []
    for kind, gen, sizes in (
        ("lasso", P.gen_lasso, (200, 300)),
        ("boxqp", P.gen_boxqp, (200, 300, 400)),
        ("control", P.gen_control, (200, 300, 400)),
    ):
        for n in sizes:
            solvers = ("fista", "pg", "dr", "pdhg") if kind == "lasso" or n < 400 else ("fista", "pg", "dr")
            for s in islice(seeds, DENSE_COPIES):
                spec = gen(n, seed=s)
                ops += [splitting_op(pk, f"{kind}-n{n}-s{s}/{v}", spec, v, TOL_DENSE) for v in solvers]
    return ops, []


def _newton(pk, seed, workdir):
    """Timed ops plus a probe: l1_ssn with m < n, whose reduced Hessian blocks can
    be singular.  The probe runs untimed and counts towards fail_ratio."""
    P = pk.problems
    seeds = _seeds(seed)
    ops = []
    for n in (100, 200, 300):
        for s in islice(seeds, NEWTON_COPIES):
            ops.append(l1_ssn_op(pk, f"l1_ssn-lasso-n{n}-m{2 * n}-s{s}", P.gen_lasso(n, seed=s), TOL_NEWTON))
    for s in islice(seeds, NEWTON_COPIES):
        ops.append(control_ssn_op(pk, f"control_ssn-n400-s{s}", P.gen_control(400, seed=s), TOL_NEWTON))
    for n in (100, 200):
        for s in islice(seeds, NEWTON_COPIES):
            ops.append(continuation_op(pk, f"continuation-lasso-n{n}-s{s}", P.gen_lasso(n, seed=s), TOL_NEWTON))
    probe = []
    for (n, m), s in zip(((300, 200), (200, 150)) * 3, seeds):
        probe.append(l1_ssn_op(pk, f"l1_ssn-lasso-n{n}-m{m}-s{s}", P.gen_lasso(n, m, seed=s), TOL_NEWTON))
    return ops, probe


def _cli(pk, seed, workdir):
    """Instances are written as problem files during set-up; ops write beside them."""
    P = pk.problems
    seeds = _seeds(seed)
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    gens = {"lasso": P.gen_lasso, "boxqp": P.gen_boxqp, "control": P.gen_control, "huber": P.gen_huber}
    ops = []

    def add(name, argv, verify):
        ops.append(cli_op(pk, name, argv, os.path.join(workdir, f"op{len(ops)}"), verify))

    for n, s in [(n, s) for n, copies in CLI_INSTANCES for s in islice(seeds, copies)]:
        for kind, gen in gens.items():
            spec = gen(n, seed=s)
            path = os.path.join(inputs, f"{kind}-n{n}-s{s}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(P.problem_to_json(spec)))  # dumps uses the C encoder
            size = ["--n", str(n), "--seed", str(s)]
            add(f"gen-{kind}-n{n}-s{s}", ["gen", "--problem", kind] + size, _verify_gen(pk, spec))
            for solver in SMOOTH_SOLVERS if kind == "huber" else SOLVERS:
                add(f"solve-{kind}-n{n}-s{s}/{solver}",
                    ["solve", "--solver", solver, "--problem-file", path], _verify_solve(pk, spec, solver))
            add(f"bench-{kind}-n{n}-s{s}", ["bench", "--problem", kind] + size, _verify_bench)
    for suite in CLI_SUITES:
        add(f"check-{suite}", ["check", "--suite", suite, "--seed", str(next(seeds))], _verify_check)
    return ops, []


BUILD = {"fo-small": _fo_small, "fo-dense": _fo_dense, "newton": _newton, "cli": _cli}


def build(pk, workload: str, seed: int, workdir: str):
    """Generate every instance of a run from its seed: (ops, probe ops)."""
    return BUILD[workload](pk, seed, workdir)


# --- bare-numpy reference -----------------------------------------------------------


def numpy_fista(a, b, alpha, gamma, tol, max_iter):
    """FISTA for the lasso as a bare numpy loop.

    The same arithmetic, in the same order, as proxkit.splitting.fista on
    lasso_composite_smooth, without input checks, objective or trace rows.
    """
    x = np.zeros(a.shape[1])
    xbar = x.copy()
    tau = 1.0
    thresh = gamma * alpha
    for k in range(1, max_iter + 1):
        v = xbar - gamma * (a.T @ (a @ xbar - b))
        x_next = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        tau_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        xbar = x_next + ((1.0 - tau) / tau_next) * (x - x_next)
        res = float(np.linalg.norm(x - x_next)) / gamma
        x, tau = x_next, tau_next
        if res <= tol:
            break
    return x, k


def fista_baseline(pk, seed: int, reps: int):
    """Microseconds per iteration of proxkit fista and of numpy_fista, medians of reps.

    Returns (proxkit_us, numpy_us, error); error is None when both loops
    produce bit-identical iterates in the same number of iterations.
    """
    P, S = pk.problems, pk.splitting
    n, m = FISTA_REF
    spec = P.gen_lasso(n, m, seed=next(_seeds(seed)), alpha_scale=SMALL_ALPHA)
    comp = P.lasso_composite_smooth(spec)
    gamma = 1.0 / comp.smooth.lipschitz
    cfg = S.SolverConfig(gamma=gamma, tol=TOL_SMALL, max_iter=MAX_ITER)
    lib, bare = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        x, trace = S.fista(comp, np.zeros(n), cfg)
        t1 = time.perf_counter()
        xb, kb = numpy_fista(spec.a, spec.b, spec.alpha, gamma, TOL_SMALL, MAX_ITER)
        t2 = time.perf_counter()
        lib.append((t1 - t0) / trace.n_iter * 1e6)
        bare.append((t2 - t1) / kb * 1e6)
    error = None
    if kb != trace.n_iter or not np.array_equal(x, xb):
        error = f"bare-numpy FISTA no longer reproduces proxkit fista ({kb} vs {trace.n_iter} iterations)"
    return statistics.median(lib), statistics.median(bare), error
