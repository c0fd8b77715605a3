"""Command-line harness: generate instances, solve them, audit invariants.

Subcommands
  gen    write a benchmark instance as JSON (bit-identical per seed)
  solve  run one splitting solver on an instance, tracing every iteration
  check  run a named invariant suite and report worst-case slack
  bench  run every applicable solver on one instance and tabulate

Exit codes: 0 success, 2 usage or validation failure (always before any
numerical work) or an output directory that could not be written, 3 a solver
that diverged or failed to converge, or a check suite that failed.

Common flags fall back to environment variables when absent: --seed
(PROXKIT_SEED) on every command, --out (PROXKIT_OUT) on gen, solve and
bench, --tol (PROXKIT_TOL) and --max-iter (PROXKIT_MAX_ITER) on solve and
bench.  A command ignores the variables of flags it does not take.  Trace
CSV files are byte-identical across runs except for the wall-time column.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__, problems
from .functionals import (
    BoxIndicator,
    BoxSupport,
    InfBallIndicator,
    L1,
    L2BallIndicator,
    L2Norm,
    Quadratic,
    SeparableSum,
    SquaredL2,
    Zero,
    moreau_envelope,
    prox_conjugate,
    scale,
    shift,
    tilt,
    yosida,
)
from .linalg import norm, op_norm
from .newton import l1_ssn, superlinear_diagnostic
from .splitting import (
    SolverConfig,
    douglas_rachford,
    dr_as_pdhg_check,
    fista,
    primal_dual,
    prox_gradient,
    proximal_point,
)

# each solver and the problems.ProblemKind builder of the form it runs on
SOLVERS = {"pg": "smooth", "pg-ls": "smooth", "fista": "smooth", "dr": "dr_pair", "pdhg": "split"}


class UsageError(Exception):
    """Bad arguments or inconsistent inputs; maps to exit code 2."""


# each common flag: its environment variable, type, value when both are absent, and help
_COMMON = {
    "seed": ("PROXKIT_SEED", int, 0, "rng seed"),
    "tol": ("PROXKIT_TOL", float, 1e-8, "stopping tolerance"),
    "max_iter": ("PROXKIT_MAX_ITER", int, 5000, "iteration cap"),
    "out": ("PROXKIT_OUT", str, None, "output directory, created atomically; must not exist"),
}


def _add_common(p: argparse.ArgumentParser, names=tuple(_COMMON)):
    """The common flags; each defaults to None, for _fill_from_environment."""
    for name in names:
        var, cast, _, text = _COMMON[name]
        p.add_argument("--" + name.replace("_", "-"), type=cast, help=f"{text} (env {var})")


def _fill_from_environment(args):
    """Set each common flag left unset to its environment variable or fallback."""
    for name, (var, cast, fallback, _) in _COMMON.items():
        if hasattr(args, name) and getattr(args, name) is None:
            raw = os.environ.get(var)
            try:
                setattr(args, name, fallback if raw is None else cast(raw))
            except ValueError:
                raise UsageError(f"bad value for {var}: {raw!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(prog="proxkit", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"proxkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance")
    g.add_argument("--problem", choices=tuple(problems.KINDS), required=True)
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--m", type=int, default=None)
    _add_common(g, ("seed", "out"))  # gen runs no solver

    s = sub.add_parser("solve", help="solve an instance with one splitting solver")
    s.add_argument("--solver", choices=SOLVERS, required=True)
    s.add_argument("--problem-file", help="instance JSON written by gen")
    s.add_argument("--problem", choices=tuple(problems.KINDS), help="generate inline instead")
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--gamma", type=float, default=None, help="prox step override")
    s.add_argument("--tau", type=float, default=None, help="primal step (pdhg)")
    s.add_argument("--sigma", type=float, default=None, help="dual step (pdhg)")
    _add_common(s)

    c = sub.add_parser("check", help="run an invariant suite")
    c.add_argument("--suite", choices=SUITES, required=True)
    _add_common(c, ("seed",))  # each suite fixes its own controls and writes no files

    b = sub.add_parser("bench", help="run all applicable solvers on one instance")
    b.add_argument("--problem", choices=tuple(problems.KINDS), required=True)
    b.add_argument("--n", type=int, default=8)
    b.add_argument("--m", type=int, default=None)
    _add_common(b)
    return ap


# --- output helpers -----------------------------------------------------------


def _check_out(out):
    """out as an absolute path (None when not given); UsageError if it exists."""
    if out is None:
        return None
    out = os.path.abspath(out)
    if os.path.exists(out):
        raise UsageError(f"output directory already exists: {out}")
    return out


def _publish(out: str, files: dict):
    """Write files, {name: CSV text or JSON document}, into a staging directory
    beside out and rename it onto out.  The rename is the atomic publish step:
    out is never seen half filled, and an error removes the staging directory."""
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".partial-", dir=os.path.dirname(out))
    try:
        for name, data in files.items():
            if isinstance(data, str):
                with open(os.path.join(tmp, name), "w") as fh:
                    fh.write(data)
            else:
                _write_json(os.path.join(tmp, name), data)
        _check_out(out)  # again: os.rename silently replaces an empty directory
        os.rename(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_json(path: str, data):
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True) + "\n")


# --- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    out = _check_out(args.out)
    spec = problems.KINDS[args.problem].generate(args.n, args.m, args.seed)
    doc = problems.problem_to_json(spec)
    if out is None:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        return 0
    manifest = {
        "command": "gen",
        "version": __version__,
        "problem": args.problem,
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "outputs": {"problem": "problem.json"},
    }
    _publish(out, {"problem.json": doc, "manifest.json": manifest})
    print(f"wrote {out}/problem.json")
    return 0


# --- solve ------------------------------------------------------------------------


def _load_spec(args):
    if args.problem_file and args.problem:
        raise UsageError("give either --problem-file or --problem, not both")
    if args.problem_file:
        with open(args.problem_file) as fh:
            return problems.problem_from_json(json.load(fh)), args.problem_file
    if args.problem:
        return problems.KINDS[args.problem].generate(args.n, args.m, args.seed), "generated"
    raise UsageError("need --problem-file or --problem")


def _solvers_for(kind: str) -> list:
    """The solvers whose form the kind's registry entry builds (boxqp's for control)."""
    return [s for s, form in SOLVERS.items() if getattr(problems.KINDS[kind], form)]


def _run_solver(spec, solver: str, args, smooth=None):
    """Dispatch (spec, solver) to a configured run on its registry form, a control
    spec given as its control_as_boxqp; UsageError before any work when the
    solver does not apply.  smooth, when given, is the instance's smooth form."""
    build = getattr(problems.KINDS[spec.kind], SOLVERS[solver])
    if build is None:
        raise UsageError(f"solver {solver} does not apply to the {spec.kind} problem")
    x0 = np.zeros(spec.n)

    if solver == "dr":
        gamma = 1.0 if args.gamma is None else args.gamma
        cfg = SolverConfig(gamma=gamma, tol=args.tol, max_iter=args.max_iter)
        return douglas_rachford(build(spec), x0, cfg)

    if solver == "pdhg":
        comp = build(spec)
        step = 0.9 / max(op_norm(comp.a) if comp.a is not None else 1.0, 1e-12)
        tau = step if args.tau is None else args.tau
        sigma = step if args.sigma is None else args.sigma
        cfg = SolverConfig(tau=tau, sigma=sigma, tol=args.tol, max_iter=args.max_iter)
        y0 = np.zeros(comp.a.n_out if comp.a is not None else spec.n)
        x, _y, trace = primal_dual(comp, x0, y0, cfg)
        return x, trace

    comp = smooth or build(spec)
    cfg = SolverConfig(gamma=args.gamma, tol=args.tol, max_iter=args.max_iter)
    if solver == "fista":
        return fista(comp, x0, cfg)
    return prox_gradient(comp, x0, cfg, line_search=(solver == "pg-ls"))


def cmd_solve(args) -> int:
    out = _check_out(args.out)
    spec, source = _load_spec(args)
    form = problems.control_as_boxqp(spec) if spec.kind == "control" else spec
    # a diverging run overflows on its way out; the trace reports that instead
    with np.errstate(over="ignore", invalid="ignore"):
        x, trace = _run_solver(form, args.solver, args)
    if trace.diverged:
        print(
            f"{args.solver} on {spec.kind} n={spec.n}: diverged at iteration "
            f"{trace.n_iter + 1} (non-finite residual)"
        )
        return 3
    obj = spec.objective(x)
    kkt = problems.kkt_residual(form, x)
    status = "converged" if trace.converged else "did not converge"
    print(
        f"{args.solver} on {spec.kind} n={spec.n}: {status} "
        f"after {trace.n_iter} iterations, objective {obj:.12g}, "
        f"optimality {kkt:.3e}"
    )
    if out is not None:
        summary = {
            "objective": obj,
            "kkt_residual": kkt,
            "converged": trace.converged,
            "iterations": trace.n_iter,
        }
        manifest = {
            "command": "solve",
            "version": __version__,
            "problem": {"kind": spec.kind, "n": spec.n, "source": source},
            "solver": args.solver,
            "seed": args.seed,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "gamma": args.gamma,
            "tau": args.tau,
            "sigma": args.sigma,
            **summary,
            "outputs": {"trace": "trace.csv", "solution": "solution.json"},
        }
        solution = {"x": [float(v) for v in x], **summary}
        _publish(
            out, {"trace.csv": trace.to_csv(), "solution.json": solution, "manifest.json": manifest}
        )
        print(f"wrote {out}/trace.csv")
    return 0 if trace.converged else 3


# --- check ------------------------------------------------------------------------


def _sample_functionals(rng, n):
    """A spread of catalog entries for identity audits."""
    x0 = rng.standard_normal(n)
    v = rng.standard_normal(n)
    lo = -np.abs(rng.standard_normal(n)) - 0.2
    hi = np.abs(rng.standard_normal(n)) + 0.2
    bmat = rng.standard_normal((n, n))
    q = bmat @ bmat.T / n + 0.3 * np.eye(n)
    return [
        Zero(),
        SquaredL2(),
        L1(),
        L2Norm(),
        BoxIndicator(lo, hi),
        BoxSupport(lo, hi),
        InfBallIndicator(0.8),
        L2BallIndicator(1.3),
        scale(L1(), 0.7),
        scale(SquaredL2(), 2.5),
        shift(SquaredL2(), x0),
        tilt(L1(), v),
        SeparableSum([L1() if i % 2 else SquaredL2() for i in range(n)]),
        Quadratic(q, rng.standard_normal(n)),
    ]


def _suite_moreau(seed: int):
    rng = np.random.default_rng(seed)
    n = 7
    worst = 0.0
    for f in _sample_functionals(rng, n):
        for _ in range(25):
            x = 3.0 * rng.standard_normal(n)
            p = f.prox(1.0, x)
            q = prox_conjugate(f, 1.0, x)
            worst = max(worst, float(np.max(np.abs(x - (p + q)))))
    return "decomposition x = prox(x) + prox*(x)", worst, 1e-12


def _suite_envelope(seed: int):
    rng = np.random.default_rng(seed)
    n = 6
    h = 1e-6
    worst = 0.0
    for f in (L1(), L2Norm(), SquaredL2(), scale(L1(), 0.7), InfBallIndicator(0.8)):
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(10):
                x = 2.0 * rng.standard_normal(n)
                grad = yosida(f, gamma, x)
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    fd[i] = (
                        moreau_envelope(f, gamma, x + e)
                        - moreau_envelope(f, gamma, x - e)
                    ) / (2 * h)
                worst = max(worst, norm(fd - grad) / (1.0 + norm(grad)))
    return "envelope gradient vs yosida map", worst, 1e-5


def _suite_rate(seed: int):
    spec = problems.gen_lasso(20, 40, seed=seed)
    comp = problems.lasso_composite_smooth(spec)
    gamma = 1.0 / comp.smooth.lipschitz
    ref = l1_ssn(
        comp.smooth.gradient, spec.a.T @ spec.a, spec.alpha, gamma,
        np.zeros(20), tol=1e-13, max_iter=100,
    )
    jstar = spec.objective(ref.x)
    x0 = np.zeros(20)
    cfg = SolverConfig(gamma=gamma, tol=1e-16, max_iter=500)
    _, trace = prox_gradient(comp, x0, cfg)
    d0 = norm(x0 - ref.x) ** 2
    worst = -math.inf
    for k in range(1, len(trace.objective)):
        bound = d0 / (2.0 * gamma * k) + 1e-10 * (1.0 + abs(jstar))
        worst = max(worst, trace.objective[k] - jstar - bound)
    return "sublinear objective bound margin", worst, 0.0


def _suite_fejer(seed: int):
    spec = problems.gen_boxqp(8, seed=seed)
    xstar = problems.oracle_boxqp(spec)
    comp = problems.boxqp_composite(spec)
    cfg = dict(tol=1e-14, max_iter=2000, store_iterates=True)
    _, trace = prox_gradient(comp, np.zeros(8), SolverConfig(**cfg))  # gamma = 1/L
    _, tr2 = proximal_point(Quadratic(spec.q, spec.c), np.zeros(8), SolverConfig(gamma=0.5, **cfg))
    worst = 0.0
    for tr, ref in ((trace, xstar), (tr2, np.linalg.solve(spec.q, -spec.c))):
        d = [norm(x - ref) for x in tr.iterates]
        worst = max([worst] + [b - a for a, b in zip(d, d[1:])])
    return "monotone distance to the solution", worst, 1e-12


def _suite_superlinear(seed: int):
    spec = problems.gen_lasso(30, 60, seed=seed)
    comp = problems.lasso_composite_smooth(spec)
    gamma = 1.0 / comp.smooth.lipschitz
    result = l1_ssn(
        comp.smooth.gradient, spec.a.T @ spec.a, spec.alpha, gamma,
        np.zeros(30), tol=1e-13, max_iter=100,
    )
    if not result.converged:
        return "final error contraction ratio", math.inf, 0.1
    _, ratios = superlinear_diagnostic(result.iterates, result.x)
    worst = ratios[-1] if ratios else 0.0
    return "final error contraction ratio", worst, 0.1


def _suite_drpdhg(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(5):
        n = int(rng.integers(3, 9))
        bmat = rng.standard_normal((n, n))
        f = Quadratic(bmat @ bmat.T / n + 0.4 * np.eye(n), rng.standard_normal(n))
        g = scale(L1(), 0.5 + float(rng.uniform()))
        gamma = float(2.0 ** rng.integers(-2, 3))
        dev = dr_as_pdhg_check(f, g, rng.standard_normal(n), gamma)
        worst = max(worst, dev)
    return "splitting equivalence deviation", worst, 1e-10


_SUITE_FNS = {
    "moreau": _suite_moreau,
    "envelope": _suite_envelope,
    "rate": _suite_rate,
    "fejer": _suite_fejer,
    "superlinear": _suite_superlinear,
    "drpdhg": _suite_drpdhg,
}
SUITES = (*_SUITE_FNS, "all")


def cmd_check(args) -> int:
    names = list(_SUITE_FNS) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        label, worst, tol = _SUITE_FNS[name](args.seed)
        ok = worst <= tol
        failed = failed or not ok
        print(
            f"{name}: worst {label} = {worst:.3e} "
            f"(allowed {tol:.1e}) {'PASS' if ok else 'FAIL'}"
        )
    return 3 if failed else 0


# --- bench ------------------------------------------------------------------------


def cmd_bench(args) -> int:
    out = _check_out(args.out)
    spec = problems.KINDS[args.problem].generate(args.n, args.m, args.seed)
    form = problems.control_as_boxqp(spec) if spec.kind == "control" else spec
    solvers = _solvers_for(form.kind)
    rows, files = [], {}
    ns = argparse.Namespace(**vars(args), gamma=None, tau=None, sigma=None)
    smooth = problems.KINDS[form.kind].smooth(form)
    for solver in solvers:
        with np.errstate(over="ignore", invalid="ignore"):
            x, trace = _run_solver(form, solver, ns, smooth)
            rows.append(
                (
                    solver,
                    trace.n_iter,
                    "DIV" if trace.diverged else "yes" if trace.converged else "NO",
                    spec.objective(x),
                    problems.kkt_residual(form, x),
                    trace.ms[-1] if trace.ms else 0.0,
                )
            )
        if out is not None:
            files[f"trace_{solver}.csv"] = trace.to_csv()
    print(f"{'solver':8} {'iters':>6} {'conv':>5} {'objective':>20} {'optimality':>12} {'ms':>9}")
    for r in rows:
        print(f"{r[0]:8} {r[1]:>6d} {r[2]:>5} {r[3]:>20.12g} {r[4]:>12.3e} {r[5]:>9.2f}")
    if out is not None:
        files["manifest.json"] = {
            "command": "bench",
            "version": __version__,
            "problem": args.problem,
            "n": args.n,
            "m": args.m,
            "seed": args.seed,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "solvers": solvers,
            "outputs": {s: f"trace_{s}.csv" for s in solvers},
        }
        _publish(out, files)
        print(f"wrote {out}/")
    return 0 if all(r[2] == "yes" for r in rows) else 3


# --- entry ------------------------------------------------------------------------


def main(argv=None) -> int:
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "check": cmd_check,
        "bench": cmd_bench,
    }
    try:
        args = build_parser().parse_args(argv)
        _fill_from_environment(args)
        return handlers[args.command](args)
    except (UsageError, ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
