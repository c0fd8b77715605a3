import math

import numpy as np
import numpy.testing as npt
import pytest

from proxkit import splitting
from proxkit.functionals import (
    BoxIndicator,
    L1,
    Quadratic,
    SquaredL2,
    Zero,
    scale,
    shift,
)
from proxkit.linalg import DimensionMismatchError, LinearOperator, norm, op_norm
from proxkit.problems import (
    boxqp_composite,
    gen_boxqp,
    gen_huber,
    gen_lasso,
    huber_composite,
    lasso_composite_smooth,
    lasso_composite_split,
    lasso_dr_pair,
    oracle_lasso,
)
from proxkit.splitting import (
    CompositeProblem,
    SmoothFn,
    SolverConfig,
    douglas_rachford,
    dr_as_pdhg_check,
    duality_gap,
    fista,
    primal_dual,
    prox_gradient,
    proximal_point,
)


def _tiny_quadratic(n=4, seed=0):
    rng = np.random.default_rng(seed)
    b0 = rng.standard_normal((n, n))
    q = b0 @ b0.T / n + 0.5 * np.eye(n)
    c = rng.standard_normal(n)
    return q, c, np.linalg.solve(q, -c)


# --- configuration -------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(gamma=1.0, tol=-1.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(gamma=1.0, max_iter=0)
    with pytest.raises(ValueError, match="sigma"):
        SolverConfig(gamma=1.0, tau=0.5, sigma=-2.0)


# --- trace conventions ----------------------------------------------------------


def test_trace_row_zero_and_columns():
    q, c, _ = _tiny_quadratic()
    f = Quadratic(q, c)
    x0 = np.ones(4)
    x, trace = proximal_point(f, x0, SolverConfig(gamma=1.0, max_iter=50))
    assert trace.residuals[0] == np.inf
    assert math.isnan(trace.gap[0])
    assert trace.objective[0] == pytest.approx(f.value(x0))
    assert all(math.isnan(g) for g in trace.gap)
    assert trace.converged
    assert trace.n_iter == len(trace.objective) - 1
    assert len(trace) == len(trace.objective)


def test_trace_csv_format():
    q, c, _ = _tiny_quadratic()
    _, trace = proximal_point(
        Quadratic(q, c), np.ones(4), SolverConfig(gamma=1.0, max_iter=10)
    )
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,objective,residual,gap,step,ms"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "inf"
    assert first[3] == "nan"
    # round-trip float fields at full precision
    val = float(lines[2].split(",")[1])
    assert val == trace.objective[1]


def test_store_iterates():
    q, c, _ = _tiny_quadratic()
    cfg = SolverConfig(gamma=1.0, max_iter=5, tol=1e-300, store_iterates=True)
    x, trace = proximal_point(Quadratic(q, c), np.ones(4), cfg)
    assert len(trace.iterates) == len(trace.objective)
    npt.assert_array_equal(trace.iterates[-1], x)
    npt.assert_array_equal(trace.iterates[0], np.ones(4))


def _each_solver(name):
    """(returned iterate, trace) of a short run of the named splitting solver."""
    q, c, _ = _tiny_quadratic(seed=2)
    spec, lasso = _lasso_problem(seed=1)
    pair = CompositeProblem(f=Quadratic(q, c), g=scale(L1(), 0.3))
    cfg = SolverConfig(gamma=0.5 / lasso.smooth.lipschitz, tau=0.5, sigma=0.5, max_iter=40)
    if name == "proximal_point":
        return proximal_point(Quadratic(q, c), np.ones(4), cfg)
    if name == "prox_gradient":
        return prox_gradient(lasso, np.zeros(spec.n), cfg, line_search=True)
    if name == "fista":
        return fista(lasso, np.zeros(spec.n), cfg)
    if name == "douglas_rachford":
        return douglas_rachford(pair, np.ones(4), cfg)
    x, _, trace = primal_dual(pair, np.ones(4), np.zeros(4), cfg)
    return x, trace


@pytest.mark.parametrize(
    "name", ["proximal_point", "prox_gradient", "fista", "douglas_rachford", "primal_dual"]
)
def test_trace_x_is_the_returned_iterate(name):
    x, trace = _each_solver(name)
    assert trace.n_iter > 5
    assert trace.x.tobytes() == x.tobytes()


# --- proximal point ----------------------------------------------------------------


def test_proximal_point_converges_on_quadratic():
    q, c, xstar = _tiny_quadratic()
    x, trace = proximal_point(
        Quadratic(q, c), np.zeros(4), SolverConfig(gamma=2.0, tol=1e-12, max_iter=500)
    )
    npt.assert_allclose(x, xstar, atol=1e-9)
    assert trace.converged


def test_proximal_point_fejer_series():
    q, c, xstar = _tiny_quadratic(seed=3)
    _, trace = proximal_point(
        Quadratic(q, c),
        np.ones(4) * 3,
        SolverConfig(gamma=1.0, tol=1e-13, max_iter=200, store_iterates=True),
    )
    d = [norm(x - xstar) for x in trace.iterates]
    assert len(d) == len(trace.objective)
    for a, b in zip(d[1:], d[:-1]):
        assert a <= b + 1e-12


# --- proximal gradient ---------------------------------------------------------------


def _lasso_problem(seed=0, n=6):
    spec = gen_lasso(n, 2 * n, seed=seed)
    return spec, lasso_composite_smooth(spec)


def test_prox_gradient_monotone_objective_and_solution():
    spec, prob = _lasso_problem(seed=1)
    gamma = 1.0 / prob.smooth.lipschitz
    x, trace = prox_gradient(
        prob, np.zeros(spec.n), SolverConfig(gamma=gamma, tol=1e-12, max_iter=4000)
    )
    xstar = oracle_lasso(spec)
    npt.assert_allclose(x, xstar, atol=1e-7)
    obj = trace.objective
    for a, b in zip(obj[1:], obj[:-1]):
        assert a <= b + 1e-12


def test_prox_gradient_line_search_backtracks_and_converges():
    # the 1e-12 slack in the acceptance test caps certifiable accuracy near
    # sqrt(slack/gamma), so the tolerance here is deliberately modest
    spec, prob = _lasso_problem(seed=2)
    gamma0 = 10.0 / prob.smooth.lipschitz
    cfg = SolverConfig(gamma=gamma0, tol=2e-6, max_iter=6000)
    x, trace = prox_gradient(prob, np.zeros(spec.n), cfg, line_search=True)
    xstar = oracle_lasso(spec)
    assert trace.converged
    npt.assert_allclose(x, xstar, atol=1e-4)
    # the step column records the accepted gamma, and backtracking fired
    assert len(trace.step) == len(trace.objective)
    assert min(trace.step[1:]) < gamma0


def test_line_search_underflow_reports_iteration():
    # a lying oracle: gradient of a function that is not smooth at any scale
    bad = SmoothFn(
        value=lambda x: float(np.sqrt(np.abs(x)).sum()),
        gradient=lambda x: np.sign(x) * 1e6,
    )
    prob = CompositeProblem(smooth=bad, g=Zero())
    with pytest.raises(RuntimeError, match="underflow at iteration 1"):
        prox_gradient(
            prob,
            np.ones(2),
            SolverConfig(gamma=1.0, max_iter=5),
            line_search=True,
        )


def test_prox_gradient_on_pure_smooth_is_gradient_descent():
    # G = Zero turns the iteration into plain gradient descent
    q = np.diag([1.0, 10.0])
    f = SmoothFn(
        value=lambda x: 0.5 * float(x @ q @ x),
        gradient=lambda x: q @ x,
        lipschitz=10.0,
    )
    prob = CompositeProblem(smooth=f, g=Zero())
    gamma = 2.0 / 11.0
    x, trace = prox_gradient(
        prob,
        np.array([1.0, 1.0]),
        SolverConfig(gamma=gamma, tol=1e-300, max_iter=30, store_iterates=True),
    )
    # worst-mode linear contraction at exactly 9/11 per step
    r = [norm(x) for x in trace.iterates]
    for k in range(1, 25):
        assert r[k + 1] / r[k] == pytest.approx(9.0 / 11.0, rel=1e-9)


# --- fista ---------------------------------------------------------------------------


def test_fista_momentum_recurrence():
    spec, prob = _lasso_problem(seed=4)
    cfg = SolverConfig(gamma=1.0 / prob.smooth.lipschitz, tol=1e-300, max_iter=60)
    _, trace = fista(prob, np.zeros(spec.n), cfg)
    taus = trace.taus
    assert taus[0] == 1.0
    for k in range(len(taus) - 1):
        assert taus[k + 1] ** 2 - taus[k + 1] == pytest.approx(
            taus[k] ** 2, abs=1e-12
        )


def test_fista_reaches_oracle():
    spec, prob = _lasso_problem(seed=5)
    cfg = SolverConfig(gamma=1.0 / prob.smooth.lipschitz, tol=1e-12, max_iter=5000)
    x, trace = fista(prob, np.zeros(spec.n), cfg)
    xstar = oracle_lasso(spec)
    npt.assert_allclose(x, xstar, atol=1e-7)


# --- douglas-rachford ------------------------------------------------------------------


def test_douglas_rachford_returns_g_side_point():
    # f smooth quadratic, g the box indicator: the returned point must be feasible
    q, c, _ = _tiny_quadratic(seed=6)
    f = Quadratic(q, c)
    g = BoxIndicator(-0.2 * np.ones(4), 0.2 * np.ones(4))
    prob = CompositeProblem(f=f, g=g)
    y, trace = douglas_rachford(
        prob, np.zeros(4), SolverConfig(gamma=1.0, tol=1e-12, max_iter=2000)
    )
    assert np.all(y >= -0.2 - 1e-15) and np.all(y <= 0.2 + 1e-15)
    assert trace.converged
    # fixed point: prox_f(z) == prox_g reflection == y at the solution
    kkt = g.prox(1.0, y) - y
    npt.assert_allclose(kkt, 0.0, atol=1e-12)


def test_douglas_rachford_requires_prox_pair():
    prob = CompositeProblem(smooth=SmoothFn(lambda x: 0.0, lambda x: x * 0), g=L1())
    with pytest.raises(ValueError, match="problem.f is required"):
        douglas_rachford(prob, np.zeros(2), SolverConfig(gamma=1.0))


def test_douglas_rachford_residual_is_y_minus_x():
    q, c, _ = _tiny_quadratic(seed=7)
    prob = CompositeProblem(f=Quadratic(q, c), g=scale(L1(), 0.3))
    _, trace = douglas_rachford(
        prob, np.ones(4), SolverConfig(gamma=0.7, tol=1e-10, max_iter=500)
    )
    assert trace.residuals[-1] <= 1e-10
    assert trace.residuals[0] == np.inf


# --- primal-dual -------------------------------------------------------------------------


def test_primal_dual_step_gate():
    a = LinearOperator(2.0 * np.eye(2))
    prob = CompositeProblem(f=L1(), g=SquaredL2(), a=a)
    cfg = SolverConfig(gamma=1.0, tau=0.6, sigma=0.6)
    with pytest.raises(ValueError) as exc:
        primal_dual(prob, np.zeros(2), np.zeros(2), cfg)
    assert "1.44" in str(exc.value)


@pytest.mark.parametrize("seed", range(5))
def test_primal_dual_gate_holds_on_a_clustered_spectrum(seed):
    # sigma_1 = 1 and sigma_2 = 1 - 1e-7: an iterative norm estimate sits
    # below sigma_1 here, and a step just past the bound would get through
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((60, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    spectrum = np.concatenate([[1.0, 1.0 - 1e-7], np.linspace(0.9, 0.1, 38)])
    a = LinearOperator((u * spectrum) @ v.T)
    top = np.linalg.svd(a.matrix, compute_uv=False)[0]
    assert op_norm(a) >= top
    prob = CompositeProblem(f=L1(), g=SquaredL2(), a=a)
    cfg = SolverConfig(tau=1.0, sigma=(1.0 + 1e-10) / top**2)
    with pytest.raises(ValueError, match="sigma\\*tau"):
        primal_dual(prob, np.zeros(40), np.zeros(60), cfg)


def test_primal_dual_solves_lasso_split():
    spec = gen_lasso(5, 10, seed=8)
    from proxkit.problems import lasso_composite_split

    prob = lasso_composite_split(spec)
    from proxkit.linalg import op_norm

    nrm = op_norm(prob.a)
    step = 0.9 / nrm
    cfg = SolverConfig(gamma=1.0, tau=step, sigma=step, tol=1e-12, max_iter=20000)
    x, y, trace = primal_dual(prob, np.zeros(spec.n), np.zeros(prob.a.n_out), cfg)
    xstar = oracle_lasso(spec)
    npt.assert_allclose(x, xstar, atol=1e-6)
    # gap column populated with finite values once the dual certificate kicks in
    assert np.isfinite(trace.gap[-1])
    assert trace.gap[-1] <= 1e-8


def test_primal_dual_gap_matches_uncached_recomputation():
    # the per-row gap reuses the memoized conjugate of g; it must equal the
    # gap that freshly built, uncached functionals give at the returned pair
    spec = gen_boxqp(30, seed=4)
    prob = CompositeProblem(
        f=BoxIndicator(spec.lo, spec.hi), g=Quadratic(spec.q, spec.c)
    )
    cfg = SolverConfig(tau=0.9, sigma=0.9, tol=1e-8, max_iter=20000)
    x, y, trace = primal_dual(prob, np.zeros(spec.n), np.zeros(spec.n), cfg)
    assert trace.converged
    fresh = CompositeProblem(
        f=BoxIndicator(spec.lo, spec.hi), g=Quadratic(spec.q, spec.c)
    )
    gap = duality_gap(fresh, x, y)
    assert np.isfinite(gap)
    assert np.float64(trace.gap[-1]).tobytes() == np.float64(gap).tobytes()


def test_duality_gap_weak_duality_and_tightness():
    spec = gen_lasso(4, 8, seed=9)
    from proxkit.problems import lasso_composite_split

    prob = lasso_composite_split(spec)
    rng = np.random.default_rng(0)
    # any feasible primal-dual pair with finite terms gives a nonneg gap
    for _ in range(10):
        x = rng.standard_normal(spec.n)
        y = rng.uniform(-0.5, 0.5, prob.a.n_out)  # scaled into dual feasibility below
        g = duality_gap(prob, x, y)
        assert g >= 0.0 or g == np.inf


def test_dr_as_pdhg_equivalence():
    rng = np.random.default_rng(11)
    for seed in range(5):
        q, c, _ = _tiny_quadratic(seed=seed)
        f = Quadratic(q, c)
        g = scale(L1(), 0.4)
        z0 = rng.standard_normal(4)
        worst = dr_as_pdhg_check(f, g, z0, gamma=0.8, n_iter=50)
        assert worst <= 1e-10


# --- shared problem container --------------------------------------------------------------


def test_composite_objective_short_circuits_infeasible():
    prob = CompositeProblem(
        f=BoxIndicator(np.zeros(2), np.ones(2)), g=SquaredL2()
    )
    assert prob.objective(np.array([2.0, 0.0])) == np.inf
    assert prob.objective(np.array([0.5, 0.5])) == pytest.approx(0.25)


def test_composite_objective_with_operator():
    a = LinearOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))
    prob = CompositeProblem(f=SquaredL2(), g=shift(SquaredL2(), np.ones(2)), a=a)
    x = np.array([1.0, 1.0])
    want = 0.5 * float(x @ x) + 0.5 * float((a.matrix @ x - 1.0) @ (a.matrix @ x - 1.0))
    assert prob.objective(x) == pytest.approx(want)


# --- validation at entry, raw-array loops, divergence --------------------------------


def _run_on_lasso(solver, spec):
    """(problem, x, trace) for one solver on the lasso spec, iterates stored."""
    x0 = np.zeros(spec.n)
    if solver in ("pg", "pg-ls", "fista"):
        prob = lasso_composite_smooth(spec)
        gamma = 1.0 / prob.smooth.lipschitz
        cfg = SolverConfig(gamma=gamma, tol=1e-10, max_iter=3000, store_iterates=True)
        if solver == "fista":
            return (prob, *fista(prob, x0, cfg))
        return (prob, *prox_gradient(prob, x0, cfg, line_search=solver == "pg-ls"))
    if solver == "dr":
        prob = lasso_dr_pair(spec)
        cfg = SolverConfig(gamma=1.0, tol=1e-10, max_iter=3000, store_iterates=True)
        return (prob, *douglas_rachford(prob, x0, cfg))
    prob = lasso_composite_split(spec)
    step = 0.9 / op_norm(prob.a)
    cfg = SolverConfig(tau=step, sigma=step, tol=1e-10, max_iter=3000, store_iterates=True)
    x, _y, trace = primal_dual(prob, x0, np.zeros(prob.a.n_out), cfg)
    return prob, x, trace


@pytest.mark.parametrize("solver", ["pg", "pg-ls", "fista", "dr", "pdhg"])
def test_trace_objective_is_public_objective_bit_for_bit(solver):
    spec = gen_lasso(8, 12, seed=3)
    prob, x, trace = _run_on_lasso(solver, spec)
    assert trace.converged and not trace.diverged
    npt.assert_array_equal(trace.iterates[-1], x)
    public = np.array([prob.objective(xk) for xk in trace.iterates])
    assert public.tobytes() == np.array(trace.objective).tobytes()


def _bare_fista(a, b, alpha, gamma, tol, max_iter):
    """The lasso FISTA as a bare numpy loop, in the arithmetic order of fista;
    returns every iterate, the start point included."""
    x = np.zeros(a.shape[1])
    xbar = x.copy()
    tau = 1.0
    iterates = [x]
    for _ in range(max_iter):
        v = xbar - gamma * (a.T @ (a @ xbar - b))
        x_next = np.sign(v) * np.maximum(np.abs(v) - gamma * alpha, 0.0)
        res = float(np.linalg.norm(x - x_next)) / gamma
        tau_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        xbar = x_next + ((1.0 - tau) / tau_next) * (x - x_next)
        x, tau = x_next, tau_next
        iterates.append(x)
        if res <= tol:
            break
    return iterates


def test_fista_reproduces_bare_numpy_loop():
    spec = gen_lasso(8, 12, seed=3)
    prob, x, trace = _run_on_lasso("fista", spec)
    gamma = 1.0 / prob.smooth.lipschitz
    bare = _bare_fista(spec.a, spec.b, spec.alpha, gamma, 1e-10, 3000)
    assert trace.converged
    assert trace.n_iter == len(bare) - 1
    assert np.array_equal(x, bare[-1])
    assert all(np.array_equal(u, v) for u, v in zip(trace.iterates, bare))


class _CountingL1(L1):
    """L1 that counts prox evaluations, to show a check fired before any step."""

    def __init__(self):
        self.calls = 0

    def _prox(self, gamma, x):
        self.calls += 1
        return super()._prox(gamma, x)


@pytest.mark.parametrize("solver", ["pg", "pg-ls", "fista"])
def test_wrong_length_gradient_is_rejected_at_entry(solver):
    g = _CountingL1()
    grads = []

    def gradient(x):
        grads.append(1)
        return np.zeros(1)  # would broadcast against any iterate

    prob = CompositeProblem(smooth=SmoothFn(lambda x: 0.0, gradient), g=g)
    cfg = SolverConfig(gamma=1.0, max_iter=5)
    with pytest.raises(DimensionMismatchError, match="gradient has shape"):
        if solver == "fista":
            fista(prob, np.ones(3), cfg)
        else:
            prox_gradient(prob, np.ones(3), cfg, line_search=solver == "pg-ls")
    assert len(grads) == 1 and g.calls == 0


@pytest.mark.parametrize("solver", [prox_gradient, fista])
def test_non_finite_first_gradient_is_rejected_before_any_prox(solver):
    g = _CountingL1()
    prob = CompositeProblem(smooth=SmoothFn(lambda x: 0.0, lambda x: x * np.nan), g=g)
    with pytest.raises(ValueError, match="finite"):
        solver(prob, np.ones(3), SolverConfig(gamma=1.0, max_iter=5))
    assert g.calls == 0


def test_start_point_of_wrong_dimension_is_rejected_at_entry():
    box = BoxIndicator(-np.ones(4), np.ones(4))
    smooth = SmoothFn(lambda x: 0.5 * float(x @ x), lambda x: x)
    f = _CountingL1()
    x0 = np.zeros(3)
    cfg = SolverConfig(gamma=1.0, tau=0.5, sigma=0.5, max_iter=5)
    runs = [
        lambda: proximal_point(box, x0, cfg),
        lambda: prox_gradient(CompositeProblem(smooth=smooth, g=box), x0, cfg),
        lambda: fista(CompositeProblem(smooth=smooth, g=box), x0, cfg),
        lambda: douglas_rachford(CompositeProblem(f=f, g=box), x0, cfg),
        lambda: primal_dual(CompositeProblem(f=f, g=box), x0, x0, cfg),
    ]
    for run in runs:
        with pytest.raises(DimensionMismatchError, match="BoxIndicator: expected dimension 4"):
            run()
    assert f.calls == 0


def test_primal_dual_dual_start_of_wrong_length_is_rejected_at_entry():
    f = _CountingL1()
    cfg = SolverConfig(tau=0.5, sigma=0.5, max_iter=5)
    with pytest.raises(DimensionMismatchError, match="y0 of shape"):
        primal_dual(CompositeProblem(f=f, g=SquaredL2()), np.zeros(3), np.zeros(1), cfg)
    a = LinearOperator(np.ones((2, 3)) / 4.0)
    with pytest.raises(DimensionMismatchError):
        primal_dual(CompositeProblem(f=f, g=SquaredL2(), a=a), np.zeros(3), np.zeros(3), cfg)
    assert f.calls == 0


@pytest.mark.parametrize("solver", ["pg", "fista"])
def test_overlong_step_ends_as_diverged_with_finite_iterate(solver):
    spec, prob = _lasso_problem(seed=0, n=20)
    cfg = SolverConfig(gamma=100.0 / prob.smooth.lipschitz, tol=1e-10, max_iter=5000)
    # the overflow on the way to divergence is what this test provokes
    with np.errstate(over="ignore", invalid="ignore"):
        if solver == "fista":
            x, trace = fista(prob, np.zeros(spec.n), cfg)
        else:
            x, trace = prox_gradient(prob, np.zeros(spec.n), cfg)
    assert trace.diverged and not trace.converged
    assert trace.n_iter < cfg.max_iter
    assert np.all(np.isfinite(x)) and trace.x.tobytes() == x.tobytes()
    assert len(trace) == trace.n_iter + 1
    assert all(math.isfinite(r) for r in trace.residuals[1:])


def test_primal_dual_overflow_ends_as_diverged_with_finite_iterates():
    prob = CompositeProblem(f=Zero(), g=SquaredL2())
    cfg = SolverConfig(tau=0.9, sigma=0.9)
    # the overflow on the way to divergence is what this test provokes
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, trace = primal_dual(prob, np.full(3, 1e308), np.zeros(3), cfg)
    assert trace.diverged and not trace.converged
    assert len(trace) == trace.n_iter + 1
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))


# --- one loop, shared sweeps -----------------------------------------------------------


@pytest.mark.parametrize("sweep", ["_dr_sweep", "_pdhg_sweep"])
def test_solver_and_dr_as_pdhg_check_run_the_same_sweep(sweep, monkeypatch):
    # bending the shared sweep must show in the solver's trace and in the
    # check's deviation, so the check audits the code the solver runs
    q, c, _ = _tiny_quadratic(seed=1)
    f, g = Quadratic(q, c), scale(L1(), 0.4)
    prob = CompositeProblem(f=f, g=g)
    z0 = np.random.default_rng(11).standard_normal(4)

    def run():
        if sweep == "_dr_sweep":
            _, trace = douglas_rachford(prob, z0, SolverConfig(gamma=0.8, max_iter=30))
        else:
            cfg = SolverConfig(tau=0.8, sigma=0.8, max_iter=30)
            _, _, trace = primal_dual(prob, z0, np.zeros(4), cfg)
        rows = [line.rsplit(",", 1)[0] for line in trace.to_csv().splitlines()]
        return rows, dr_as_pdhg_check(f, g, z0, gamma=0.8, n_iter=30)

    rows, deviation = run()
    assert deviation <= 1e-10
    real = getattr(splitting, sweep)

    def bent(*args):
        *head, last = real(*args)
        return (*head, last + 1e-3)

    monkeypatch.setattr(splitting, sweep, bent)
    bent_rows, bent_deviation = run()
    assert bent_rows[:2] == rows[:2] and bent_rows[2:] != rows[2:]  # header, row 0
    assert bent_deviation > 1e-4


# --- each per-iteration quantity computed once -------------------------------------------


def test_primal_dual_makes_three_matvecs_per_iteration(monkeypatch):
    counts = {"apply": 0, "adjoint_apply": 0}
    for name in counts:
        real = getattr(LinearOperator, name)

        def counted(self, v, _real=real, _name=name):
            counts[_name] += 1
            return _real(self, v)

        monkeypatch.setattr(LinearOperator, name, counted)
    spec = gen_lasso(12, 18, seed=2)
    prob = lasso_composite_split(spec)
    step = 0.9 / op_norm(prob.a)
    cfg = SolverConfig(tau=step, sigma=step, tol=1e-9, max_iter=5000)
    _, _, trace = primal_dual(prob, np.zeros(12), np.zeros(18), cfg)
    k = trace.n_iter
    assert trace.converged and k > 20
    # entry checks: A x0 for g's dimension and A'y0 for the pairing; that
    # A'y0 feeds row 0 and the first sweep.  Then per iteration A xbar, A'y
    # and A x, with one more A x for row 0.
    assert counts["adjoint_apply"] == 1 + k
    assert counts["apply"] == 1 + 1 + 2 * k
    assert sum(counts.values()) == 3 * k + 3


def _bits(v):
    return np.float64(v).tobytes()


def _pdhg_case(kind):
    """(builder of fresh functionals, x0, y0, step) for a primal-dual run."""
    if kind == "lasso":
        spec = gen_lasso(8, 12, seed=6)

        def build():
            return lasso_composite_split(spec)

        return build, np.zeros(8), np.zeros(12), 0.9 / op_norm(build().a)
    qp = gen_boxqp(6, seed=3)

    def build():
        return CompositeProblem(f=BoxIndicator(qp.lo, qp.hi), g=Quadratic(qp.q, qp.c))

    return build, np.zeros(6), np.zeros(6), 0.9


@pytest.mark.parametrize("kind", ["lasso", "boxqp"])
def test_every_primal_dual_row_gap_is_the_public_gap_on_fresh_functionals(kind):
    build, x0, y0, step = _pdhg_case(kind)
    prob = build()
    _, _, full = primal_dual(prob, x0, y0, SolverConfig(tau=step, sigma=step, max_iter=25))
    assert len(full) == 26
    assert _bits(full.gap[0]) == _bits(duality_gap(build(), x0, y0))
    for k in range(1, 26):
        # a run stopped at iteration k ends on the pair (x^k, y^k) of row k
        x, y, trace = primal_dual(prob, x0, y0, SolverConfig(tau=step, sigma=step, max_iter=k))
        assert trace.gap == full.gap[: k + 1]
        assert _bits(trace.gap[k]) == _bits(duality_gap(build(), x, y))


def test_boxqp_primal_dual_row_evaluates_each_quadratic_twice(monkeypatch):
    # g(x) once for the objective and the gap together, g*(y) once for the gap
    calls = []
    real = Quadratic._value

    def counted(self, x):
        calls.append(self)
        return real(self, x)

    monkeypatch.setattr(Quadratic, "_value", counted)
    build, x0, y0, step = _pdhg_case("boxqp")
    prob = build()
    _, _, trace = primal_dual(prob, x0, y0, SolverConfig(tau=step, sigma=step, max_iter=25))
    assert len(trace) == 26
    assert len(calls) == 2 * len(trace)
    assert sum(q is prob.g for q in calls) == len(trace)


@pytest.mark.parametrize("line_search", [True, False])
def test_prox_gradient_evaluates_the_smooth_part_once_per_point(line_search, monkeypatch):
    spec = gen_lasso(10, 15, seed=5)
    base = lasso_composite_smooth(spec)
    calls = {"value": 0, "prox": 0}

    def value(x):
        calls["value"] += 1
        return base.smooth._value(x)

    real_prox = base.g._prox

    def prox(gamma, x):
        calls["prox"] += 1
        return real_prox(gamma, x)

    monkeypatch.setattr(base.g, "_prox", prox)
    smooth = SmoothFn(value, base.smooth._gradient, base.smooth.lipschitz)
    prob = CompositeProblem(smooth=smooth, g=base.g)
    # a long first step makes the line search backtrack
    gamma = (8.0 if line_search else 1.0) / base.smooth.lipschitz
    cfg = SolverConfig(gamma=gamma, tol=1e-9, max_iter=200)
    _, trace = prox_gradient(prob, np.zeros(10), cfg, line_search=line_search)
    assert trace.n_iter > 20
    if line_search:
        # one value per line-search trial (one prox each), plus one at entry
        assert calls["prox"] > trace.n_iter
        assert calls["value"] == calls["prox"] + 1
    else:
        # one value per trace row, each at a new iterate
        assert calls["prox"] == trace.n_iter
        assert calls["value"] == len(trace)


# --- prox_gradient: one smooth-term evaluation per point -----------------------------


_PG_SIZES = {"lasso": 10, "boxqp": 8, "huber": 12}


def _pg_case(kind):
    """(spec, smooth-plus-prox problem) of the given kind, freshly built."""
    n = _PG_SIZES[kind]
    if kind == "lasso":
        spec = gen_lasso(n, 15, seed=5)
        return spec, lasso_composite_smooth(spec)
    if kind == "boxqp":
        spec = gen_boxqp(n, seed=4)
        return spec, boxqp_composite(spec)
    spec = gen_huber(n, seed=2)
    return spec, huber_composite(spec)


def _reference_prox_gradient(problem, x0, gamma0, cfg, line_search):
    """prox_gradient as two separate callables: the smooth value at each new
    point, its gradient at the start of each step.  Returns (x, rows)."""
    smooth, g = problem.smooth, problem.g
    x, gamma = x0.copy(), gamma0
    fx = float(smooth._value(x))
    rows = [(0, problem.objective(x), math.inf, gamma0)]
    for k in range(1, cfg.max_iter + 1):
        grad = smooth._gradient(x)
        if line_search:
            gamma = min(2.0 * gamma, gamma0)
            while True:
                x_next = g._prox(gamma, x - gamma * grad)
                d = x_next - x
                slack = 1e-12 * (1.0 + abs(fx))
                bound = fx + float(grad @ d) + float(d @ d) / (2.0 * gamma) + slack
                f_next = float(smooth._value(x_next))
                if f_next <= bound:
                    break
                gamma *= 0.5
        else:
            x_next = g._prox(gamma, x - gamma * grad)
            f_next = float(smooth._value(x_next))
        res = norm(x - x_next) / gamma
        x, fx = x_next, f_next
        rows.append((k, problem.objective(x), res, gamma))
        if res <= cfg.tol:
            break
    return x, rows


def _pg_config(smooth, line_search):
    # from 8/L the line search backtracks; its 1e-12 slack stalls it near 1e-7
    gamma = (8.0 if line_search else 1.0) / smooth.lipschitz
    return SolverConfig(gamma=gamma, tol=1e-6 if line_search else 1e-10, max_iter=400)


def _counted(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("kind", ["lasso", "boxqp", "huber"])
def test_prox_gradient_is_bit_identical_to_separate_value_and_gradient(kind, line_search):
    _, problem = _pg_case(kind)
    cfg = _pg_config(problem.smooth, line_search)
    x0 = np.zeros(_PG_SIZES[kind])
    x, trace = prox_gradient(problem, x0, cfg, line_search=line_search)
    x_ref, rows = _reference_prox_gradient(problem, x0, cfg.gamma, cfg, line_search)
    assert trace.n_iter > 5
    assert np.array_equal(x, x_ref)
    assert list(zip(range(len(trace)), trace.objective, trace.residuals, trace.step)) == rows


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("kind", ["lasso", "boxqp", "huber"])
def test_prox_gradient_calls_value_and_gradient_once_per_point(kind, line_search, monkeypatch):
    _, base = _pg_case(kind)
    calls = {"value": 0, "gradient": 0, "value_and_gradient": 0, "prox": 0}
    smooth = SmoothFn(
        _counted(calls, "value", base.smooth._value),
        _counted(calls, "gradient", base.smooth._gradient),
        base.smooth.lipschitz,
        value_and_gradient=_counted(calls, "value_and_gradient", base.smooth._value_and_gradient),
    )
    monkeypatch.setattr(base.g, "_prox", _counted(calls, "prox", base.g._prox))
    prob = CompositeProblem(smooth=smooth, g=base.g)
    cfg = _pg_config(smooth, line_search)
    _, trace = prox_gradient(prob, np.zeros(_PG_SIZES[kind]), cfg, line_search=line_search)
    assert trace.n_iter > 5
    # one evaluation per trial point (one prox each) plus row 0's, whose
    # gradient is also the one checked for its shape
    assert calls["value_and_gradient"] == calls["prox"] + 1
    assert (calls["value"], calls["gradient"]) == (0, 0)
    if line_search:
        assert calls["prox"] > trace.n_iter
    else:
        assert calls["prox"] == trace.n_iter


def _count_products(kind, spec, prob, calls, monkeypatch):
    """Make every product of the smooth term of _pg_case(kind) add 1 to calls["product"]."""

    class Counting(np.ndarray):
        """A matrix that counts its products; they return plain arrays."""

        def __matmul__(self, other):
            calls["product"] += 1
            return self.view(np.ndarray) @ other

    if kind == "lasso":
        spec.a = spec.a.view(Counting)  # the smooth term reads spec.a per call
    else:
        quad = prob.smooth._gradient.__self__
        monkeypatch.setattr(quad, "Q", quad.Q.view(Counting))


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("kind, per_point", [("lasso", 2), ("boxqp", 1)])
def test_prox_gradient_products_per_iteration(kind, per_point, line_search, monkeypatch):
    spec, prob = _pg_case(kind)
    calls = {"product": 0, "prox": 0}
    _count_products(kind, spec, prob, calls, monkeypatch)
    monkeypatch.setattr(prob.g, "_prox", _counted(calls, "prox", prob.g._prox))
    cfg = _pg_config(prob.smooth, line_search)
    _, trace = prox_gradient(prob, np.zeros(spec.n), cfg, line_search=line_search)
    assert trace.n_iter > 5
    if not line_search:
        assert calls["prox"] == trace.n_iter
    # per_point products at each trial point and at x0 for row 0, whose
    # gradient is also the one checked for its shape
    assert calls["product"] == per_point * (calls["prox"] + 1)


@pytest.mark.parametrize("kind, per_gradient", [("lasso", 2), ("boxqp", 1)])
def test_fista_products_per_solve(kind, per_gradient, monkeypatch):
    spec, prob = _pg_case(kind)
    calls = {"product": 0}
    _count_products(kind, spec, prob, calls, monkeypatch)
    cfg = SolverConfig(gamma=1.0 / prob.smooth.lipschitz, tol=1e-10, max_iter=400)
    _, trace = fista(prob, np.zeros(spec.n), cfg)
    assert trace.n_iter > 5
    # one gradient at each extrapolated point and one smooth value per row
    # (one product), row 0 included: 3k+1 on lasso, 2k+1 on boxqp
    assert calls["product"] == (per_gradient + 1) * trace.n_iter + 1


_SMOOTH = SmoothFn(lambda x: 0.5 * float(x @ x), lambda x: x)  # no lipschitz
_PD = dict(f=L1(), g=SquaredL2())
_EYE = LinearOperator(np.eye(2))
_X0 = np.zeros(2)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: prox_gradient(CompositeProblem(g=L1()), _X0, SolverConfig(gamma=1.0)),
         "prox_gradient: problem.smooth is required"),
        (lambda: fista(CompositeProblem(smooth=_SMOOTH), _X0, SolverConfig()),
         "fista: problem.g is required"),
        (lambda: prox_gradient(CompositeProblem(smooth=_SMOOTH, g=L1()), _X0, SolverConfig()),
         "prox_gradient: need cfg.gamma or smooth.lipschitz"),
        (lambda: fista(CompositeProblem(smooth=_SMOOTH, g=L1(), a=_EYE), _X0, SolverConfig(gamma=1.0)),
         "fista: coupling operator not supported"),
        (lambda: proximal_point(L1(), _X0, SolverConfig()),
         "proximal_point: cfg.gamma is required"),
        (lambda: douglas_rachford(CompositeProblem(**_PD), _X0, SolverConfig()),
         "douglas_rachford: cfg.gamma is required"),
        (lambda: douglas_rachford(CompositeProblem(**_PD, a=_EYE), _X0, SolverConfig(gamma=1.0)),
         "douglas_rachford: coupling operator not supported"),
        (lambda: primal_dual(CompositeProblem(f=L1()), _X0, _X0, SolverConfig()),
         "primal_dual: problem.g is required"),
        (lambda: primal_dual(CompositeProblem(**_PD), _X0, _X0, SolverConfig(tau=0.5)),
         "primal_dual: cfg.sigma is required"),
        (lambda: duality_gap(CompositeProblem(g=L1()), _X0, _X0),
         "duality_gap: problem.f is required"),
        # a slot the solver does not read would leave the objective it reports
        # different from the one it minimizes
        (lambda: fista(CompositeProblem(smooth=_SMOOTH, f=L1(), g=L1()), _X0, SolverConfig(gamma=1.0)),
         "fista: problem.f not supported"),
        (lambda: douglas_rachford(CompositeProblem(**_PD, smooth=_SMOOTH), _X0, SolverConfig(gamma=1.0)),
         "douglas_rachford: problem.smooth not supported"),
    ],
)
def test_solver_inputs_are_checked_at_entry(run, message):
    with pytest.raises(ValueError, match=message):
        run()


def test_prox_gradient_default_step_is_one_over_lipschitz():
    smooth = SmoothFn(lambda x: float(x @ x), lambda x: 2.0 * x, lipschitz=2.0)
    prob = CompositeProblem(smooth=smooth, g=L1())
    _, trace = prox_gradient(prob, np.ones(2), SolverConfig(max_iter=3))
    assert set(trace.step) == {0.5}
