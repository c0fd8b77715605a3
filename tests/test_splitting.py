import math

import numpy as np
import numpy.testing as npt
import pytest

from proxkit.functionals import (
    BoxIndicator,
    L1,
    Quadratic,
    SquaredL2,
    Zero,
    scale,
    shift,
)
from proxkit.linalg import LinearOperator
from proxkit.problems import (
    gen_boxqp,
    gen_lasso,
    lasso_composite_smooth,
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
    assert trace.iters[0] == 0
    assert trace.residual[0] == np.inf
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
        SolverConfig(gamma=1.0, tol=1e-13, max_iter=200),
        x_ref=xstar,
    )
    d = trace.fejer
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
        prob, np.array([1.0, 1.0]), SolverConfig(gamma=gamma, tol=1e-300, max_iter=30),
        x_ref=np.zeros(2),
    )
    # worst-mode linear contraction at exactly 9/11 per step
    r = trace.fejer
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
    assert trace.residual[-1] <= 1e-10
    assert trace.residual[0] == np.inf


# --- primal-dual -------------------------------------------------------------------------


def test_primal_dual_step_gate():
    a = LinearOperator(2.0 * np.eye(2))
    prob = CompositeProblem(f=L1(), g=SquaredL2(), a=a)
    cfg = SolverConfig(gamma=1.0, tau=0.6, sigma=0.6)
    with pytest.raises(ValueError) as exc:
        primal_dual(prob, np.zeros(2), np.zeros(2), cfg)
    assert "1.44" in str(exc.value)


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
