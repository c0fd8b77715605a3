import json

import numpy as np
import numpy.testing as npt
import pytest

from proxkit import problems
from proxkit.functionals import Quadratic
from proxkit.problems import (
    KINDS,
    BoxQPSpec,
    ControlSpec,
    HuberSpec,
    LassoSpec,
    boxqp_composite,
    boxqp_dr_pair,
    control_as_boxqp,
    control_composite,
    gen_boxqp,
    gen_control,
    gen_huber,
    gen_lasso,
    huber_composite,
    kkt_residual,
    lasso_composite_smooth,
    lasso_composite_split,
    lasso_dr_pair,
    lasso_duality_gap,
    oracle_boxqp,
    oracle_control,
    oracle_huber,
    oracle_lasso,
    problem_from_json,
    problem_to_json,
)
from proxkit.splitting import SolverConfig, douglas_rachford, fista, prox_gradient


# --- frozen oracle answers on hand-built instances ---------------------------------


def test_oracle_lasso_identity_design():
    # A = I, b = (3, 0.5), alpha = 1: soft-threshold of b
    spec = LassoSpec(np.eye(2), np.array([3.0, 0.5]), 1.0)
    x = oracle_lasso(spec)
    npt.assert_allclose(x, [2.0, 0.0], atol=1e-12)
    assert spec.objective(x) == pytest.approx(2.625)


def test_oracle_boxqp_clipped_unconstrained_min():
    # Q = I, c = -10: unconstrained min at 10, clipped to hi = 1
    spec = BoxQPSpec(np.eye(1), np.array([-10.0]), np.array([-1.0]), np.array([1.0]))
    x = oracle_boxqp(spec)
    npt.assert_allclose(x, [1.0], atol=1e-14)


def test_oracle_control_saturation_and_interior():
    spec = ControlSpec(np.eye(1), np.array([10.0]), 1.0, np.array([-1.0]), np.array([1.0]))
    npt.assert_allclose(oracle_control(spec), [1.0], atol=1e-14)
    interior = ControlSpec(
        np.eye(2), np.array([0.4, -0.6]), 0.5, -np.ones(2), np.ones(2)
    )
    npt.assert_allclose(oracle_control(interior), [0.4 / 1.5, -0.6 / 1.5], atol=1e-12)


def test_oracle_huber_closed_form():
    # min of alpha*huber_gamma(x) + 1/2(x-b)^2: quadratic regime shrinks b by
    # 1/(1 + alpha/gamma), linear regime shifts b by alpha
    spec = HuberSpec(np.array([0.3]), 1.0, 0.5)
    npt.assert_allclose(oracle_huber(spec), [0.3 / 3.0], atol=1e-12)
    far = HuberSpec(np.array([5.0]), 0.5, 0.5)
    got = oracle_huber(far)
    npt.assert_allclose(got, [4.5], atol=1e-12)
    g = far.alpha * np.clip(got / far.gamma, -1.0, 1.0) + (got - far.b)
    npt.assert_allclose(g, 0.0, atol=1e-12)


def test_oracle_huber_against_dense_grid():
    rng = np.random.default_rng(7)
    for seed in range(4):
        spec = gen_huber(3, seed=seed)
        x = oracle_huber(spec)
        j0 = spec.objective(x)
        for _ in range(200):
            trial = x + 1e-3 * rng.standard_normal(3)
            assert spec.objective(trial) >= j0 - 1e-12


# --- generators ---------------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    a = gen_lasso(5, 10, seed=11)
    b = gen_lasso(5, 10, seed=11)
    npt.assert_array_equal(a.a, b.a)
    npt.assert_array_equal(a.b, b.b)
    assert a.alpha == b.alpha
    c = gen_lasso(5, 10, seed=12)
    assert not np.array_equal(a.a, c.a)

    q1, q2 = gen_boxqp(4, seed=3), gen_boxqp(4, seed=3)
    npt.assert_array_equal(q1.q, q2.q)
    u1, u2 = gen_control(4, seed=3), gen_control(4, seed=3)
    npt.assert_array_equal(u1.s, u2.s)
    h1, h2 = gen_huber(4, seed=3), gen_huber(4, seed=3)
    npt.assert_array_equal(h1.b, h2.b)


def test_gen_boxqp_matrix_is_spd():
    for seed in range(5):
        spec = gen_boxqp(6, seed=seed)
        np.linalg.cholesky(spec.q)  # raises if not SPD
        npt.assert_allclose(spec.q, spec.q.T, atol=1e-14)


def test_gen_control_target_violates_box():
    spec = gen_control(6, seed=0)
    unconstrained = np.linalg.solve(
        spec.s.T @ spec.s + spec.alpha * np.eye(spec.n), spec.s.T @ spec.z
    )
    assert np.any((unconstrained < spec.lo) | (unconstrained > spec.hi))


def test_oracle_enumeration_cap():
    spec = gen_lasso(13, 26, seed=0)
    with pytest.raises(ValueError, match="enumeration cap"):
        oracle_lasso(spec)
    qspec = gen_boxqp(13, seed=0)
    with pytest.raises(ValueError, match="enumeration cap"):
        oracle_boxqp(qspec)


# --- objectives and optimality measures ------------------------------------------------


def test_objective_off_box_is_infinite():
    spec = gen_boxqp(4, seed=1)
    x = spec.hi + 1.0
    assert spec.objective(x) == np.inf
    inside = (spec.lo + spec.hi) / 2.0
    assert np.isfinite(spec.objective(inside))


def test_kkt_residual_zero_at_oracle_positive_elsewhere():
    lasso = gen_lasso(5, 10, seed=2)
    xs = oracle_lasso(lasso)
    assert kkt_residual(lasso, xs) <= 1e-9
    assert kkt_residual(lasso, xs + 0.3) > 1e-4

    qp = gen_boxqp(5, seed=2)
    xq = oracle_boxqp(qp)
    assert kkt_residual(qp, xq) <= 1e-9
    interior = np.clip(xq + 0.1 * (qp.hi - qp.lo), qp.lo, qp.hi)
    assert kkt_residual(qp, interior) > 1e-6

    ctrl = gen_control(5, seed=2)
    uc = oracle_control(ctrl)
    assert kkt_residual(ctrl, uc) <= 1e-9

    hub = gen_huber(5, seed=2)
    xh = oracle_huber(hub)
    assert kkt_residual(hub, xh) <= 1e-9


def test_lasso_duality_gap_certificate():
    spec = gen_lasso(5, 10, seed=4)
    xs = oracle_lasso(spec)
    assert lasso_duality_gap(spec, xs) <= 1e-10
    # any point gives a valid (nonnegative) certificate
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(spec.n)
        assert lasso_duality_gap(spec, x) >= 0.0


def test_control_as_boxqp_equivalence():
    spec = gen_control(5, 10, seed=5)
    q = control_as_boxqp(spec)
    # objectives differ by the constant ||z||^2/2
    rng = np.random.default_rng(1)
    shiftc = 0.5 * float(spec.z @ spec.z)
    for _ in range(10):
        u = rng.uniform(spec.lo, spec.hi)
        assert q.objective(u) + shiftc == pytest.approx(spec.objective(u), rel=1e-12)
    npt.assert_allclose(oracle_boxqp(q), oracle_control(spec), atol=1e-11)


# --- composite builders feed the solvers -------------------------------------------------


def test_lasso_builders_agree():
    spec = gen_lasso(5, 10, seed=6)
    xs = oracle_lasso(spec)

    smooth = lasso_composite_smooth(spec)
    cfg = SolverConfig(gamma=1.0 / smooth.smooth.lipschitz, tol=1e-12, max_iter=20000)
    x1, _ = prox_gradient(smooth, np.zeros(spec.n), cfg)
    npt.assert_allclose(x1, xs, atol=1e-7)

    pair = lasso_dr_pair(spec)
    y, _ = douglas_rachford(
        pair,
        np.zeros(spec.n),
        SolverConfig(gamma=1.0, tol=1e-12, max_iter=20000),
    )
    npt.assert_allclose(y, xs, atol=1e-7)

    split = lasso_composite_split(spec)
    assert split.a is not None and split.a.n_in == spec.n


def test_boxqp_and_control_builders():
    qp = gen_boxqp(5, seed=7)
    prob = boxqp_composite(qp)
    cfg = SolverConfig(gamma=1.0 / prob.smooth.lipschitz, tol=1e-12, max_iter=50000)
    x, trace = fista(prob, np.zeros(qp.n), cfg)
    npt.assert_allclose(x, oracle_boxqp(qp), atol=1e-6)

    pair = boxqp_dr_pair(qp)
    assert pair.g.kind == "BoxIndicator"
    assert pair.f.kind == "Quadratic"

    ctrl = gen_control(5, seed=7)
    cprob = control_composite(ctrl)
    cfg = SolverConfig(gamma=1.0 / cprob.smooth.lipschitz, tol=1e-12, max_iter=50000)
    u, _ = fista(cprob, np.zeros(ctrl.n), cfg)
    npt.assert_allclose(u, oracle_control(ctrl), atol=1e-6)


def test_huber_composite_smooth_constant():
    spec = gen_huber(4, seed=8)
    prob = huber_composite(spec)
    assert prob.smooth.lipschitz == pytest.approx(spec.alpha + 1.0 / spec.gamma)
    cfg = SolverConfig(gamma=1.0 / prob.smooth.lipschitz, tol=1e-12, max_iter=20000)
    x, _ = prox_gradient(prob, np.zeros(spec.n), cfg)
    npt.assert_allclose(x, oracle_huber(spec), atol=1e-8)


# --- serialization -------------------------------------------------------------------------


def test_problem_json_roundtrip():
    for spec in (
        gen_lasso(4, 8, seed=9),
        gen_boxqp(4, seed=9),
        gen_control(4, 8, seed=9),
        gen_huber(4, seed=9),
    ):
        doc = json.loads(json.dumps(problem_to_json(spec)))
        back = problem_from_json(doc)
        assert type(back) is type(spec)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, spec.n)
            assert back.objective(x) == pytest.approx(spec.objective(x), rel=1e-14)


def test_problem_json_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        problem_from_json({"kind": "mystery"})


# --- the registry --------------------------------------------------------------------


def test_registry_generates_what_the_named_generators_do():
    made = {
        "lasso": gen_lasso(5, 7, seed=2),
        "boxqp": gen_boxqp(5, seed=2),
        "control": gen_control(5, 7, seed=2),
        "huber": gen_huber(5, seed=2),
    }
    assert list(KINDS) == list(made)
    for kind, entry in KINDS.items():
        spec = entry.generate(5, 7, 2)
        assert type(spec) is entry.spec and spec.kind == kind and spec.n == 5
        assert problem_to_json(spec) == problem_to_json(made[kind])
        if kind == "control":  # the solvers run it as its control_as_boxqp
            assert entry.smooth is None and entry.dr_pair is None
            continue
        assert entry.smooth(spec).smooth is not None
        assert (entry.dr_pair is None) == (kind == "huber")


def test_registry_split_forms_are_the_primal_dual_templates():
    # pdhg's f(x) + g(Ax): lasso's coupled form; boxqp with the box as f so
    # the primal iterate stays feasible, and A the identity
    lasso = gen_lasso(4, 6, seed=1)
    comp, ref = KINDS["lasso"].split(lasso), lasso_composite_split(lasso)
    assert np.array_equal(comp.a.matrix, lasso.a)
    x = np.linspace(-1.0, 1.0, 4)
    assert comp.objective(x) == ref.objective(x)
    qp = gen_boxqp(4, seed=1)
    comp = KINDS["boxqp"].split(qp)
    assert comp.a is None and comp.f.kind == "BoxIndicator" and comp.g.kind == "Quadratic"
    x = np.clip(x, qp.lo, qp.hi)
    assert comp.objective(x) == pytest.approx(qp.objective(x), rel=1e-12)
    assert KINDS["huber"].split is None and KINDS["control"].split is None


def test_registry_calls_through_the_module_globals(monkeypatch):
    # patching a module function (as a tracer does) must reach the registry
    calls = []
    for name in ("gen_boxqp", "boxqp_composite", "boxqp_dr_pair"):
        real = getattr(problems, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(problems, name, counted)
    spec = KINDS["boxqp"].generate(3, None, 0)
    KINDS["boxqp"].smooth(spec)
    KINDS["boxqp"].dr_pair(spec)
    assert calls == ["gen_boxqp", "boxqp_composite", "boxqp_dr_pair"]


def test_load_certifies_q_and_construction_does_not():
    # the Cholesky runs once, at load, not on every spec built in memory
    spec = BoxQPSpec(np.diag([1.0, -1.0]), np.ones(2), -1.0, 1.0)
    npt.assert_array_equal(spec.lo, [-1.0, -1.0])
    with pytest.raises(ValueError, match="^boxqp problem: q is not positive definite$"):
        problem_from_json(problem_to_json(spec))


def test_load_rejects_an_asymmetric_q_that_cholesky_accepts():
    # Cholesky reads the lower triangle only, which here is positive definite
    params = {"q": [[2.0, 1.0], [0.0, 2.0]], "c": [1.0, 1.0], "lo": -1.0, "hi": 1.0}
    doc = {"kind": "boxqp", "params": params}
    with pytest.raises(ValueError, match="^boxqp problem: q must be symmetric$"):
        problem_from_json(doc)
    # an asymmetry Quadratic forgives loads, and Quadratic takes the result
    params["q"] = [[2.0, 1.0], [1.0 + 1e-14, 2.0]]
    spec = problem_from_json(doc)
    Quadratic(spec.q, spec.c)


@pytest.mark.parametrize(
    "change,message",
    [
        ({"b": [1.0, np.nan]}, "huber problem: b entries must be finite"),
        ({"b": [[1.0]]}, "huber problem: b must be a nonempty 1-d array"),
        ({"alpha": True}, "huber problem: alpha must be a positive number"),
        ({"gamma": -0.5}, "huber problem: gamma must be a positive number"),
        ({"alpha": [1.0]}, "huber problem: alpha must be a positive number"),
        ({"alpha": None}, "huber problem: alpha must be a positive number"),
        ({"b": None}, "huber problem: b entries must be finite"),
    ],
)
def test_load_names_the_bad_field(change, message):
    params = {"b": [1.0], "alpha": 1.0, "gamma": 0.5, **change}
    with pytest.raises(ValueError, match="^" + message):
        problem_from_json({"kind": "huber", "params": params})


def test_only_an_optional_field_may_be_null():
    doc = {"kind": "lasso", "params": {"a": [[1.0]], "b": [1.0], "alpha": 1.0, "x_true": None}}
    assert problem_from_json(doc).x_true is None
    with pytest.raises(ValueError, match="^lasso problem: a entries must be finite$"):
        LassoSpec(None, [1.0], 1.0)


def test_bounds_may_be_infinite_but_not_nan():
    spec = BoxQPSpec(np.eye(2), np.ones(2), [-np.inf, -1.0], np.inf)
    npt.assert_array_equal(spec.hi, [np.inf, np.inf])
    with pytest.raises(ValueError, match="^boxqp problem: lo entries must not be NaN$"):
        BoxQPSpec(np.eye(2), np.ones(2), [np.nan, -1.0], 1.0)
    with pytest.raises(ValueError, match="^boxqp problem: need lo <= hi$"):
        BoxQPSpec(np.eye(2), np.ones(2), 1.0, -1.0)
