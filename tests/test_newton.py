import functools

import numpy as np
import numpy.testing as npt
import pytest

import proxkit.newton as newton
from proxkit.linalg import SPDSolveError, norm, solve_spd
from proxkit.newton import (
    ContinuationSchedule,
    NewtonSystem,
    NewtonDerivativeMask,
    continuation,
    control_ssn,
    l1_ssn,
    moreau_yosida_ssn,
    scaled_soft_threshold,
    ssn_solve,
    superlinear_diagnostic,
)
from proxkit.problems import (
    control_as_boxqp,
    gen_control,
    gen_lasso,
    kkt_residual,
    oracle_control,
    oracle_lasso,
)
from proxkit.splitting import IterTrace


def _lasso_pieces(spec):
    h = spec.a.T @ spec.a
    atb = spec.a.T @ spec.b

    def grad(x):
        return h @ x - atb

    def hess(x):
        return h

    return grad, hess


# --- masks and the scalar kernel --------------------------------------------------


@pytest.fixture
def step_masks(monkeypatch):
    """The active mask of every Newton step the solvers take, in order."""
    real = newton._masked_step
    masks = []

    def recording(block, mask, rhs):
        masks.append(mask.active.copy())
        return real(block, mask, rhs)

    monkeypatch.setattr(newton, "_masked_step", recording)
    return masks


def test_threshold_mask_marks_large_coordinates_active(step_masks):
    # grad(x) = x - b, hess = I and gamma = alpha = 1 from 0: l1_ssn and
    # moreau_yosida_ssn both see w = b; ties |w_i| = 1 count as active
    b = np.array([2.0, 0.5, -1.0, 1.0])
    l1_ssn(lambda x: x - b, np.eye(4), 1.0, 1.0, np.zeros(4))
    first_my = len(step_masks)
    moreau_yosida_ssn(lambda x: x - b, np.eye(4), 1.0, np.zeros(4))
    for mask in (step_masks[0], step_masks[first_my]):
        npt.assert_array_equal(mask, [True, False, True, True])


def test_interval_mask_pins_boundary_ties(step_masks):
    # S = I, alpha = 1 from 0: control_ssn sees v = z; only lo < v < hi is active
    z = np.array([-2.0, 0.0, 1.0, 3.0, -1.0])
    control_ssn(np.eye(5), z, 1.0, -1.0, 1.0, u0=np.zeros(5))
    npt.assert_array_equal(step_masks[0], [False, True, False, False, False])


def test_scaled_soft_threshold_values():
    npt.assert_allclose(scaled_soft_threshold(np.array([2.0]), 1.0), [1.0])
    npt.assert_allclose(scaled_soft_threshold(np.array([0.5]), 1.0), [0.0])
    npt.assert_allclose(scaled_soft_threshold(np.array([-3.0]), 1.0), [-2.0])
    # slope of the active branch is 1/gamma
    npt.assert_allclose(scaled_soft_threshold(np.array([3.0]), 2.0), [1.0])


# --- l1-regularized Newton ------------------------------------------------------------


def test_l1_ssn_matches_enumeration_oracle():
    for seed in range(6):
        spec = gen_lasso(6, 18, seed=seed)
        grad, hess = _lasso_pieces(spec)
        res = l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(spec.n), tol=1e-12)
        assert res.converged and not res.diverged
        xstar = oracle_lasso(spec)
        npt.assert_allclose(res.x, xstar, atol=1e-9)


def test_l1_ssn_inactive_coordinates_are_exact_zeros():
    spec = gen_lasso(8, 24, seed=1)
    grad, hess = _lasso_pieces(spec)
    res = l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(spec.n), tol=1e-12)
    xstar = oracle_lasso(spec)
    zero_mask = xstar == 0.0
    assert zero_mask.any()
    assert np.all(res.x[zero_mask] == 0.0)


def test_l1_ssn_one_step_exactness_within_a_piece():
    # from a point whose active set already matches the solution, one
    # undamped step lands exactly on it
    spec = gen_lasso(6, 18, seed=3)
    grad, hess = _lasso_pieces(spec)
    res = l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(spec.n), tol=1e-12)
    x0 = res.x + 1e-9 * np.where(res.x != 0.0, np.sign(res.x), 0.0)
    res2 = l1_ssn(
        grad, hess, spec.alpha, 1.0, x0, tol=1e-12, max_iter=3, damped=False
    )
    assert res2.converged
    assert res2.n_iter <= 2
    npt.assert_allclose(res2.x, res.x, atol=1e-13)


def test_l1_ssn_superlinear_tail():
    spec = gen_lasso(10, 30, seed=5)
    grad, hess = _lasso_pieces(spec)
    res = l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(spec.n), tol=1e-12)
    errors, ratios = superlinear_diagnostic(res.iterates, res.x)
    assert len(ratios) >= 1
    assert ratios[-1] <= 0.1


@pytest.mark.parametrize("damped", [True, False])
@pytest.mark.parametrize("n, m", [(20, 12), (30, 20), (40, 25)])
def test_l1_ssn_survives_singular_active_blocks(n, m, damped):
    # with fewer rows than columns the active block gamma * A_a'A_a turns
    # singular once more than m coordinates are active; the shifted block
    # keeps every step defined
    for seed in range(8):
        spec = gen_lasso(n, m, seed=seed)
        grad, hess = _lasso_pieces(spec)
        res = l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(n), damped=damped)
        assert not res.diverged and np.isfinite(res.residuals).all()
        if damped:
            assert res.converged
            assert kkt_residual(spec, res.x) <= 1e-8


def test_l1_ssn_damping_handles_small_gamma():
    # small gamma makes the undamped active-set iteration cycle on some
    # instances; the damped default must still converge
    for seed in range(8):
        spec = gen_lasso(6, 18, seed=seed)
        grad, hess = _lasso_pieces(spec)
        gamma = 1.0 / np.linalg.norm(spec.a, 2) ** 2
        res = l1_ssn(grad, hess, spec.alpha, gamma, np.zeros(spec.n), tol=1e-11)
        assert res.converged, f"seed {seed}"
        npt.assert_allclose(res.x, oracle_lasso(spec), atol=1e-8)


# --- generic driver: divergence handling ------------------------------------------------

def _toy_system(x, delta):
    m = NewtonDerivativeMask(np.ones_like(x, dtype=bool))
    return NewtonSystem(m, delta)




def test_ssn_solve_flags_divergence_instead_of_raising():
    def residual(x):
        return x * 4.0

    def step(x, r):
        return _toy_system(x, x * 3.0)  # pushes the residual up 4x per iteration

    res = ssn_solve(residual, step, np.ones(3), tol=1e-10, max_iter=60, damped=False)
    assert res.diverged
    assert not res.converged


def test_ssn_solve_flags_nonfinite():
    # a NaN residual norm does not compare >= the current one, so a damped step takes the
    # full step's NaN as well, without a further trial
    seen = []

    def residual(x):
        seen.append(x.copy())
        return x.copy()

    def step(x, r):
        return _toy_system(x, np.full_like(x, np.nan))

    for damped in (False, True):
        seen.clear()
        res = ssn_solve(residual, step, np.ones(2), tol=1e-12, max_iter=5, damped=damped)
        assert res.diverged and res.n_iter == 0 and len(seen) == 2


def test_newton_result_counts_iterations():
    def residual(x):
        return x * 0.5

    def step(x, r):
        return _toy_system(x, -x)

    res = ssn_solve(residual, step, np.ones(2), tol=1e-10, max_iter=10)
    assert res.converged
    assert res.n_iter == len(res.residuals) - 1
    assert res.n_iter == 1


# --- Moreau-Yosida Newton and continuation -----------------------------------------------


def test_moreau_yosida_ssn_solves_regularized_problem():
    # root of u - h_gamma(-grad F(u)) minimizes F + ||.||_1 + (gamma/2)||u||^2;
    # at moderate gamma the answer is checked against a first-order method
    spec = gen_lasso(6, 18, seed=2)
    h = spec.a.T @ spec.a
    atb = spec.a.T @ spec.b

    alpha = spec.alpha
    grad = lambda u: (h @ u - atb) / alpha
    hess = lambda u: h / alpha

    gamma = 1.0
    res = moreau_yosida_ssn(grad, hess, gamma, np.zeros(spec.n), tol=1e-12)
    assert res.converged
    # verify stationarity: 0 in grad + sign + gamma*u, coordinatewise
    g = grad(res.x) + gamma * res.x
    for i in range(spec.n):
        if res.x[i] > 0:
            assert g[i] == pytest.approx(-1.0, abs=1e-9)
        elif res.x[i] < 0:
            assert g[i] == pytest.approx(1.0, abs=1e-9)
        else:
            assert abs(g[i]) <= 1.0 + 1e-9


@pytest.mark.parametrize("alpha, gamma", [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0)])
def test_l1_ssn_rejects_a_non_positive_alpha_or_gamma(alpha, gamma):
    with pytest.raises(ValueError, match="^l1_ssn: alpha and gamma must be positive$"):
        l1_ssn(lambda x: x, np.eye(2), alpha, gamma, np.zeros(2))


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
def test_moreau_yosida_ssn_rejects_a_non_positive_gamma(gamma):
    with pytest.raises(ValueError, match="^moreau_yosida_ssn: gamma must be positive$"):
        moreau_yosida_ssn(lambda u: u, np.eye(2), gamma, np.zeros(2))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(gamma0=0.0), "gamma0 and gamma_min must be positive"),
        (dict(gamma_min=-1.0), "gamma0 and gamma_min must be positive"),
        (dict(factor=1.0), r"factor must lie in \(0, 1\)"),
        (dict(factor=0.0), r"factor must lie in \(0, 1\)"),
        (dict(gamma0=0.5, gamma_min=1.0), "gamma_min must not exceed gamma0"),
    ],
)
def test_continuation_schedule_rejects_a_bad_ladder(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ContinuationSchedule(**kwargs)


def test_continuation_schedule_is_exact_halving():
    s = ContinuationSchedule()
    gs = s.gammas()
    assert len(gs) == 11
    assert gs[0] == 1.0
    assert gs[-1] == 2.0**-10
    for a, b in zip(gs[:-1], gs[1:]):
        assert b == a * 0.5


def test_continuation_warm_start_and_stage_records():
    spec = gen_lasso(8, 24, seed=4)
    h = spec.a.T @ spec.a
    atb = spec.a.T @ spec.b
    alpha = spec.alpha

    def solve_at(gamma, u0):
        return moreau_yosida_ssn(
            lambda u: (h @ u - atb) / alpha,
            lambda u: h / alpha,
            gamma,
            u0,
            tol=1e-12,
        )

    u, stages = continuation(solve_at, ContinuationSchedule(), np.zeros(spec.n))
    assert len(stages) == 11
    assert all(s["converged"] for s in stages)
    assert stages[0]["gamma"] == 1.0 and stages[-1]["gamma"] == 2.0**-10
    # warm starts keep later stages cheap
    assert max(s["n_iter"] for s in stages[3:]) <= 8
    # the regularization path approaches the unregularized solution
    xstar = oracle_lasso(spec)
    assert np.linalg.norm(u - xstar) <= 1e-2


def test_continuation_stops_on_divergence():
    calls = []

    def solve_at(gamma, u0):
        calls.append(gamma)
        if gamma < 0.5:
            return ssn_solve(
                lambda x: x * 4.0,
                lambda x, r: _toy_system(x, x * 3.0),
                u0 + 1.0,
                tol=1e-10, max_iter=20, damped=False,
            )
        return ssn_solve(
            lambda x: x * 0.5,
            lambda x, r: _toy_system(x, -x),
            u0, tol=1e-10, max_iter=20,
        )

    u, stages = continuation(
        solve_at, ContinuationSchedule(gamma0=1.0, factor=0.5, gamma_min=0.125),
        np.ones(3),
    )
    assert [s["gamma"] for s in stages] == [1.0, 0.5, 0.25]
    assert stages[-1]["diverged"]
    npt.assert_array_equal(u, np.zeros(3))  # last good iterate, not the bad one


# --- control projection Newton ------------------------------------------------------------


def test_control_ssn_interior_closed_form():
    # S = I and a target inside the box: u = z/(1+alpha) coordinatewise
    n = 4
    z = np.full(n, 0.3)
    res = control_ssn(np.eye(n), z, 0.5, -1.0, 1.0, tol=1e-12)
    assert res.converged
    npt.assert_allclose(res.x, z / 1.5, atol=1e-12)


def test_control_ssn_saturates_exactly():
    n = 4
    z = np.full(n, 10.0)
    res = control_ssn(np.eye(n), z, 1.0, -1.0, 1.0, tol=1e-12)
    assert res.converged
    npt.assert_array_equal(res.x, np.ones(n))  # exact bound values, not approx


def test_control_ssn_matches_enumeration_oracle():
    for seed in range(5):
        spec = gen_control(6, 12, seed=seed)
        res = control_ssn(
            spec.s, spec.z, spec.alpha, spec.lo, spec.hi, tol=1e-12
        )
        assert res.converged
        ustar = oracle_control(spec)
        npt.assert_allclose(res.x, ustar, atol=1e-9)
        on_bound = (res.x == spec.lo) | (res.x == spec.hi)
        q = control_as_boxqp(spec)
        interior_grad = (q.q @ res.x + q.c)[~on_bound]
        npt.assert_allclose(interior_grad, 0.0, atol=1e-9)


@pytest.mark.parametrize("k", [2, 4])
def test_control_ssn_names_a_u0_of_the_wrong_length(k):
    with pytest.raises(ValueError, match="^control_ssn: u0 does not match S$"):
        control_ssn(np.eye(3), np.ones(3), 1.0, -1.0, 1.0, u0=np.zeros(k))


@pytest.mark.parametrize(
    "bad, field",
    [
        (dict(lo=np.nan), "lo"),  # accepted before: "diverged" after 0 steps
        (dict(S=np.array([[1.0, np.inf], [0.0, 1.0]])), "s"),
        (dict(alpha=np.inf), "alpha"),  # accepted before: "converged" at u = 0
        # finite entries whose S'S overflows; raised "the residual at x0 is not finite"
        (dict(S=np.array([[1e200, 0.0], [0.0, 1.0]])), r"s is too large \(S'S"),
        # a finite S'S whose S'z overflows; raised "vector entries must be finite"
        (dict(S=np.array([[1e150, 0.0], [0.0, 1.0]]), z=np.array([1e200, 1.0])),
         r"z is too large for s \(S'z"),
        # finite S'S and S'z whose S'S/alpha, or S'z/alpha, overflows; both raised numpy's
        # "overflow encountered in divide" as a RuntimeWarning
        (dict(S=1e100 * np.eye(2), alpha=1e-200), r"alpha is too small \(S'S/alpha"),
        (dict(z=np.full(2, 1e300), alpha=1e-10), r"alpha is too small \(S'S/alpha"),
    ],
)
def test_control_ssn_names_a_bad_input_in_one_line(bad, field):
    args = dict(S=np.eye(2), z=np.ones(2), alpha=1.0, lo=-1.0, hi=1.0) | bad
    with pytest.raises(ValueError, match=f"^control problem: {field} [^\n]*$"):
        control_ssn(**args)


# --- diagnostics -----------------------------------------------------------------------------


def test_superlinear_diagnostic_ratios():
    ref = np.zeros(2)
    its = [np.full(2, v) for v in (1.0, 0.1, 0.001)]
    errors, ratios = superlinear_diagnostic(its, ref)
    assert errors == pytest.approx(
        [np.sqrt(2.0), np.sqrt(2.0) * 0.1, np.sqrt(2.0) * 0.001]
    )
    assert ratios == pytest.approx([0.1, 0.01])


def test_superlinear_diagnostic_keeps_first_floor_entry():
    # the step that lands at numerical zero is the evidence; it must be kept
    ref = np.zeros(2)
    its = [np.full(2, v) for v in (1.0, 0.1, 1e-18, 1e-18)]
    errors, ratios = superlinear_diagnostic(its, ref)
    assert len(errors) == 3
    assert ratios[-1] <= 1e-16


# --- one residual per trial point ---------------------------------------------------


@pytest.mark.parametrize(
    "factor, damped, trials",
    [
        (-2.5, True, 2),  # the full step overshoots; the half step is accepted
        (1.0, True, 25),  # no trial decreases: halving underflows, the full step is taken
        (-2.5, False, 1),
    ],
)
def test_ssn_solve_evaluates_the_residual_once_per_trial(factor, damped, trials):
    seen = []

    def residual(x):
        seen.append(x.copy())
        return x.copy()

    def step(x, r):
        return _toy_system(x, factor * x)

    x0 = np.array([1.0, -2.0, 0.5])
    res = ssn_solve(residual, step, x0, tol=1e-300, max_iter=3, damped=damped)
    assert res.n_iter == 3 and not res.converged and not res.diverged
    assert len(seen) == 1 + 3 * trials
    for k in range(3):
        group = seen[1 + k * trials : 1 + (k + 1) * trials]
        # every trial point is new, and the step taken is one of them
        assert len({p.tobytes() for p in group}) == trials
        taken = group[0] if trials == 25 else group[-1]
        assert res.iterates[k + 1].tobytes() == taken.tobytes()
        assert res.residuals[k + 1] == np.linalg.norm(taken)


@pytest.mark.parametrize("solver", ["l1", "moreau_yosida"])
def test_newton_step_reuses_the_residuals_gradient(monkeypatch, solver):
    spec = gen_lasso(30, 60, seed=2)
    # lasso / alpha, as a continuation stage sees it
    h = spec.a.T @ spec.a / spec.alpha
    atb = spec.a.T @ spec.b / spec.alpha
    calls = {"grad": 0, "residual": 0}
    kernels = []

    def grad(x):
        calls["grad"] += 1
        return h @ x - atb

    def counting_ssn(residual, step, x0, **kw):
        def counted(x):
            calls["residual"] += 1
            return residual(x)

        kernels.append((residual, step))
        return ssn_solve(counted, step, x0, **kw)

    monkeypatch.setattr(newton, "ssn_solve", counting_ssn)
    if solver == "l1":
        res = l1_ssn(grad, h, 1.0, 0.5, np.zeros(spec.n))
    else:
        res = moreau_yosida_ssn(grad, h, 0.5, np.zeros(spec.n))
    assert res.converged and res.n_iter >= 2
    assert calls["grad"] == calls["residual"]
    # at the iterate the residual last saw, the step takes no new gradient;
    # at an equal array of another identity it computes one, to the same step
    residual, step = kernels[0]
    x = res.iterates[1]
    r = residual(x)
    before = calls["grad"]
    s_hit = step(x, r).step
    assert calls["grad"] == before
    s_miss = step(x.copy(), r).step
    assert calls["grad"] == before + 1
    assert s_hit.tobytes() == s_miss.tobytes()


# --- the shared loop reproduces the plain Newton iteration ----------------------------


def _reference_ssn(residual, step, x0, tol=1e-10, max_iter=50, damped=True, _projection=None):
    """A bare damped/undamped semismooth Newton loop, the reference ssn_solve
    must reproduce bit for bit; returns (x, residuals, iterates, steps,
    converged).  A step tries t = 1, then, if damped, the search's t (given
    _projection) and t = 2**-1 ... 2**-24, and takes the first t whose residual
    norm is below the current one, or t = 1 if none is.  With _projection =
    (w, project), so that Phi(x) = x - project(w(x)), the search's t is the
    j/16 whose residual, predicted from w at the two ends of the step, is least."""
    x = np.array(x0, dtype=float)
    r = residual(x)
    nr = np.linalg.norm(r)
    residuals, iterates, steps = [nr], [x.copy()], [1.0]
    for _ in range(max_iter):
        if nr <= tol:
            break
        d = step(x, r).step
        trials = [1.0]
        if damped and _projection is not None:
            w, project = _projection
            w0, w1 = w(x), w(x + d)
            predicted = [
                np.linalg.norm(x + j / 16 * d - project(w0 + j / 16 * (w1 - w0)))
                for j in range(1, 16)
            ]
            trials.append((1 + int(np.argmin(predicted))) / 16)
        if damped:
            trials += [2.0**-j for j in range(1, 25)]
        for t in trials:
            if np.linalg.norm(residual(x + t * d)) < nr:
                break
        else:
            t = 1.0
        x = x + t * d
        r = residual(x)
        nr = np.linalg.norm(r)
        residuals.append(nr)
        iterates.append(x.copy())
        steps.append(t)
        assert np.isfinite(nr) and nr <= 1e6 * max(residuals[0], tol)
    return x, residuals, iterates, steps, nr <= tol


def _assert_matches_reference(res, ref):
    x, residuals, iterates, steps, converged = ref
    assert res.residuals == residuals
    assert [v.tobytes() for v in res.iterates] == [v.tobytes() for v in iterates]
    assert res.step == steps
    assert res.x.tobytes() == x.tobytes()
    assert res.converged == converged and not res.diverged


@pytest.fixture
def against_reference(monkeypatch):
    """Route every ssn_solve call through both ssn_solve and the reference loop
    and check that they agree; returns the results so far."""
    real = newton.ssn_solve
    calls = []

    def both(residual, step, x0, **kwargs):
        res = real(residual, step, x0, **kwargs)
        _assert_matches_reference(res, _reference_ssn(residual, step, x0, **kwargs))
        calls.append(res)
        return res

    monkeypatch.setattr(newton, "ssn_solve", both)
    return calls


def test_l1_and_control_ssn_reproduce_the_plain_loop(against_reference):
    for seed in range(8):
        spec = gen_lasso(6, 18, seed=seed)
        grad, hess = _lasso_pieces(spec)
        gamma = 1.0 / np.linalg.norm(spec.a, 2) ** 2
        for damped in (True, False):
            l1_ssn(grad, hess, spec.alpha, gamma, np.zeros(6), tol=1e-11, damped=damped)
        l1_ssn(grad, hess, spec.alpha, 1.0, np.zeros(6), tol=1e-12)
    for seed in range(5):
        spec = gen_control(6, 12, seed=seed)
        for alpha in (spec.alpha, 1e-3):
            control_ssn(spec.s, spec.z, alpha, spec.lo, spec.hi, tol=1e-12)
    assert len(against_reference) == 8 * 3 + 5 * 2
    assert any(not r.converged for r in against_reference)  # undamped cycles too


def test_moreau_yosida_continuation_reproduces_the_plain_loop(against_reference):
    spec = gen_lasso(8, 24, seed=4)
    h = spec.a.T @ spec.a
    atb = spec.a.T @ spec.b

    def solve_at(gamma, u0):
        return moreau_yosida_ssn(
            lambda u: (h @ u - atb) / spec.alpha, lambda u: h / spec.alpha, gamma, u0, tol=1e-12
        )

    continuation(solve_at, ContinuationSchedule(), np.zeros(spec.n))
    assert len(against_reference) == 11


@pytest.mark.parametrize("factor, damped", [(1.0, True), (-2.5, True), (-2.5, False)])
def test_ssn_solve_reproduces_the_plain_loop_on_halving_and_underflow(factor, damped):
    # factor 1.0: no trial decreases the residual, halving underflows and the
    # full step is taken; -2.5: the full step overshoots and a half step wins
    def residual(x):
        return x.copy()

    def step(x, r):
        return _toy_system(x, factor * x)

    x0 = np.array([1.0, -2.0, 0.5])
    kwargs = dict(tol=1e-300, max_iter=6, damped=damped)
    res = ssn_solve(residual, step, x0, **kwargs)
    _assert_matches_reference(res, _reference_ssn(residual, step, x0, **kwargs))
    assert res.n_iter == 6


def test_the_last_halving_is_taken_when_it_alone_lowers_the_residual():
    # ||Phi|| is 1 everywhere but at x = 1 + 2**-24, where it is 0.1: from x = 1
    # along d = 1 no trial but the last one, t = 2**-24, lowers it
    edge = 1.0 + 2.0**-24

    def residual(x):
        return np.array([0.1 if x[0] == edge else 1.0])

    def step(x, r):
        return _toy_system(x, np.ones(1))

    x0 = np.ones(1)
    res = ssn_solve(residual, step, x0, tol=0.5, max_iter=1)
    assert res.converged and res.step == [1.0, 2.0**-24] and res.residuals == [1.0, 0.1]
    assert res.x.tobytes() == np.array([edge]).tobytes()
    _assert_matches_reference(res, _reference_ssn(residual, step, x0, tol=0.5, max_iter=1))


# --- one trace type ---------------------------------------------------------------------


def test_newton_solvers_return_the_shared_trace():
    spec = gen_lasso(10, 20, seed=1)
    grad, hess = _lasso_pieces(spec)
    alpha = spec.alpha
    runs = [
        l1_ssn(grad, hess, alpha, 0.01, np.zeros(10)),
        moreau_yosida_ssn(lambda u: grad(u) / alpha, hess(None) / alpha, 0.5, np.zeros(10)),
        ssn_solve(lambda x: x - 1.0, lambda x, r: _toy_system(x, -r), np.zeros(3)),
    ]
    for trace in runs:
        assert isinstance(trace, IterTrace) and trace.converged and trace.n_iter >= 1
        assert trace.x.tobytes() == trace.iterates[-1].tobytes()
        assert len(trace.iterates) == len(trace.residuals) == len(trace.step)


def test_newton_trace_step_column_holds_the_damping_factors():
    # Phi(x) = x with the step -3x: the full step doubles ||Phi|| and the half
    # step halves it, so every step is damped to t = 1/2
    trace = ssn_solve(lambda x: x.copy(), lambda x, r: _toy_system(x, -3.0 * x),
                      np.ones(2), tol=1e-300, max_iter=4)
    assert trace.step == [1.0, 0.5, 0.5, 0.5, 0.5]
    spec = gen_control(400, seed=3000)  # most of its full steps fail
    trace = control_ssn(spec.s, spec.z, spec.alpha, spec.lo, spec.hi)
    assert trace.converged and trace.step[0] == 1.0
    # a failed full step takes a grid value j/16 of the search, or failing
    # that a power of 2 from halving
    halving = {2.0**-j for j in range(25)}
    assert set(trace.step) <= {j / 16 for j in range(1, 16)} | halving
    assert set(trace.step) - halving
    lines = trace.to_csv().splitlines()
    assert lines[0] == "iter,objective,residual,gap,step,ms"
    assert len(lines) == 1 + len(trace.residuals)
    assert [float(line.split(",")[2]) for line in lines[1:]] == trace.residuals
    assert [float(line.split(",")[4]) for line in lines[1:]] == trace.step


# --- edges of the shared loop ---------------------------------------------------------


@pytest.mark.parametrize("blowup", [True, False])
def test_ssn_solve_divergence_keeps_the_last_finite_iterate(blowup):
    def residual(x):
        return x * 4.0

    def step(x, r):
        return _toy_system(x, x * 3.0 if blowup else np.full_like(x, np.nan))

    res = ssn_solve(residual, step, np.ones(3), tol=1e-10, max_iter=60, damped=False)
    assert res.diverged and not res.converged
    assert all(np.isfinite(res.residuals))
    assert res.x.tobytes() == res.iterates[-1].tobytes()
    assert len(res.iterates) == len(res.residuals)
    if blowup:
        # 4^k times the start residual passes the 1e6 bound at k = 10
        assert res.n_iter == 9
        npt.assert_array_equal(res.x, np.full(3, 4.0**9))
        assert max(res.residuals) <= 1e6 * res.residuals[0]
    else:
        assert res.n_iter == 0
        npt.assert_array_equal(res.x, np.ones(3))


def test_ssn_solve_stops_at_a_start_that_meets_tol():
    def step(x, r):
        raise AssertionError("no step is taken from a converged start")

    x0 = np.full(2, 1e-12)
    res = ssn_solve(lambda x: x * 0.5, step, x0, tol=1e-10, max_iter=10)
    assert res.converged and not res.diverged
    assert res.n_iter == 0
    assert res.residuals == [np.linalg.norm(x0 * 0.5)]
    npt.assert_array_equal(res.x, x0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_ssn_solve_refuses_a_non_finite_start_residual(value):
    def step(x, r):
        raise AssertionError("no step is taken from a refused start")

    with pytest.raises(ValueError, match="^ssn_solve: the residual at x0 is not finite$"):
        ssn_solve(lambda x: x * value, step, np.ones(2))


def test_ssn_solve_rejects_max_iter_zero():
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        ssn_solve(lambda x: x, lambda x, r: _toy_system(x, -x), np.ones(2), max_iter=0)


# --- the step's assembly: one row gather against the np.ix_ formulation ----------------


def _ix_step(B, act, rhs):
    """The eliminated step with both blocks gathered by np.ix_ from the full B,
    the formulation _masked_step must reproduce bit for bit; returns the step
    and whether the active block needed the Levenberg-Marquardt shift."""
    pin = ~act
    s = np.empty_like(rhs)
    s[pin] = rhs[pin]
    shifted = False
    if act.any():
        r = rhs[act].copy()
        if pin.any():
            r -= B[np.ix_(act, pin)] @ s[pin]
        b_aa = B[np.ix_(act, act)]
        try:
            s[act] = solve_spd(b_aa, r)
        except SPDSolveError:
            shifted = True
            s[act] = solve_spd(b_aa + 0.1 * norm(rhs) * np.eye(r.size), r)
    return s, shifted


def _counted_step(B, act, rhs):
    calls = []

    def block(a):
        calls.append(a.copy())
        return B[a]

    system = newton._masked_step(block, NewtonDerivativeMask(act), rhs)
    return system.step, calls


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return g @ g.T / n + 0.1 * np.eye(n)


@pytest.mark.parametrize("seed", range(6))
def test_masked_step_equals_the_ix_formulation_on_random_masks(seed):
    rng = np.random.default_rng(seed)
    n = 40
    B = _spd(n, seed)
    rhs = rng.standard_normal(n)
    act = rng.random(n) < rng.uniform(0.2, 0.8)
    assert act.any() and not act.all()
    step, calls = _counted_step(B, act, rhs)
    ref, shifted = _ix_step(B, act, rhs)
    assert np.array_equal(step, ref) and not shifted
    assert len(calls) == 1 and np.array_equal(calls[0], act)


def test_masked_step_with_an_empty_or_full_active_set():
    n = 12
    B = _spd(n, 3)
    rhs = np.random.default_rng(3).standard_normal(n)
    # nothing active: the step is rhs and B is never read
    step, calls = _counted_step(B, np.zeros(n, bool), rhs)
    assert np.array_equal(step, rhs) and step is not rhs and calls == []
    # everything active: the step solves B s = rhs
    act = np.ones(n, bool)
    step, calls = _counted_step(B, act, rhs)
    assert np.array_equal(step, _ix_step(B, act, rhs)[0]) and len(calls) == 1
    npt.assert_allclose(B @ step, rhs, atol=1e-12)


@pytest.mark.parametrize("full", [True, False])
def test_masked_step_equals_the_ix_formulation_on_the_shift_path(full):
    # a rank-4 Gram matrix: any active block wider than 4 is singular
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 15))
    B = a.T @ a
    rhs = rng.standard_normal(15)
    act = np.ones(15, bool) if full else rng.random(15) < 0.7
    with pytest.raises(SPDSolveError):
        solve_spd(B[np.ix_(act, act)], rhs[act])
    step, calls = _counted_step(B, act, rhs)
    ref, shifted = _ix_step(B, act, rhs)
    assert shifted and np.array_equal(step, ref) and len(calls) == 1
    assert np.isfinite(step).all()


@pytest.fixture
def steps_against_ix(monkeypatch):
    """Check every _masked_step a solver makes against _ix_step on the matrix
    the test expects, given as expected["B"], and count its block calls; returns
    one (active size, pinned size, block calls, shifted) tuple per step."""
    real = newton._masked_step
    expected, seen = {}, []

    def checked(block, mask, rhs):
        calls = []

        def counted(act):
            calls.append(act)
            return block(act)

        system = real(counted, mask, rhs)
        B = expected["B"]
        assert np.array_equal(block(np.ones(rhs.size, bool)), B)
        ref, shifted = _ix_step(B, mask.active, rhs)
        assert np.array_equal(system.step, ref)
        seen.append((int(mask.active.sum()), int((~mask.active).sum()), len(calls), shifted))
        return system

    monkeypatch.setattr(newton, "_masked_step", checked)
    return expected, seen


def _assert_one_block_call_per_step(seen):
    assert seen and all(calls == (n_act > 0) for n_act, _, calls, _ in seen)
    assert any(n_act and n_pin for n_act, n_pin, _, _ in seen)


@pytest.mark.parametrize("m", [40, 12])
def test_l1_ssn_steps_equal_the_ix_formulation(steps_against_ix, m):
    expected, seen = steps_against_ix
    spec = gen_lasso(20, m, seed=5)
    grad, hess = _lasso_pieces(spec)
    gamma = 1.0 / np.linalg.norm(spec.a, 2) ** 2
    expected["B"] = gamma * hess(None)
    res = l1_ssn(grad, hess, spec.alpha, gamma, np.zeros(spec.n), tol=1e-12)
    assert res.n_iter == len(seen)
    _assert_one_block_call_per_step(seen)
    # m < n: some active block has more columns than A has rows
    assert any(s for *_, s in seen) == (m < spec.n)


def test_moreau_yosida_ssn_steps_equal_the_ix_formulation(steps_against_ix):
    expected, seen = steps_against_ix
    spec = gen_lasso(16, 32, seed=4)
    h = spec.a.T @ spec.a / spec.alpha
    atb = spec.a.T @ spec.b / spec.alpha
    for gamma in (1.0, 2.0**-6):
        expected["B"] = (np.arange(16)[:, None] == np.arange(16)) + h / gamma
        res = moreau_yosida_ssn(lambda u: h @ u - atb, h, gamma, np.zeros(16), tol=1e-12)
        assert res.converged
    _assert_one_block_call_per_step(seen)


def test_control_ssn_steps_equal_the_ix_formulation(steps_against_ix):
    expected, seen = steps_against_ix
    spec = gen_control(24, 30, seed=2)
    for alpha in (spec.alpha, 1e-3):
        expected["B"] = np.eye(24) + spec.s.T @ spec.s / alpha
        res = control_ssn(spec.s, spec.z, alpha, spec.lo, spec.hi, tol=1e-12)
        assert res.converged
    _assert_one_block_call_per_step(seen)


# --- damping a failed full step: the search along the step ------------------------


def _clip_toy(x):
    # Phi(x) = x - clip(w(x), -1, 1) with the affine w(x) = x/2 + 1, root x = 1
    return x - np.clip(0.5 * x + 1.0, -1.0, 1.0)


def test_search_takes_the_grid_minimizer_where_halving_takes_one_half():
    # the step solves the active row with slope 1/4 instead of 1/2, so from
    # x = -3 the full step overshoots to 7; the half step (x = 2) decreases
    # ||Phi|| and is what halving takes, while the residual on the segment is
    # least at t = 6/16 (x = 0.75), next to the root at t = 0.4
    w = lambda x: 0.5 * x + 1.0
    project = lambda v: np.clip(v, -1.0, 1.0)
    step = lambda x, r: _toy_system(x, -r / 0.25)
    x0 = np.array([-3.0])
    kwargs = dict(tol=1e-300, max_iter=1)
    halved = ssn_solve(_clip_toy, step, x0, **kwargs)
    searched = ssn_solve(_clip_toy, step, x0, _projection=(w, project), **kwargs)
    assert halved.step == [1.0, 0.5] and halved.iterates[1] == [2.0]
    grid = [j / 16 for j in range(1, 16)]
    best = min(grid, key=lambda t: abs(_clip_toy(x0 + t * 10.0)[0]))
    assert best == 6 / 16
    assert searched.step == [1.0, best] and searched.iterates[1] == [0.75]
    assert searched.residuals == [2.5, 0.25]


def test_search_that_fails_on_a_nonlinear_w_falls_back_to_halving_bit_for_bit():
    # Phi(x) = 1 - 2.5x + 64x(1 - x)(x - 1/2) along the fixed step d = 1: the
    # secant through Phi(0) = 1 and Phi(1) = -1.5 predicts a root near t = 0.4,
    # but Phi(0.375) = -1.8125 does not decrease ||Phi||, so halving runs as
    # without the search and takes t = 1/2, then 1/32
    phi = lambda x: 1.0 - 2.5 * x + 64.0 * x * (1.0 - x) * (x - 0.5)
    w = lambda x: x - phi(x)
    seen = []

    def residual(x):
        seen.append(float(x[0]))
        return x - w(x)

    step = lambda x, r: _toy_system(x, np.ones(1))
    x0 = np.zeros(1)
    kwargs = dict(tol=1e-300, max_iter=2)
    halved = ssn_solve(residual, step, x0, **kwargs)
    halving_points = seen[:]
    seen.clear()
    searched = ssn_solve(residual, step, x0, _projection=(w, lambda v: v), **kwargs)
    assert searched.step == halved.step == [1.0, 0.5, 2.0**-5]
    assert [v.tobytes() for v in searched.iterates] == [v.tobytes() for v in halved.iterates]
    assert searched.residuals == halved.residuals
    # each step evaluates one more residual, at the search's failed retry
    assert [seen.pop(5), seen.pop(2)] == [0.5 + 1 / 16, 0.375]
    assert seen == halving_points


def test_search_reads_w_at_both_ends_of_the_step_from_the_residuals_cache(monkeypatch):
    spec = gen_lasso(6, 18, seed=4)  # its second and third steps take t = 3/16
    grad, hess = _lasso_pieces(spec)
    calls = {"grad": 0, "residual": 0}

    def counting_grad(x):
        calls["grad"] += 1
        return grad(x)

    def counting_ssn(residual, step, x0, **kw):
        def counted(x):
            calls["residual"] += 1
            return residual(x)

        return ssn_solve(counted, step, x0, **kw)

    monkeypatch.setattr(newton, "ssn_solve", counting_ssn)
    gamma = 1.0 / np.linalg.norm(spec.a, 2) ** 2
    res = l1_ssn(counting_grad, hess, spec.alpha, gamma, np.zeros(spec.n), tol=1e-11)
    assert res.converged and res.step[2:4] == [3 / 16, 3 / 16]
    assert calls["grad"] == calls["residual"]


def test_control_ssn_mean_steps_at_n400():
    # from u = 0 most full steps fail; halving took 17.0 steps on average here
    steps = []
    for seed in range(3000, 3016):
        spec = gen_control(400, seed=seed)
        trace = control_ssn(spec.s, spec.z, spec.alpha, spec.lo, spec.hi)
        assert trace.converged
        steps.append(trace.n_iter)
    assert np.mean(steps) <= 11


# --- discretization independence on a 1-D Poisson control problem -------------------


@functools.lru_cache(maxsize=None)
def _poisson_control(N):
    """The L2-scaled discretization of min 1/2||Su - z||^2 + alpha/2||u||^2 over
    -1/2 <= u <= 1/2, S the solution operator of -y'' = u on (0, 1) with zero
    boundary values, on N interior points; returns (S, z, h)."""
    h = 1.0 / (N + 1)
    t = h * np.arange(1, N + 1)
    lap = (2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)) / h**2
    z = np.sqrt(h) * (0.05 * np.sin(np.pi * t) + 0.02 * np.sign(t - 0.5))
    return np.sqrt(h) * np.linalg.inv(lap), z, h


MESHES = (50, 100, 200, 400, 800)


def _poisson_ssn(N, alpha, u0=None):
    S, z, h = _poisson_control(N)
    return control_ssn(S, z, alpha * h, -0.5, 0.5, u0=u0, tol=1e-10, max_iter=100)


def test_control_ssn_step_count_is_mesh_independent():
    steps = []
    for N in MESHES:
        trace = _poisson_ssn(N, 1e-4)
        assert trace.converged, N
        steps.append(trace.n_iter)
    assert max(steps) - min(steps) <= 2, steps


def test_alpha_continuation_converges_on_every_mesh():
    # a cold start at alpha = 1e-6 does not converge within 100 steps for
    # N >= 100; warm-starting down a ladder of alpha does, in few steps
    for N in MESHES:
        _, stages = continuation(
            lambda alpha, u: _poisson_ssn(N, alpha, u),
            ContinuationSchedule(1e-2, 0.1, 1e-6), np.zeros(N),
        )
        assert [s["gamma"] for s in stages] == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert all(s["converged"] for s in stages), N
        assert sum(s["n_iter"] for s in stages) <= 16, (N, stages)
