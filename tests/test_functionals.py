import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from helpers import catalog_menagerie, grid_sup_1d

from proxkit.functionals import (
    BoxIndicator,
    BoxSupport,
    InfBallIndicator,
    L1,
    L2BallIndicator,
    L2Norm,
    Quadratic,
    ScalarPC1,
    Scaled,
    SeparableSum,
    Shifted,
    SquaredL2,
    Tilted,
    Zero,
    clarke_interval,
    fenchel_young_gap,
    functional_from_json,
    functional_to_json,
    moreau_envelope,
    prox,
    prox_conjugate,
    scale,
    shift,
    tilt,
    value,
    yosida,
)
from proxkit.linalg import DimensionMismatchError


# --- closed-form prox values ------------------------------------------------


def test_squared_l2_prox_shrinks_by_one_plus_gamma():
    npt.assert_allclose(SquaredL2().prox(2.0, np.array([3.0])), [1.0])
    npt.assert_allclose(
        SquaredL2().prox(0.5, np.array([3.0, -6.0])), [2.0, -4.0]
    )


def test_l1_prox_is_soft_threshold():
    got = L1().prox(1.0, np.array([2.0, 0.5, -3.0]))
    npt.assert_allclose(got, [1.0, 0.0, -2.0])


def test_l2norm_prox_radial_shrink_and_collapse():
    x = np.array([3.0, 4.0])
    npt.assert_allclose(L2Norm().prox(2.0, x), [1.8, 2.4])
    npt.assert_array_equal(L2Norm().prox(6.0, x), [0.0, 0.0])


def test_box_prox_clips():
    box = BoxIndicator(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    npt.assert_array_equal(box.prox(3.0, np.array([5.0, -3.0])), [1.0, 0.0])
    npt.assert_array_equal(
        BoxIndicator(-np.inf, 1.0).prox(1.0, np.array([-9.0, 7.0])), [-9.0, 1.0]
    )


def test_ball_proxes_project():
    npt.assert_array_equal(
        InfBallIndicator(1.0).prox(2.0, np.array([3.0, -0.5])), [1.0, -0.5]
    )
    npt.assert_allclose(
        L2BallIndicator(1.0).prox(0.7, np.array([3.0, 4.0])), [0.6, 0.8]
    )
    inside = np.array([0.1, -0.2])
    npt.assert_array_equal(L2BallIndicator(1.0).prox(1.0, inside), inside)


def test_box_support_value_and_prox():
    f = BoxSupport(np.array([-1.0, -1.0]), np.array([2.0, 2.0]))
    assert f.value(np.array([3.0, -4.0])) == pytest.approx(10.0)
    assert f.value(np.array([0.0, 0.0])) == 0.0
    # support of an unbounded direction is an indicator there
    g = BoxSupport(np.array([-1.0]), np.array([np.inf]))
    assert g.value(np.array([0.5])) == np.inf
    assert g.value(np.array([-2.0])) == 2.0
    # prox agrees with x - gamma * proj_box(x / gamma)
    x = np.array([4.0, -7.0])
    npt.assert_allclose(
        f.prox(2.0, x), x - 2.0 * np.clip(x / 2.0, -1.0, 2.0)
    )


def test_quadratic_prox_solves_shifted_system():
    rng = np.random.default_rng(0)
    b0 = rng.standard_normal((5, 5))
    q = Quadratic(b0 @ b0.T + np.eye(5), rng.standard_normal(5), 1.5)
    x = rng.standard_normal(5)
    p = q.prox(0.7, x)
    npt.assert_allclose((np.eye(5) + 0.7 * q.Q) @ p, x - 0.7 * q.c, atol=1e-12)
    # prox cache keyed by gamma stays correct when gamma changes
    p2 = q.prox(1.3, x)
    npt.assert_allclose((np.eye(5) + 1.3 * q.Q) @ p2, x - 1.3 * q.c, atol=1e-12)


def test_prox_rejects_nonpositive_gamma():
    with pytest.raises(ValueError, match="gamma"):
        L1().prox(0.0, np.array([1.0]))
    with pytest.raises(ValueError, match="gamma"):
        L1().prox(-1.0, np.array([1.0]))


def test_dimension_guards():
    with pytest.raises(DimensionMismatchError):
        Shifted(np.ones(3), SquaredL2()).value(np.ones(2))
    with pytest.raises(DimensionMismatchError):
        SeparableSum([L1(), L1()]).prox(1.0, np.ones(3))


# --- conjugate pairs ----------------------------------------------------------


def test_conjugate_table():
    assert isinstance(Zero().conjugate(), InfBallIndicator)
    assert Zero().conjugate().radius == 0.0
    assert isinstance(SquaredL2().conjugate(), SquaredL2)
    assert isinstance(L1().conjugate(), InfBallIndicator)
    assert L1().conjugate().radius == 1.0
    assert isinstance(L2Norm().conjugate(), L2BallIndicator)
    assert isinstance(BoxIndicator(-1.0, 2.0).conjugate(), BoxSupport)
    assert isinstance(BoxSupport(-1.0, 2.0).conjugate(), BoxIndicator)
    assert isinstance(InfBallIndicator(1.0).conjugate(), L1)
    assert isinstance(InfBallIndicator(0.0).conjugate(), Zero)
    sc = InfBallIndicator(2.5).conjugate()
    assert isinstance(sc, Scaled) and sc.alpha == 2.5 and isinstance(sc.inner, L1)
    assert isinstance(L2BallIndicator(1.0).conjugate(), L2Norm)


def test_quadratic_conjugate_closed_form():
    q = Quadratic(np.diag([2.0, 3.0]), np.array([1.0, -1.0]), 0.5)
    qc = q.conjugate()
    npt.assert_allclose(qc.Q, np.diag([0.5, 1.0 / 3.0]))
    npt.assert_allclose(qc.c, [-0.5, 1.0 / 3.0])
    assert qc.d == pytest.approx(0.5 * (0.5 + 1.0 / 3.0) - 0.5)
    # conjugate value definition spot check: sup_x <y,x> - q(x)
    y = np.array([0.4, -1.1])
    xstar = np.linalg.solve(q.Q, y - q.c)
    assert qc.value(y) == pytest.approx(float(y @ xstar) - q.value(xstar), abs=1e-12)


def test_biconjugation_is_structural_identity():
    rng = np.random.default_rng(42)
    for name, f in catalog_menagerie(rng, 5):
        if isinstance(f, Quadratic):
            continue  # matrix inversion round trip checked by value below
        g = f.conjugate().conjugate()
        assert g.structurally_equal(f), f"{name}: {g!r} != {f!r}"


def test_quadratic_conjugate_is_memoized_closed_form():
    rng = np.random.default_rng(3)
    b0 = rng.standard_normal((6, 6))
    qm = b0 @ b0.T + np.eye(6)
    c = rng.standard_normal(6)
    q = Quadratic(qm, c, 0.3)
    qc = q.conjugate()
    assert q.conjugate() is qc
    qinv = np.linalg.inv(q.Q)
    qinv = 0.5 * (qinv + qinv.T)
    ic = qinv @ q.c
    assert qc.structurally_equal(Quadratic(qinv, -ic, 0.5 * float(q.c @ ic) - 0.3))


def test_quadratic_biconjugation_by_value():
    rng = np.random.default_rng(1)
    b0 = rng.standard_normal((4, 4))
    q = Quadratic(b0 @ b0.T + 2 * np.eye(4), rng.standard_normal(4), -0.7)
    qq = q.conjugate().conjugate()
    for _ in range(10):
        x = rng.standard_normal(4)
        assert qq.value(x) == pytest.approx(q.value(x), rel=1e-9, abs=1e-9)


def test_value_at_conjugate_of_box_handles_infinite_bounds():
    f = BoxIndicator(np.array([-1.0, -np.inf]), np.array([np.inf, 2.0]))
    fs = f.conjugate()
    # positive weight on an unbounded-above coordinate blows up
    assert fs.value(np.array([1.0, 0.0])) == np.inf
    assert fs.value(np.array([-3.0, 1.0])) == pytest.approx(3.0 + 2.0)
    assert fs.value(np.array([0.0, -1.0])) == np.inf


def _box_support_loop(x, lo, hi):
    """Scalar left-to-right reference for the support function of [lo, hi]."""
    lo = np.broadcast_to(lo, x.shape)
    hi = np.broadcast_to(hi, x.shape)
    total = 0.0
    for xi, l, h in zip(x, lo, hi):
        if xi > 0.0:
            if np.isinf(h):
                return np.inf
            total += h * xi
        elif xi < 0.0:
            if np.isinf(l):
                return np.inf
            total += l * xi
    return float(total)


def test_box_support_value_matches_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    n = 9
    lo_vec = -rng.uniform(0.0, 3.0, n)
    hi_vec = rng.uniform(0.0, 3.0, n)
    lo_vec[[1, 4]] = [0.0, -0.0]
    lo_inf = lo_vec.copy()
    lo_inf[[0, 3]] = -np.inf
    hi_inf = hi_vec.copy()
    hi_inf[[2, 7]] = np.inf
    boxes = [
        (-1.5, 2.25),
        (0.0, 0.0),
        (lo_vec, hi_vec),
        (lo_inf, hi_vec),
        (lo_vec, hi_inf),
        (lo_inf, hi_inf),
        (-np.inf, hi_vec),
        (lo_vec, np.inf),
    ]
    n_inf = n_finite = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in boxes:
            bs = BoxSupport(lo, hi)
            lo_b = np.broadcast_to(lo, (n,))
            hi_b = np.broadcast_to(hi, (n,))
            for trial in range(40):
                x = rng.standard_normal(n)
                x[rng.random(n) < 0.3] = 0.0
                x[rng.random(n) < 0.2] = -0.0
                if trial % 2:
                    # keep clear of the infinite bounds half of the time
                    x[np.isinf(hi_b)] = -np.abs(x[np.isinf(hi_b)])
                    x[np.isinf(lo_b)] = np.abs(x[np.isinf(lo_b)])
                if trial == 0:
                    x[:] = -0.0
                got = bs.value(x)
                want = _box_support_loop(x, lo, hi)
                same_bits = np.float64(got).tobytes() == np.float64(want).tobytes()
                assert same_bits, (lo, hi, x, got, want)
                pushes = np.any(
                    ((x > 0.0) & np.isinf(hi_b)) | ((x < 0.0) & np.isinf(lo_b))
                )
                assert (got == np.inf) == bool(pushes)
                n_inf += bool(pushes)
                n_finite += not pushes
    assert n_inf > 0 and n_finite > 0


def test_catalog_entries_own_read_only_data():
    rng = np.random.default_rng(13)
    b0 = rng.standard_normal((5, 5))
    q_in = b0 @ b0.T + np.eye(5)
    c_in = rng.standard_normal(5)
    lo_in = -rng.uniform(0.5, 1.5, 5)
    hi_in = rng.uniform(0.5, 1.5, 5)
    q = Quadratic(q_in, c_in, 0.25)
    box = BoxIndicator(lo_in, hi_in)
    support = BoxSupport(lo_in, hi_in)
    q_ref = Quadratic(q_in.copy(), c_in.copy(), 0.25)
    box_ref = BoxIndicator(lo_in.copy(), hi_in.copy())
    support_ref = BoxSupport(lo_in.copy(), hi_in.copy())
    x = rng.standard_normal(5)
    feasible = 0.5 * (lo_in + hi_in)

    q_in[:] = 0.0
    c_in[:] = 7.0
    lo_in[:] = 2.0
    hi_in[:] = 3.0

    assert q.value(x) == q_ref.value(x)
    npt.assert_array_equal(q.prox(0.7, x), q_ref.prox(0.7, x))
    assert q.conjugate().value(x) == q_ref.conjugate().value(x)
    assert box.value(feasible) == 0.0
    npt.assert_array_equal(box.prox(1.0, x), box_ref.prox(1.0, x))
    assert support.value(x) == support_ref.value(x)

    with pytest.raises(ValueError):
        q.Q[0, 0] = 1.0
    with pytest.raises(ValueError):
        q.c[0] = 1.0
    with pytest.raises(ValueError):
        box.lo[0] = 0.0
    with pytest.raises(ValueError):
        support.hi[0] = 0.0


# --- Moreau identities ----------------------------------------------------------


def test_prox_conjugate_agrees_with_conjugates_own_prox():
    rng = np.random.default_rng(9)
    for name, f in catalog_menagerie(rng, 6):
        for gamma in (0.3, 1.0, 2.7):
            x = 2.5 * rng.standard_normal(6)
            via_identity = prox_conjugate(f, gamma, x)
            via_formula = f.conjugate().prox(gamma, x)
            npt.assert_allclose(
                via_identity, via_formula, atol=1e-10, rtol=0,
                err_msg=f"{name} at gamma={gamma}",
            )


def test_moreau_decomposition_at_unit_gamma():
    rng = np.random.default_rng(10)
    for name, f in catalog_menagerie(rng, 6):
        for _ in range(20):
            x = 3.0 * rng.standard_normal(6)
            p = f.prox(1.0, x)
            q = prox_conjugate(f, 1.0, x)
            npt.assert_allclose(p + q, x, atol=1e-12, rtol=0, err_msg=name)


def test_prox_is_firmly_nonexpansive():
    rng = np.random.default_rng(12)
    for name, f in catalog_menagerie(rng, 5):
        for gamma in (0.5, 1.0, 4.0):
            for _ in range(10):
                x = 3.0 * rng.standard_normal(5)
                z = 3.0 * rng.standard_normal(5)
                tx, tz = f.prox(gamma, x), f.prox(gamma, z)
                d = tx - tz
                assert float(d @ d) <= float(d @ (x - z)) + 1e-12, name


# --- envelope and yosida ----------------------------------------------------------


def test_envelope_of_l1_is_huber():
    assert moreau_envelope(L1(), 1.0, np.array([2.0])) == pytest.approx(1.5)
    assert moreau_envelope(L1(), 1.0, np.array([0.5])) == pytest.approx(0.125)
    assert moreau_envelope(L1(), 1.0, np.array([-2.0, 0.5])) == pytest.approx(1.625)


def test_yosida_of_interval_indicator():
    got = yosida(InfBallIndicator(1.0), 0.5, np.array([2.0]))
    npt.assert_allclose(got, [2.0])
    npt.assert_allclose(yosida(InfBallIndicator(1.0), 0.5, np.array([0.3])), [0.0])


def test_envelope_lower_bounds_and_monotonicity():
    rng = np.random.default_rng(13)
    for name, f in catalog_menagerie(rng, 4):
        for _ in range(10):
            x = 2.0 * rng.standard_normal(4)
            e_small = moreau_envelope(f, 0.1, x)
            e_big = moreau_envelope(f, 2.0, x)
            fx = f.value(x)
            assert e_big <= e_small + 1e-10, name
            if np.isfinite(fx):
                assert e_small <= fx + 1e-10, name


def test_envelope_gradient_is_yosida_map():
    rng = np.random.default_rng(14)
    h = 1e-6
    for name, f in catalog_menagerie(rng, 4):
        for gamma in (0.1, 1.0, 10.0):
            x = 2.0 * rng.standard_normal(4)
            g = yosida(f, gamma, x)
            fd = np.empty(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd[i] = (
                    moreau_envelope(f, gamma, x + e)
                    - moreau_envelope(f, gamma, x - e)
                ) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g)), name


def test_envelope_conjugate_adds_quadratic():
    # (F_gamma)* = F* + (gamma/2)||.||^2, probed on scalars by a grid sup
    for f, fstar_val in ((L1(), lambda y: 0.0 if abs(y) <= 1 else np.inf),):
        for gamma in (0.5, 1.0, 2.0):
            for y in (-0.9, -0.4, 0.0, 0.3, 0.8):
                sup = grid_sup_1d(
                    lambda z: y * z - moreau_envelope(f, gamma, np.array([z])),
                    -30.0,
                    30.0,
                )
                want = fstar_val(y) + 0.5 * gamma * y * y
                assert sup == pytest.approx(want, abs=1e-9)


def test_regularized_stationarity_point():
    # x = -(1/gamma) prox_{gamma F*}(0) minimizes F + (gamma/2)||.||^2,
    # certified by a zero Fenchel-Young gap against its own negative gradient
    rng = np.random.default_rng(15)
    for name, f in catalog_menagerie(rng, 5):
        for gamma in (0.5, 2.0):
            xg = -prox_conjugate(f, gamma, np.zeros(5)) / gamma
            gap = fenchel_young_gap(f, xg, -gamma * xg)
            assert gap <= 1e-9, f"{name}: gap {gap}"


# --- Fenchel-Young ----------------------------------------------------------------


def test_fenchel_young_frozen_values():
    f = L1()
    x = np.array([2.0, 0.0])
    assert fenchel_young_gap(f, x, np.array([1.0, 0.3])) == 0.0
    assert fenchel_young_gap(f, x, np.array([1.0, 1.2])) == np.inf
    assert fenchel_young_gap(f, x, np.array([0.9, 0.0])) == pytest.approx(0.2)


def test_fenchel_young_nonnegative_and_tight_on_prox_pairs():
    rng = np.random.default_rng(16)
    for name, f in catalog_menagerie(rng, 5):
        for _ in range(10):
            x = 2.0 * rng.standard_normal(5)
            y = rng.standard_normal(5)
            assert fenchel_young_gap(f, x, y) >= 0.0, name
            gamma = float(rng.uniform(0.2, 3.0))
            p = f.prox(gamma, x)
            sub = (x - p) / gamma  # a subgradient at the prox point
            assert fenchel_young_gap(f, p, sub) <= 1e-9, name


# --- factories and normalization -----------------------------------------------------


def test_scale_normalizations():
    assert scale(L1(), 1.0) is not None and isinstance(scale(L1(), 1.0), L1)
    merged = scale(scale(L1(), 2.0), 3.0)
    assert isinstance(merged, Scaled) and merged.alpha == 6.0
    ball = InfBallIndicator(2.0)
    assert scale(ball, 5.0) is ball  # positive scaling cannot change an indicator
    bs = scale(BoxSupport(-1.0, 2.0), 3.0)
    assert isinstance(bs, BoxSupport)
    npt.assert_allclose([bs.lo, bs.hi], [-3.0, 6.0])
    sq = scale(Quadratic(np.eye(2), np.zeros(2), 1.0), 2.0)
    assert isinstance(sq, Quadratic) and sq.d == 2.0
    npt.assert_allclose(sq.Q, 2.0 * np.eye(2))
    pushed = scale(Shifted(np.ones(2), SquaredL2()), 3.0)
    assert isinstance(pushed, Shifted) and isinstance(pushed.inner, Scaled)
    with pytest.raises(ValueError):
        scale(L1(), -1.0)
    with pytest.raises(TypeError):
        Scaled(2.0, BoxIndicator(-1.0, 1.0))  # factory-only normalization


def test_scaled_value_prox_consistency():
    rng = np.random.default_rng(17)
    f = scale(L2Norm(), 2.5)
    x = rng.standard_normal(4)
    assert f.value(x) == pytest.approx(2.5 * np.linalg.norm(x))
    npt.assert_allclose(f.prox(0.4, x), L2Norm().prox(1.0, x))


def test_shift_and_tilt_normalizations():
    f = shift(SquaredL2(), np.zeros(3))
    assert isinstance(f, SquaredL2)
    g = shift(shift(SquaredL2(), np.ones(3)), np.ones(3))
    assert isinstance(g, Shifted)
    npt.assert_array_equal(g.x0, 2 * np.ones(3))
    box = shift(BoxIndicator(np.zeros(2), np.ones(2)), np.array([1.0, -1.0]))
    assert isinstance(box, BoxIndicator)
    npt.assert_array_equal(box.lo, [1.0, -1.0])
    t = tilt(tilt(L1(), np.ones(2)), np.ones(2))
    assert isinstance(t, Tilted)
    npt.assert_array_equal(t.v, [2.0, 2.0])
    assert isinstance(tilt(L1(), np.zeros(2)), L1)


def test_shifted_and_tilted_semantics():
    x0 = np.array([1.0, -2.0])
    f = Shifted(x0, L1())
    assert f.value(x0) == 0.0
    npt.assert_allclose(f.prox(1.0, np.array([3.0, -2.0])), [2.0, -2.0])
    v = np.array([0.5, 0.0])
    g = Tilted(SquaredL2(), v)
    x = np.array([2.0, 2.0])
    assert g.value(x) == pytest.approx(0.5 * 8.0 + 1.0)
    # prox of a tilt is the shifted prox
    npt.assert_allclose(g.prox(2.0, x), SquaredL2().prox(2.0, x - 2.0 * v))


def test_separable_sum_acts_coordinatewise():
    f = SeparableSum([L1(), SquaredL2(), InfBallIndicator(1.0)])
    x = np.array([2.0, 2.0, 2.0])
    assert f.value(np.array([2.0, 2.0, 0.5])) == pytest.approx(2.0 + 2.0)
    assert f.value(x) == np.inf
    npt.assert_allclose(f.prox(1.0, x), [1.0, 1.0, 1.0])
    conj = f.conjugate()
    assert isinstance(conj.pieces[0], InfBallIndicator)
    assert isinstance(conj.pieces[1], SquaredL2)
    assert isinstance(conj.pieces[2], L1)


# --- serialization --------------------------------------------------------------------


def test_json_roundtrip_everything():
    rng = np.random.default_rng(18)
    for name, f in catalog_menagerie(rng, 4):
        doc = json.loads(json.dumps(functional_to_json(f)))
        g = functional_from_json(doc)
        assert g.structurally_equal(f), name
        x = rng.standard_normal(4)
        assert g.value(x) == pytest.approx(f.value(x), abs=1e-12, nan_ok=False) or (
            g.value(x) == np.inf and f.value(x) == np.inf
        )


def test_json_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown"):
        functional_from_json({"kind": "Mystery", "params": {}})


# --- module-level ops -------------------------------------------------------------------


def test_module_level_wrappers():
    f = L1()
    x = np.array([2.0, -0.5])
    assert value(f, x) == 2.5
    npt.assert_allclose(prox(f, 1.0, x), [1.0, 0.0])


# --- piecewise-C1 scalar functions and Clarke intervals ------------------------------------


def _abs_pc1():
    return ScalarPC1(
        pieces=[(lambda t: -t, lambda t: -1.0), (lambda t: t, lambda t: 1.0)],
        breakpoints=[0.0],
    )


def test_scalar_pc1_value_and_derivative():
    f = _abs_pc1()
    assert f.value(-2.0) == 2.0
    assert f.value(3.0) == 3.0
    assert f.derivative(-2.0) == -1.0
    assert f.derivative(3.0) == 1.0


def test_scalar_pc1_rejects_discontinuous_selection():
    with pytest.raises(ValueError, match="discontinuous"):
        ScalarPC1(
            pieces=[(lambda t: 0.0, lambda t: 0.0), (lambda t: t + 1.0, lambda t: 1.0)],
            breakpoints=[0.0],
        )


def test_clarke_interval_of_abs():
    f = _abs_pc1()
    assert clarke_interval(f, 0.0) == (-1.0, 1.0)
    assert clarke_interval(f, 1e-12, eps=1e-8) == (-1.0, 1.0)
    assert clarke_interval(f, 0.5) == (1.0, 1.0)
    assert clarke_interval(f, -0.5) == (-1.0, -1.0)


def test_clarke_interval_ignores_never_governing_piece():
    # max{0, t, t/2}: the t/2 piece owns no interval, so it never contributes
    f = ScalarPC1(
        pieces=[
            (lambda t: 0.0, lambda t: 0.0),
            (lambda t: t, lambda t: 1.0),
            (lambda t: 0.5 * t, lambda t: 0.5),
        ],
        breakpoints=[0.0],
        owners=[0, 1],
    )
    assert clarke_interval(f, 0.0) == (0.0, 1.0)
    assert clarke_interval(f, 2.0) == (1.0, 1.0)


def test_clarke_interval_precision_guard():
    f = ScalarPC1(
        pieces=[
            (lambda t: 0.0, lambda t: 0.0),
            (lambda t: t, lambda t: 1.0),
            (lambda t: 2.0 * t - 1e-10, lambda t: 2.0),
        ],
        breakpoints=[0.0, 1e-10],
    )
    with pytest.raises(ValueError, match="within eps"):
        clarke_interval(f, 0.0, eps=1e-8)
    # a tighter eps separates them again
    lo, hi = clarke_interval(f, 0.0, eps=1e-12)
    assert (lo, hi) == (0.0, 1.0)


def test_clarke_interval_validation():
    f = _abs_pc1()
    with pytest.raises(ValueError, match="positive"):
        clarke_interval(f, 0.0, eps=0.0)
    with pytest.raises(ValueError, match="owners"):
        ScalarPC1(
            pieces=[(lambda t: t, lambda t: 1.0)],
            breakpoints=[0.0],
            owners=[0, 0, 0],
        )
