import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients

from monopole_lab import _inversion
from monopole_lab import dynamics as dyn
from monopole_lab import geometry as geo
from monopole_lab.elliptic import LimitModel, limit_q2
from monopole_lab import fields
from monopole_lab.errors import (
    CenterSingularity,
    DegeneratePoint,
    FixedPointSingularity,
    MonopoleLabError,
    StepRejected,
)
from monopole_lab.fields import Family, case2_limit_spec, case2_spec, gauge_a
from monopole_lab.polyroots import eval_p, from_roots
from richardson import (
    e3_f_of_y,
    e3_gradient,
    flow_terms,
    lie_poisson_bracket,
    phase_gradient,
    poisson_bracket_fd,
    torus_f_of_y,
)
from test_global_error import _slice_rhs


def _state_with_velocity(spec, u1, u2, w1, w2):
    a1, a2 = gauge_a(spec, (u1, u2))
    return dyn.PhaseState(u1=u1, u2=u2, p1=w1 + a1, p2=w2 + a2)


def _torus_y(spec, u1, u2, w1, w2):
    """The torus flow's variables: (u, w) and the slices (Q1, Q1', Q2, Q2') at u."""
    m = spec.model
    return (u1, u2, w1, w2, *m.branch1.value_and_deriv(u1), *m.branch2.value_and_deriv(u2))


# --- evaluation ---------------------------------------------------------------

def test_h_eval_zero_velocity(case2, canonical_model):
    m = canonical_model
    u1, u2 = 0.4 * m.K1, 0.6 * m.K2
    s = _state_with_velocity(case2, u1, u2, 0.0, 0.0)
    expected = case2.mu / (float(m.q1(u1)) + float(m.q2(u2)))
    assert dyn.torus_eval(case2, s)[0] == pytest.approx(expected, rel=1e-14)


def test_f_eval_all_couplings_off(canonical_model, case2):
    free = case2_spec(case2.quartic, mu=0.0, B=0.0)
    s = _state_with_velocity(free, 0.5, 0.9, 0.0, 0.0)
    assert dyn.torus_eval(free, s)[1] == 0.0


def test_f_eval_two_coordinate_systems(case2, canonical_model):
    # second quadrant in u2 so the separable-coordinate radicals carry the
    # orientation signs of the printed form
    m = canonical_model
    params = m.params
    rng = np.random.default_rng(20)
    for _ in range(50):
        u1 = rng.uniform(0.1, 0.9) * m.K1
        u2 = m.K2 + rng.uniform(0.1, 0.9) * m.K2
        w = rng.normal(0, 1, 2)
        s = _state_with_velocity(case2, u1, u2, w[0], w[1])
        f_torus = dyn.torus_eval(case2, s)[1]
        x1, x2 = float(m.q1(u1)), float(m.q2(u2))
        lam = x1 * x1 - x2 * x2
        k = case2.k
        px1 = w[0] / float(m.dq1(u1))
        px2 = w[1] / float(m.dq2(u2))
        radical = math.sqrt(-eval_p(params, x1) * eval_p(params, x2))
        f_sep = (
            (eval_p(params, x1) / (4 * lam)) * x2 * x2 * px1 * px1
            + (-eval_p(params, x2) / (4 * lam)) * x1 * x1 * px2 * px2
            + k * radical / (2 * (x1 - x2)) * px1
            - k * radical / (2 * (x1 - x2)) * px2
            - case2.mu * x1 * x2 / (x1 + x2)
            - k * case2.B * (x1 + x2) ** 2
        )
        assert f_torus == pytest.approx(f_sep, rel=1e-8)


def test_fixed_point_singularity(case2):
    with pytest.raises(dyn.FixedPointSingularity):
        dyn.torus_eval(case2, dyn.PhaseState(0.0, 0.0, 0.1, 0.1))


def test_torus_monitors_match_h_and_f(case2):
    # integrate's monitors evaluate each slice and w once; the values they
    # record are torus_eval of the stored states, bit for bit
    s0 = dyn.random_state(case2, np.random.default_rng(4))
    traj = dyn.integrate(case2, s0, 0.3, tol=1e-9)
    assert len(traj.times) > 3
    for row, H, F in zip(traj.states, traj.monitors["H"], traj.monitors["F"]):
        st = dyn.PhaseState(*row)
        assert dyn.torus_eval(case2, st) == (H, F)


def test_torus_eval_evaluates_each_slice_once(case2, monkeypatch):
    from monopole_lab._inversion import CumulativeIntegral, QuarterBranch

    calls = []
    for cls, names in ((QuarterBranch, ("value", "deriv", "value_and_deriv")), (CumulativeIntegral, ("__call__",))):
        for name in names:
            fn = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, u, _fn=fn, _n=name: calls.append(_n) or _fn(self, u))
    s = dyn.random_state(case2, np.random.default_rng(5))
    calls.clear()
    # random_state's gauge has just evaluated the point in EllipticModel.at
    dyn.torus_eval(case2, s)
    assert calls == []
    # at a new point: Q1 and Q2 with their derivatives and one I1(u1)
    dyn.torus_eval(case2, dyn.PhaseState(s.u1 + 0.125, s.u2 - 0.125, s.p1, s.p2))
    assert sorted(calls) == ["__call__", "value_and_deriv", "value_and_deriv"]


# --- torus flow -----------------------------------------------------------------

def test_geodesic_flow_energy(canonical_model, case2):
    free = case2_spec(case2.quartic, mu=0.0, B=0.0)
    rng = np.random.default_rng(21)
    s = dyn.random_state(free, rng)
    traj = dyn.integrate(free, s, t_end=20.0, tol=1e-11, stride=50)
    H = traj.monitors["H"]
    assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-10


def test_full_flow_conservation(case2):
    rng = np.random.default_rng(7)
    s = dyn.random_state(case2, rng)
    traj = dyn.integrate(case2, s, t_end=50.0, tol=1e-10, stride=20)
    for key in ("H", "F"):
        m = traj.monitors[key]
        assert np.max(np.abs(m - m[0])) / max(1.0, abs(m[0])) < 1e-7


@pytest.mark.parametrize("roots, mu, B", [((3, 2, -1, -4), 1.0, 0.5), ((4, 1, -1, -4), 0.5, 0.0)])
def test_torus_rhs_is_the_slice_series_rhs(roots, mu, B):
    # with (Q, Q') set from the slices at u, the (u, w) rows are those of the
    # right-hand side that sums the series, bit for bit, and the slice rows
    # are the chain rule through the exact jets: dQ/dt = Q' du/dt and
    # dQ'/dt = Q'' du/dt (the even quartic has no linear term)
    spec = case2_spec(from_roots(roots, -1.0), mu=mu, B=B)
    m, poly = spec.model, spec.quartic.coefficients()
    rhs, series_rhs = dyn._torus_rhs(spec), _slice_rhs(spec)
    rng = np.random.default_rng(44)
    for _ in range(250):
        u1, u2 = rng.uniform(-4.0, 4.0, 2) * (m.K1, m.K2)
        y = _torus_y(spec, float(u1), float(u2), *rng.normal(0.0, 1.0, 2).tolist())
        dy = rhs(y)
        assert dy[:4] == series_rhs(y[:4])
        for i, (branch, c) in enumerate(((m.branch1, 0.25), (m.branch2, -0.25))):
            _, d = fields.Jet.from_slice(branch, y[i], i, c, poly)
            want = (d.d1 if i == 0 else d.d2) * dy[i]
            assert dy[4 + 2 * i] == d.v * dy[i]
            assert abs(dy[5 + 2 * i] - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.xfail(
    strict=True,
    raises=FixedPointSingularity,
    reason="an accepted step lands inside torus_eval's lam < 1e-10 beta1^2 gate, "
    "which the flow's lam <= 0 check lets through",
)
@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_torus_run_aimed_at_fixed_point(canonical_params, mu):
    # p1 < 0 at u2 = 0 drives u1 from K1/2 down into the fixed point u = (0, 0)
    spec = case2_spec(canonical_params, mu=mu, B=0.0)
    s0 = dyn.PhaseState(u1=0.5 * spec.model.K1, u2=0.0, p1=-1.0, p2=0.0)
    traj = dyn.integrate(spec, s0, t_end=5.0, tol=1e-10, stride=10**9)
    assert traj.times[-1] == pytest.approx(5.0)
    assert traj.max_drift("H") <= 1e-8 * max(1.0, abs(traj.monitors["H"][0]))


def test_flow_step_contract(case2, limit_spec, case1, vy):
    rng = np.random.default_rng(22)
    s = dyn.random_state(case2, rng)
    res = dyn.flow_step(case2, s, dt=0.01, tol=1e-10)
    assert 0 < res.dt_taken <= 0.01
    assert res.dt_next > 0
    for spec in (case2, case1, vy, limit_spec):
        s = dyn.random_state(spec, rng)
        for dt in (-1.0, 0.0):
            with pytest.raises(ValueError):
                dyn.flow_step(spec, s, dt=dt)


def _no_step(*args):
    raise AssertionError("a step was attempted")


@pytest.mark.parametrize(
    "bad", [{"dt": math.nan}, {"dt": math.inf}, {"tol": 0.0}, {"tol": -1e-10}, {"tol": math.nan}, {"tol": math.inf}]
)
def test_flow_step_rejects_bad_inputs(case2, limit_spec, case1, vy, bad, monkeypatch):
    # a NaN or infinite dt never fell below _DT_MIN, so the step looped for
    # ever; tol = 0 divided by zero and tol = NaN ended in StepRejected
    monkeypatch.setattr(dyn, "_adaptive_step", _no_step)
    for spec in (case2, case1, vy, limit_spec):
        s = dyn.random_state(spec, np.random.default_rng(22))
        with pytest.raises(ValueError):
            dyn.flow_step(spec, s, **{"dt": 0.01, "tol": 1e-10, **bad})


@pytest.mark.parametrize(
    "bad",
    [
        {"t_end": math.inf},
        {"t_end": math.nan},
        {"t_end": -1.0},
        {"tol": 0.0},
        {"tol": math.nan},
        {"stride": 0},
        {"stride": -1},
        {"stride": 2.0},
    ],
)
def test_integrate_rejects_bad_inputs(case2, limit_spec, bad, monkeypatch):
    # checked before any step: t_end = inf ran for ever, stride = 0 and
    # tol = 0 raised ZeroDivisionError
    monkeypatch.setattr(dyn, "flow_step", _no_step)
    for spec in (case2, limit_spec):
        s = dyn.random_state(spec, np.random.default_rng(22))
        with pytest.raises(ValueError):
            dyn.integrate(spec, s, **{"t_end": 1.0, "tol": 1e-10, "stride": 1, **bad})


def test_flow_step_rejects_at_fixed_point(case2):
    with pytest.raises(StepRejected):
        dyn.flow_step(case2, dyn.PhaseState(0.0, 0.0, 0.5, 0.5), dt=0.1, tol=1e-10)


def test_time_reversal(case2):
    rng = np.random.default_rng(23)
    s0 = dyn.random_state(case2, rng)
    t_end = 10.0
    traj = dyn.integrate(case2, s0, t_end=t_end, tol=1e-11, stride=10**9)
    end = dyn.PhaseState(*traj.states[-1])
    reversed_spec = case2_spec(case2.quartic, mu=case2.mu, B=-case2.B)
    rev = dyn.PhaseState(end.u1, end.u2, -end.p1, -end.p2)
    back = dyn.integrate(reversed_spec, rev, t_end=traj.times[-1], tol=1e-11, stride=10**9)
    final = back.states[-1]
    recovered = np.array([final[0], final[1], -final[2], -final[3]])
    assert np.max(np.abs(recovered - s0.as_array())) < 1e-6


def test_quotient_consistency(case2, canonical_model):
    # the involution image of a trajectory is a trajectory with the same
    # monitors: the flow is sigma-equivariant
    rng = np.random.default_rng(24)
    s = dyn.random_state(case2, rng)
    w = np.array([s.p1, s.p2]) - np.array(gauge_a(case2, (s.u1, s.u2)))
    a_img = gauge_a(case2, (-s.u1, -s.u2))
    s_img = dyn.PhaseState(-s.u1, -s.u2, -w[0] + a_img[0], -w[1] + a_img[1])
    assert dyn.torus_eval(case2, s_img) == pytest.approx(dyn.torus_eval(case2, s), rel=1e-12)
    t1 = dyn.integrate(case2, s, t_end=5.0, tol=1e-10, stride=10**9)
    t2 = dyn.integrate(case2, s_img, t_end=5.0, tol=1e-10, stride=10**9)
    for key in ("H", "F"):
        assert t1.monitors[key][-1] == pytest.approx(t2.monitors[key][-1], rel=1e-9)
    f1 = t1.states[-1]
    w1 = np.array(f1[2:]) - np.array(gauge_a(case2, (f1[0], f1[1])))
    f2 = t2.states[-1]
    w2 = np.array(f2[2:]) - np.array(gauge_a(case2, (f2[0], f2[1])))
    assert np.allclose([-f1[0], -f1[1]], f2[:2], atol=1e-9)
    assert np.allclose(-w1, w2, atol=1e-9)


# --- brackets ---------------------------------------------------------------------
#
# hf_bracket is exact; the finite-difference brackets of tests/richardson.py
# are the oracle it is checked against at the same states: their {H, F}
# vanishes to their own accuracy, and their partials of F along the flow give
# the exact bracket's terms (value and scale) to 1e-8 of the scale.

def _assert_matches_oracle(spec, s, f_of_y):
    value, scale = dyn.hf_bracket(spec, s)
    terms = flow_terms(spec, s, f_of_y)
    assert abs(value - terms.sum()) <= 1e-8 * scale
    assert abs(scale - np.abs(terms).sum()) <= 1e-8 * scale
    return value, scale


def test_canonical_pairs(case2):
    rng = np.random.default_rng(25)
    s = dyn.random_state(case2, rng)
    assert poisson_bracket_fd(lambda st: st.u1, lambda st: st.p1, s) == pytest.approx(
        1.0, abs=1e-10
    )
    assert poisson_bracket_fd(lambda st: st.u1, lambda st: st.p2, s) == pytest.approx(
        0.0, abs=1e-12
    )
    H = lambda st: dyn.torus_eval(case2, st)[0]
    assert poisson_bracket_fd(H, H, s) == 0.0


def test_hf_bracket_vanishes(case2):
    rng = np.random.default_rng(26)
    H = lambda st: dyn.torus_eval(case2, st)[0]
    F = lambda st: dyn.torus_eval(case2, st)[1]
    for _ in range(100):
        s = dyn.random_state(case2, rng)
        value, scale = _assert_matches_oracle(case2, s, torus_f_of_y(case2))
        assert abs(value) <= 1e-13 * scale
        br = poisson_bracket_fd(H, F, s)
        ga = phase_gradient(H, s)
        gb = phase_gradient(F, s)
        fd_scale = float(np.abs(ga[:2]) @ np.abs(gb[2:]) + np.abs(ga[2:]) @ np.abs(gb[:2]))
        assert abs(br) < 1e-6 * max(fd_scale, 1e-12)


_BRACKET_SPECS = {
    "canonical": (lambda: case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=1.0, B=0.5), 1e-13),
    "canonical-4-1": (lambda: case2_spec(from_roots([4, 1, -1, -4], -1.0), mu=1.0, B=0.5), 1e-13),
    # the slice series' Q2' meets 4 Q2'^2 = -P(Q2) only to ~1e-11 here
    "near-quartic": (lambda: case2_spec(from_roots([3, 2.99, -1, -4.99], -1.0), mu=1.0, B=0.5), 1e-10),
    "case1": ("case1", 1e-14),
    "vy": ("vy", 1e-14),
}


@pytest.mark.parametrize("name", list(_BRACKET_SPECS))
def test_hf_bracket_round_off_bounds(name, request):
    # 1000 states, seeds 1000-1004, 200 each
    make, bound = _BRACKET_SPECS[name]
    spec = request.getfixturevalue(make) if isinstance(make, str) else make()
    worst = 0.0
    for seed in range(1000, 1005):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            value, scale = dyn.hf_bracket(spec, dyn.random_state(spec, rng))
            worst = max(worst, abs(value) / scale)
    assert worst <= bound


def test_hf_bracket_cylinder_is_exactly_zero(limit_spec):
    # F = p1 and dp1/dt = 0: every term is an exact zero
    for seed in range(1000, 1005):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            assert dyn.hf_bracket(limit_spec, dyn.random_state(limit_spec, rng)) == (0.0, 0.0)


def test_hf_bracket_detects_a_scaled_varphi(case2, monkeypatch):
    # F' = F + 0.01 varphi does not commute with H; the exact bracket reads
    # it, and the oracle's {H, F'} = -{F', H} agrees
    m = case2.model
    varphi = fields._torus_varphi
    F = lambda st: dyn.torus_eval(case2, st)[1] + 0.01 * varphi(case2, m.q1(st.u1), m.q2(st.u2))
    H = lambda st: dyn.torus_eval(case2, st)[0]
    monkeypatch.setattr(fields, "_torus_varphi", lambda *a: 1.01 * varphi(*a))
    rng = np.random.default_rng(1000)
    for _ in range(20):
        s = dyn.random_state(case2, rng)
        value, scale = dyn.hf_bracket(case2, s)
        assert abs(value) >= 1e-5 * scale
        assert abs(value + poisson_bracket_fd(H, F, s)) <= 1e-8 * scale


def test_hf_bracket_singular_states_raise(case2, limit_spec, vy):
    # the fixed point Q1 = Q2 = beta2 and its neighbourhood, a cylinder point
    # where lam2 rounds to 0, a Coulomb centre: library errors, never a
    # ZeroDivisionError or a nan
    lm = limit_spec.limit
    center = np.array([math.sqrt(1 - vy.vy_b / vy.vy_a), 0.0, math.sqrt(vy.vy_b / vy.vy_a)])
    cases = [
        (case2, dyn.PhaseState(0.0, 0.0, 0.1, 0.1), FixedPointSingularity),
        (case2, dyn.PhaseState(0.0, 0.0, 0.0, 0.0), FixedPointSingularity),
        (case2, dyn.PhaseState(1e-12, 0.0, 0.3, 0.1), DegeneratePoint),
        (limit_spec, dyn.PhaseState(0.0, lm.delta + 400.0, 0.3, 0.2), DegeneratePoint),
        (vy, dyn.E3State(M=np.array([0.1, 0.2, 0.3]), x=center), CenterSingularity),
    ]
    with np.errstate(all="raise"):
        for spec, s, err in cases:
            with pytest.raises(err) as info:
                dyn.hf_bracket(spec, s)
            assert isinstance(info.value, MonopoleLabError)


# --- e(3)* systems ----------------------------------------------------------------

def test_clebsch_eval_special_cases(case1):
    s = dyn.E3State(M=np.zeros(3), x=np.array([0.6, 0.0, 0.8]))
    H, F = dyn.clebsch_eval(case1, s)
    a1, a2, a3 = case1.alpha
    assert H == pytest.approx(-case1.mu * (a1 * 0.36 + a3 * 0.64), rel=1e-14)
    # isotropic constants make both H and F functions of the Casimirs
    from monopole_lab.fields import case1_spec

    iso = case1_spec((2.0 + 1e-9, 2.0, 2.0 - 1e-9), mu=1.0, B=0.0)
    rng = np.random.default_rng(27)
    s = dyn.random_state(iso, rng)
    H, F = dyn.clebsch_eval(iso, s)
    assert F == pytest.approx(2.0 * float(s.M @ s.M) + 4.0 * iso.mu * float(s.x @ s.x), rel=1e-6)


def test_lie_poisson_structure_constants(case1):
    rng = np.random.default_rng(28)
    s = dyn.random_state(case1, rng)
    got = lie_poisson_bracket(lambda st: st.M[0], lambda st: st.M[1], s)
    assert got == pytest.approx(float(s.M[2]), abs=1e-10)
    got = lie_poisson_bracket(lambda st: st.M[0], lambda st: st.x[1], s)
    assert got == pytest.approx(float(s.x[2]), abs=1e-10)
    got = lie_poisson_bracket(lambda st: st.x[0], lambda st: st.x[1], s)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_casimirs_commute(case1):
    rng = np.random.default_rng(29)
    C1 = lambda st: float(st.x @ st.x)
    C2 = lambda st: float(st.M @ st.x)
    H = lambda st: dyn.clebsch_eval(case1, st)[0]
    F = lambda st: dyn.clebsch_eval(case1, st)[1]
    for _ in range(20):
        s = dyn.random_state(case1, rng)
        assert abs(lie_poisson_bracket(C1, H, s)) < 1e-10
        assert abs(lie_poisson_bracket(C2, F, s)) < 1e-10


def test_clebsch_bracket_vanishes(case1):
    rng = np.random.default_rng(30)
    H = lambda st: dyn.clebsch_eval(case1, st)[0]
    F = lambda st: dyn.clebsch_eval(case1, st)[1]
    for _ in range(100):
        s = dyn.random_state(case1, rng)
        value, scale = _assert_matches_oracle(case1, s, e3_f_of_y(case1, dyn.clebsch_eval))
        assert abs(value) <= 1e-14 * scale
        assert abs(lie_poisson_bracket(H, F, s)) < 1e-10 * max(
            1.0, float(s.M @ s.M)
        )


def test_e3_flow_free_case(case1):
    from monopole_lab.fields import case1_spec

    free = case1_spec(case1.alpha, mu=0.0, B=0.5)
    rng = np.random.default_rng(31)
    s = dyn.random_state(free, rng)
    traj = dyn.integrate(free, s, t_end=50.0, tol=1e-11, stride=50)
    msq = np.array([st[:3] @ st[:3] for st in traj.states])
    assert np.max(np.abs(msq - msq[0])) / msq[0] < 1e-9


def test_e3_flow_casimirs_and_conservation(case1):
    rng = np.random.default_rng(32)
    s = dyn.random_state(case1, rng)
    traj = dyn.integrate(case1, s, t_end=100.0, tol=1e-10, stride=50)
    assert np.max(np.abs(traj.monitors["C1"] - 1.0)) < 1e-10
    assert np.max(np.abs(traj.monitors["C2"] - traj.monitors["C2"][0])) < 1e-8
    for key in ("H", "F"):
        m = traj.monitors[key]
        assert np.max(np.abs(m - m[0])) / max(1.0, abs(m[0])) < 1e-7


# --- VY two-centre system ----------------------------------------------------------

def test_vy_eval_basic(vy):
    s = dyn.E3State(M=np.array([0.3, -0.2, 0.5]), x=np.array([0.0, 1.0, 0.0]))
    from monopole_lab.fields import vy_spec

    free = vy_spec(2.0, 1.0, mu=0.0)
    H, _ = dyn.vy_eval(free, s)
    assert H == pytest.approx(0.5 * float(s.M @ s.M), rel=1e-14)


def test_vy_r_positivity_scan(vy):
    # R vanishes exactly at the two centers q = (+-sqrt(1-B/A), 0, sqrt(B/A))
    va, vb = vy.vy_a, vy.vy_b
    centers = [
        np.array([s * math.sqrt(1 - vb / va), 0.0, math.sqrt(vb / va)]) for s in (1, -1)
    ]
    rng = np.random.default_rng(33)
    for _ in range(2000):
        q = rng.normal(0, 1, 3)
        q /= np.linalg.norm(q)
        R = dyn._vy_r(vy, q, np.linalg.norm(q))
        assert R > -1e-12
        if min(np.linalg.norm(q - c) for c in centers) > 0.3:
            assert R > 0.01
    for c in centers:
        assert abs(dyn._vy_r(vy, c, np.linalg.norm(c))) < 1e-14


def test_vy_center_singularity(vy):
    va, vb = vy.vy_a, vy.vy_b
    center = np.array([math.sqrt(1 - vb / va), 0.0, math.sqrt(vb / va)])
    with pytest.raises(CenterSingularity):
        dyn.vy_eval(vy, dyn.E3State(M=np.zeros(3), x=center))


def test_vy_bracket_vanishes(vy):
    rng = np.random.default_rng(34)
    H = lambda st: dyn.vy_eval(vy, st)[0]
    F = lambda st: dyn.vy_eval(vy, st)[1]
    count = 0
    while count < 100:
        s = dyn.random_state(vy, rng)
        if dyn._vy_r(vy, s.x, np.linalg.norm(s.x)) < 1e-2:
            continue
        count += 1
        value, scale = _assert_matches_oracle(vy, s, e3_f_of_y(vy, dyn.vy_eval))
        assert abs(value) <= 1e-14 * scale
        br = lie_poisson_bracket(H, F, s)
        gam, gax = e3_gradient(H, s)
        gbm, gbx = e3_gradient(F, s)
        scale = (
            np.linalg.norm(gam) * np.linalg.norm(gbm)
            + np.linalg.norm(gam) * np.linalg.norm(gbx)
            + np.linalg.norm(gax) * np.linalg.norm(gbm)
        )
        assert abs(br) < 1e-8 * max(scale, 1.0)


def test_vy_flow_conservation(vy):
    rng = np.random.default_rng(2)  # orbit stays clear of the centers
    s = dyn.random_state(vy, rng)
    traj = dyn.integrate(vy, s, t_end=50.0, tol=1e-10, stride=20)
    for key in ("H", "F"):
        m = traj.monitors[key]
        assert np.max(np.abs(m - m[0])) / max(1.0, abs(m[0])) < 1e-7
    assert np.max(np.abs(traj.monitors["C1"] - 1.0)) < 1e-12


# --- cylinder limit ------------------------------------------------------------------

def test_limit_gauge_matches_quadrature(limit_spec):
    from scipy.integrate import quad

    lm = limit_spec.limit
    for u2 in (-3.0, 0.5, 2.0, 6.0):
        closed = dyn.limit_gauge_a1(limit_spec, u2)
        oracle = quad(
            lambda xi: limit_spec.B * (lm.beta1**2 - float(limit_q2(lm, xi)) ** 2) / lm.c,
            -60.0,
            u2,
            epsabs=1e-13,
            limit=400,
        )[0]
        assert closed == pytest.approx(oracle, abs=1e-12)


def test_limit_flow_p1_exact_and_h_conserved(limit_spec):
    rng = np.random.default_rng(35)
    s = dyn.random_state(limit_spec, rng)
    state = s
    dt = 1e-2
    for _ in range(10_000):
        res = dyn.flow_step(limit_spec, state, dt, tol=1e-9)
        state = res.state
        dt = res.dt_next
        assert state.p1 == s.p1  # bitwise: the coordinate is cyclic
    traj = dyn.integrate(limit_spec, s, t_end=50.0, tol=1e-10, stride=50)
    H = traj.monitors["H"]
    assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-8
    assert np.max(np.abs(traj.monitors["F"] - s.p1)) == 0.0


def test_random_cylinder_states_stay_off_the_plateau(limit_spec):
    # u2 is drawn within delta +- min(2, 12 / sqrt(c)), so |s| <= 6.  The
    # window +-2 put every (40, -1, -79) state where Q2 has rounded to beta1
    # (StepRejected or DegeneratePoint), and (10, -1, -19) seed 1 drifted 1e-3
    for roots in [(40.0, -1.0, -79.0), (10.0, -1.0, -19.0)]:
        spec = case2_limit_spec(LimitModel(*roots), mu=1.0, B=0.6)
        for seed in range(4):
            s = dyn.random_state(spec, np.random.default_rng(seed))
            assert math.sqrt(spec.limit.c) * abs(s.u2 - spec.limit.delta) / 2.0 <= 6.0
            assert dyn.integrate(spec, s, t_end=5.0, tol=1e-10).max_drift("H") <= 1e-9
    # sqrt(c) <= 6 keeps the window +-2: the (2, -1, -3) states are those drawn before
    want = [
        ("0x1.002332afaea2fp+2", "-0x1.203632168103cp-1", "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4"),
        ("0x1.9ba1a1c011fe0p+1", "0x1.14742500dcb0cp+1", "0x1.525e18ce5fc0ap-2", "-0x1.4d9bb65b49607p+0"),
        ("0x1.a4cd4aeec5e3ap+0", "-0x1.cad99d836fed7p-2", "-0x1.a6fa212826f90p-2", "-0x1.388200d1582ddp+1"),
        ("0x1.138857c684f2bp-1", "-0x1.63bf39b12853cp-1", "0x1.ac221aa4baeafp-2", "-0x1.22b2b2a3f6eacp-1"),
    ]
    for seed, bits in enumerate(want):
        s = dyn.random_state(limit_spec, np.random.default_rng(seed))
        assert tuple(v.hex() for v in (s.u1, s.u2, s.p1, s.p2)) == bits


def test_trajectory_contract(case2):
    rng = np.random.default_rng(36)
    s = dyn.random_state(case2, rng)
    traj = dyn.integrate(case2, s, t_end=3.0, tol=1e-9, stride=3)
    assert np.all(np.diff(traj.times) > 0.0)
    for series in traj.monitors.values():
        assert len(series) == len(traj.times) == len(traj.states)


def test_limit_h_eval_structure(limit_spec):
    lm = limit_spec.limit
    s = dyn.PhaseState(u1=0.3, u2=1.1, p1=0.4, p2=-0.2)
    x2 = float(limit_q2(lm, s.u2))
    lam2 = lm.beta1**2 - x2**2
    a1 = dyn.limit_gauge_a1(limit_spec, s.u2)
    expected = (0.25 * lm.c * (s.p1 - a1) ** 2 + s.p2**2) / lam2 + limit_spec.mu / (
        lm.beta1 + x2
    )
    assert dyn.limit_h_eval(limit_spec, s) == pytest.approx(expected, rel=1e-14)


def test_limit_h_eval_degenerate_far_out(limit_spec):
    # lam2 = beta1^2 - Q2^2 rounds to 0 once Q2 rounds to beta1
    lm = limit_spec.limit
    far = lambda d: dyn.PhaseState(u1=0.0, u2=lm.delta + d, p1=0.3, p2=0.2)
    assert math.isfinite(dyn.limit_h_eval(limit_spec, far(20.0)))
    with pytest.raises(DegeneratePoint):
        dyn.limit_h_eval(limit_spec, far(30.0))


# --- integrator core against the elementwise numpy form ------------------------------
#
# The reference is the numpy form of the DOP853 core and of the e(3)* right-hand
# sides (np.cross).  The float core takes every sum and product in the same
# order, so the two agree bit for bit; the reference keeps the old forced
# accept of a failing step once dt < 4 dt_min, which the core no longer has.

_DOP_C = tuple(dop853_coefficients.C[:12].tolist())


def _fold(weights, k):
    """sum_j w_j k_j over the nonzero weights {j: w_j}, added left to right."""
    return reduce(add, (w * k[j - 1] for j, w in weights.items()))


def _ref_dop853_attempt(rhs, t, y, dt):
    k = [rhs(t, y)]
    for i in range(1, 12):
        k.append(rhs(t + _DOP_C[i] * dt, y + dt * _fold(dyn._DOP_A[i - 1], k)))
    return y + dt * _fold(dyn._DOP_B, k), dt * _fold(dyn._DOP_E5, k), dt * _fold(dyn._DOP_E3, k)


def _ref_norm(y, y_new, e5, e3, tol):
    # summed left to right: np.sum regroups pairwise from 8 terms on, and the
    # torus flow has 8 components
    scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
    sq5, sq3 = reduce(add, ((e5 / scale) ** 2).tolist()), reduce(add, ((e3 / scale) ** 2).tolist())
    den = math.sqrt((sq5 + 0.01 * sq3) * len(y))
    if not math.isfinite(den):
        return math.nan
    return sq5 / den if den else 0.0


def _ref_adaptive_step(rhs, t, y, dt, tol, dt_min=1e-13):
    dt = float(dt)
    while True:
        if dt < dt_min:
            raise StepRejected(f"step size underflow at t = {t}")
        try:
            y_new, e5, e3 = _ref_dop853_attempt(rhs, t, y, dt)
        except FixedPointSingularity:
            dt *= 0.25
            continue
        norm = _ref_norm(y, y_new, e5, e3, tol)
        if not math.isfinite(norm):
            dt *= 0.2
            continue
        if norm <= 1.0 or dt < 4.0 * dt_min:
            factor = 0.9 * (norm + 1e-300) ** -0.125
            return y_new, dt, dt * min(5.0, max(0.2, factor))
        dt *= max(0.2, 0.9 * norm**-0.125)


def _ref_e3_rhs(spec):
    if spec.family == Family.CASE_I:
        alpha = np.array(spec.alpha)
        mu = spec.mu

        def rhs(_t, y):
            M, x = y[:3], y[3:]
            dM = -2.0 * mu * np.cross(alpha * x, x)
            dx = 2.0 * np.cross(M, x)
            return np.concatenate([dM, dx])

        return rhs
    va, vb, mu = spec.vy_a, spec.vy_b, spec.mu
    sab = math.sqrt(va * vb)

    def rhs(_t, y):
        M, q = y[:3], y[3:]
        qn = float(np.linalg.norm(q))
        R = dyn._vy_r(spec, q, qn)
        if R < 1e-12 * max(1.0, qn**2):
            raise CenterSingularity(f"orbit reached a Coulomb center: R = {R:.3e}")
        gradR = np.array([2.0 * vb * q[0], 2.0 * va * q[1], 2.0 * (va + vb) * q[2]])
        gradR -= 2.0 * sab * (q[2] * q / qn + qn * np.array([0.0, 0.0, 1.0]))
        gradH = -mu * (q / qn) / math.sqrt(R) + 0.5 * mu * qn * R**-1.5 * gradR
        return np.concatenate([np.cross(gradH, q), np.cross(M, q)])

    return rhs


def _ref_limit_q2(lm, u2):
    u2 = np.asarray(u2, dtype=float)
    sqc = math.sqrt(lm.c)
    sqD = math.sqrt(lm.D)
    with np.errstate(over="ignore"):
        coshterm = np.cosh(0.5 * sqc * (u2 - lm.delta))
        out = lm.beta1 - 4.0 * lm.c / (2.0 * sqD * coshterm + 2.0 * lm.b)
    return out if out.shape else float(out)


def _ref_limit_q2_deriv(lm, u2):
    u2 = np.asarray(u2, dtype=float)
    sqc = math.sqrt(lm.c)
    sqD = math.sqrt(lm.D)
    s = 0.5 * sqc * (u2 - lm.delta)
    with np.errstate(over="ignore", invalid="ignore"):
        den = 2.0 * sqD * np.cosh(s) + 2.0 * lm.b
        out = 4.0 * lm.c * sqD * sqc * np.sinh(s) / den**2
        out = np.where(np.isfinite(den) & np.isfinite(out), out, 0.0)
    return out if out.shape else float(out)


def _ref_limit_gauge_a1(spec, u2):
    lm = spec.limit
    a = math.sqrt(lm.D)
    b, c, B = lm.b, lm.c, spec.B
    w = math.sqrt((b - a) / (b + a))
    sqc = math.sqrt(c)

    def j1(sv):
        return np.arctanh(w * np.tanh(sv / 2.0)) / sqc

    def j2(sv):
        sech = 1.0 / np.cosh(sv)
        core = a * np.tanh(sv) / (a + b * sech)
        return (b * j1(sv) - core) / (4.0 * c)

    s = 0.5 * sqc * (np.asarray(u2, dtype=float) - lm.delta)
    j1_inf = -math.atanh(w) / sqc
    j2_inf = (b * j1_inf + 1.0) / (4.0 * c)
    with np.errstate(over="ignore"):
        e1 = (2.0 / sqc) * 2.0 * c * (j1(s) - j1_inf)
        e2 = (2.0 / sqc) * 4.0 * c * c * (j2(s) - j2_inf)
    out = (B / c) * (2.0 * lm.beta1 * e1 - e2)
    return out if np.asarray(out).shape else float(out)


def _ref_limit_rhs(spec):
    lm = spec.limit
    c, mu, B = lm.c, spec.mu, spec.B
    b1 = lm.beta1

    def rhs(_t, y):
        _u1, u2, p1, p2 = y
        x2 = _ref_limit_q2(lm, u2)
        d2 = _ref_limit_q2_deriv(lm, u2)
        lam2 = b1 * b1 - x2 * x2
        a1 = _ref_limit_gauge_a1(spec, u2)
        da1 = B * lam2 / c
        dlam2 = -2.0 * x2 * d2
        num = 0.25 * c * (p1 - a1) ** 2 + p2 * p2
        return np.array(
            [
                0.5 * c * (p1 - a1) / lam2,
                2.0 * p2 / lam2,
                0.0,
                0.5 * c * (p1 - a1) * da1 / lam2 + num * dlam2 / lam2**2 + mu * d2 / (b1 + x2) ** 2,
            ]
        )

    return rhs


def _core_case(spec, state):
    """(reference rhs(t, y), float rhs(y), integration variables) of a family."""
    if spec.family == Family.CASE_II:
        a1, a2 = gauge_a(spec, (state.u1, state.u2))
        new = dyn._torus_rhs(spec)
        y = _torus_y(spec, state.u1, state.u2, state.p1 - a1, state.p2 - a2)
    elif spec.family == Family.CASE_II_LIMIT:
        y = (state.u1, state.u2, state.p1, state.p2)
        return _ref_limit_rhs(spec), dyn._limit_rhs(spec), y
    else:
        y = tuple(state.as_array().tolist())
        return _ref_e3_rhs(spec), dyn._e3_rhs(spec), y
    # the torus right-hand side was already float arithmetic
    return (lambda _t, v: np.array(new(tuple(v)))), new, y


def _compensated_sum(values, start=0):
    """Neumaier summation, as the builtin sum of floats does from Python 3.12 on."""
    total, comp = float(start), 0.0
    for v in values:
        s = total + v
        comp += (total - s) + v if abs(total) >= abs(v) else (v - s) + total
        total = s
    return total + comp


def _outcome(step, *args):
    try:
        y, dt, dt_next = step(*args)
    except (StepRejected, CenterSingularity) as exc:
        return type(exc).__name__
    return np.array(y).tobytes(), dt, dt_next


@pytest.fixture(scope="module")
def case1_odd_mu():
    return fields.case1_spec((5.0, 1.5, -2.0), mu=1.3, B=-0.8)


@pytest.fixture(scope="module")
def vy_odd_mu():
    return fields.vy_spec(1.7, 0.6, mu=0.3)


@pytest.mark.parametrize("family", ["case2", "case1", "vy", "limit_spec", "case1_odd_mu", "vy_odd_mu"])
def test_core_matches_numpy_reference(family, request, monkeypatch):
    # the reference adds left to right on every Python version; so must the
    # core, whatever the builtin sum of floats does.  With mu = 1 a factor
    # -2 mu or mu rounds nothing, so the e(3)* right-hand sides' order of
    # operations is pinned on a mu that does round too
    monkeypatch.setattr(dyn, "sum", _compensated_sum, raising=False)
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(37)
    retried = 0
    for _ in range(12):
        ref, new, y = _core_case(spec, dyn.random_state(spec, rng))
        for dt in (1e-3, 0.05, 0.4, 2.5):
            for tol in (1e-10, 1e-6):
                calls = []
                counted = lambda v: calls.append(v == y) or new(v)
                # far out on the cylinder numpy scalars divide by lam2 = 0
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    want = _outcome(_ref_adaptive_step, ref, 0.0, np.array(y), dt, tol)
                assert _outcome(dyn._adaptive_step, counted, y, dt, tol) == want
                assert calls.count(True) == 1  # k1, once for all attempts
                retried += len(calls) > 12  # k1 and one attempt's 11 stages
        # the right-hand sides themselves, bitwise
        assert np.array(new(y)).tobytes() == ref(0.0, np.array(y)).tobytes()
    assert retried > 0


def test_stage_sums_are_left_folds(monkeypatch):
    # stages of +-1e16 and O(1): a compensated sum keeps the O(1) parts the
    # left fold of the numpy form rounds away
    monkeypatch.setattr(dyn, "sum", _compensated_sum, raising=False)
    ks = [1e16, 1.0, -1e16, 3.0, -1e16, 1e16, 1.0, -1e16, 3.0, 1e16, -1e16, 1.0]
    new_k, ref_k = iter(ks[1:]), iter(ks)
    got = dyn._dop853_attempt(lambda _y: (next(new_k),), (0.5,), (ks[0],), 1.0)
    ref = lambda _t, _y: np.array([next(ref_k)])
    want = _ref_dop853_attempt(ref, 0.0, np.array([0.5]), 1.0)
    for g, w in zip(got, want):
        assert np.array(g).tobytes() == w.tobytes()
    assert got[0][0] != 0.5 + _compensated_sum(b * ks[j - 1] for j, b in dyn._DOP_B.items())


def test_dop853_tableau():
    # the literals are scipy's, bit for bit, and satisfy the conditions a
    # mistyped digit would break: each row of A sums to its node, the weights
    # integrate c^(k-1) exactly to order 8, and both error weights sum to 0
    dense = lambda weights, n: [weights.get(j, 0.0) for j in range(1, n + 1)]
    rows = [dense(row, 12) for row in dyn._DOP_A]
    assert np.array(rows).tobytes() == dop853_coefficients.A[1:12, :12].tobytes()
    assert np.array(dense(dyn._DOP_B, 12)).tobytes() == dop853_coefficients.B.tobytes()
    assert np.array(dense(dyn._DOP_E5, 13)).tobytes() == dop853_coefficients.E5.tobytes()
    assert np.array(dense(dyn._DOP_E3, 13)).tobytes() == dop853_coefficients.E3.tobytes()
    c = np.array(_DOP_C)
    for i, row in enumerate(dyn._DOP_A, start=1):
        assert abs(math.fsum(row.values()) - c[i]) <= 1e-14, i
    b = np.array(dense(dyn._DOP_B, 12))
    for k in range(1, 9):
        assert abs(math.fsum(b * c ** (k - 1)) - 1.0 / k) <= 1e-14, k
    assert abs(math.fsum(dyn._DOP_E5.values())) <= 1e-14
    assert abs(math.fsum(dyn._DOP_E3.values())) <= 1e-14


def test_dop853_is_eighth_order():
    # y' = -y to t = 4 in fixed steps of 1 and 1/2: halving the step divides
    # the error by about 2^8
    rhs = lambda y: (-y[0],)

    def error(dt):
        y = (1.0,)
        for _ in range(round(4.0 / dt)):
            y = dyn._dop853_attempt(rhs, y, rhs(y), dt)[0]
        return abs(y[0] - math.exp(-4.0))

    assert error(1.0) >= 2.0**7 * error(0.5) > 0.0


def test_core_lets_arithmetic_errors_through():
    # only FixedPointSingularity and a non-finite error norm are retried
    with pytest.raises(ZeroDivisionError):
        dyn._adaptive_step(lambda y: (y[0] / (y[0] - 1.0),), (1.0,), 0.1, 1e-10)


def test_limit_rhs_is_non_finite_on_the_plateau(limit_spec):
    # far out Q2 = beta1 in floats, so lam2 = 0: the right-hand side gives
    # numpy's non-finite values instead of raising, and the step retries
    lm = limit_spec.limit
    y = (0.0, lm.delta + 400.0, 0.3, 0.2)
    assert limit_q2(lm, y[1]) == lm.beta1
    assert not all(map(math.isfinite, dyn._limit_rhs(limit_spec)(y)))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(_ref_limit_rhs(limit_spec)(0.0, np.array(y))))


def test_core_shrinks_past_a_singular_stage():
    # every stage beyond y = 0.5 meets a fixed point: the step shrinks by 4x
    # until none does, exactly as in the reference
    def new(y):
        if y[0] > 0.5:
            raise FixedPointSingularity("stage beyond 0.5")
        return (1.0 + y[0] * y[0],)

    ref = lambda _t, v: np.array(new(tuple(v)))
    want = _outcome(_ref_adaptive_step, ref, 0.0, np.array([0.4]), 1.0, 1e-10)
    got = _outcome(dyn._adaptive_step, new, (0.4,), 1.0, 1e-10)
    assert got == want
    assert got[1] <= 0.25


def test_step_above_tolerance_is_raised_not_kept():
    # y' = -C y with C dt >> 1 for every dt >= dt_min: the stages flip sign
    # and grow, and the error norm stays far above 1 however small the step
    C = 1e20
    ref = lambda _t, v: -C * v
    y0 = np.array([1.0])
    y5, dt, _ = _ref_adaptive_step(ref, 0.0, y0, 1e-3, 1e-10)
    assert dt < 4e-13
    assert _ref_norm(y0, *_ref_dop853_attempt(ref, 0.0, y0, dt), 1e-10) > 1.0
    with pytest.raises(StepRejected):
        dyn._adaptive_step(lambda v: (-C * v[0],), (1.0,), 1e-3, 1e-10)


@pytest.mark.parametrize("roots", [None, (1.3, -0.21, -2.39)])
def test_limit_slice_matches_separate_formulas(limit_spec, roots):
    # Q2, Q2' and A1 share one s and one cosh(s) now; each is bit for bit
    # the closed form it was evaluated by on its own, for arrays and scalars
    # (on the second model, regrouping a product of constants moves bits)
    from monopole_lab.elliptic import LimitModel, _limit_slice, limit_q2_deriv
    from monopole_lab.fields import case2_limit_spec

    if roots is not None:
        limit_spec = case2_limit_spec(LimitModel(*roots), mu=0.8, B=-0.45)
    lm = limit_spec.limit
    u = np.concatenate([np.random.default_rng(38).uniform(-40.0, 40.0, 400), [lm.delta, 400.0, -900.0]])
    pairs = [
        (limit_q2, _ref_limit_q2),
        (limit_q2_deriv, _ref_limit_q2_deriv),
        (lambda _lm, v: dyn.limit_gauge_a1(limit_spec, v), lambda _lm, v: _ref_limit_gauge_a1(limit_spec, v)),
    ]
    for got, want in pairs:
        assert got(lm, u).tobytes() == want(lm, u).tobytes()
        assert np.array([got(lm, float(v)) for v in u]).tobytes() == np.array([want(lm, v) for v in u]).tobytes()
    q2, d2, g = _limit_slice(lm, 1.3)
    assert (q2, d2, (limit_spec.B / lm.c) * g) == (
        _ref_limit_q2(lm, 1.3),
        _ref_limit_q2_deriv(lm, 1.3),
        _ref_limit_gauge_a1(limit_spec, 1.3),
    )


def _limit_model_spec(limit_spec, roots):
    from monopole_lab.elliptic import LimitModel
    from monopole_lab.fields import case2_limit_spec

    return limit_spec if roots is None else case2_limit_spec(LimitModel(*roots), mu=0.8, B=-0.45)


@pytest.mark.parametrize("roots", [None, (1.3, -0.21, -2.39), (40.0, -1.0, -79.0)])
def test_limit_slice_float_path_at_its_overflow_tails(limit_spec, roots):
    # a float u runs the slice in Python floats while den^2 and cosh are
    # finite: Python's float ** raises OverflowError past den ~ 1.3e154, where
    # numpy gives inf, and numpy's cosh warns past |s| ~ 710.5 (an error in
    # this suite); on both sides of either edge the floats are the bytes of
    # the numpy reference (large roots overflow den at a smaller s)
    from monopole_lab.elliptic import _limit_slice

    spec = _limit_model_spec(limit_spec, roots)
    lm = spec.limit
    sqc, s_float = math.sqrt(lm.c), lm._slice_constants[5]
    s = [0.5, 300.0, 340.0, 345.0, 350.0, 355.0, 360.0, 500.0, 700.0, 705.0, 709.0, 710.4, 711.0, 900.0]
    s += [math.nextafter(s_float, 0.0), s_float]
    for u in [lm.delta + sign * 2.0 * v / sqc for v in s for sign in (1.0, -1.0)]:
        q2, d2, g = _limit_slice(lm, u)
        assert all(type(v) is float for v in (q2, d2, g))
        want = (_ref_limit_q2(lm, u), _ref_limit_q2_deriv(lm, u), _ref_limit_gauge_a1(spec, u))
        assert np.array([q2, d2, (spec.B / lm.c) * g]).tobytes() == np.array(want).tobytes(), u


@pytest.mark.parametrize("roots, s_values", [((3.0, -1.0, -5.0), (705.0,)), ((40.0, -1.0, -79.0), (700.0, 705.0))])
def test_limit_slice_derivative_is_finite_below_cosh_overflow(roots, s_values):
    # 4c sqrt(D) sqrt(c) sinh(s) overflows a little before den does, where
    # the quotient was inf/inf = nan: Q2' is 0 wherever it overflows
    from monopole_lab.elliptic import LimitModel, _limit_slice, limit_q2_deriv

    lm = LimitModel(*roots)
    sqc = math.sqrt(lm.c)
    us = [lm.delta + sign * 2.0 * s / sqc for s in s_values for sign in (1.0, -1.0)]
    for u in us:
        assert _limit_slice(lm, u)[1] == 0.0, u
    assert np.all(limit_q2_deriv(lm, np.array(us)) == 0.0)
    band = lm.delta + 2.0 * np.arange(650.0, 760.0, 0.25) / sqc
    assert np.all(np.isfinite(limit_q2_deriv(lm, band)))


@pytest.mark.parametrize("roots", [None, (1.3, -0.21, -2.39), (40.0, -1.0, -79.0), (1.0, -0.5, -1.5)])
def test_limit_slice_memo_is_invisible(limit_spec, roots):
    # the slice keeps its result at the last Python float u; interleaved
    # float, 0-d and array calls (repeated, negated, far-out and signed-zero
    # u) return the floats of the memo-free 0-d path.  On (1, -0.5, -1.5)
    # delta = 0, so u = -0.0 gives s = -0.0 and a Q2' of the other sign
    from monopole_lab.elliptic import _limit_slice

    lm = _limit_model_spec(limit_spec, roots).limit
    far = lm.delta + 2.0 * 800.0 / math.sqrt(lm.c)
    us = [0.3, 0.3, -0.3, 0.3, 0.0, -0.0, 0.0, -0.0, -0.0, lm.delta, lm.delta, far, far, -far, 0.3]
    order = us + [us[i] for i in np.random.default_rng(6).permutation(len(us))]
    for n, u in enumerate(order):
        if n % 3 == 0:
            _limit_slice(lm, np.array([u, 1.7]))
        if n % 4 == 1:
            _limit_slice(lm, np.float64(-u))
        got = _limit_slice(lm, u)
        assert np.array(got).tobytes() == np.array(_limit_slice(lm, np.float64(u))).tobytes(), u
    if lm.delta == 0.0:
        assert np.array(_limit_slice(lm, 0.0)).tobytes() != np.array(_limit_slice(lm, -0.0)).tobytes()


# --- one stepper for every family, against the per-family steppers ---------------
#
# The reference is the driver flow_step and integrate replace: one stepper per
# family (torus, e(3)* with its Casimir projection, cylinder), each packing the
# state, taking one core step and unpacking, and an integrate that picks one of
# them per run.  flow_step must give their results byte for byte.

def _ref_flow_step(spec, s, dt, tol=1e-10):
    if spec.family != Family.CASE_II:
        raise ValueError("flow_step drives CASE_II; use e3_flow_step or limit_system_step")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a1, a2 = gauge_a(spec, (s.u1, s.u2))
    y = _torus_y(spec, s.u1, s.u2, s.p1 - a1, s.p2 - a2)
    # the error norm divides by the phase-space dimension 4, not by len(y)
    (u1, u2, w1, w2, *_), taken, dt_next = dyn._adaptive_step(dyn._torus_rhs(spec), y, dt, tol, 4)
    a1, a2 = gauge_a(spec, (u1, u2))
    out = dyn.PhaseState(u1=u1, u2=u2, p1=w1 + a1, p2=w2 + a2)
    return dyn.StepResult(state=out, dt_taken=taken, dt_next=dt_next)


def _ref_project_e3(y, nu):
    M, x = y[:3], y[3:]
    x = x / np.linalg.norm(x)
    M = M + (nu - M @ x) * x
    return np.concatenate([M, x])


def _ref_e3_flow_step(spec, s, dt, tol=1e-10, nu=None):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = tuple(s.as_array().tolist())
    if nu is None:
        nu = float(s.M @ s.x)
    y_new, taken, dt_next = dyn._adaptive_step(dyn._e3_rhs(spec), y, dt, tol)
    y_new = _ref_project_e3(np.array(y_new), nu)
    return dyn.StepResult(state=dyn.E3State(M=y_new[:3], x=y_new[3:]), dt_taken=taken, dt_next=dt_next)


def _ref_limit_system_step(spec, s, dt, tol=1e-10):
    if spec.family != Family.CASE_II_LIMIT:
        raise ValueError("limit_system_step needs a CASE_II_LIMIT spec")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = (s.u1, s.u2, s.p1, s.p2)
    y_new, taken, dt_next = dyn._adaptive_step(dyn._limit_rhs(spec), y, dt, tol)
    return dyn.StepResult(state=dyn.PhaseState(*y_new), dt_taken=taken, dt_next=dt_next)


def _ref_step(spec, s, dt, tol, nu=None):
    if spec.family == Family.CASE_II:
        return _ref_flow_step(spec, s, dt, tol)
    if spec.family == Family.CASE_II_LIMIT:
        return _ref_limit_system_step(spec, s, dt, tol)
    return _ref_e3_flow_step(spec, s, dt, tol, nu=nu)


def _ref_integrate(spec, state0, t_end, tol=1e-10, stride=1):
    if spec.family == Family.CASE_II:
        def monitors(st):
            H, F = dyn.torus_eval(spec, st)
            return {"H": H, "F": F}

        stepper = lambda st, dt: _ref_flow_step(spec, st, dt, tol)
    elif spec.family in (Family.CASE_I, Family.VY):
        ev = dyn.clebsch_eval if spec.family == Family.CASE_I else dyn.vy_eval

        def monitors(st):
            H, F = ev(spec, st)
            return {"H": H, "F": F, "C1": float(st.x @ st.x), "C2": float(st.M @ st.x)}

        nu = float(state0.M @ state0.x)
        stepper = lambda st, dt: _ref_e3_flow_step(spec, st, dt, tol, nu=nu)
    else:
        monitors = lambda st: {"H": dyn.limit_h_eval(spec, st), "F": st.p1}
        stepper = lambda st, dt: _ref_limit_system_step(spec, st, dt, tol)

    times = [0.0]
    states = [state0.as_array()]
    mon = {k: [v] for k, v in monitors(state0).items()}
    extremes = {k: (v[0], v[0]) for k, v in mon.items()}
    t = 0.0
    dt = 1e-3
    state = state0
    n_accepted = 0
    while t < t_end - 1e-14:
        dt = min(dt, t_end - t)
        res = stepper(state, dt)
        state = res.state
        t += res.dt_taken
        dt = res.dt_next
        n_accepted += 1
        vals = monitors(state)
        for k, v in vals.items():
            lo, hi = extremes[k]
            extremes[k] = (min(lo, v), max(hi, v))
        if n_accepted % stride == 0 or t >= t_end - 1e-14:
            times.append(t)
            states.append(state.as_array())
            for k, v in vals.items():
                mon[k].append(v)
    return dyn.Trajectory(
        times=np.array(times),
        states=np.array(states),
        monitors={k: np.array(v) for k, v in mon.items()},
        monitor_extremes=extremes,
    )


def _step_key(res):
    return type(res.state).__name__, res.state.as_array().tobytes(), res.dt_taken, res.dt_next


def _step_outcome(step, *args):
    try:
        return _step_key(step(*args))
    except (StepRejected, CenterSingularity) as exc:
        return type(exc).__name__


FAMILIES = ["case2", "case1", "vy", "limit_spec"]


@pytest.mark.parametrize("family", FAMILIES)
def test_flow_step_matches_per_family_steppers(family, request):
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(41)
    for _ in range(6):
        s = dyn.random_state(spec, rng)
        for dt in (1e-3, 0.1, 1.0):
            for tol in (1e-10, 1e-6):
                want = _step_outcome(_ref_step, spec, s, dt, tol)
                assert _step_outcome(dyn.flow_step, spec, s, dt, tol) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_integrate_matches_reference_driver(family, seed, request):
    spec = request.getfixturevalue(family)
    s0 = dyn.random_state(spec, np.random.default_rng(seed))
    want = _ref_integrate(spec, s0, 5.0, tol=1e-9, stride=3)
    got = dyn.integrate(spec, s0, 5.0, tol=1e-9, stride=3)
    assert len(got.times) > 5
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert list(got.monitors) == list(want.monitors)
    for key, series in want.monitors.items():
        assert got.monitors[key].tobytes() == series.tobytes()
    assert got.monitor_extremes == want.monitor_extremes


@pytest.mark.parametrize("family", ["case1", "vy"])
def test_e3_flow_step_on_a_pinned_leaf(family, request):
    # integrate's e(3)* steps: every one returns to the leaf (M, x) of state0
    spec = request.getfixturevalue(family)
    s0 = dyn.random_state(spec, np.random.default_rng(42))
    nu = float(s0.M @ s0.x)
    got = want = s0
    dt_got = dt_want = 0.05
    for _ in range(120):
        res = dyn.flow_step(spec, got, dt_got, 1e-10, nu=nu)
        ref = _ref_e3_flow_step(spec, want, dt_want, 1e-10, nu=nu)
        assert _step_key(res) == _step_key(ref)
        got, dt_got, want, dt_want = res.state, res.dt_next, ref.state, ref.dt_next
    assert abs(float(got.M @ got.x) - nu) < 1e-14


def test_flow_step_shrinks_past_a_fixed_point(case2, monkeypatch):
    # on the turning line u1 = 0, a step aimed so that its second stage lands
    # on u2 = 0, the fixed point Q1 = Q2 = beta2 where lam = 0.  The carried
    # Q2 runs along its tangent past its maximum beta2 there, and in one stage
    # of each of the next two attempts (dt / 4, dt / 16), so three attempts
    # meet lam < 0
    hits = []
    torus_rhs = dyn._torus_rhs

    def counted(spec):
        rhs = torus_rhs(spec)

        def wrapped(y):
            try:
                return rhs(y)
            except FixedPointSingularity:
                hits.append(y)
                raise

        return wrapped

    monkeypatch.setattr(dyn, "_torus_rhs", counted)
    u2, w2 = 0.1, -1.0
    dt = -u2 / (dyn._A21 * torus_rhs(case2)(_torus_y(case2, 0.0, u2, 0.0, w2))[1])
    a1, a2 = gauge_a(case2, (0.0, u2))
    s = dyn.PhaseState(u1=0.0, u2=u2, p1=a1, p2=w2 + a2)
    want = _step_outcome(_ref_flow_step, case2, s, dt, 1e-10)
    assert len(hits) == 3 and hits[0][:2] == (0.0, 0.0)
    assert all(y[6] > case2.model.beta[1] for y in hits)
    assert _step_outcome(dyn.flow_step, case2, s, dt, 1e-10) == want
    assert len(hits) == 6 and want[2] < dt


def test_flow_step_retries_non_finite_cylinder_stages(limit_spec, monkeypatch):
    # fast enough that large steps carry u2 out onto the plateau, where
    # lam2 = 0 and the right-hand side is non-finite
    bad = []
    limit_rhs = dyn._limit_rhs

    def counted(spec):
        rhs = limit_rhs(spec)

        def wrapped(y):
            out = rhs(y)
            if not all(map(math.isfinite, out)):
                bad.append(y)
            return out

        return wrapped

    monkeypatch.setattr(dyn, "_limit_rhs", counted)
    s = dyn.PhaseState(u1=0.0, u2=limit_spec.limit.delta + 10.0, p1=0.3, p2=0.5)
    want = _step_outcome(_ref_limit_system_step, limit_spec, s, 0.5, 1e-9)
    n_bad = len(bad)
    assert want[0] == "PhaseState"
    assert any(limit_q2(limit_spec.limit, y[1]) == limit_spec.limit.beta1 for y in bad)
    assert _step_outcome(dyn.flow_step, limit_spec, s, 0.5, 1e-9) == want
    assert len(bad) == 2 * n_bad


def test_torus_step_sums_each_slice_point_once(canonical_params, monkeypatch):
    # the flow carries (Q1, Q1', Q2, Q2') in its state, so an attempt sums no
    # slice series.  An accepted step sums 5 recurrences, all in the unpacking's
    # EllipticModel.at of its new point: a value and a derivative of each slice
    # and the gauge's I1.  The monitors and the next step's seeding of the
    # slices read that point again from the model's slot, as the monitors at
    # state0 read the point random_state's gauge evaluated
    spec = case2_spec(canonical_params, mu=1.0, B=0.5)
    s0 = dyn.random_state(spec, np.random.default_rng(8))  # 37 steps, 7 rejected attempts
    m = spec.model
    kind = {id(m.branch1._a): "value", id(m.branch2._a): "value"}
    kind.update({id(m.branch1._na): "deriv", id(m.branch2._na): "deriv", id(m.i1._b): "anti"})
    count = dict.fromkeys(["value", "deriv", "anti", "attempt"], 0)
    clenshaw, attempt = _inversion._clenshaw, dyn._dop853_attempt

    def counted_clenshaw(c, coeffs):
        count[kind[id(coeffs)]] += 1
        return clenshaw(c, coeffs)

    def counted_attempt(*args):
        count["attempt"] += 1
        return attempt(*args)

    monkeypatch.setattr(_inversion, "_clenshaw", counted_clenshaw)
    monkeypatch.setattr(dyn, "_dop853_attempt", counted_attempt)
    traj = dyn.integrate(spec, s0, t_end=3.0, tol=1e-10)
    steps = len(traj.times) - 1
    assert steps > 30 and count["attempt"] > steps
    assert count["value"] == count["deriv"] == 2 * steps
    assert count["anti"] == steps
