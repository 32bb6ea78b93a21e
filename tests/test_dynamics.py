import math

import numpy as np
import pytest

from monopole_lab import dynamics as dyn
from monopole_lab import geometry as geo
from monopole_lab.elliptic import limit_q2
from monopole_lab.errors import CenterSingularity, StepRejected
from monopole_lab.fields import case2_spec, gauge_a
from monopole_lab.polyroots import eval_p


def _state_with_velocity(spec, u1, u2, w1, w2):
    a1, a2 = gauge_a(spec, (u1, u2))
    return dyn.PhaseState(u1=u1, u2=u2, p1=w1 + a1, p2=w2 + a2)


# --- evaluation ---------------------------------------------------------------

def test_h_eval_zero_velocity(case2, canonical_model):
    m = canonical_model
    u1, u2 = 0.4 * m.K1, 0.6 * m.K2
    s = _state_with_velocity(case2, u1, u2, 0.0, 0.0)
    expected = case2.mu / (float(m.q1(u1)) + float(m.q2(u2)))
    assert dyn.h_eval(case2, s) == pytest.approx(expected, rel=1e-14)


def test_f_eval_all_couplings_off(canonical_model, case2):
    free = case2_spec(case2.quartic, mu=0.0, B=0.0)
    s = _state_with_velocity(free, 0.5, 0.9, 0.0, 0.0)
    assert dyn.f_eval(free, s) == 0.0


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
        f_torus = dyn.f_eval(case2, s)
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
        dyn.h_eval(case2, dyn.PhaseState(0.0, 0.0, 0.1, 0.1))


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


def test_flow_step_contract(case2, limit_spec):
    rng = np.random.default_rng(22)
    s = dyn.random_state(case2, rng)
    res = dyn.flow_step(case2, s, dt=0.01, tol=1e-10)
    assert 0 < res.dt_taken <= 0.01
    assert res.dt_next > 0
    with pytest.raises(ValueError):
        dyn.flow_step(case2, s, dt=-1.0)
    s_lim = dyn.random_state(limit_spec, rng)
    for dt in (-1.0, 0.0):
        with pytest.raises(ValueError):
            dyn.limit_system_step(limit_spec, s_lim, dt=dt)


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
    assert dyn.h_eval(case2, s_img) == pytest.approx(dyn.h_eval(case2, s), rel=1e-12)
    assert dyn.f_eval(case2, s_img) == pytest.approx(dyn.f_eval(case2, s), rel=1e-12)
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

def test_canonical_pairs(case2):
    rng = np.random.default_rng(25)
    s = dyn.random_state(case2, rng)
    assert dyn.poisson_bracket_fd(lambda st: st.u1, lambda st: st.p1, s) == pytest.approx(
        1.0, abs=1e-10
    )
    assert dyn.poisson_bracket_fd(lambda st: st.u1, lambda st: st.p2, s) == pytest.approx(
        0.0, abs=1e-12
    )
    H = lambda st: dyn.h_eval(case2, st)
    assert dyn.poisson_bracket_fd(H, H, s) == 0.0


def test_hf_bracket_vanishes(case2):
    rng = np.random.default_rng(26)
    H = lambda st: dyn.h_eval(case2, st)
    F = lambda st: dyn.f_eval(case2, st)
    for _ in range(100):
        s = dyn.random_state(case2, rng)
        br = dyn.poisson_bracket_fd(H, F, s)
        ga = dyn.phase_gradient(H, s)
        gb = dyn.phase_gradient(F, s)
        scale = float(np.abs(ga[:2]) @ np.abs(gb[2:]) + np.abs(ga[2:]) @ np.abs(gb[:2]))
        assert abs(br) < 1e-6 * max(scale, 1e-12)


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
    got = dyn.lie_poisson_bracket(lambda st: st.M[0], lambda st: st.M[1], s)
    assert got == pytest.approx(float(s.M[2]), abs=1e-10)
    got = dyn.lie_poisson_bracket(lambda st: st.M[0], lambda st: st.x[1], s)
    assert got == pytest.approx(float(s.x[2]), abs=1e-10)
    got = dyn.lie_poisson_bracket(lambda st: st.x[0], lambda st: st.x[1], s)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_casimirs_commute(case1):
    rng = np.random.default_rng(29)
    C1 = lambda st: float(st.x @ st.x)
    C2 = lambda st: float(st.M @ st.x)
    H = lambda st: dyn.clebsch_eval(case1, st)[0]
    F = lambda st: dyn.clebsch_eval(case1, st)[1]
    for _ in range(20):
        s = dyn.random_state(case1, rng)
        assert abs(dyn.lie_poisson_bracket(C1, H, s)) < 1e-10
        assert abs(dyn.lie_poisson_bracket(C2, F, s)) < 1e-10


def test_clebsch_bracket_vanishes(case1):
    rng = np.random.default_rng(30)
    H = lambda st: dyn.clebsch_eval(case1, st)[0]
    F = lambda st: dyn.clebsch_eval(case1, st)[1]
    for _ in range(100):
        s = dyn.random_state(case1, rng)
        assert abs(dyn.lie_poisson_bracket(H, F, s)) < 1e-10 * max(
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
        R = dyn._vy_r(vy, q)
        assert R > -1e-12
        if min(np.linalg.norm(q - c) for c in centers) > 0.3:
            assert R > 0.01
    for c in centers:
        assert abs(dyn._vy_r(vy, c)) < 1e-14


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
        if dyn._vy_r(vy, s.x) < 1e-2:
            continue
        count += 1
        br = dyn.lie_poisson_bracket(H, F, s)
        gam, gax = dyn.e3_gradient(H, s)
        gbm, gbx = dyn.e3_gradient(F, s)
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
        res = dyn.limit_system_step(limit_spec, state, dt, tol=1e-9)
        state = res.state
        dt = res.dt_next
        assert state.p1 == s.p1  # bitwise: the coordinate is cyclic
    traj = dyn.integrate(limit_spec, s, t_end=50.0, tol=1e-10, stride=50)
    H = traj.monitors["H"]
    assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-8
    assert np.max(np.abs(traj.monitors["F"] - s.p1)) == 0.0


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
