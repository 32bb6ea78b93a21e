"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are pinned here; nothing is calibrated at run time.
"""

import math

import numpy as np
import pytest
from scipy.special import ellipk

from monopole_lab import dynamics as dyn
from monopole_lab import geometry as geo
from monopole_lab import verify as ver
from monopole_lab.elliptic import LimitModel, build_model, limit_q2
from monopole_lab.fields import case1_spec, case2_spec, case2_limit_spec, vy_spec
from monopole_lab.polyroots import eval_p, eval_p_deriv, from_roots

import richardson as fd

PARAMS = from_roots([3, 2, -1, -4], -1.0)
SPEC2 = case2_spec(PARAMS, mu=1.0, B=0.5)
SPEC1 = case1_spec((3.0, 2.0, 1.0), mu=1.0, B=0.5)
SPECV = vy_spec(2.0, 1.0, mu=1.0)
LIMIT = LimitModel(beta1=2.0, beta3=-1.0, beta4=-3.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_bracket_vanishing():
    """{H, F} = 0 for the three families at 100 seeded random states each:
    exact (hf_bracket, relative to its own terms) and by the finite-difference
    oracle at the same states."""
    worst, worst_fd = {}, {}

    rng = np.random.default_rng(101)
    H = lambda st: dyn.torus_eval(SPEC2, st)[0]
    F = lambda st: dyn.torus_eval(SPEC2, st)[1]
    w = w_fd = 0.0
    for _ in range(100):
        s = dyn.random_state(SPEC2, rng)
        value, scale = dyn.hf_bracket(SPEC2, s)
        w = max(w, abs(value) / scale)
        br = fd.poisson_bracket_fd(H, F, s)
        ga = fd.phase_gradient(H, s)
        gb = fd.phase_gradient(F, s)
        fd_scale = float(np.abs(ga[:2]) @ np.abs(gb[2:]) + np.abs(ga[2:]) @ np.abs(gb[:2]))
        w_fd = max(w_fd, abs(br) / max(fd_scale, 1e-12))
    worst["torus"], worst_fd["torus"] = w, w_fd

    def e3_worst(spec, ev, rng):
        Hc = lambda st: ev(spec, st)[0]
        Fc = lambda st: ev(spec, st)[1]
        w = w_fd = 0.0
        n = 0
        while n < 100:
            s = dyn.random_state(spec, rng)
            if spec is SPECV and dyn._vy_r(spec, s.x, np.linalg.norm(s.x)) < 1e-3:
                continue
            n += 1
            value, scale = dyn.hf_bracket(spec, s)
            w = max(w, abs(value) / scale)
            br = fd.lie_poisson_bracket(Hc, Fc, s)
            gam, gax = fd.e3_gradient(Hc, s)
            gbm, gbx = fd.e3_gradient(Fc, s)
            fd_scale = (
                np.linalg.norm(gam) * np.linalg.norm(gbm)
                + np.linalg.norm(gam) * np.linalg.norm(gbx)
                + np.linalg.norm(gax) * np.linalg.norm(gbm)
            )
            w_fd = max(w_fd, abs(br) / max(fd_scale, 1e-12))
        return w, w_fd

    worst["clebsch"], worst_fd["clebsch"] = e3_worst(SPEC1, dyn.clebsch_eval, np.random.default_rng(102))
    worst["two-centre"], worst_fd["two-centre"] = e3_worst(SPECV, dyn.vy_eval, np.random.default_rng(103))

    bounds = {"torus": 1e-13, "clebsch": 1e-14, "two-centre": 1e-14}
    ok = all(worst[k] <= bounds[k] for k in worst) and all(v < 1e-6 for v in worst_fd.values())
    _report(
        "criterion 1 (bracket vanishing)",
        ok,
        "relative |{H,F}| exact / finite differences: "
        + ", ".join(f"{k} {worst[k]:.2e} / {worst_fd[k]:.2e}" for k in worst),
    )


def test_criterion_02_conservation_under_flow():
    """H and F drift < 1e-7 over t in [0,50] at tol 1e-10; Casimirs < 1e-10."""
    drifts = {}

    # drifts are taken over every accepted step via the monitor extremes
    rng = np.random.default_rng(7)
    s = dyn.random_state(SPEC2, rng)
    tr = dyn.integrate(SPEC2, s, t_end=50.0, tol=1e-10, stride=20)
    for key in ("H", "F"):
        drifts[f"torus {key}"] = tr.max_drift(key) / max(1.0, abs(tr.monitors[key][0]))

    rng = np.random.default_rng(32)
    s = dyn.random_state(SPEC1, rng)
    tr = dyn.integrate(SPEC1, s, t_end=50.0, tol=1e-10, stride=20)
    for key in ("H", "F"):
        drifts[f"clebsch {key}"] = tr.max_drift(key) / max(1.0, abs(tr.monitors[key][0]))
    casimir = max(tr.max_drift("C1"), tr.max_drift("C2"))

    rng = np.random.default_rng(2)  # orbit clear of the Coulomb centers
    s = dyn.random_state(SPECV, rng)
    tr = dyn.integrate(SPECV, s, t_end=50.0, tol=1e-10, stride=20)
    for key in ("H", "F"):
        drifts[f"two-centre {key}"] = tr.max_drift(key) / max(1.0, abs(tr.monitors[key][0]))
    casimir = max(casimir, tr.max_drift("C1"), tr.max_drift("C2"))

    ok = all(v < 1e-7 for v in drifts.values()) and casimir < 1e-10
    _report(
        "criterion 2 (conservation under flow)",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in drifts.items())
        + f", casimir {casimir:.2e}",
    )


def test_criterion_03_elliptic_engine():
    """Defining-ODE residual, periodicity/evenness, and the Legendre value."""
    m = build_model(PARAMS)
    h = 1e-3
    u = np.linspace(0.0137, 4.0 * m.K1, 1000)
    worst = 0.0
    for Q, sign in ((m.q1, 1.0), (m.q2, -1.0)):
        d = (4.0 * (Q(u + h / 2) - Q(u - h / 2)) / h - (Q(u + h) - Q(u - h)) / (2 * h)) / 3.0
        vals = eval_p(PARAMS, Q(u))
        scale = max(1.0, float(np.max(np.abs(vals))))
        worst = max(worst, float(np.max(np.abs(4.0 * d * d - sign * vals))) / scale)

    sweep = np.linspace(-6.0, 6.0, 1001)
    even_err = max(
        float(np.max(np.abs(m.q1(sweep) - m.q1(-sweep)))),
        float(np.max(np.abs(m.q2(sweep) - m.q2(-sweep)))),
    )
    per_err = max(
        float(np.max(np.abs(m.q1(sweep + 2 * m.K1) - m.q1(sweep)))),
        float(np.max(np.abs(m.q2(sweep + 2 * m.K2) - m.q2(sweep)))),
    )

    even = build_model(from_roots([2, 1, -1, -2], -1.0))
    legendre_gap = abs(even.K1 - float(ellipk(0.75)))

    ok = worst < 1e-9 and even_err < 1e-9 and per_err < 1e-9 and legendre_gap < 1e-8
    _report(
        "criterion 3 (elliptic engine)",
        ok,
        f"ODE residual {worst:.2e}, evenness {even_err:.2e}, "
        f"periodicity {per_err:.2e}, K1 - K(sqrt(3)/2) = {legendre_gap:.2e}",
    )


def test_criterion_04_curvature():
    """Conformal-Laplacian curvature matches the closed forms within 1e-6."""
    m = SPEC2.model
    lam2 = lambda a, b: float(geo.torus_lambda(m, a, b))
    rng = np.random.default_rng(104)
    worst2 = 0.0
    for _ in range(200):
        u1 = rng.uniform(0.15, 0.85) * m.K1 + rng.choice([0.0, m.K1])
        u2 = rng.uniform(0.15, 0.85) * m.K2 + rng.choice([0.0, m.K2])
        kc = geo.curvature_closed(SPEC2, (u1, u2))
        kn = geo.curvature_numeric(lam2, (u1, u2), h=1e-3)
        worst2 = max(worst2, abs(kc - kn))

    conf = geo.conformal_case1(SPEC1.alpha)
    lam1 = lambda a, b: float(conf.lam(a, b))
    worst1 = 0.0
    for _ in range(200):
        u1 = rng.uniform(0.15, 0.85) * conf.K1
        u2 = rng.uniform(0.15, 0.85) * conf.K2
        worst1 = max(worst1, abs(geo.curvature_numeric(lam1, (u1, u2), h=1e-3) - 1.0))

    ok = worst2 < 1e-6 and worst1 < 1e-6
    _report(
        "criterion 4 (curvature)",
        ok,
        f"torus family max gap {worst2:.2e}; round sphere |K-1| max {worst1:.2e}",
    )


def test_criterion_05_integrability_conditions():
    """(C1)-(C6) and (C6*) < 1e-6 at 64^2; constant-B correction < 1e-12."""
    details = []
    ok = True
    for name, grid in (
        ("case1", ver.build_case1_grid(SPEC1, 64)),
        ("case2", ver.build_case2_grid(SPEC2, 64)),
    ):
        rep = ver.check_classical(grid)
        c6s = ver.check_quantum_c6star(grid)
        c6_only = grid.phi1.v * grid.h.d1 + grid.phi2.v * grid.h.d2  # the grid's exact jets
        corr = float(np.max(np.abs(ver.c6star_field(grid) - c6_only)))
        ok = ok and rep.max_residual < 1e-6 and c6s < 1e-6 and corr < 1e-12
        details.append(f"{name} max {max(rep.max_residual, c6s):.2e} corr {corr:.2e}")
    _report("criterion 5 (integrability conditions)", ok, "; ".join(details))


def test_criterion_06_duality():
    """Consistency of (C5) vanishes with (C6*) of the h <-> B swapped grid, to 1e-12."""
    gaps = []
    for grid in (ver.build_case1_grid(SPEC1, 64), ver.build_case2_grid(SPEC2, 64)):
        gaps.append(ver.check_duality(grid))
    ok = all(g < 1e-12 for g in gaps)
    _report(
        "criterion 6 (h <-> B duality)",
        ok,
        f"max |consistency - swapped C6*| = {max(gaps):.2e}",
    )


def test_criterion_07_quotient_regularity():
    """Chart coefficient converges to (P'(beta2)/16) beta2 / 2 at the rates.

    The limit constant follows from the local series x = beta2 + (P'/16) u^2
    (the printed value with sqrt(P') in place of P'/4 does not satisfy the
    defining integral and is off by 4/sqrt(P') - see the decisions ledger).
    """
    m = SPEC2.model
    limit = 0.5 * (eval_p_deriv(PARAMS, m.beta[1]) / 16.0) * m.beta[1]
    worst3 = max(
        abs(geo.fixed_point_chart(m, 0, 1e-3 * np.exp(1j * a)).lam - limit) / limit
        for a in (0.0, 0.9, 2.2, 4.0)
    )
    worst4 = max(
        abs(geo.fixed_point_chart(m, 0, 1e-4 * np.exp(1j * a)).lam - limit) / limit
        for a in (0.0, 0.9, 2.2, 4.0)
    )
    ok = worst3 < 1e-2 and worst4 < 1e-3
    _report(
        "criterion 7 (quotient regularity)",
        ok,
        f"limit {limit}, rel err {worst3:.2e} at |w|=1e-3, {worst4:.2e} at |w|=1e-4",
    )


def test_criterion_08_flux_quantization():
    """Areas, quantization and linearity of the flux."""
    res = geo.area_and_flux(geo.NeumannConstants(SPEC1.alpha), 0.5, 256)
    round_ok = (
        abs(res["area"] - 4 * math.pi) < 1e-6 and abs(res["flux_over_2pi"] - 1.0) < 1e-6
    )
    m = SPEC2.model
    a_n = geo.area_and_flux(m, 0.5, 256)["area"]
    a_2n = geo.area_and_flux(m, 0.5, 512)["area"]
    converged = abs(a_n - a_2n) / a_2n < 1e-6
    f = lambda b: geo.area_and_flux(m, b, 128)["flux_over_2pi"]
    linear = abs(f(0.3) + f(0.4) - f(0.7)) < 1e-10
    ok = round_ok and converged and linear
    _report(
        "criterion 8 (flux quantization)",
        ok,
        f"round area {res['area']:.8f}, flux/2pi {res['flux_over_2pi']:.8f}; "
        f"torus area gap {abs(a_n - a_2n):.2e}; linearity ok={linear}",
    )


def test_criterion_09_limit_case():
    """Symmetry of the degenerate slice, metric decay, exact linear integral.

    The decay ratio is checked on beta1^2 - Qt2^2 (the quantity whose decay
    constant is A = 8 beta1 c / sqrt(D)); the leading correction at |ut| = 5
    is (2b + 2c/beta1) e^-10 / sqrt(D) > 1e-4 for every admissible limit
    model, so the 1e-4 target is verified at |ut| = 7 and a 1e-3 box at
    |ut| = 5 (see the decisions ledger).
    """
    lm = LIMIT
    u = np.linspace(-6.0, 8.0, 101)
    sym = float(np.max(np.abs(limit_q2(lm, 2 * lm.delta - u) - limit_q2(lm, u))))

    A = geo.limit_metric_decay_constant(lm)
    dev5 = max(
        abs((lm.beta1**2 - float(geo.limit_tilde_q2(lm, s * 5.0)) ** 2) * math.exp(10.0) / A - 1.0)
        for s in (1.0, -1.0)
    )
    dev7 = max(
        abs((lm.beta1**2 - float(geo.limit_tilde_q2(lm, s * 7.0)) ** 2) * math.exp(14.0) / A - 1.0)
        for s in (1.0, -1.0)
    )

    spec = case2_limit_spec(lm, mu=1.0, B=0.6)
    rng = np.random.default_rng(35)
    s0 = dyn.random_state(spec, rng)
    state = s0
    dt = 1e-2
    exact = True
    for _ in range(2000):
        res = dyn.flow_step(spec, state, dt, tol=1e-9)
        state = res.state
        dt = res.dt_next
        exact = exact and state.p1 == s0.p1

    ok = sym < 1e-12 and dev5 < 1e-3 and dev7 < 1e-4 and exact
    _report(
        "criterion 9 (coalescing-root limit)",
        ok,
        f"symmetry {sym:.2e}, decay dev {dev5:.2e}@5 {dev7:.2e}@7, p1 exact={exact}",
    )


def test_criterion_10_proof_identities():
    """Closed-form ODE and functional-equation residuals < 1e-10."""
    rng = np.random.default_rng(105)
    out = ver.check_ode_identities(
        rng.uniform(-3.0, 3.0, 1000), coeffs=(1.0, 0.0, 1.0), exponents=(-2.0 / 3.0, 2.0, 3.0)
    )
    worst = max(out.values())
    fn_worst = 0.0
    n = 0
    while n < 1000:
        q1, q2 = rng.uniform(0.2, 5.0, 2)
        # coincident pairs are excluded: the bracket shrinks like (q1-q2)^2
        # and its floating-point cancellation would swamp a relative residual
        if abs(q1 - q2) < 0.1:
            continue
        n += 1
        fn_worst = max(fn_worst, ver.check_functional_equation("sqrt", q1, q2, 1.1))
        fn_worst = max(fn_worst, ver.check_functional_equation("quadratic", q1, -q2, 0.9))
    ok = worst < 1e-10 and fn_worst < 1e-10
    _report(
        "criterion 10 (proof-section identities)",
        ok,
        f"ODE residuals max {worst:.2e}; functional equation max {fn_worst:.2e}",
    )


def test_criterion_11_elliptic_coordinates_on_sphere():
    """Unit norm, quadratic-potential identity, and the round trip."""
    c = geo.NeumannConstants(SPEC1.alpha)
    a1, a2, a3 = c.alpha
    rng = np.random.default_rng(106)
    norm_worst = 0.0
    quad_worst = 0.0
    trip_worst = 0.0
    for _ in range(1000):
        q1 = rng.uniform(a2 + 1e-3, a1 - 1e-3)
        q2 = rng.uniform(a3 + 1e-3, a2 - 1e-3)
        x = geo.neumann_to_cartesian(c, q1, q2, tuple(rng.choice([-1, 1], 3)))
        norm_worst = max(norm_worst, abs(float(x @ x) - 1.0))
        quad = (a2 + a3) * x[0] ** 2 + (a1 + a3) * x[1] ** 2 + (a1 + a2) * x[2] ** 2
        quad_worst = max(quad_worst, abs(q1 + q2 - quad))
        b1, b2 = geo.cartesian_to_neumann(c, x)
        trip_worst = max(trip_worst, abs(b1 - q1) + abs(b2 - q2))
    ok = norm_worst < 1e-12 and quad_worst < 1e-12 and trip_worst < 1e-10
    _report(
        "criterion 11 (sphere elliptic coordinates)",
        ok,
        f"|x|^2-1 max {norm_worst:.2e}, quadratic identity {quad_worst:.2e}, "
        f"round trip {trip_worst:.2e}",
    )
