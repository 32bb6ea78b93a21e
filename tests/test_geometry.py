import json
import math
import warnings

import numpy as np
import pytest

from monopole_lab import geometry as geo
from monopole_lab.cli import main
from monopole_lab.errors import DegeneratePoint
from monopole_lab.polyroots import eval_p, eval_p_deriv, from_roots
from monopole_lab.elliptic import LimitModel, build_model
from second_order_jets import Jet2, curvature

ALPHA = (3.0, 2.0, 1.0)


# --- separable form ----------------------------------------------------------

def test_stackel_metric_case1_positive():
    f = lambda q: 4.0 * (ALPHA[0] - q) * (ALPHA[1] - q) * (ALPHA[2] - q)
    g11, g22 = geo.stackel_metric(f, 2.5, 1.5)
    assert g11 > 0.0 and g22 > 0.0


def test_stackel_metric_degenerate_and_signature():
    f = lambda q: 4.0 * (ALPHA[0] - q) * (ALPHA[1] - q) * (ALPHA[2] - q)
    with pytest.raises(DegeneratePoint, match=r"^q1 = q2 = 1\.5$"):
        geo.stackel_metric(f, 1.5, 1.5)
    with pytest.raises(DegeneratePoint, match=r"^metric not positive at \(2\.8, 2\.2\): g11 = "):
        geo.stackel_metric(f, 2.8, 2.2)  # f positive at both: same-sign failure


def test_stackel_equals_torus_through_jacobian(canonical_model):
    # with q = x^2 the separable function is f(q) = q P(sqrt(q)); pulling the
    # separable components back through u -> x -> q must reproduce lam
    m = canonical_model
    params = m.params
    f = lambda q: q * eval_p(params, np.sqrt(q))
    rng = np.random.default_rng(8)
    for _ in range(100):
        u1 = rng.uniform(0.05, 0.95) * m.K1
        u2 = rng.uniform(0.05, 0.95) * m.K2
        x1, x2 = float(m.q1(u1)), float(m.q2(u2))
        if x2 <= 0.05:  # q2 = x2^2 chart needs the positive part of the slice
            continue
        g11, g22 = geo.stackel_metric(f, x1**2, x2**2)
        lam = float(geo.torus_lambda(m, u1, u2))
        # dq1/du1 = 2 x1 dx1/du1 = x1 sqrt(P(x1))
        dq1_du1 = x1 * math.sqrt(eval_p(params, x1))
        dq2_du2 = x2 * math.sqrt(-eval_p(params, x2))
        assert g11 * dq1_du1**2 == pytest.approx(lam, rel=1e-9)
        assert g22 * dq2_du2**2 == pytest.approx(lam, rel=1e-9)


# --- torus metric -------------------------------------------------------------

def test_torus_lambda_fixed_points_and_endpoint(canonical_model):
    m = canonical_model
    for c in [(0.0, 0.0), (2 * m.K1, 0.0), (0.0, 2 * m.K2), (2 * m.K1, 2 * m.K2)]:
        assert geo.torus_lambda(m, *c) == 0.0
    assert geo.torus_lambda(m, m.K1, m.K2) == pytest.approx(8.0, rel=1e-12)


def test_degeneracy_locus_scan(canonical_model):
    m = canonical_model
    n = 512
    u1 = np.linspace(0.0, 4 * m.K1, n, endpoint=False)
    u2 = np.linspace(0.0, 4 * m.K2, n, endpoint=False)
    lam = m.q1(u1)[:, None] ** 2 - m.q2(u2)[None, :] ** 2
    assert lam.min() >= 0.0
    centers = [(0.0, 0.0), (2 * m.K1, 0.0), (0.0, 2 * m.K2), (2 * m.K1, 2 * m.K2)]
    U1, U2 = np.meshgrid(u1, u2, indexing="ij")
    near = np.zeros_like(lam, dtype=bool)
    for c1, c2 in centers:
        d1 = np.minimum(np.abs(U1 - c1), 4 * m.K1 - np.abs(U1 - c1))
        d2 = np.minimum(np.abs(U2 - c2), 4 * m.K2 - np.abs(U2 - c2))
        near |= np.hypot(d1, d2) < 1e-2
    assert lam[~near].min() > 0.0


def test_sigma_equivariance_exact(canonical_model):
    m = canonical_model
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = (rng.uniform(0, 4 * m.K1), rng.uniform(0, 4 * m.K2))
        assert geo.torus_lambda(m, *p) == geo.torus_lambda(m, -p[0], -p[1])


def test_lambda_lower_bound(canonical_model):
    # lam = (x1+x2)(x1-x2) with x1+x2 >= beta2+beta3 > 0
    m = canonical_model
    rng = np.random.default_rng(5)
    for _ in range(200):
        u1 = rng.uniform(0, 4 * m.K1)
        u2 = rng.uniform(0, 4 * m.K2)
        x1, x2 = float(m.q1(u1)), float(m.q2(u2))
        assert x1 + x2 >= m.beta[1] + m.beta[2] - 1e-12
        assert geo.torus_lambda(m, u1, u2) == pytest.approx(
            (x1 + x2) * (x1 - x2), rel=1e-12, abs=1e-12
        )


# --- points and atlas -----------------------------------------------------------

def test_torus_point_canonical(canonical_model):
    m = canonical_model
    u1, u2 = geo.torus_point(m, -1.0, 4.0 * m.K2 + 0.5)
    assert 0.0 <= u1 < 4 * m.K1 and 0.0 <= u2 < 4 * m.K2


def test_sphere_point_orbit_and_chart(canonical_model):
    m = canonical_model
    p = geo.torus_point(m, 3.0, 1.0)
    rep, chart = geo.sphere_point(m, p)
    image = geo.torus_point(m, -3.0, -1.0)
    rep2, _ = geo.sphere_point(m, image)
    assert rep == rep2
    assert chart == -1
    _, near = geo.sphere_point(m, geo.torus_point(m, 1e-3, 1e-3))
    assert near == 0
    _, near2 = geo.sphere_point(m, geo.torus_point(m, 2 * m.K1 + 1e-3, 1e-3))
    assert near2 == 1


# --- curvature -----------------------------------------------------------------

def test_curvature_case1_constant(case1):
    assert geo.curvature_closed(case1) == 1.0


def test_curvature_case2_closed_vs_numeric(case2, canonical_model):
    m = canonical_model
    lam_fn = lambda a, b: float(geo.torus_lambda(m, a, b))
    rng = np.random.default_rng(17)
    for _ in range(200):
        u1 = rng.uniform(0.15, 0.85) * m.K1 + rng.choice([0.0, m.K1])
        u2 = rng.uniform(0.15, 0.85) * m.K2 + rng.choice([0.0, m.K2])
        kc = geo.curvature_closed(case2, (u1, u2))
        kn = geo.curvature_numeric(lam_fn, (u1, u2), h=1e-3)
        assert abs(kc - kn) < 1e-6


def test_curvature_case2_degenerates_at_a_fixed_point(case2):
    # Q1 = Q2 = beta2 at (0, 0), where lam = 0
    with pytest.raises(DegeneratePoint, match=r"^metric degenerate at \(0\.0, 0\.0\)$"):
        geo.curvature_closed(case2, (0.0, 0.0))


def test_curvature_case2_endpoint_value(case2, canonical_model):
    m = canonical_model
    # at (K1, K2): x1 = beta1, x2 = beta3, so K = 1/4 + a0/(8 (beta1+beta3)^3)
    assert geo.curvature_closed(case2, (m.K1, m.K2)) == pytest.approx(
        0.25 - 10.0 / (8.0 * 8.0), rel=1e-12
    )


def test_curvature_case2_a0_zero_constant():
    from monopole_lab.fields import case2_spec

    params = from_roots([2, 1, -1, -2], -1.0)
    spec = case2_spec(params, mu=0.0, B=0.0)
    m = spec.model
    vals = [
        geo.curvature_closed(spec, (0.3 * m.K1, 0.7 * m.K2)),
        geo.curvature_closed(spec, (0.8 * m.K1, 0.2 * m.K2)),
    ]
    assert vals[0] == vals[1] == 0.25


def test_curvature_case1_numeric(case1):
    conf = geo.conformal_case1(case1.alpha)
    lam_fn = lambda a, b: float(conf.lam(a, b))
    rng = np.random.default_rng(23)
    for _ in range(50):
        u1 = rng.uniform(0.2, 0.8) * conf.K1
        u2 = rng.uniform(0.2, 0.8) * conf.K2
        assert abs(geo.curvature_numeric(lam_fn, (u1, u2), h=1e-3) - 1.0) < 1e-6


def test_curvature_numeric_flat():
    assert geo.curvature_numeric(lambda a, b: 2.5, (0.1, 0.2)) == 0.0


def test_curvature_numeric_stencil_guard():
    with pytest.raises(DegeneratePoint, match=r"^lam <= 0 at \(0\.0, 0\.0\)$"):
        geo.curvature_numeric(lambda a, b: a, (0.0, 0.0), h=0.5)


def test_curvature_on_a_grid_matches_pointwise(case1, case2, canonical_model):
    m = canonical_model
    conf = geo.conformal_case1(case1.alpha)
    # arrays take the numpy path of the slices, scalars the float path; the two
    # differ by round-off, which the stencil amplifies by ~1/lam^2: on the case1
    # window's small-lam corner (lam ~ 0.08) that reaches ~2e-7, so stay off it
    for lam_fn, K1, K2, lo in (
        (lambda a, b: geo.torus_lambda(m, a, b), m.K1, m.K2, 0.15),
        (conf.lam, conf.K1, conf.K2, 0.5),
    ):
        u1 = np.linspace(lo, 0.85, 7) * K1
        u2 = np.linspace(lo, 0.85, 5) * K2
        calls = []
        counted = lambda a, b: calls.append(1) or lam_fn(a, b)
        kn = geo.curvature_numeric(counted, (u1[:, None], u2[None, :]), h=1e-3)
        assert kn.shape == (7, 5)
        assert len(calls) == 9
        scalar_fn = lambda a, b: float(lam_fn(a, b))
        for i, a in enumerate(u1):
            for j, b in enumerate(u2):
                assert abs(kn[i, j] - geo.curvature_numeric(scalar_fn, (a, b), h=1e-3)) < 1e-8
    u1 = np.linspace(0.15, 0.85, 7) * m.K1
    u2 = np.linspace(0.15, 0.85, 5) * m.K2
    kc = geo.curvature_closed(case2, (u1[:, None], u2[None, :]))
    assert kc.shape == (7, 5)
    for i, a in enumerate(u1):
        for j, b in enumerate(u2):
            assert kc[i, j] == pytest.approx(geo.curvature_closed(case2, (a, b)), rel=1e-14)


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (3, 2.99, -1, -4.99), (4, 1, -1, -4), "case1"])
def test_curvature_from_jet(case1, roots, tmp_path, capsys):
    # the exact curvature of the lambda jet: the closed form to round-off, the
    # Richardson stencil to its truncation, and lambda itself bit for bit; and
    # metric-check's K_numeric is the second-order jets' curvature bit for bit
    from monopole_lab.fields import case2_spec

    if roots == "case1":
        conf = geo.conformal_case1(case1.alpha)
        K1, K2, lam_fn, lam_jet = conf.K1, conf.K2, conf.lam, conf.lam_jet
        closed = lambda a, b: 1.0
        f = -4.0 * np.poly(case1.alpha)
        reference = lambda a, b: (
            Jet2.from_slice(conf.branch1, a, 0, 1.0, f)[0] - Jet2.from_slice(conf.branch2, b, 1, -1.0, f)[0]
        )
        cfg = {"family": "case1", "mu": case1.mu, "B": case1.B, "geometry": {"alpha": list(case1.alpha)}}
    else:
        spec = case2_spec(from_roots(list(roots), -1.0), mu=1.0, B=0.5)
        m = spec.model
        K1, K2 = m.K1, m.K2
        lam_fn = lambda a, b: geo.torus_lambda(m, a, b)
        lam_jet = lambda a, b: geo.torus_lambda_jet(m, a, b)
        closed = lambda a, b: geo.curvature_closed(spec, (a, b))
        poly = m.params.coefficients()
        reference = lambda a, b: (
            Jet2.from_slice(m.branch1, a, 0, 0.25, poly)[0] ** 2 - Jet2.from_slice(m.branch2, b, 1, -0.25, poly)[0] ** 2
        )
        cfg = {"family": "case2", "mu": 1.0, "B": 0.5, "geometry": {"roots": list(roots), "a3": -1.0}}
    u1 = (np.linspace(0.15, 0.85, 64) * K1)[:, None]
    u2 = (np.linspace(0.15, 0.85, 64) * K2)[None, :]
    jet, lam11, lam22 = lam_jet(u1, u2)
    assert np.array_equal(np.broadcast_to(jet.v, (64, 64)), np.broadcast_to(lam_fn(u1, u2), (64, 64)))
    k = geo.curvature_from_jet(jet, lam11, lam22)
    assert k.shape == (64, 64)
    bound = 1e-8 if roots == (3, 2.99, -1, -4.99) else 1e-9
    assert np.max(np.abs(k - closed(u1, u2))) <= bound
    fd = geo.curvature_numeric(lam_fn, (u1[::9], u2[:, ::9]), h=1e-2)
    assert np.max(np.abs(k[::9, ::9] - fd)) < 1e-5
    assert k.tobytes() == curvature(reference(u1, u2)).tobytes()
    # %.17g round-trips a double, so the CSV column reads back the same bits
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, grid={"n": 64})))
    assert main(["metric-check", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    table = np.loadtxt(tmp_path / "metric_check.csv", delimiter=",", skiprows=1)
    assert table[:, 4].tobytes() == k.tobytes()


def test_curvature_from_jet_guarded():
    from monopole_lab.fields import Jet

    with pytest.raises(DegeneratePoint, match=r"^lam <= 0: the metric degenerates$"):
        geo.curvature_from_jet(Jet.along(0, np.array([[0.5], [-0.1]]), 1.0), 0.0, 0.0)
    # a partial that is None is identically zero: a constant jet, and one of a single axis
    assert geo.curvature_from_jet(Jet(np.full((2, 3), 2.5)), None, None).tolist() == [[0.0] * 3] * 2
    assert geo.curvature_from_jet(Jet(np.full((2, 3), 2.5), 0.0, 0.0), 0.0, 0.0).tolist() == [[0.0] * 3] * 2
    lam, lam11 = Jet.along(0, np.array([[2.0], [3.0]]), np.array([[0.5], [1.5]])), np.array([[0.25], [-1.0]])
    k = geo.curvature_from_jet(lam, lam11, None)
    assert k.tobytes() == geo.curvature_from_jet(Jet(lam.v, lam.d1, 0.0), lam11, 0.0).tobytes()
    assert np.allclose(k, -(lam11 / lam.v - (lam.d1 / lam.v) ** 2) / (2.0 * lam.v), rtol=1e-15, atol=0.0)


def test_curvature_numeric_arrays_flat_and_guarded():
    u1 = np.linspace(0.1, 0.9, 3)[:, None]
    u2 = np.linspace(0.2, 0.8, 4)[None, :]
    flat = geo.curvature_numeric(lambda a, b: 2.5, (u1, u2))
    assert flat.shape == (3, 4)
    assert np.all(flat == 0.0)
    # centre positive everywhere, stencil leaves the chart at the first row
    with pytest.raises(DegeneratePoint, match=r"^lam <= 0 on stencil around "):
        geo.curvature_numeric(lambda a, b: a + 0.0 * b, (u1 + 0.3, u2), h=0.5)
    with pytest.raises(DegeneratePoint, match=r"^lam <= 0 at "):
        geo.curvature_numeric(lambda a, b: a + 0.0 * b, (u1 - 0.1, u2), h=1e-3)


def test_curvature_ratio_identities(case1):
    # B/k equals the constant curvature
    assert case1.B / case1.k == pytest.approx(1.0, rel=1e-14)


# --- fixed point chart -----------------------------------------------------------

def test_fixed_point_chart_limit(canonical_model):
    m = canonical_model
    # local series x = beta2 + (P'(beta2)/16) u^2 forces the chart coefficient
    # limit P'(beta2) beta2 / 32
    limit = eval_p_deriv(m.params, m.beta[1]) * m.beta[1] / 32.0
    assert limit == pytest.approx(1.125, rel=1e-14)
    assert geo.fixed_point_chart(m, 0, 0.0) == pytest.approx(limit, rel=1e-14)
    for ang in (0.3, 2.0, 4.4):
        c3 = geo.fixed_point_chart(m, 0, 1e-3 * np.exp(1j * ang))
        c4 = geo.fixed_point_chart(m, 0, 1e-4 * np.exp(1j * ang))
        assert abs(c3 - limit) / limit < 1e-2
        assert abs(c4 - limit) / limit < 1e-3
        assert abs(c3 - c4) / limit < 1e-2  # convergence between radii


def test_fixed_point_chart_all_indices(canonical_model):
    m = canonical_model
    limit = eval_p_deriv(m.params, m.beta[1]) * m.beta[1] / 32.0
    for idx in range(4):
        got = geo.fixed_point_chart(m, idx, 1e-4 + 5e-5j)
        assert abs(got - limit) / limit < 1e-3


def test_fixed_point_chart_involution_consistency(canonical_model):
    m = canonical_model
    w = 1e-3 * np.exp(0.9j)
    z = np.sqrt(w)
    a = geo.torus_lambda(m, z.real, z.imag)
    b = geo.torus_lambda(m, -z.real, -z.imag)
    assert a == b
    assert geo.fixed_point_chart(m, 0, w) == pytest.approx(a / (4 * abs(w)), rel=1e-14)


def test_fixed_point_chart_overflow(canonical_model):
    m = canonical_model
    with pytest.raises(DegeneratePoint, match=r"^\|w\| = 1\.000e\+01 exceeds chart radius "):
        geo.fixed_point_chart(m, 0, 10.0 + 0j)


# --- area and flux ----------------------------------------------------------------

def test_round_sphere_area(case1):
    res = geo.area_and_flux(geo.NeumannConstants(case1.alpha), 0.5, 256)
    assert res["area"] == pytest.approx(4.0 * math.pi, abs=1e-6)
    assert res["flux_over_2pi"] == pytest.approx(1.0, abs=1e-6)
    assert res["nearest_integer"] == 1


def test_torus_area_convergence_and_sum_rule(canonical_model):
    a1 = geo.area_and_flux(canonical_model, 1.0, 128)["area"]
    a2 = geo.area_and_flux(canonical_model, 1.0, 256)["area"]
    assert abs(a1 - a2) / a2 < 1e-6
    # empirically exact sum rule: area = 32 pi / |a3|
    assert a2 == pytest.approx(32.0 * math.pi, rel=1e-9)
    other = build_model(from_roots([2.5, 1.5, -1.2, -2.8], -2.0))
    assert geo.area_and_flux(other, 1.0, 256)["area"] == pytest.approx(
        16.0 * math.pi, rel=1e-9
    )


def test_flux_linearity(canonical_model):
    f = lambda b: geo.area_and_flux(canonical_model, b, 128)["flux_over_2pi"]
    assert f(0.3) + f(0.4) == pytest.approx(f(0.7), abs=1e-10)
    assert f(2.0) == pytest.approx(2.0 * f(1.0), abs=1e-10)


def test_area_needs_resolution(canonical_model):
    with pytest.raises(ValueError):
        geo.area_and_flux(canonical_model, 1.0, 32)


def test_area_needs_an_integral_rule(canonical_model, case1):
    # a fractional n once shifted the nodes off the period: case1 read 12.757
    # at n = 64.5 against 4 pi, and the torus was 3e-7 relative off 32 pi at n = 100.9
    for obj, n in ((geo.NeumannConstants(case1.alpha), 64.5), (canonical_model, 100.9)):
        with pytest.raises(TypeError):
            geo.area_and_flux(obj, 0.5, n)
    area = geo.area_and_flux(canonical_model, 1.0, np.int64(256))["area"]
    assert area == geo.area_and_flux(canonical_model, 1.0, 256)["area"]


# --- elliptic coordinates on the sphere -----------------------------------------

def test_neumann_identities():
    c = geo.NeumannConstants(ALPHA)
    rng = np.random.default_rng(31)
    a1, a2, a3 = ALPHA
    for _ in range(1000):
        q1 = rng.uniform(a2, a1)
        q2 = rng.uniform(a3, a2)
        signs = tuple(rng.choice([-1, 1], 3))
        x = geo.neumann_to_cartesian(c, q1, q2, signs)
        assert abs(float(x @ x) - 1.0) < 1e-12
        quad = (a2 + a3) * x[0] ** 2 + (a1 + a3) * x[1] ** 2 + (a1 + a2) * x[2] ** 2
        assert abs(q1 + q2 - quad) < 1e-12


def test_neumann_round_trip():
    c = geo.NeumannConstants(ALPHA)
    rng = np.random.default_rng(33)
    for _ in range(200):
        q1 = rng.uniform(2.05, 2.95)
        q2 = rng.uniform(1.05, 1.95)
        x = geo.neumann_to_cartesian(c, q1, q2, signs=(1, -1, 1))
        b1, b2 = geo.cartesian_to_neumann(c, x)
        assert abs(b1 - q1) + abs(b2 - q2) < 1e-10


def test_neumann_axis_degeneracy():
    c = geo.NeumannConstants(ALPHA)
    x = geo.neumann_to_cartesian(c, c.alpha[1], c.alpha[2], signs=(1, 1, 1))
    assert np.allclose(np.abs(x), [1.0, 0.0, 0.0], atol=1e-14)
    with pytest.raises(DegeneratePoint, match=r"^a Cartesian component vanishes: elliptic coordinates degenerate$"):
        geo.cartesian_to_neumann(c, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DegeneratePoint, match=r"^need alpha1 >= q1 >= alpha2 >= q2 >= alpha3, got 3\.5, 1\.5$"):
        geo.neumann_to_cartesian(c, 3.5, 1.5)


def test_neumann_pullback_matches_separable_form():
    # the round metric restricted to the coordinate strip is the separable
    # form with f = 4 prod(alpha - q): check via finite-difference Jacobians
    c = geo.NeumannConstants(ALPHA)
    a1, a2, a3 = ALPHA
    f = lambda q: 4.0 * (a1 - q) * (a2 - q) * (a3 - q)
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(20):
        q1 = rng.uniform(2.1, 2.9)
        q2 = rng.uniform(1.1, 1.9)
        sample = geo.stackel_metric(f, q1, q2)
        x_p = geo.neumann_to_cartesian(c, q1 + h, q2, (1, -1, 1))
        x_m = geo.neumann_to_cartesian(c, q1 - h, q2, (1, -1, 1))
        g11 = float(((x_p - x_m) / (2 * h)) @ ((x_p - x_m) / (2 * h)))
        x_p = geo.neumann_to_cartesian(c, q1, q2 + h, (1, -1, 1))
        x_m = geo.neumann_to_cartesian(c, q1, q2 - h, (1, -1, 1))
        g22 = float(((x_p - x_m) / (2 * h)) @ ((x_p - x_m) / (2 * h)))
        assert (g11, g22) == pytest.approx(sample, rel=1e-5)


# --- hyperbolic chart ----------------------------------------------------------

def test_hyperbolic_chart_basic():
    assert geo.hyperbolic_chart(1.0, 1.0) == (0.0, 2.0, 0.25, 0.0)
    with pytest.raises(DegeneratePoint, match=r"^need positive inputs, got \(-1\.0, 1\.0\)$"):
        geo.hyperbolic_chart(-1.0, 1.0)


def test_hyperbolic_chart_potential_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        q1 = rng.uniform(0.2, 3.0)
        m2 = rng.uniform(0.2, 3.0)
        *_, h_over_mu = geo.hyperbolic_chart(q1, m2)
        assert h_over_mu == pytest.approx(q1 - m2, rel=1e-12, abs=1e-12)


def test_hyperbolic_chart_metric_pullback():
    # separable form with f = 4 q^3 on the strip q1 > 0 > q2 pulled to (u, v)
    f = lambda q: 4.0 * q**3
    rng = np.random.default_rng(10)
    h = 1e-6
    for _ in range(100):
        q1 = rng.uniform(0.3, 2.5)
        m2 = rng.uniform(0.3, 2.5)
        sample = geo.stackel_metric(f, q1, -m2)
        _, v0, _, _ = geo.hyperbolic_chart(q1, m2)
        (up, vp, *_), (um, vm, *_) = geo.hyperbolic_chart(q1 + h, m2), geo.hyperbolic_chart(q1 - h, m2)
        du, dv = (up - um) / (2 * h), (vp - vm) / (2 * h)
        g11 = (du * du + dv * dv) / v0**2
        (up, vp, *_), (um, vm, *_) = geo.hyperbolic_chart(q1, m2 + h), geo.hyperbolic_chart(q1, m2 - h)
        du, dv = (up - um) / (2 * h), (vp - vm) / (2 * h)
        g22 = (du * du + dv * dv) / v0**2
        assert (g11, g22) == pytest.approx(sample, rel=1e-6)


# --- cylinder limit ---------------------------------------------------------------

def test_limit_cylinder_metric_at_symmetry_point(limit_model):
    lm = limit_model
    qt0 = lm.beta1 - 2.0 * lm.c / (math.sqrt(lm.D) + lm.b)
    expected = 16.0 * (lm.beta1**2 - qt0**2) / lm.c
    assert geo.limit_cylinder_metric(lm, (0.0, 0.0)) == pytest.approx(
        expected, rel=1e-14
    )
    assert qt0 == pytest.approx(float(lm.at(lm.delta)[0]), rel=1e-14)


def _q2_at_tilde(lm, ut2):
    """Q2 at the rescaled coordinate ut2 = sqrt(c)(u2 - delta)/4."""
    return lm.at(lm.delta + 4.0 * ut2 / math.sqrt(lm.c))[0]


def test_limit_metric_decay(limit_model):
    lm = limit_model
    A = geo.limit_metric_decay_constant(lm)
    assert A == pytest.approx(8.0 * lm.beta1 * lm.c / math.sqrt(lm.D), rel=1e-14)
    for ut, tol in ((5.0, 1e-3), (7.0, 1e-4)):
        for sgn in (1.0, -1.0):
            qt = _q2_at_tilde(lm, sgn * ut)
            ratio = (lm.beta1**2 - qt**2) * math.exp(2.0 * ut) / A
            assert abs(ratio - 1.0) < tol
    # the conformal factor carries the extra constant 16/c
    lam = geo.limit_cylinder_metric(lm, (0.0, 6.0))
    qt = _q2_at_tilde(lm, 6.0)
    assert lam == pytest.approx(16.0 * (lm.beta1**2 - qt**2) / lm.c, rel=1e-14)


@pytest.mark.parametrize("roots", [(2.0, -1.0, -3.0), (3.0, -1.0, -5.0), (10.0, -1.0, -19.0)])
def test_limit_cylinder_metric_reads_lm_at(roots):
    # the metric is 16 (beta1^2 - Q2^2)/c with Q2 from LimitModel.at, bit for
    # bit; at ut2 = +-400 (s = +-800, past numpy's cosh overflow) Q2 is beta1
    # and the metric 0.0, with no warning
    lm = LimitModel(*roots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ut in (400.0, -400.0):
            assert geo.limit_cylinder_metric(lm, (0.0, ut)) == 0.0
        for ut in (0.0, 0.3, -1.7, 5.0, 7.0):
            q2 = _q2_at_tilde(lm, ut)
            assert geo.limit_cylinder_metric(lm, (0.0, ut)) == 16.0 * (lm.beta1**2 - q2**2) / lm.c


def test_limit_decay_exponent_matches_round_cylinder(limit_model):
    # same e^(-2 u) falloff as the cylinder form 1/cosh(v)^2 of the round metric
    lm = limit_model
    lam = lambda u: geo.limit_cylinder_metric(lm, (0.0, u))
    slope = math.log(lam(6.0) / lam(5.0))
    round_slope = math.log((1 / math.cosh(6.0) ** 2) / (1 / math.cosh(5.0) ** 2))
    assert slope == pytest.approx(-2.0, abs=1e-3)
    assert slope == pytest.approx(round_slope, abs=1e-3)
