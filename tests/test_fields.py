import math

import numpy as np
import pytest

from monopole_lab import geometry as geo
from monopole_lab.dynamics import clebsch_eval, random_state
from monopole_lab.elliptic import build_model
from monopole_lab.errors import DegeneratePoint, InadmissibleParams, NegativeRadicand
from monopole_lab.fields import (
    SystemSpec,
    case1_spec,
    case2_spec,
    gauge_a,
    normal_form,
    vy_spec,
)
from monopole_lab.polyroots import QuarticParams, from_roots


def _values(spec, a, b):
    """The values of the normal-form fields (g11, g22, v1, v2, phi1, phi2, h, varphi) at (a, b)."""
    return tuple(jet.v for jet in normal_form(spec, a, b))


def _h(spec, a, b):
    return _values(spec, a, b)[6]


def _phi(spec, a, b):
    return _values(spec, a, b)[4:6]


def _varphi(spec, a, b):
    return _values(spec, a, b)[7]


def test_spec_validation():
    with pytest.raises(ValueError):
        case1_spec((1.0, 2.0, 3.0))  # wrong order
    with pytest.raises(ValueError):
        vy_spec(1.0, 2.0)  # needs vy_a > vy_b
    for family in ("bogus", "case2"):  # a Family member, not its string
        with pytest.raises(ValueError, match="case1, case2, case2_limit, vy"):
            SystemSpec(family=family)
    spec = case1_spec((3.0, 2.0, 1.0), B=0.5)
    assert spec.k * spec.a3 == -4.0 * spec.B
    assert spec.k == 0.5  # a3 = -4 for the alpha normalisation


def test_k_derived(case2):
    assert case2.k == pytest.approx(-4.0 * case2.B / case2.quartic.a3, rel=1e-15)
    assert case2.k == 2.0  # B = 0.5, a3 = -1


def test_electric_h_case2_turning_point(case2, canonical_model):
    # the normal form is singular at the fixed points (g = 1/lam, phi = 0/0);
    # at the turning point (K1, K2) Q1 = beta1 and Q2 = beta3
    m = canonical_model
    beta1, beta3 = m.beta[0], m.beta[2]
    assert _h(case2, m.K1, m.K2) == pytest.approx(case2.mu / (beta1 + beta3), rel=1e-14)


def test_electric_h_case2_supremum(case2, canonical_model):
    # denominator minimum beta2 + beta3 is attained at (0, K2) etc.
    m = canonical_model
    u1 = np.linspace(0, 4 * m.K1, 201)
    u2 = np.linspace(0, 4 * m.K2, 201)
    H = case2.mu / (m.q1(u1)[:, None] + m.q2(u2)[None, :])
    bound = case2.mu / (m.beta[1] + m.beta[2])
    assert np.max(np.abs(H)) <= bound + 1e-12
    assert _h(case2, 0.0, m.K2) == pytest.approx(bound, rel=1e-14)


def test_electric_h_case1_quadratic_in_cartesian(case1):
    c = geo.NeumannConstants(case1.alpha)
    a1, a2, a3 = case1.alpha
    rng = np.random.default_rng(6)
    for _ in range(50):
        q1 = rng.uniform(a2, a1)
        q2 = rng.uniform(a3, a2)
        x = geo.neumann_to_cartesian(c, q1, q2, (1, 1, -1))
        quad = (a2 + a3) * x[0] ** 2 + (a1 + a3) * x[1] ** 2 + (a1 + a2) * x[2] ** 2
        assert _h(case1, q1, q2) == pytest.approx(case1.mu * quad, rel=1e-12)


def test_phi_case1_antisymmetry(case1):
    rng = np.random.default_rng(7)
    for _ in range(100):
        q1 = rng.uniform(2.05, 2.95)
        q2 = rng.uniform(1.05, 1.95)
        p1, p2 = _phi(case1, q1, q2)
        assert p1 + p2 == 0.0
        assert p1 > 0.0  # k > 0 on the strip with q1 > q2


def test_phi_case1_outside_strip(case1):
    with pytest.raises(NegativeRadicand):
        normal_form(case1, 2.8, 2.2)


def test_phi_case2_turning_points(case2, canonical_model):
    m = canonical_model
    assert _phi(case2, m.K1, m.K2) == (0.0, -0.0)
    p1, p2 = _phi(case2, m.K1, 0.3 * m.K2)
    assert p1 != 0.0 and p2 == -0.0  # only Q1' vanishes at u1 = K1


def test_phi_case2_degenerate_point(case2):
    with pytest.raises(DegeneratePoint):
        normal_form(case2, 0.0, 0.0)


def test_normal_form_needs_case1_or_case2(vy, limit_spec):
    for spec in (vy, limit_spec):
        with pytest.raises(ValueError, match="no normal form"):
            normal_form(spec, 0.4, 0.7)


def test_varphi_values(case2, case1, canonical_model):
    beta1, beta3 = canonical_model.beta[0], canonical_model.beta[2]
    m = canonical_model
    nomu = case2_spec(case2.quartic, mu=0.0, B=case2.B)
    assert _varphi(nomu, m.K1, m.K2) == pytest.approx(-nomu.k * nomu.B * (beta1 + beta3) ** 2, rel=1e-9)
    nomu1 = case1_spec(case1.alpha, mu=0.0, B=case1.B)
    assert _varphi(nomu1, 2.5, 1.5) == pytest.approx(-nomu1.k * nomu1.B * 4.0, rel=1e-14)


def test_varphi_gradient_consistency_case2(case2, canonical_model):
    # the displayed pair of first-order conditions reconstructs grad varphi:
    # d1 varphi = v1 d1 h + phi2 B lam, d2 varphi = v2 d2 h - phi1 B lam
    m = canonical_model
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(30):
        u1 = rng.uniform(0.2, 0.8) * m.K1
        u2 = rng.uniform(0.2, 0.8) * m.K2
        lam = geo.torus_metric(m, (u1, u2)).lam
        p1, p2 = _phi(case2, u1, u2)
        v1 = float(m.q2(u2)) ** 2
        v2 = float(m.q1(u1)) ** 2
        d1_varphi = (_varphi(case2, u1 + h, u2) - _varphi(case2, u1 - h, u2)) / (2 * h)
        d2_varphi = (_varphi(case2, u1, u2 + h) - _varphi(case2, u1, u2 - h)) / (2 * h)
        d1_h = (_h(case2, u1 + h, u2) - _h(case2, u1 - h, u2)) / (2 * h)
        d2_h = (_h(case2, u1, u2 + h) - _h(case2, u1, u2 - h)) / (2 * h)
        assert d1_varphi == pytest.approx(v1 * d1_h + p2 * case2.B * lam, abs=5e-8)
        assert d2_varphi == pytest.approx(v2 * d2_h - p1 * case2.B * lam, abs=5e-8)


def test_varphi_gradient_consistency_case1(case1):
    rng = np.random.default_rng(13)
    h = 1e-6
    f = case1.f_cubic
    for _ in range(30):
        q1 = rng.uniform(2.2, 2.8)
        q2 = rng.uniform(1.2, 1.8)
        p1, p2 = _phi(case1, q1, q2)
        root = math.sqrt(-f(q1) * f(q2)) / (q1 - q2)  # sqrt(g11 g22), contravariant
        d1_varphi = (_varphi(case1, q1 + h, q2) - _varphi(case1, q1 - h, q2)) / (2 * h)
        d2_varphi = (_varphi(case1, q1, q2 + h) - _varphi(case1, q1, q2 - h)) / (2 * h)
        d1_h = (_h(case1, q1 + h, q2) - _h(case1, q1 - h, q2)) / (2 * h)
        d2_h = (_h(case1, q1, q2 + h) - _h(case1, q1, q2 - h)) / (2 * h)
        assert d1_varphi == pytest.approx(q2 * d1_h + p2 * case1.B / root, abs=1e-7)
        assert d2_varphi == pytest.approx(q1 * d2_h - p1 * case1.B / root, abs=1e-7)


def test_gauge_vanishes_on_axis(case2, canonical_model):
    for u2 in (0.0, 0.7, 2.0, -1.3):
        assert gauge_a(case2, (0.0, u2)) == (0.0, 0.0)


def test_gauge_curl_is_flux_density(case2, canonical_model):
    m = canonical_model
    rng = np.random.default_rng(14)
    step = 1e-5
    for _ in range(100):
        u1 = rng.uniform(0.1, 3.9) * m.K1
        u2 = rng.uniform(0.1, 3.9) * m.K2
        d1a2 = (
            gauge_a(case2, (u1 + step, u2))[1] - gauge_a(case2, (u1 - step, u2))[1]
        ) / (2 * step)
        d2a1 = (
            gauge_a(case2, (u1, u2 + step))[0] - gauge_a(case2, (u1, u2 - step))[0]
        ) / (2 * step)
        expected = case2.B * float(geo.torus_lambda(m, u1, u2))
        assert abs(d1a2 - d2a1 - expected) < 1e-8


def test_gauge_not_periodic(case2, canonical_model):
    # nonzero total flux forbids a global gauge: A2 shifts across a period
    m = canonical_model
    u2 = 0.37 * m.K2
    shift = gauge_a(case2, (4 * m.K1, u2))[1] - gauge_a(case2, (0.0, u2))[1]
    assert abs(shift) > 0.1


def magnetic_density(spec, metric_fn, gauge_fn, point, step: float = 1e-5):
    """Scalar magnetic density sqrt(g^11 g^22) (d1 A2 - d2 A1) by central
    differences of the gauge: the check of the closed-form gauge against its
    density, which an exact curl of the same formula would read by construction.

    ``metric_fn(point) -> MetricSample`` supplies the covariant components,
    which are inverted here (the density convention is contravariant);
    ``gauge_fn(point) -> (A1, A2)``.
    """
    u1v, u2v = point
    sample = metric_fn(point)
    g11_cov, g22_cov = sample.g11, sample.g22
    if g11_cov <= 0.0 or g22_cov <= 0.0:
        raise DegeneratePoint(f"metric degenerate at ({u1v}, {u2v})")
    d1a2 = (gauge_fn((u1v + step, u2v))[1] - gauge_fn((u1v - step, u2v))[1]) / (2.0 * step)
    d2a1 = (gauge_fn((u1v, u2v + step))[0] - gauge_fn((u1v, u2v - step))[0]) / (2.0 * step)
    return (d1a2 - d2a1) / np.sqrt(g11_cov * g22_cov)


def test_magnetic_density_constant(case2, canonical_model):
    m = canonical_model
    metric_fn = lambda p: geo.torus_metric(m, p)
    gauge_fn = lambda p: gauge_a(case2, p)
    rng = np.random.default_rng(15)
    for _ in range(64):
        u1 = rng.uniform(0.15, 0.85) * m.K1 + rng.choice([0.0, 2 * m.K1])
        u2 = rng.uniform(0.15, 0.85) * m.K2 + rng.choice([0.0, 2 * m.K2])
        val = magnetic_density(case2, metric_fn, gauge_fn, (u1, u2))
        assert abs(val - case2.B) < 1e-8


def test_magnetic_density_zero_and_linear(canonical_model, case2):
    m = canonical_model
    metric_fn = lambda p: geo.torus_metric(m, p)
    zero = case2_spec(case2.quartic, mu=1.0, B=0.0)
    val = magnetic_density(zero, metric_fn, lambda p: gauge_a(zero, p), (1.0, 1.0))
    assert val == 0.0
    double = case2_spec(case2.quartic, mu=1.0, B=2 * case2.B)
    v1 = magnetic_density(case2, metric_fn, lambda p: gauge_a(case2, p), (1.0, 1.0))
    v2 = magnetic_density(double, metric_fn, lambda p: gauge_a(double, p), (1.0, 1.0))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-10)


def test_magnetic_density_bulk_grid(case2, canonical_model):
    # the standing assumption: constant density over the bulk, on a 64^2 grid
    m = canonical_model
    metric_fn = lambda p: geo.torus_metric(m, p)
    gauge_fn = lambda p: gauge_a(case2, p)
    u1 = np.linspace(0.2, 0.8, 64) * m.K1
    u2 = np.linspace(0.2, 0.8, 64) * m.K2
    worst = 0.0
    for a in u1[::8]:
        for b in u2[::8]:
            worst = max(worst, abs(magnetic_density(case2, metric_fn, gauge_fn, (a, b)) - case2.B))
    assert worst < 1e-8


def test_flux_density_in_strip_coordinates(case2, canonical_model):
    # the curl in torus coordinates, mapped through the slice Jacobians,
    # reproduces the strip-coordinate density 4B(x1^2-x2^2)/sqrt(-P(x1)P(x2));
    # this is a derived identity, not an independent definition
    from monopole_lab.polyroots import eval_p

    m = canonical_model
    rng = np.random.default_rng(18)
    for _ in range(50):
        u1 = rng.uniform(0.1, 0.9) * m.K1
        u2 = rng.uniform(0.1, 0.9) * m.K2
        x1, x2 = float(m.q1(u1)), float(m.q2(u2))
        curl_u = case2.B * (x1 * x1 - x2 * x2)
        jac = abs(float(m.dq1(u1)) * float(m.dq2(u2)))  # |d(x1,x2)/d(u1,u2)|
        curl_x = curl_u / jac
        expected = (
            4.0
            * case2.B
            * (x1 * x1 - x2 * x2)
            / math.sqrt(-eval_p(m.params, x1) * eval_p(m.params, x2))
        )
        assert curl_x == pytest.approx(expected, rel=1e-10)


def test_gauge_covariance_of_h_and_f(case2, canonical_model):
    # H and F written with A and with A + d(chi), chi = c1 u1 + c2 u2, agree
    # once p shifts by d(chi)
    m = canonical_model
    lam = lambda u1, u2: float(geo.torus_lambda(m, u1, u2))
    rng = np.random.default_rng(16)
    for _ in range(20):
        u1 = rng.uniform(0.2, 0.8) * m.K1
        u2 = rng.uniform(0.2, 0.8) * m.K2
        p = rng.normal(0, 1, 2)
        c = rng.normal(0, 1, 2)
        a = np.array(gauge_a(case2, (u1, u2)))
        H0 = float((p - a) @ (p - a)) / lam(u1, u2)
        H1 = float((p + c - (a + c)) @ (p + c - (a + c))) / lam(u1, u2)
        assert abs(H0 - H1) < 1e-10


# the e(3)* Clebsch system and case1's normal form are one system: the map
# from (M, x) to strip coordinates lives here, as no library code needs it
_BRIDGE_SPECS = [
    case1_spec((3.0, 2.0, 1.0), mu=0.7, B=0.5),
    case1_spec((5.0, 1.5, -2.0), mu=1.3, B=-0.8),
    case1_spec((4.0, 0.5, -1.0), mu=0.9, B=0.0),
]


def _off_plane_states(spec, count=40):
    """random_state's states with min |x_j| > 0.2: dx/dq is 0/0 where x_j -> 0."""
    rng = np.random.default_rng(11)
    states = []
    while len(states) < count:
        s = random_state(spec, rng)
        if np.min(np.abs(s.x)) > 0.2:
            states.append(s)
    return states


def _bridge_gaps(spec, state, phi_sign=1.0, phi_scale=1.0, varphi_scale=1.0):
    """Relative gaps of 1/g^ii = |dx/dq_i|^2, H_Clebsch = H_nf + nu^2 - mu sum(alpha)
    and F_Clebsch = F_nf + nu^2 sum(alpha) at one state on the leaf M.x = nu.

    The kinetic momentum pi = M x x (M = x x pi + nu x) has strip components
    pi_i = pi . dx/dq_i, with dx_j/dq_i = -x_j / (2 (alpha_j - q_i)); phi is
    taken at the sign -sgn(x1 x2 x3).  H and F are relative to the sum of the
    magnitudes of the Clebsch side's terms."""
    M, x = state.M, state.x
    alpha = np.array(spec.alpha)
    q1, q2 = geo.cartesian_to_neumann(geo.NeumannConstants(spec.alpha), x)
    e = np.array([-x / (2.0 * (alpha - q)) for q in (q1, q2)])
    p1, p2 = e @ np.cross(M, x)
    g11, g22, v1, v2, phi1, phi2, h, varphi = _values(spec, q1, q2)
    sign = -np.sign(np.prod(x)) * phi_sign * phi_scale
    nu = float(M @ x)
    h_nf = g11 * p1**2 + g22 * p2**2 + h
    f_nf = g11 * v1 * p1**2 + g22 * v2 * p2**2 + sign * (phi1 * p1 + phi2 * p2) + varphi_scale * varphi
    H, F = clebsch_eval(spec, state)
    a1, a2, a3 = alpha
    h_scale = M @ M + abs(spec.mu) * np.abs(alpha) @ x**2
    f_scale = np.abs(alpha) @ M**2 + abs(spec.mu) * np.abs([a2 * a3, a1 * a3, a1 * a2]) @ x**2
    return (
        max(abs(1.0 / g - ei @ ei) / (ei @ ei) for g, ei in ((g11, e[0]), (g22, e[1]))),
        abs(H - (h_nf + nu**2 - spec.mu * alpha.sum())) / h_scale,
        abs(F - (f_nf + nu**2 * alpha.sum())) / f_scale,
    )


@pytest.mark.parametrize("spec", _BRIDGE_SPECS, ids=lambda s: f"B={s.B:g}")
def test_clebsch_is_case1_normal_form(spec):
    gaps = np.max([_bridge_gaps(spec, s) for s in _off_plane_states(spec)], axis=0)
    assert np.all(gaps <= 1e-13), gaps


@pytest.mark.parametrize("mutation", ["phi sign", "phi x 1.01", "varphi x 1.01", "k != B"])
def test_clebsch_bridge_catches_mutations(mutation, monkeypatch):
    kwargs = {"phi sign": {"phi_sign": -1.0}, "phi x 1.01": {"phi_scale": 1.01}, "varphi x 1.01": {"varphi_scale": 1.01}}
    if mutation == "k != B":
        kwargs[mutation] = {}
        monkeypatch.setattr(SystemSpec, "k", property(lambda spec: 1.01 * spec.B))
    # at B = 0, phi and the k B term vanish: only varphi's mu q1 q2 is left to break
    for spec in _BRIDGE_SPECS if mutation == "varphi x 1.01" else _BRIDGE_SPECS[:2]:
        gaps = [_bridge_gaps(spec, s, **kwargs[mutation])[2] for s in _off_plane_states(spec)]
        assert max(gaps) >= 1e-4, (spec.alpha, max(gaps))


def test_specs_of_one_quartic_share_one_model(canonical_params):
    # the model and the gauge's I1 depend on the quartic alone: every spec of
    # an equal quartic shares them, whatever its mu and B
    spec = case2_spec(canonical_params, mu=1.0, B=0.5)
    again = case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=-0.3, B=2.0)
    assert again.quartic is not spec.quartic
    assert again.model is spec.model and again.gauge_i1 is spec.gauge_i1 is spec.model.i1
    near = case2_spec(from_roots([3, 2.99, -1, -4.99], -1.0), mu=1.0, B=0.5)
    assert near.model is not spec.model and near.gauge_i1 is not spec.gauge_i1
    # build_model itself always builds
    fresh = build_model(canonical_params)
    assert fresh is not spec.model and fresh is not build_model(canonical_params)
    # a coefficient -0.0 equals 0.0, but each quartic gets a model with its own params
    even = from_roots([2, 1, -1, -2], -1.0)
    for a0 in (-0.0, 0.0):
        params = case2_spec(QuarticParams(even.a3, even.a2, a0, even.a1)).model.params
        assert math.copysign(1.0, params.a0) == math.copysign(1.0, a0)


def test_refused_quartic_raises_on_every_call():
    # an error is not cached: each new spec of the quartic raises again
    bad = from_roots([4, 1, -2, -3], -1.0)
    for _ in range(3):
        with pytest.raises(InadmissibleParams):
            case2_spec(bad).model
