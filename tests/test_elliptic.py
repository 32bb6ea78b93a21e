import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipk

from monopole_lab.elliptic import (
    LimitModel,
    build_model,
    build_model_from_roots,
    dq1,
    dq2,
    invert_u,
    jacobi_special,
    limit_q2,
    limit_q2_deriv,
    q1,
    q2,
)
from monopole_lab.errors import (
    InadmissibleParams,
    NonZeroRootSum,
    NotEvenQuartic,
    OutOfRange,
)
from monopole_lab.polyroots import eval_p, from_roots


def _period_quadrature(params, lo, hi, sign):
    """Independent oracle: int_lo^hi 2 dx / sqrt(sign*P) with sqrt substitutions."""
    mid = 0.5 * (lo + hi)
    f_lo = lambda t: 4.0 / np.sqrt(sign * eval_p(params, lo + t * t) / (t * t))
    f_hi = lambda t: 4.0 / np.sqrt(sign * eval_p(params, hi - t * t) / (t * t))
    a = quad(f_lo, 0.0, np.sqrt(mid - lo), epsabs=1e-13, epsrel=1e-13)[0]
    b = quad(f_hi, 0.0, np.sqrt(hi - mid), epsabs=1e-13, epsrel=1e-13)[0]
    return a + b


def test_periods_match_independent_quadrature(canonical_model):
    m = canonical_model
    b1, b2, b3, _ = m.beta
    assert m.K1 == pytest.approx(_period_quadrature(m.params, b2, b1, 1.0), rel=1e-11)
    assert m.K2 == pytest.approx(_period_quadrature(m.params, b3, b2, -1.0), rel=1e-11)


def test_even_quartic_legendre_values(even_model):
    # K1 reduces to the complete elliptic integral with modulus sqrt(3)/2;
    # the imaginary half period reduces to 2 K(1/2) and differs from K1
    assert even_model.K1 == pytest.approx(float(ellipk(0.75)), abs=1e-12)
    assert even_model.K2 == pytest.approx(2.0 * float(ellipk(0.25)), abs=1e-12)
    assert abs(even_model.K1 - even_model.K2) > 1.0


def test_slice_endpoints_exact(canonical_model):
    m = canonical_model
    assert q1(m, 0.0) == m.beta[1]
    assert q1(m, m.K1) == m.beta[0]
    assert q2(m, 0.0) == m.beta[1]
    assert q2(m, m.K2) == m.beta[2]


def test_evenness_and_periodicity(canonical_model):
    m = canonical_model
    u = np.linspace(-7.0, 7.0, 1001)
    assert np.max(np.abs(q1(m, u) - q1(m, -u))) < 1e-12
    assert np.max(np.abs(q2(m, u) - q2(m, -u))) < 1e-12
    assert np.max(np.abs(q1(m, u + 2 * m.K1) - q1(m, u))) < 1e-9
    assert np.max(np.abs(q2(m, u + 2 * m.K2) - q2(m, u))) < 1e-9


def test_range_confinement(canonical_model):
    m = canonical_model
    u = np.linspace(-10.0, 10.0, 4001)
    x1 = q1(m, u)
    x2 = q2(m, u)
    eps = 1e-12
    assert np.all(x1 >= m.beta[1] - eps) and np.all(x1 <= m.beta[0] + eps)
    assert np.all(x2 >= m.beta[2] - eps) and np.all(x2 <= m.beta[1] + eps)


def test_defining_ode_with_fd_derivative(canonical_model):
    # the derivative here is an independent finite difference of the values,
    # so this actually tests the accuracy of the inversion
    m = canonical_model
    h = 1e-3
    u = np.linspace(0.0137, 4.0 * m.K1, 1000)
    for Q, sign in ((lambda x: q1(m, x), 1.0), (lambda x: q2(m, x), -1.0)):
        d_h = (Q(u + h) - Q(u - h)) / (2 * h)
        d_h2 = (Q(u + h / 2) - Q(u - h / 2)) / h
        d = (4.0 * d_h2 - d_h) / 3.0
        resid = np.max(np.abs(4.0 * d * d - sign * eval_p(m.params, Q(u))))
        scale = max(1.0, float(np.max(np.abs(eval_p(m.params, Q(u))))))
        assert resid < 1e-9 * scale


def test_closed_form_derivative(canonical_model):
    m = canonical_model
    assert dq1(m, 0.0) == 0.0
    assert dq1(m, m.K1) == 0.0
    assert dq2(m, m.K2) == 0.0
    mid = 0.5 * m.K1
    assert dq1(m, mid) == pytest.approx(
        np.sqrt(eval_p(m.params, q1(m, mid))) / 2.0, rel=1e-12
    )
    assert dq1(m, mid + m.K1) == pytest.approx(-dq1(m, m.K1 - mid), rel=1e-12)
    # cross-check against finite differences away from turning points
    u = np.linspace(0.05, 2 * m.K1 - 0.05, 301)
    h = 1e-3
    fd = (8 * (q1(m, u + h / 2) - q1(m, u - h / 2)) / h - (q1(m, u + h) - q1(m, u - h)) / h) / 6
    assert np.max(np.abs(dq1(m, u) - fd)) < 1e-10 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (3, 2.99, -1, -4.99)])
def test_value_and_deriv_agree_bitwise(roots):
    # value and deriv are value_and_deriv's two outputs, not approximations
    m = build_model_from_roots(list(roots), -1.0)
    for br in (m.branch1, m.branch2):
        K = br.K
        # both series windows (|t| or |K - t| < 1e-4), the mid range, both quarters
        base = np.array([0.0, 3e-5, 0.25 * K, K - 5e-5, K, K + 7e-5, 1.6 * K, 2.0 * K - 2e-5])
        u = np.concatenate([base + 2.0 * k * K for k in (0, 1, 3)])
        u = np.concatenate([u, -u])
        x, d = br.value_and_deriv(u)
        assert np.array_equal(br.value(u), x)
        assert np.array_equal(br.deriv(u), d)
        for ui in u.tolist():
            xs, ds = br.value_and_deriv(ui)
            assert isinstance(xs, float) and isinstance(ds, float)
            assert br.value(ui) == xs
            assert br.deriv(ui) == ds


def test_invert_u(canonical_model):
    m = canonical_model
    assert invert_u(m, m.beta[1], "q1") == 0.0
    assert invert_u(m, m.beta[0], "q1") == pytest.approx(m.K1, rel=1e-12)
    u_target = 0.3 * m.K1
    assert invert_u(m, float(q1(m, u_target)), "q1") == pytest.approx(u_target, abs=1e-10)
    for x in np.linspace(m.beta[1], m.beta[0], 17):
        assert q1(m, invert_u(m, float(x), "q1")) == pytest.approx(float(x), abs=1e-9)
    for x in np.linspace(m.beta[2], m.beta[1], 17):
        assert q2(m, invert_u(m, float(x), "q2")) == pytest.approx(float(x), abs=1e-9)
    with pytest.raises(OutOfRange):
        invert_u(m, m.beta[0] + 0.5, "q1")
    # monotone in x
    xs = np.linspace(m.beta[1], m.beta[0], 50)
    us = [invert_u(m, float(x), "q1") for x in xs]
    assert np.all(np.diff(us) > 0)


def test_jacobi_special(even_model):
    m = even_model
    assert jacobi_special(m, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert jacobi_special(m, m.K1) == pytest.approx(2.0, rel=1e-12)
    z = np.linspace(0.0, 2.0 * m.K1, 100)
    assert np.max(np.abs(jacobi_special(m, z) - q1(m, z))) < 1e-9


def test_jacobi_special_rejects_generic_quartic(canonical_model):
    with pytest.raises(NotEvenQuartic):
        jacobi_special(canonical_model, 0.3)


def test_build_model_rejects_inadmissible():
    with pytest.raises(InadmissibleParams):
        build_model_from_roots([4, 1, -2, -3], -1.0)


def test_limit_model_constants(limit_model):
    lm = limit_model
    assert lm.b == 8.0 and lm.c == 15.0 and lm.D == 4.0
    # D = 4 (beta1 + beta3)^2 exactly
    assert lm.D == pytest.approx(4.0 * (lm.beta1 + lm.beta3) ** 2, rel=1e-14)
    with pytest.raises(NonZeroRootSum):
        LimitModel(beta1=2.0, beta3=-1.0, beta4=-2.0)
    # under the zero-sum constraint a root-inequality violation shows up as
    # an ordering violation (beta3 > beta4 <=> beta1 + beta3 > 0)
    with pytest.raises(ValueError):
        LimitModel(beta1=1.0, beta3=-1.5, beta4=-0.5)


def test_limit_q2_values(limit_model):
    lm = limit_model
    # cosh minimum at the symmetry point: beta1 - 2c/(sqrt(D)+b) = -1 exactly here
    assert limit_q2(lm, lm.delta) == pytest.approx(-1.0, abs=1e-13)
    u = np.linspace(-6.0, 8.0, 57)
    assert np.max(np.abs(limit_q2(lm, 2.0 * lm.delta - u) - limit_q2(lm, u))) < 1e-12
    assert abs(limit_q2(lm, 50.0) - lm.beta1) < 1e-8
    assert abs(limit_q2(lm, -50.0) - lm.beta1) < 1e-8
    vals = limit_q2(lm, u)
    assert np.all(vals >= lm.beta3 - 1e-12) and np.all(vals < lm.beta1)


def test_limit_q2_deriv_matches_fd(limit_model):
    lm = limit_model
    u = np.linspace(-4.0, 5.0, 41)
    h = 1e-5
    fd = (limit_q2(lm, u + h) - limit_q2(lm, u - h)) / (2 * h)
    assert np.max(np.abs(limit_q2_deriv(lm, u) - fd)) < 1e-8


def test_degeneration_to_limit_slice(limit_model):
    # beta2 -> beta1 at fixed beta3, beta4: the second slice converges to the
    # closed form once the minima (at K2 resp. delta) are aligned
    lm = limit_model
    us = np.linspace(-3.0, 3.0, 25)
    target = limit_q2(lm, us + lm.delta)
    eps = 1e-3
    full = build_model(from_roots([2 + eps, 2 - eps, -1, -3], -1.0))
    gap = np.max(np.abs(full.q2(us + full.K2) - target))
    assert gap < 1e-4  # actual size is O(eps^2) ~ 3e-6
