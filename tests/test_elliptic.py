import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from monopole_lab._inversion import _clenshaw, _cosine_coeffs, _phase
from monopole_lab.elliptic import (
    LimitModel,
    build_model,
    build_model_from_roots,
    jacobi_special,
    limit_q2,
    limit_q2_deriv,
)
from monopole_lab.errors import (
    InadmissibleParams,
    NonZeroRootSum,
    NotEvenQuartic,
    OutOfRange,
)
from monopole_lab.geometry import conformal_case1
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
    assert m.q1(0.0) == m.beta[1]
    assert m.q1(m.K1) == m.beta[0]
    assert m.q2(0.0) == m.beta[1]
    assert m.q2(m.K2) == m.beta[2]


def test_evenness_and_periodicity(canonical_model):
    m = canonical_model
    u = np.linspace(-7.0, 7.0, 1001)
    assert np.max(np.abs(m.q1(u) - m.q1(-u))) < 1e-12
    assert np.max(np.abs(m.q2(u) - m.q2(-u))) < 1e-12
    assert np.max(np.abs(m.q1(u + 2 * m.K1) - m.q1(u))) < 1e-9
    assert np.max(np.abs(m.q2(u + 2 * m.K2) - m.q2(u))) < 1e-9


def test_range_confinement(canonical_model):
    m = canonical_model
    u = np.linspace(-10.0, 10.0, 4001)
    x1 = m.q1(u)
    x2 = m.q2(u)
    eps = 1e-12
    assert np.all(x1 >= m.beta[1] - eps) and np.all(x1 <= m.beta[0] + eps)
    assert np.all(x2 >= m.beta[2] - eps) and np.all(x2 <= m.beta[1] + eps)


def test_defining_ode_with_fd_derivative(canonical_model):
    # the derivative here is an independent finite difference of the values,
    # so this actually tests the accuracy of the inversion
    m = canonical_model
    h = 1e-3
    u = np.linspace(0.0137, 4.0 * m.K1, 1000)
    for Q, sign in ((lambda x: m.q1(x), 1.0), (lambda x: m.q2(x), -1.0)):
        d_h = (Q(u + h) - Q(u - h)) / (2 * h)
        d_h2 = (Q(u + h / 2) - Q(u - h / 2)) / h
        d = (4.0 * d_h2 - d_h) / 3.0
        resid = np.max(np.abs(4.0 * d * d - sign * eval_p(m.params, Q(u))))
        scale = max(1.0, float(np.max(np.abs(eval_p(m.params, Q(u))))))
        assert resid < 1e-9 * scale


def test_closed_form_derivative(canonical_model):
    m = canonical_model
    assert m.dq1(0.0) == 0.0
    assert m.dq1(m.K1) == 0.0
    assert m.dq2(m.K2) == 0.0
    mid = 0.5 * m.K1
    assert m.dq1(mid) == pytest.approx(
        np.sqrt(eval_p(m.params, m.q1(mid))) / 2.0, rel=1e-12
    )
    assert m.dq1(mid + m.K1) == pytest.approx(-m.dq1(m.K1 - mid), rel=1e-12)
    # cross-check against finite differences away from turning points
    u = np.linspace(0.05, 2 * m.K1 - 0.05, 301)
    h = 1e-3
    fd = (8 * (m.q1(u + h / 2) - m.q1(u - h / 2)) / h - (m.q1(u + h) - m.q1(u - h)) / h) / 6
    assert np.max(np.abs(m.dq1(u) - fd)) < 1e-10 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (3, 2.99, -1, -4.99)])
def test_value_and_deriv_agree_bitwise(roots):
    # value and deriv are value_and_deriv's two outputs, not approximations;
    # a scalar runs in float arithmetic, an array in numpy, and the two paths
    # agree to round-off (for the cumulative integral too)
    m = build_model_from_roots(list(roots), -1.0)
    bmax = max(abs(b) for b in m.beta)
    for br in (m.branch1, m.branch2):
        K = br.K
        # both series windows (|t| or |K - t| < 1e-4), the mid range, both quarters
        base = np.array([0.0, 3e-5, 0.25 * K, K - 5e-5, K, K + 7e-5, 1.6 * K, 2.0 * K - 2e-5])
        u = np.concatenate([base + 2.0 * k * K for k in (0, 1, 3)])
        u = np.concatenate([u, -u, np.linspace(-7.0 * K, 7.0 * K, 97)])
        x, d = br.value_and_deriv(u)
        assert np.array_equal(br.value(u), x)
        assert np.array_equal(br.deriv(u), d)
        scalar = []
        for ui in u.tolist():
            xs, ds = br.value_and_deriv(ui)
            assert isinstance(xs, float) and isinstance(ds, float)
            assert br.value(ui) == xs
            assert br.deriv(ui) == ds
            scalar.append((xs, ds))
        xs, ds = np.array(scalar).T
        assert np.max(np.abs(xs - x)) <= 4e-15 * bmax
        assert np.max(np.abs(ds - d)) <= 2e-14 * np.max(np.abs(d))
        cum = br.cumulative(lambda v: v * v)
        ic = cum(u)
        ics = np.array([cum(ui) for ui in u.tolist()])
        assert np.max(np.abs(ics - ic)) <= 4e-15 * np.max(np.abs(ic))
        # the antiderivative is odd and adds 2 * quarter per period
        assert cum(-1.3 * K) == -cum(1.3 * K)
        assert cum(2.0 * K) == pytest.approx(2.0 * cum.quarter, rel=1e-14)


def test_clenshaw_matches_direct_sums():
    # c b1 - b2 and sin(phi) b1 against the cosine and sine sums written out
    # term by term, on series of 1-303 terms whose coefficients span 1e-15 to
    # 1e2, within eps sum_n n^2 |g_n|, the size of Clenshaw's forward error
    # near phi = 0 and pi (Oliver, IMA J. Appl. Math. 20 (1977) 379);
    # phi = 2 pi j / m, so n phi reduces exactly.  A float and an array
    # element give the same bits.
    rng = np.random.default_rng(11)
    m = 1 << 12
    eps = np.finfo(float).eps
    for n in [1, 5, 13, 32, 303] + rng.integers(1, 304, 40).tolist():
        g = 10.0 ** rng.uniform(-15.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
        j = np.concatenate([[0, 1, m // 2 - 1, m // 2, m // 2 + 1, m - 1], rng.integers(0, m, 16)])
        phi = 2.0 * np.pi * j / m
        c, s = np.cos(phi), np.sin(phi)
        nphi = 2.0 * np.pi * (np.outer(j, np.arange(1, n + 1)) % m) / m
        bound = eps * np.sum(np.arange(1, n + 1) ** 2 * np.abs(g))
        coeffs = g[::-1].tolist()
        b1, b2 = np.broadcast_arrays(*_clenshaw(c, coeffs))  # one term leaves b2 = 0.0
        assert np.max(np.abs(c * b1 - b2 - np.cos(nphi) @ g)) <= bound
        assert np.max(np.abs(s * b1 - np.sin(nphi) @ g)) <= bound
        for i, ci in enumerate(c.tolist()):
            assert _bits(_clenshaw(ci, coeffs)) == _bits((b1[i], b2[i]))


def _bits(values) -> list:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (3, 2.99, -1, -4.99)])
def test_memo_is_invisible(roots):
    # a branch and its antiderivative keep no state after construction:
    # interleaved scalar calls (signed zeros, turning points, negative,
    # repeated and int u, arrays in between) leave vars() as built and return
    # the floats of the 0-d path, and of the array path wherever math and
    # numpy agree on cos and sin at that phase
    m = build_model_from_roots(list(roots), -1.0)
    rng = np.random.default_rng(5)
    for br in (m.branch1, m.branch2):
        K = br.K
        cum = br.cumulative(lambda v: v * v)
        calls = {"value": br.value, "deriv": br.deriv, "both": br.value_and_deriv, "cum": cum}
        built = {obj: dict(vars(obj)) for obj in (br, cum)}

        def parts(kind, x, d, i):
            return {"value": [x], "deriv": [d], "both": [x, d], "cum": [i]}[kind]

        us = [0.3, 0.3, -0.3, 0.3, 0.0, -0.0, 0.0, K, 2.0 * K, 3.0 * K, -K, -3.0 * K, K]
        us += [1, 1.0, -1, 1, 0.7 * K, -0.7 * K, 0.7 * K]
        order = [(u, kind) for u in us for kind in calls]
        order += [order[i] for i in rng.permutation(len(order))]
        against_array = 0
        for n, (u, kind) in enumerate(order):
            if n % 5 == 0:
                arr = np.array([u, -u, 1.1 * K], dtype=float)
                br.value_and_deriv(arr), br.value(arr), cum(arr)
            got = calls[kind](u)
            for obj, state in built.items():
                assert vars(obj).keys() == state.keys()
                assert all(vars(obj)[k] is v for k, v in state.items()), (u, kind)
            got = _bits(got if kind == "both" else [got])
            x, d = br.value_and_deriv(np.float64(u))
            assert got == _bits(parts(kind, x, d, cum(np.float64(u)))), (u, kind)
            ua = np.array([u], dtype=float)
            _, _, c, s = _phase(float(u), K)
            _, _, ca, sa = _phase(ua, K)
            if (c, s) == (ca[0], sa[0]):
                x, d = br.value_and_deriv(ua)
                assert got == _bits(parts(kind, x[0], d[0], cum(ua)[0])), (u, kind)
                against_array += 1
        assert against_array > len(order) // 2


def test_at_hit_is_a_fresh_evaluation(canonical_params):
    # EllipticModel.at keeps its last pair of Python floats: a hit returns the
    # stored tuple, bit for bit a fresh model's, at a random point, at u = +-0.0
    # on each axis and at u1 = K1.  A new value on either axis, NaN and numpy
    # values miss, and numpy values leave the slot as it was
    m = build_model(canonical_params)
    rng = np.random.default_rng(3)
    u1, u2 = float(rng.uniform(0.0, 4.0 * m.K1)), float(rng.uniform(0.0, 2.0 * m.K2))
    pairs = [((u1, u2), (u1, u2)), ((m.K1, u2), (m.K1, u2))]
    pairs += [((a, u2), (b, u2)) for a, b in ((0.0, -0.0), (-0.0, 0.0))]
    pairs += [((u1, a), (u1, b)) for a, b in ((0.0, -0.0), (-0.0, 0.0))]
    for first, again in pairs:
        out = m.at(*first)
        assert m.at(*again) is out, again
        assert _bits(out) == _bits(build_model(canonical_params).at(*again)), again
    for miss in ((u1, 0.5 * u2), (0.5 * u1, u2)):
        m.at(u1, u2)
        assert _bits(m.at(*miss)) == _bits(build_model(canonical_params).at(*miss)), miss
    out = m.at(u1, u2)
    assert m.at(np.float64(u1), u2) is not out
    m.at(np.array([u1, 0.5]), np.array([u2, 0.5]))
    assert m.at(u1, u2) is out
    assert m.at(math.nan, u2) is not m.at(math.nan, u2)


def test_series_primitives_take_scalars(canonical_model):
    br = canonical_model.branch1
    x = float(br.value(0.4))
    assert type(br.invert(x)) is float
    assert br.invert(np.array([x, x])).shape == (2,)


def test_chop_at_round_off_plateau(canonical_model):
    # f(theta) = (1 - r^2) / (1 - 2 r cos 2 theta + r^2) has c_n = 2 r^n exactly;
    # the chop keeps every coefficient above round-off and none of the plateau
    r, m = 0.5, 256
    theta = np.arange(m) * (np.pi / m)
    coeffs, tail = _cosine_coeffs((1 - r * r) / (1 - 2 * r * np.cos(2 * theta) + r * r), 0.0)
    n = np.arange(1, len(coeffs))
    assert np.max(np.abs(coeffs[1:] - 2.0 * r**n)) < 1e-15
    assert 2.0 * r ** len(coeffs) < 1e-13 and 2.0 * r ** (len(coeffs) - 6) > 1e-16
    assert tail < 1e-15
    # a spectrum still decaying at the top has no plateau: nothing is dropped
    coeffs, _ = _cosine_coeffs(1.0 / (1.0 - 0.95 * np.cos(2.0 * theta[::8])), 0.0)
    assert len(coeffs) == 32 // 2 + 1
    # the canonical quartic: 13 and 30 of the 128 FFT terms carry signal
    assert canonical_model.branch1.n_terms <= 32
    assert canonical_model.branch2.n_terms <= 32


def test_slice_series_matches_direct_sums():
    # x(u) and dx/du by the Clenshaw recurrences against the cosine and sine sums
    # of the u-series written out term by term, on the canonical and the
    # near-coalescing quartics
    rng = np.random.default_rng(8)
    models = [build_model_from_roots(r, -1.0) for r in ([3, 2, -1, -4], [3, 2.99, -1, -4.99])]
    for br in [b for m in models for b in (m.branch1, m.branch2)]:
        # off the turning points, where the exact end values replace the sums
        u = br.K * np.concatenate([np.linspace(0.0, 2.0, 102)[1:-1], rng.uniform(-3.0, 3.0, 50)])
        a, na = np.array(br._a[::-1]), np.array(br._na[::-1])
        n = np.arange(1, a.size + 1)
        cosine = br._a0 + np.cos(np.outer(np.pi * u / br.K, n)) @ a
        sine = -(np.pi / br.K) * np.sin(np.outer(np.pi * u / br.K, n)) @ na
        x, d = br.value_and_deriv(u)
        scale = abs(br._a0) + np.sum(np.abs(a))
        d_scale = (np.pi / br.K) * np.sum(np.abs(na))
        assert np.max(np.abs(x - cosine)) < 1e-14 * scale
        assert np.max(np.abs(d - sine)) < 1e-14 * d_scale
        for i in (0, 37, 99, 120):  # the float path against the same sums
            xf, df = br.value_and_deriv(float(u[i]))
            assert abs(xf - cosine[i]) < 1e-14 * scale
            assert abs(df - sine[i]) < 1e-14 * d_scale


def _u_by_quadrature(lo, hi, others, start, x, scale):
    """u(x) = int from start to x of d xi / sqrt(|S|) by scipy's QAWS.

    |S| = scale (xi - lo)(hi - xi) |prod (xi - r) over r in others|; the
    algebraic weights take the inverse square roots at the interval ends, and
    u is assembled from the end nearer to x.  The oracle checks itself: every
    quadrature's error estimate is at most 2e-13 of the quarter period, the
    integral over [lo, hi].
    """
    smooth = lambda xi: 1.0 / math.sqrt(scale * abs(math.prod(xi - r for r in others)))
    errors = []

    def integral(f, a, b, wvar):
        value, err = quad(f, a, b, weight="alg", wvar=wvar, epsabs=1e-15, epsrel=1e-13, limit=200, full_output=1)[:2]
        errors.append(err)
        return value

    def from_lo(b):
        f = lambda xi: smooth(xi) / math.sqrt(hi - xi)
        return 0.0 if b == lo else integral(f, lo, b, (-0.5, 0.0))

    def to_hi(a):
        f = lambda xi: smooth(xi) / math.sqrt(xi - lo)
        return 0.0 if a == hi else integral(f, a, hi, (0.0, -0.5))

    mid = 0.5 * (lo + hi)
    quarter = from_lo(mid) + to_hi(mid)
    if start == lo:
        u = from_lo(x) if x <= mid else quarter - to_hi(x)
    else:
        u = to_hi(x) if x >= mid else quarter - from_lo(x)
    assert max(errors) <= 2e-13 * quarter, (lo, hi, x, max(errors) / quarter)
    return u


def _branches(geometry):
    """(branch, lo, hi, other roots, scale) of both slices, |S| = scale |prod (x - root)|:
    the quartic with these roots and a3 = -1, or the case1 (3, 2, 1) cubic."""
    if geometry == "case1":
        c = conformal_case1((3.0, 2.0, 1.0))
        return [(c.branch1, 2.0, 3.0, (1.0,), 4.0), (c.branch2, 1.0, 2.0, (3.0,), 4.0)]
    m = build_model_from_roots(list(geometry), -1.0)
    b1, b2, b3, b4 = m.beta
    return [(m.branch1, b2, b1, (b3, b4), 0.25), (m.branch2, b3, b2, (b1, b4), 0.25)]


def test_invert_matches_quadrature_near_coalescing():
    # the near-coalescing quartic, and the case1 cubic (its fourth root at infinity)
    for geometry in ((3, 2.99, -1, -4.99), "case1"):
        for br, lo, hi, others, scale in _branches(geometry):
            for x in np.linspace(br.x_start, br.x_end, 30).tolist():
                u_ref = _u_by_quadrature(lo, hi, others, br.x_start, x, scale)
                assert abs(br.invert(x) - u_ref) <= 1e-12 * br.K


def test_invert_u(canonical_model):
    m = canonical_model
    assert m.branch1.invert(m.beta[1]) == 0.0
    assert m.branch1.invert(m.beta[0]) == pytest.approx(m.K1, rel=1e-12)
    u_target = 0.3 * m.K1
    assert m.branch1.invert(float(m.q1(u_target))) == pytest.approx(u_target, abs=1e-10)
    for x in np.linspace(m.beta[1], m.beta[0], 17):
        assert m.q1(m.branch1.invert(float(x))) == pytest.approx(float(x), abs=1e-9)
    for x in np.linspace(m.beta[2], m.beta[1], 17):
        assert m.q2(m.branch2.invert(float(x))) == pytest.approx(float(x), abs=1e-9)
    with pytest.raises(OutOfRange):
        m.branch1.invert(m.beta[0] + 0.5)
    # monotone in x
    xs = np.linspace(m.beta[1], m.beta[0], 50)
    us = [m.branch1.invert(float(x)) for x in xs]
    assert np.all(np.diff(us) > 0)


def test_invert_range_gate_is_one_relative_gate():
    # Q1 of the near-coalescing quartic spans only 0.01: 5e-13 past beta1 is
    # 5e-11 of the span, refused as OutOfRange for a scalar and an array alike
    m = build_model_from_roots([3, 2.99, -1, -4.99], -1.0)
    b1 = m.beta[0]
    with pytest.raises(OutOfRange):
        m.branch1.invert(b1 + 5e-13)
    with pytest.raises(OutOfRange):
        m.branch1.invert(np.array([b1, b1 + 5e-13]))
    with pytest.raises(OutOfRange):
        m.branch2.invert(math.nan)
    # within 1e-12 of the span the value is clipped to the turning point
    span = m.beta[0] - m.beta[1]
    assert m.branch1.invert(b1 + 0.5e-12 * span) == m.branch1.invert(b1)


def test_jacobi_special(even_model):
    m = even_model
    assert jacobi_special(m, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert jacobi_special(m, m.K1) == pytest.approx(2.0, rel=1e-12)
    z = np.linspace(0.0, 2.0 * m.K1, 100)
    assert np.max(np.abs(jacobi_special(m, z) - m.q1(z))) < 1e-13
    # the scalar (float) evaluation path against the same closed form
    assert max(abs(jacobi_special(m, zi) - m.q1(zi)) for zi in z.tolist()) < 1e-13
    # both of those take their Landen sequence from one module: scipy's dn
    # is the independent oracle, Q1 = beta2 / dn(alpha z | 1 - (beta2/beta1)^2)
    b1, b2 = m.beta[0], m.beta[1]
    _, _, dn, _ = ellipj(z * math.sqrt(-m.params.a3) * b1 / 2.0, 1.0 - (b2 / b1) ** 2)
    assert np.max(np.abs(jacobi_special(m, z) - b2 / dn)) < 1e-13


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


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (4, 1, -1, -4), (3, 2.99, -1, -4.99), "case1"])
def test_series_matches_quadrature_at_turning_points(roots):
    # x at fractions 1e-8 .. 1 - 1e-8 of each quarter, u_ref(x) by QAWS: the
    # u-series must return x there, and its derivative must be +-sqrt(S(x))
    # with S in factored form (exact differences next to the turning points)
    branches = _branches(roots)
    bmax = max(abs(r) for _, lo, hi, others, _ in branches for r in (lo, hi) + others)
    frac = [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-2, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8]
    for br, lo, hi, others, scale in branches:
        sign = math.copysign(1.0, br.x_end - br.x_start)
        x_err, d_err, d_max = 0.0, 0.0, 0.0
        for f in frac:
            x = br.x_start + f * (br.x_end - br.x_start)
            u_ref = _u_by_quadrature(lo, hi, others, br.x_start, x, scale)
            xv, dv = br.value_and_deriv(u_ref)
            d_ref = sign * math.sqrt(scale * abs(math.prod(x - r for r in (lo, hi) + others)))
            x_err = max(x_err, abs(xv - x))
            d_err = max(d_err, abs(dv - d_ref))
            d_max = max(d_max, abs(d_ref))
        # measured: x within 1.7e-15 bmax, dx/du within 2.2e-12 of max|dx/du|
        # (the quadrature's own accuracy, epsrel 1e-13, dominates the latter)
        assert x_err <= 4e-15 * bmax
        assert d_err <= 5e-12 * d_max


def test_long_phase_is_kept(canonical_model):
    # 2^20 (about 10^6) whole periods later, on a grid where u + shift is
    # exact: |u| mod 2K gives back u, so value and deriv agree bit for bit,
    # and the antiderivative adds one 2 * quarter per period
    for br in (canonical_model.branch1, canonical_model.branch2):
        shift = 2.0**20 * (2.0 * br.K)
        ulp = math.ulp(shift)
        u = np.round(np.linspace(0.0, 2.0 * br.K, 41)[1:-1] / ulp) * ulp
        assert np.array_equal(u + shift - shift, u)
        for ui in u.tolist():
            assert br.value_and_deriv(ui + shift) == br.value_and_deriv(ui)
        x, d = br.value_and_deriv(u + shift)
        assert np.array_equal(x, br.value(u)) and np.array_equal(d, br.deriv(u))
        cum = br.cumulative(lambda v: v * v)
        far = cum(u + shift)
        near = 2.0**21 * cum.quarter + cum(u)
        assert np.max(np.abs(far - near)) <= 4e-16 * np.max(np.abs(far))
