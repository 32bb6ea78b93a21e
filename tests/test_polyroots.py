import numpy as np
import pytest

from monopole_lab import polyroots
from monopole_lab.errors import GeometryError
from monopole_lab.polyroots import (
    QuarticParams,
    _horner,
    admissibility,
    discriminant,
    eval_p,
    eval_p_deriv,
    from_roots,
    real_roots,
)


def test_leading_coefficient_must_be_negative():
    with pytest.raises(ValueError):
        QuarticParams(a3=1.0, a2=0.0, a0=0.0, a1=0.0)


def test_eval_p_at_roots_and_constant(canonical_params):
    assert eval_p(canonical_params, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert eval_p(canonical_params, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert eval_p(canonical_params, 0.0) == -24.0


def test_discriminant_matches_root_gap_product(canonical_params):
    # independent oracle: disc = a3^6 * prod_{i<j} (beta_i - beta_j)^2
    beta = [3.0, 2.0, -1.0, -4.0]
    prod = 1.0
    for i in range(4):
        for j in range(i + 1, 4):
            prod *= (beta[i] - beta[j]) ** 2
    oracle = (-1.0) ** 6 * prod
    assert oracle == 2286144.0
    assert discriminant(canonical_params) == pytest.approx(oracle, rel=1e-12)
    assert discriminant(canonical_params) > 0.0


def test_discriminant_zero_for_double_root():
    params = from_roots([2, 2, -1, -3], -1.0)
    assert abs(discriminant(params)) < 1e-9 * params.scale**6


def test_discriminant_term_cancellation():
    # a0 = a1 = 0 kills every printed term
    params = QuarticParams(a3=-1.0, a2=5.0, a0=0.0, a1=0.0)
    assert discriminant(params) == 0.0


def test_real_roots_canonical(canonical_params):
    roots = real_roots(canonical_params).beta
    assert np.allclose(roots, [3.0, 2.0, -1.0, -4.0], atol=1e-9)


def test_real_roots_biquadratic():
    roots = real_roots(QuarticParams(a3=-1.0, a2=5.0, a0=0.0, a1=-4.0)).beta
    assert np.allclose(roots, [2.0, 1.0, -1.0, -2.0], atol=1e-12)


def test_real_roots_complex_pair_raises():
    # -(x^2-1)(x^2+1): only two real roots
    with pytest.raises(GeometryError, match=r"^found 2 real roots \(discriminant "):
        real_roots(QuarticParams(a3=-1.0, a2=0.0, a0=0.0, a1=1.0))


def test_multiple_root_detected():
    params = from_roots([1, 1, -1, -1], -1.0)  # accepted by the sum check
    with pytest.raises(GeometryError, match=r"^\|discriminant\| = .* below threshold; use the limit-case operations"):
        real_roots(params)


def test_admissibility_canonical(canonical_params):
    rep = admissibility(canonical_params)
    assert rep.conditions_35 and rep.condition_36 and rep.root_inequalities
    assert rep.admissible


def test_admissibility_root_inequalities_fail():
    rep = admissibility(from_roots([4, 1, -2, -3], -1.0))
    assert not rep.root_inequalities  # beta1 + beta4 = 1 > 0
    assert not rep.admissible


def test_admissibility_reports_each_refusal_of_the_roots(monkeypatch):
    # a complex pair, a multiple root, a root that fails to polish and a
    # quadruple that does not sum to zero: real_roots raises GeometryError,
    # and admissibility reports no roots instead of raising
    complex_pair = QuarticParams(a3=-1.0, a2=0.0, a0=0.0, a1=1.0)
    double = from_roots([1, 1, -1, -1], -1.0)
    canonical = from_roots([3, 2, -1, -4], -1.0)
    polish = polyroots._newton_polish
    shifted = lambda *args: polish(*args) + 0.1
    cases = [
        (complex_pair, None, r"^found 2 real roots \(discriminant "),
        (double, None, r"^\|discriminant\| = .* below threshold; "),
        (canonical, ("_newton_polish", shifted), r"^root 3\.1\d* failed to polish: \|P\| = "),
        (canonical, ("real_roots", lambda _: polyroots.RootQuadruple((4.0, 2.0, -1.0, -4.0))), r"^root sum 1\.000e\+00 "),
    ]
    for params, patch, match in cases:
        with monkeypatch.context() as m:
            if patch:
                m.setattr(polyroots, *patch)
            with pytest.raises(GeometryError, match=match):
                polyroots.real_roots(params)
            rep = admissibility(params)
        assert (rep.roots, rep.root_inequalities, rep.admissible) == (None, False, False)


def test_admissibility_coefficient_sign_fail():
    rep = admissibility(QuarticParams(a3=-1.0, a2=-5.0, a0=0.0, a1=-4.0))
    assert not rep.conditions_35
    assert not rep.admissible


def test_from_roots_examples():
    p = from_roots([3, 2, -1, -4], -1.0)
    assert (p.a3, p.a2, p.a0, p.a1) == (-1.0, 15.0, -10.0, -24.0)
    p = from_roots([2, 1, -1, -2], -1.0)
    assert (p.a3, p.a2, p.a0, p.a1) == (-1.0, 5.0, 0.0, -4.0)


def test_from_roots_nonzero_sum_raises():
    with pytest.raises(GeometryError, match=r"^root sum 1\.000e\+01 exceeds tolerance 4\.000e-10$"):
        from_roots([1, 2, 3, 4], -1.0)


def _random_admissible_quadruple(rng):
    while True:
        b1 = rng.uniform(1.5, 4.0)
        b2 = rng.uniform(0.3, b1 - 0.3)
        b3 = rng.uniform(-b2 + 0.05, -0.05)
        b4 = -(b1 + b2 + b3)
        if b4 < b3 and b1 + b4 < -0.02:
            return b1, b2, b3, b4


def test_round_trip_and_invariants_random():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        beta = _random_admissible_quadruple(rng)
        a3 = -rng.uniform(0.5, 3.0)
        params = from_roots(beta, a3)
        back = real_roots(params)
        assert np.allclose(back.beta, beta, atol=1e-9 * max(abs(b) for b in beta))
        assert abs(sum(back.beta)) < 1e-10 * max(abs(b) for b in beta)
        # report's root flag agrees with the recomputed inequality
        rep = admissibility(params)
        expected = (beta[0] + beta[3] < 0.0) and (beta[1] + beta[2] > 0.0)
        assert rep.root_inequalities == expected
        assert discriminant(params) > 0.0


def _ref_newton_polish(params, x, sweeps=3):
    """The polish in its np.polyval form, the reference for the float one."""
    for _ in range(sweeps):
        p = eval_p(params, x)
        dp = eval_p_deriv(params, x)
        if dp == 0.0:
            break
        step = p / dp
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def test_float_polish_matches_polyval_polish():
    # random admissible quartics, every third with beta2 within 10^-2.5..10^-1
    # of beta1: the roots real_roots returns are the polyval polish's, bit for bit
    rng = np.random.default_rng(2024)
    bits = lambda vals: [float(v).hex() for v in vals]
    near = 0
    for i in range(600):
        beta = list(_random_admissible_quadruple(rng))
        if i % 3 == 0:
            beta[1] = beta[0] - 10.0 ** rng.uniform(-2.5, -1.0)
            beta[3] = -(beta[0] + beta[1] + beta[2])
        params = from_roots(beta, -rng.uniform(0.5, 3.0))
        try:
            got = real_roots(params).beta
        except GeometryError as exc:  # a multiple root, and no other refusal
            assert str(exc).startswith("|discriminant| = "), exc
            continue
        near += i % 3 == 0
        reals = [float(r.real) for r in np.roots(params.coefficients())]
        want = sorted((_ref_newton_polish(params, r) for r in reals), reverse=True)
        assert bits(got) == bits(want)
        for x in rng.uniform(-6.0, 6.0, 4).tolist() + list(got):
            assert _horner([float(a) for a in params.coefficients()], x) == eval_p(params, x)
    assert near > 150
