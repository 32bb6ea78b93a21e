"""Inversion engine for integrals between two simple turning points.

Handles the recurring problem: given S(x) > 0 on an open interval with simple
zeros at both ends, invert

    u(x) = integral from x_start to x of d(xi) / sqrt(S(xi)).

The substitution x(theta) = x_start + (x_end - x_start) * sin(theta)^2 absorbs
both inverse-square-root endpoint singularities, so the reduced integrand
w(theta) = 2 / sqrt(rest(x(theta))), with S(x) = |x - x_start| |x - x_end|
rest(x), is analytic and pi-periodic.  Its trapezoid/FFT cosine coefficients
decay geometrically (Trefethen & Weideman, SIAM Rev. 2014) down to a
round-off plateau, where the series is chopped (read off the spectrum in the
manner of Aurentz & Trefethen, ACM TOMS 2017).  This gives u(theta) =
c0 theta + sum_n c_n sin(2 n theta) / (2 n) in closed form and the quarter
period K = c0 pi / 2; the theta-series serves the construction and
``invert``.

The inverse x(u), extended to an even function of period 2K, has its poles
off the real axis, so its cosine series in u itself,

    x(u) = a0 + sum_n a_n cos(n phi),   phi = pi u / K,

converges geometrically too.  Its coefficients come once, at construction,
from the same FFT and chop applied to x at equispaced u (theta found by
Newton on u(theta)).  Evaluating x and the differentiated series dx/du is one
Horner pass in z = exp(i phi), written in real arithmetic on
(cos phi, sin phi), with phi from |u| mod 2K: valid for every real u, exactly
even, and exact at the turning points themselves; x and dx/du share one loop
that carries both accumulators.  Antiderivatives d0 u + sum_n b_n sin(n phi)
take the same pass.  A 0-d argument is evaluated in Python floats, an array
in numpy, by the same operations in the same order, so a point's value never
depends on the batch it is evaluated in.  Each evaluator keeps the result at
the last Python float u it was given, keyed on that exact float, and returns
those same floats when called with it again (a flow evaluates each slice
point several times); arrays and 0-d numpy values neither read nor write it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SeriesNotResolved

# FFT sizes, doubled from the first (theta-series M_MIN, u-series M_U_MIN)
# until the top eighth of the spectrum is below 1e-15 of its largest term
M_MIN = 256
M_U_MIN = 128
M_MAX = 32768


def _is_scalar(u) -> bool:
    """True for Python numbers and 0-d numpy values (np.ndim is slow on floats)."""
    return isinstance(u, (float, int)) or getattr(u, "ndim", None) == 0


def _cosine_coeffs(samples: np.ndarray, floor: float):
    """Cosine coefficients of pi-periodic samples taken at theta_j = j pi / m.

    The series is chopped at the start of its round-off plateau: at the first
    j where the envelope (the largest magnitude from j upwards, relative to
    max(floor, largest coefficient)) is below 1e-13 and has fallen by less
    than a factor 10 at j' = round(1.25 j + 5).  Without a plateau every
    coefficient is kept.  Also returns the largest magnitude in the top
    eighth of the unchopped spectrum (the truncation tail).
    """
    m = samples.shape[0]
    spec = np.fft.rfft(samples) / m
    coeffs = np.empty(spec.shape[0])
    coeffs[0] = spec[0].real
    coeffs[1:] = 2.0 * spec[1:].real
    tail = np.max(np.abs(coeffs[-(m // 8):]))
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    env /= max(floor, env[0])
    ahead = np.rint(1.25 * np.arange(env.size) + 5.0).astype(int)
    ahead = ahead[ahead < env.size]
    here = env[: ahead.size]
    plateau = np.nonzero((here < 1e-13) & (env[ahead] >= 0.1 * here))[0]
    n_keep = max(1, int(plateau[0])) if plateau.size else env.size
    return coeffs[:n_keep], tail


def _resolved_coeffs(sample: Callable[[int], np.ndarray], m: int, floor: float):
    """_cosine_coeffs of sample(m), m doubled until the truncation tail is
    below 1e-15 of max(floor, largest coefficient); (coefficients, m)."""
    while True:
        coeffs, tail = _cosine_coeffs(sample(m), floor)
        scale = max(floor, float(np.max(np.abs(coeffs))))
        if tail < 1e-15 * scale or m >= M_MAX:
            break
        m *= 2
    if tail >= 1e-13 * scale:
        raise SeriesNotResolved(
            "turning-point inversion did not reach spectral accuracy; "
            "parameters may be nearly degenerate"
        )
    return coeffs, m


def _phase(u, K: float):
    """(u as a float or an array, r = |u| mod 2K, cos phi, sin phi), phi = pi r / K."""
    u, xp = (float(u), math) if _is_scalar(u) else (np.asarray(u, dtype=float), np)
    r = abs(u) % (2.0 * K)
    phi = r * (math.pi / K)
    return u, r, xp.cos(phi), xp.sin(phi)


def _horner(c, s, coeffs: list):
    """(Re, Im) of sum_n coeffs_n z^n, z = c + i s, coeffs from the highest n down
    to n = 1; real arithmetic, so a float and an array element round alike."""
    pr = pi = 0.0
    for a in coeffs:
        pr, pi = pr * c - pi * s + a, pr * s + pi * c
    return pr * c - pi * s, pr * s + pi * c


def _horner_fused(c, s, a: list, b: list):
    """(Re of the a-sum, Im of the b-sum) of _horner, both from one loop that
    makes each sum's multiply-adds in _horner's order."""
    pr = pi = qr = qi = 0.0
    for an, bn in zip(a, b):
        pr, pi, qr, qi = pr * c - pi * s + an, pr * s + pi * c, qr * c - qi * s + bn, qr * s + qi * c
    return pr * c - pi * s, qr * s + qi * c


class QuarterBranch:
    """Monotone quarter branch of the inversion, plus its even-periodic extension."""

    def __init__(self, x_start: float, x_end: float, rest: Callable[[np.ndarray], np.ndarray]):
        self.x_start = float(x_start)
        self.x_end = float(x_end)
        self._rest = rest
        self._span = self.x_end - self.x_start

        def w_samples(m):
            return 2.0 / np.sqrt(self._rest(self._x_of_theta(np.arange(m) * (np.pi / m))))

        theta_coeffs, m = _resolved_coeffs(w_samples, M_MIN, 0.0)
        self._c0 = float(theta_coeffs[0])
        self.K = self._c0 * math.pi / 2.0
        # u(theta) is the antiderivative of w(theta), a cosine series of period pi
        self._u = CumulativeIntegral(math.pi / 2.0, theta_coeffs)
        self._w = theta_coeffs[:0:-1].tolist()
        cn = theta_coeffs[1:]
        self._theta_ab = (cn, cn / (2.0 * np.arange(1, len(theta_coeffs))))
        # u on the FFT grid over [0, pi/2], by one inverse FFT, seeds _theta_at
        v = np.zeros(m, dtype=complex)
        v[1 : len(theta_coeffs)] = self._theta_ab[1]
        self._seed_theta = np.arange(m // 2 + 1) * (np.pi / m)
        self._seed_u = self._c0 * self._seed_theta + (m * np.fft.ifft(v)).imag[: m // 2 + 1]
        self._samples = {}
        coeffs, self._m = _resolved_coeffs(self._x_samples, M_U_MIN, 0.0)
        n = np.arange(1, len(coeffs), dtype=float)
        self._a0 = float(coeffs[0])
        self._a = coeffs[:0:-1].tolist()
        self._na = (n * coeffs[1:])[::-1].tolist()
        self.n_terms = len(coeffs)
        # (u, x, dx/du or None) at the last Python float u; see _eval
        self._last = (math.nan, None, None)

    # -- spectral primitives ----------------------------------------------

    def _x_of_theta(self, theta):
        return self.x_start + self._span * np.sin(theta) ** 2

    def u_of_theta(self, theta):
        return self._u(theta)

    def w_of_theta(self, theta):
        _, _, c, s = _phase(theta, math.pi / 2.0)
        return self._c0 + _horner(c, s, self._w)[0]

    def _theta_at(self, u: np.ndarray) -> np.ndarray:
        """theta in [0, pi/2] with u(theta) = u, for an array u in [0, K].

        The seed is linear in u between FFT-grid nodes.  Newton sums the
        series from the powers z^n of z = exp(2 i theta) by one matrix product,
        not a Python loop over the terms, and stops after the first step
        below 1e-9, past which the error is of order its square.
        """
        theta = np.interp(u, self._seed_u, self._seed_theta)
        a, b = self._theta_ab
        for _ in range(8):
            zn = np.cumprod(np.broadcast_to(np.exp(2j * theta)[:, None], (u.size, a.size)), axis=1)
            step = (self._c0 * theta + zn.imag @ b - u) / (self._c0 + zn.real @ a)
            theta = theta - step
            if np.max(np.abs(step)) < 1e-9:
                break
        return theta

    def _x_samples(self, m: int) -> np.ndarray:
        """x at u_j = 2 K j / m, j < m: one period, mirrored about u = K."""
        if m not in self._samples:
            theta = self._theta_at(np.arange(1, m // 2) * (2.0 * self.K / m))
            half = np.concatenate([[self.x_start], self._x_of_theta(theta), [self.x_end]])
            self._samples[m] = np.concatenate([half, half[-2:0:-1]])
        return self._samples[m]

    # -- evaluation --------------------------------------------------------------

    def _eval(self, u, with_deriv: bool):
        """(x, dx/du) at any real u; dx/du is None unless ``with_deriv``.

        One pass of the u-series at |u| mod 2K (exact evenness); dx/du is the
        differentiated series, odd in u.  Where |u| mod 2K is exactly 0 or K
        the turning point and a zero derivative are returned.  A Python float
        u equal to the last one returns the stored result; the slot is
        replaced whole, so a reader on another thread sees a consistent one.
        """
        memo = type(u) is float
        if memo:
            last_u, x, d = self._last
            if last_u == u and (d is not None or not with_deriv):
                return x, d
        u, r, c, s = _phase(u, self.K)
        if with_deriv:
            x, d = _horner_fused(c, s, self._a, self._na)
            x, d = self._a0 + x, -(math.pi / self.K) * d
        else:
            x, d = self._a0 + _horner(c, s, self._a)[0], None
        if isinstance(u, float):
            if r == 0.0 or r == self.K:
                x, d = (self.x_start if r == 0.0 else self.x_end), (0.0 if with_deriv else None)
            elif with_deriv and u < 0.0:
                d = -d
            if memo:
                self._last = (u, x, d)
            return x, d
        turn = (r == 0.0) | (r == self.K)
        x = np.where(turn, np.where(r == 0.0, self.x_start, self.x_end), x)
        if with_deriv:
            d = np.where(turn, 0.0, np.where(u < 0.0, -d, d))
        return x, d

    def value(self, u):
        """x(u) for any real u (even, 2K-periodic)."""
        return self._eval(u, False)[0]

    def deriv(self, u):
        """dx/du from the differentiated series, odd in u."""
        return self._eval(u, True)[1]

    def value_and_deriv(self, u):
        """(x, dx/du) from one fused Horner pass."""
        return self._eval(u, True)

    def invert(self, x, tol: float = 1e-12):
        """First-quarter u in [0, K] with value(u) = x (x within the branch range)."""
        lo, hi = sorted((self.x_start, self.x_end))
        x_in = np.asarray(x, dtype=float)
        if np.any(x_in < lo - tol * (hi - lo)) or np.any(x_in > hi + tol * (hi - lo)):
            raise ValueError(f"value outside branch range [{lo}, {hi}]")
        ratio = np.clip((x_in - self.x_start) / self._span, 0.0, 1.0)
        return self.u_of_theta(np.arcsin(np.sqrt(ratio)))

    def cumulative(self, fn: Callable[[np.ndarray], np.ndarray]) -> "CumulativeIntegral":
        """Antiderivative I(u) = integral_0^u fn(x(s)) ds, odd in u."""
        coeffs, _ = _resolved_coeffs(lambda m: fn(self._x_samples(m)), self._m, 1.0)
        return CumulativeIntegral(self.K, coeffs)


class CumulativeIntegral:
    """Evaluates I(u) = integral_0^u fn(x(s)) ds for an even periodic integrand.

    With fn(x(u)) = d0 + sum_n e_n cos(n pi u / K), I(u) is
    d0 u + sum_n e_n K / (n pi) sin(n pi u / K), odd and correct for every u.
    """

    def __init__(self, K: float, coeffs: np.ndarray):
        self._K = K
        self._d0 = float(coeffs[0])
        n = np.arange(1, len(coeffs), dtype=float)
        self._b = (coeffs[1:] * (self._K / math.pi) / n)[::-1].tolist()
        self.quarter = self._d0 * self._K  # integral over [0, K]
        self._last = (math.nan, None)  # (u, I(u)) at the last Python float u

    def __call__(self, u):
        memo = type(u) is float
        if memo:
            last_u, out = self._last
            if last_u == u:
                return out
        u, _, c, s = _phase(u, self._K)
        out = self._d0 * abs(u) + _horner(c, s, self._b)[1]
        if isinstance(u, float):
            out = -out if u < 0.0 else out
            if memo:
                self._last = (u, out)
            return out
        return np.where(u < 0.0, -out, out)
