"""Inversion engine for integrals between two simple turning points.

Handles the recurring problem: given S(x) > 0 on an open interval with simple
zeros at both ends, invert

    u(x) = integral from x_start to x of d(xi) / sqrt(S(xi)).

The substitution x(theta) = x_start + (x_end - x_start) * sin(theta)^2 absorbs
both inverse-square-root endpoint singularities at once, so the reduced
integrand

    w(theta) = 2 / sqrt(rest(x(theta))),   S(x) = |x - x_start| |x - x_end| rest(x)

is analytic and pi-periodic in theta.  Its trapezoid/FFT cosine coefficients
therefore decay geometrically (Trefethen & Weideman, SIAM Rev. 2014) until
they reach a round-off plateau; the series is chopped where that plateau
starts, a point read off the measured spectrum in the manner of Aurentz &
Trefethen's "Chopping a Chebyshev series" (ACM TOMS 2017).  The cumulative
integral

    u(theta) = c0*theta + sum_n c_n sin(2 n theta) / (2 n)

is then available in closed form to machine precision.  The sine series and
w(theta) = c0 + sum_n c_n cos(2 n theta) are summed together by one Horner
pass in z = exp(2 i theta), elementwise, so a point's value never depends on
the batch it is evaluated in.  The quarter period is K = u(pi/2) = c0*pi/2.
Inverting theta(u) is a well-conditioned Newton solve because
u'(theta) = w(theta) is bounded away from zero.

The evaluated function x(u) extends to all real u as an even function of
period 2K (rise on [0, K], mirrored fall on [K, 2K]).  Inside a small window
around each turning point the local quadratic series

    x = x_turn + (S'(x_turn)/4) * (u - u_turn)^2

is used instead of the solve; the derivative dx/du = +-sqrt(S(x)) switches
sign at the turning points with the quarter-period parity.

A 0-d argument is evaluated in Python float and complex arithmetic
(``math``/``cmath``, no numpy per-call overhead), an array elementwise in
numpy; both run the same code: fold, windows, Newton sweeps and series.
"""

from __future__ import annotations

import bisect
import cmath
import math
from typing import Callable

import numpy as np

SERIES_WINDOW = 1e-4
# FFT sizes tried for the reduced integrand: doubled from the first until the
# top eighth of the spectrum is below 1e-15 * c0
M_MIN = 256
M_MAX = 32768
HALF_PI = math.pi / 2.0


def _is_scalar(u) -> bool:
    """True for Python numbers and 0-d numpy values (np.ndim is slow on floats)."""
    return isinstance(u, (float, int)) or getattr(u, "ndim", None) == 0


def _where(cond: bool, a, b):
    """np.where for one Python bool."""
    return a if cond else b


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


def _horner_coeffs(coeffs: np.ndarray):
    """(c0, [(c_n, c_n / (2n)) from the highest n down]), the form _series takes."""
    cn = coeffs[1:]
    n = np.arange(1, len(coeffs), dtype=float)
    return float(coeffs[0]), list(zip(cn[::-1].tolist(), (cn / (2.0 * n))[::-1].tolist()))


def _series(theta, c0: float, ab: list):
    """(c0 theta + sum_n b_n sin 2n theta, c0 + sum_n a_n cos 2n theta).

    ``ab`` lists the pairs (a_n, b_n) from the highest n down.  One Horner
    pass in z = exp(2 i theta) accumulates p = sum a_n z^n and
    q = sum b_n z^n; the two series are Re p and Im q.  A 0-d theta is summed
    in Python complex arithmetic and gives floats, an array elementwise.
    """
    if _is_scalar(theta):
        theta = float(theta)
        z = cmath.exp(2j * theta)
    else:
        theta = np.asarray(theta, dtype=float)
        z = np.exp(2j * theta)
    p = q = 0.0
    for an, bn in ab:
        p = p * z + an
        q = q * z + bn
    p = p * z
    q = q * z
    return c0 * theta + q.imag, c0 + p.real


class QuarterBranch:
    """Monotone quarter branch of the inversion, plus its even-periodic extension."""

    def __init__(
        self,
        x_start: float,
        x_end: float,
        rest: Callable[[np.ndarray], np.ndarray],
        dS: Callable[[float], float],
    ):
        self.x_start = float(x_start)
        self.x_end = float(x_end)
        self._rest = rest
        self._span = self.x_end - self.x_start
        self._orientation = math.copysign(1.0, self._span)  # sign of dx/du on [0, K]
        # series coefficients x ~ x_turn + (S'(x_turn)/4) du^2 at both ends
        self._c_start = float(dS(self.x_start)) / 4.0
        self._c_end = float(dS(self.x_end)) / 4.0

        m = M_MIN
        while True:
            x = self._x_of_theta(np.arange(m) * (np.pi / m))
            coeffs, tail = _cosine_coeffs(2.0 / np.sqrt(self._rest(x)), 0.0)
            if tail < 1e-15 * abs(coeffs[0]) or m >= M_MAX:
                break
            m *= 2
        if tail >= 1e-13 * abs(coeffs[0]):
            raise RuntimeError(
                "turning-point inversion did not reach spectral accuracy; "
                "parameters may be nearly degenerate"
            )
        self._c0, self._ab = _horner_coeffs(coeffs)
        self.n_terms = len(self._ab)

        self.K = self._c0 * math.pi / 2.0
        # seed table for the Newton solve (first quarter only)
        self._seed_theta = np.linspace(0.0, HALF_PI, 257)
        self._seed_u = self.u_of_theta(self._seed_theta)
        self._seed_theta_list = self._seed_theta.tolist()
        self._seed_u_list = self._seed_u.tolist()

    # -- spectral primitives ----------------------------------------------

    def _x_of_theta(self, theta):
        return self.x_start + self._span * np.sin(theta) ** 2

    def u_of_theta(self, theta):
        return _series(theta, self._c0, self._ab)[0]

    def w_of_theta(self, theta):
        return _series(theta, self._c0, self._ab)[1]

    def theta_of_u(self, u):
        """Solve u(theta) = u for theta in [0, pi/2] (u in [0, K]).

        A float u takes its seed from the table by bisection and stays in
        float arithmetic; an array is seeded by np.interp.
        """
        scalar = isinstance(u, float)
        if scalar:
            us, ts = self._seed_u_list, self._seed_theta_list
            j = min(max(bisect.bisect_right(us, u), 1), len(us) - 1)
            theta = ts[j - 1] + (ts[j] - ts[j - 1]) * (u - us[j - 1]) / (us[j] - us[j - 1])
        else:
            theta = np.interp(u, self._seed_u, self._seed_theta)
        for _ in range(4):
            s, w = _series(theta, self._c0, self._ab)
            theta = theta - (s - u) / w
            theta = min(max(theta, 0.0), HALF_PI) if scalar else np.clip(theta, 0.0, HALF_PI)
        return theta

    # -- evaluation --------------------------------------------------------------

    def _eval(self, u, with_deriv: bool):
        """(x, dx/du) at any real u; dx/du is None unless ``with_deriv``.

        u is reduced to t in [0, K] by evenness and 2K-periodicity; the
        absolute value is taken before the modulus so that u and -u reduce to
        bitwise-identical arguments (exact evenness).  Away from the turning
        points x comes from the theta solve and dx/du from the closed relation
        (dx/du)^2 = S(x), signed by quarter; inside the series windows both
        come from the local quadratic.
        """
        u, where, sin, sqrt = (
            (float(u), _where, math.sin, math.sqrt)
            if _is_scalar(u)
            else (np.asarray(u, dtype=float), np.where, np.sin, np.sqrt)
        )
        K = self.K
        r = abs(u) % (2.0 * K)
        second = r > K
        t = where(second, 2.0 * K - r, r)
        near_start = t < SERIES_WINDOW
        near_end = K - t < SERIES_WINDOW
        s = sin(self.theta_of_u(t))
        x_mid = self.x_start + self._span * (s * s)
        x_near_start = self.x_start + self._c_start * (t * t)
        x_near_end = self.x_end + self._c_end * ((t - K) * (t - K))
        x = where(near_start, x_near_start, where(near_end, x_near_end, x_mid))
        if not with_deriv:
            return x, None
        s_val = abs((x_mid - self.x_start) * (x_mid - self.x_end)) * self._rest(x_mid)
        d_mid = self._orientation * sqrt(s_val)
        d = where(near_start, 2.0 * self._c_start * t, where(near_end, 2.0 * self._c_end * (t - K), d_mid))
        return x, where(second != (u < 0.0), -d, d)

    def value(self, u):
        """x(u) for any real u (even, 2K-periodic)."""
        return self._eval(u, False)[0]

    def deriv(self, u):
        """dx/du from the closed relation (dx/du)^2 = S(x), signed by quarter."""
        return self._eval(u, True)[1]

    def value_and_deriv(self, u):
        """(x, dx/du) sharing one theta solve."""
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
        m = max(2048, 4 * (self.n_terms + 1))
        x = self._x_of_theta(np.arange(m) * (np.pi / m))
        coeffs, _ = _cosine_coeffs(fn(x) * (2.0 / np.sqrt(self._rest(x))), 1.0)
        return CumulativeIntegral(self, coeffs)


class CumulativeIntegral:
    """Evaluates I(u) = integral_0^u fn(x(s)) ds for an even periodic integrand."""

    def __init__(self, branch: QuarterBranch, coeffs: np.ndarray):
        self._branch = branch
        self._d0, self._ab = _horner_coeffs(coeffs)
        self.quarter = self._d0 * math.pi / 2.0  # integral over [0, K]

    def __call__(self, u):
        u, where, floor = (
            (float(u), _where, math.floor)
            if _is_scalar(u)
            else (np.asarray(u, dtype=float), np.where, np.floor)
        )
        K = self._branch.K
        a = abs(u)
        # whole periods are counted (each adds 2 * quarter), so this reduction
        # differs from QuarterBranch._eval's
        n_half = floor(a / (2.0 * K))
        r = a - 2.0 * K * n_half
        second = r > K
        t = where(second, 2.0 * K - r, r)
        j = _series(self._branch.theta_of_u(t), self._d0, self._ab)[0]
        out = 2.0 * self.quarter * n_half + where(second, 2.0 * self.quarter - j, j)
        return where(u < 0.0, -out, out)
