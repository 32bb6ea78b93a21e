"""Inversion engine for integrals between two simple turning points.

Handles the recurring problem: given S(x) > 0 on an open interval with simple
zeros at both ends, invert

    u(x) = integral from x_start to x of d(xi) / sqrt(S(xi)).

The substitution x(theta) = x_start + (x_end - x_start) * sin(theta)^2 absorbs
both inverse-square-root endpoint singularities at once, so the reduced
integrand

    w(theta) = 2 / sqrt(rest(x(theta))),   S(x) = |x - x_start| |x - x_end| rest(x)

is analytic and pi-periodic in theta.  Its trapezoid/FFT cosine coefficients
therefore decay geometrically, and the cumulative integral

    u(theta) = c0*theta + sum_n c_n sin(2 n theta) / (2 n)

is available in closed form to machine precision.  The quarter period is
K = u(pi/2) = c0*pi/2.  Inverting theta(u) is a well-conditioned Newton solve
because u'(theta) = w(theta) is bounded away from zero.

The evaluated function x(u) extends to all real u as an even function of
period 2K (rise on [0, K], mirrored fall on [K, 2K]).  Inside a small window
around each turning point the local quadratic series

    x = x_turn + (S'(x_turn)/4) * (u - u_turn)^2

is used instead of the solve; the derivative dx/du = +-sqrt(S(x)) switches
sign at the turning points with the quarter-period parity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

SERIES_WINDOW = 1e-4
# FFT sizes tried for the reduced integrand: doubled from the first until the
# top eighth of the spectrum is below 1e-15 * c0
M_MIN = 256
M_MAX = 32768


def _cosine_coeffs(samples: np.ndarray, floor: float):
    """Cosine coefficients of pi-periodic samples taken at theta_j = j pi / m.

    Returns the coefficients up to the last one above
    1e-17 * max(floor, |c0|), and the largest magnitude in the top eighth of
    the untrimmed spectrum (the truncation tail).
    """
    m = samples.shape[0]
    spec = np.fft.rfft(samples) / m
    coeffs = np.empty(spec.shape[0])
    coeffs[0] = spec[0].real
    coeffs[1:] = 2.0 * spec[1:].real
    tail = np.max(np.abs(coeffs[-(m // 8):]))
    keep = np.nonzero(np.abs(coeffs) > 1e-17 * max(floor, abs(coeffs[0])))[0]
    n_keep = int(keep[-1]) + 1 if keep.size else 1
    return coeffs[:n_keep], tail


def _sine_series(theta, c0: float, n: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c0 * theta + sum_n b_n sin(2 n theta); a 0-d theta gives shape (1,)."""
    theta = np.asarray(theta, dtype=float)
    return c0 * theta + np.sin(2.0 * np.outer(theta, n)) @ b


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
        # series coefficients x ~ x_turn + (S'(x_turn)/4) du^2 at both ends
        self._c_start = dS(self.x_start) / 4.0
        self._c_end = dS(self.x_end) / 4.0

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
        self._c0 = float(coeffs[0])
        self._n = np.arange(1, len(coeffs), dtype=float)
        self._cn = coeffs[1:]
        self._cn_over_2n = self._cn / (2.0 * self._n)

        self.K = self._c0 * np.pi / 2.0
        # seed table for the Newton solve (first quarter only)
        th = np.linspace(0.0, np.pi / 2.0, 257)
        self._seed_u = self.u_of_theta(th)
        self._seed_theta = th

    # -- spectral primitives ----------------------------------------------

    def _x_of_theta(self, theta):
        return self.x_start + self._span * np.sin(theta) ** 2

    def u_of_theta(self, theta):
        out = _sine_series(theta, self._c0, self._n, self._cn_over_2n)
        return out if out.shape else float(out)

    def w_of_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        c = np.cos(2.0 * np.outer(theta, self._n))
        out = self._c0 + c @ self._cn
        return out if out.shape else float(out)

    def theta_of_u(self, u):
        """Solve u(theta) = u for theta in [0, pi/2] (u in [0, K])."""
        u = np.asarray(u, dtype=float)
        theta = np.interp(u, self._seed_u, self._seed_theta)
        for _ in range(4):
            theta = theta - (self.u_of_theta(theta) - u) / self.w_of_theta(theta)
            theta = np.clip(theta, 0.0, np.pi / 2.0)
        return theta

    # -- evaluation --------------------------------------------------------------

    def _fold(self, u):
        """Reduce to t in [0, K] using evenness and 2K-periodicity.

        Returns (t, sign) where sign is the orientation of dx/du at u.  The
        absolute value is taken before the modulus so that u and -u reduce to
        bitwise-identical arguments (exact evenness).
        """
        u = np.asarray(u, dtype=float)
        r = np.mod(np.abs(u), 2.0 * self.K)
        second = r > self.K
        t = np.where(second, 2.0 * self.K - r, r)
        sign = np.where(second, -1.0, 1.0) * np.where(u < 0.0, -1.0, 1.0)
        return t, sign

    def _eval(self, u, with_deriv: bool):
        """(x, dx/du) at any real u; dx/du is None unless ``with_deriv``.

        Away from the turning points x comes from the theta solve and dx/du
        from the closed relation (dx/du)^2 = S(x), signed by quarter; inside
        the series windows both come from the local quadratic.
        """
        t, sign = self._fold(u)
        near_start = t < SERIES_WINDOW
        near_end = (self.K - t) < SERIES_WINDOW
        mid = ~(near_start | near_end)
        x = np.empty_like(t)
        d = np.empty_like(t) if with_deriv else None
        if np.any(mid):
            xm = self._x_of_theta(self.theta_of_u(t[mid]))
            x[mid] = xm
            if with_deriv:
                s_val = np.abs((xm - self.x_start) * (xm - self.x_end)) * self._rest(xm)
                d[mid] = np.sign(self._span) * np.sqrt(s_val)
        if np.any(near_start):
            ts = t[near_start]
            x[near_start] = self.x_start + self._c_start * ts**2
            if with_deriv:
                d[near_start] = 2.0 * self._c_start * ts
        if np.any(near_end):
            dt = t[near_end] - self.K
            x[near_end] = self.x_end + self._c_end * dt**2
            if with_deriv:
                d[near_end] = 2.0 * self._c_end * dt
        if with_deriv:
            d = d * sign
        if x.shape:
            return x, d
        return float(x), (float(d) if with_deriv else None)

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
        theta = np.arcsin(np.sqrt(ratio))
        out = self.u_of_theta(theta)
        if x_in.ndim == 0:
            return float(np.asarray(out).reshape(-1)[0])
        return np.asarray(out).reshape(x_in.shape)

    def cumulative(self, fn: Callable[[np.ndarray], np.ndarray]) -> "CumulativeIntegral":
        """Antiderivative I(u) = integral_0^u fn(x(s)) ds, odd in u."""
        m = max(2048, 4 * (len(self._cn) + 1))
        x = self._x_of_theta(np.arange(m) * (np.pi / m))
        coeffs, _ = _cosine_coeffs(fn(x) * (2.0 / np.sqrt(self._rest(x))), 1.0)
        return CumulativeIntegral(self, coeffs)


class CumulativeIntegral:
    """Evaluates I(u) = integral_0^u fn(x(s)) ds for an even periodic integrand."""

    def __init__(self, branch: QuarterBranch, coeffs: np.ndarray):
        self._branch = branch
        self._d0 = float(coeffs[0])
        self._n = np.arange(1, len(coeffs), dtype=float)
        self._dn_over_2n = coeffs[1:] / (2.0 * self._n)
        self.quarter = self._d0 * np.pi / 2.0  # integral over [0, K]

    def __call__(self, u):
        u_in = np.asarray(u, dtype=float)
        scalar = u_in.ndim == 0
        u_flat = np.atleast_1d(u_in)
        K = self._branch.K
        sign = np.where(u_flat < 0.0, -1.0, 1.0)
        a = np.abs(u_flat)
        # whole periods are counted (each adds 2 * quarter), so this reduction
        # does not go through QuarterBranch._fold
        n_half = np.floor(a / (2.0 * K))
        r = a - 2.0 * K * n_half
        second = r > K
        t = np.where(second, 2.0 * K - r, r)
        j = _sine_series(self._branch.theta_of_u(t), self._d0, self._n, self._dn_over_2n)
        partial = np.where(second, 2.0 * self.quarter - j, j)
        out = sign * (2.0 * self.quarter * n_half + partial)
        return float(out[0]) if scalar else out.reshape(u_in.shape)
