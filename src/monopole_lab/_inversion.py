"""Inversion engine for integrals between two simple turning points.

Given S(x) = scale |(x - p)(x - q)(x - r)(x - s)| with real roots in the
cyclic order p, q, r, s of the projective line (r = inf for a cubic, whose
factor is then dropped), invert u(x) = integral from p to x of
d(xi) / sqrt(S(xi)) between the turning points x_start = p and x_end = q.
The inverse is a Moebius image of the Jacobi cn^2 (Byrd & Friedman 1971,
254.00), with quarter period K = K(m) / kappa:

    x(u) = q - (q - p)(q - s) cn^2 / ((p - s) + (q - p) cn^2),   cn = cn(kappa u | m),
    m = (q - p)(r - s) / ((q - s)(r - p)),   1 - m = (p - s)(r - q) / ((q - s)(r - p)),
    kappa = sqrt(scale |(q - s)(r - p)|) / 2.

The two terms of the denominator share their sign, and m and 1 - m are each
a product of root differences, so no step cancels, nearly coalescing roots
included.  K(m), am(v | m) (cn = cos am) and F(phi | m), which inverts x(u)
in closed form, come from one descending Landen sequence (DLMF 19.8(i),
22.20(ii)).

The inverse x(u), extended to an even function of period 2K, has its poles
off the real axis, so its cosine series in u itself,

    x(u) = a0 + sum_n a_n cos(n phi),   phi = pi u / K,

converges geometrically (Trefethen & Weideman, SIAM Rev. 2014).  Its
coefficients come once, at construction, from the FFT of x at equispaced u,
chopped at the round-off plateau that the spectrum shows (Aurentz & Trefethen,
ACM TOMS 2017).  With c = cos phi, x = a0 + sum_n a_n T_n(c) and
dx/du = -(pi/K) sin phi sum_n n a_n U_(n-1)(c), each summed by one Clenshaw
recurrence (Clenshaw, Math. Comp. 9 (1955) 118), with phi from |u| mod 2K:
valid for every real u, exactly even, and exact at the turning points
themselves.  Antiderivatives d0 u + sum_n b_n sin(n phi) are
d0 u + sin phi sum_n b_n U_(n-1)(c), the same recurrence.  A 0-d argument is
evaluated in Python floats, an array in numpy, by the same operations in the
same order, so a point's value never depends on the batch it is evaluated in.
The evaluators keep no state after construction: every call sums its series.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import OutOfRange, SeriesNotResolved

# FFT sizes of a u-series, doubled from M_U_MIN until the top eighth of the
# spectrum is below 1e-15 of its largest term
M_U_MIN = 128
M_MAX = 32768


def _is_scalar(u) -> bool:
    """True for Python numbers and 0-d numpy values (np.ndim is slow on floats)."""
    return isinstance(u, (float, int)) or getattr(u, "ndim", None) == 0


def _cosine_coeffs(samples: np.ndarray, floor: float):
    """Cosine coefficients a_n of a0 + sum_n a_n cos(n phi) from one period
    of samples taken at phi_j = 2 pi j / m.

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


def _clenshaw(c, coeffs: list):
    """(b1, b2) of Clenshaw's recurrence b_k = g_k + 2c b_(k+1) - b_(k+2) over
    coeffs = g_N ... g_1, highest n first: sum_n g_n T_n(c) = c b1 - b2 and
    sum_n g_n U_(n-1)(c) = b1.  A float and an array element round alike."""
    c2 = 2.0 * c
    b1 = b2 = 0.0
    for g in coeffs:
        b1, b2 = g + c2 * b1 - b2, b1
    return b1, b2


class _Landen:
    """Descending Landen sequence of the parameter m, started from k' = sqrt(1 - m)
    given apart (DLMF 19.8(i)): a_0 = 1, b_0 = k', c_0 = sqrt(m), then
    a_(n+1) = (a_n + b_n)/2, b_(n+1) = sqrt(a_n b_n), c_(n+1) = c_n^2 / (4 a_(n+1))
    up to the first c_N <= 1e-16 a_N; K(m) = pi / (2 a_N)."""

    def __init__(self, m: float, kp: float):
        a, b, c = [1.0], [kp], [math.sqrt(m)]
        while c[-1] > 1e-16 * a[-1]:
            a.append(0.5 * (a[-1] + b[-1]))
            b.append(math.sqrt(a[-2] * b[-1]))
            c.append(0.25 * c[-1] ** 2 / a[-1])
        self._a, self._b, self._c = a, b, c
        self._scale = 2.0 ** (len(a) - 1) * a[-1]  # 2^N a_N
        self.K = math.pi / (2.0 * a[-1])

    def am(self, v):
        """am(v | m) from phi_N = 2^N a_N v by phi_(n-1) = (phi_n + arcsin(c_n sin(phi_n) / a_n)) / 2."""
        a, c = self._a, self._c
        phi = self._scale * v
        for j in range(len(a) - 1, 0, -1):
            phi = 0.5 * (phi + np.arcsin((c[j] / a[j]) * np.sin(phi)))
        return phi

    def F(self, phi):
        """F(phi | m) = phi_N / (2^N a_N), phi_(n+1) = phi_n + arctan(b_n tan(phi_n) / a_n)
        on the branch continuous in phi, with a_n - b_n = 2 c_(n+1): no tangent at pi/2."""
        a, b, c = self._a, self._b, self._c
        for j in range(len(a) - 1):
            sn, cn = np.sin(phi), np.cos(phi)
            phi = 2.0 * phi - np.arctan(2.0 * c[j + 1] * sn * cn / (a[j] * cn * cn + b[j] * sn * sn))
        return phi / self._scale


class QuarterBranch:
    """Monotone quarter branch of the inversion, plus its even-periodic extension.

    |S(x)| = scale |(x - p)(x - q)(x - r)(x - s)| with p = x_start, q = x_end;
    r is the root that follows q on the projective line (inf for a cubic) and
    s the last one.
    """

    def __init__(self, x_start: float, x_end: float, r: float, s: float, scale: float):
        p = self.x_start = float(x_start)
        q = self.x_end = float(x_end)
        self._s = s = float(s)
        # a cubic drops the factor x - r: each ratio of r-differences tends to 1
        # and scale takes the place of scale |r - p|
        rq, rs, rp = (1.0, 1.0, 1.0) if math.isinf(r) else (r - q, r - s, r - p)
        self._landen = _Landen((q - p) * rs / ((q - s) * rp), math.sqrt((p - s) * rq / ((q - s) * rp)))
        self._kappa = 0.5 * math.sqrt(scale * abs((q - s) * rp))
        self.K = self._landen.K / self._kappa
        coeffs, self._m = _resolved_coeffs(self._x_samples, M_U_MIN, 0.0)
        n = np.arange(1, len(coeffs), dtype=float)
        self._a0 = float(coeffs[0])
        self._a = coeffs[:0:-1].tolist()
        self._na = (n * coeffs[1:])[::-1].tolist()
        self.n_terms = len(coeffs)

    def _x_samples(self, m: int) -> np.ndarray:
        """x at u_j = 2 K j / m (kappa u_j = 2 K(m) j / m), j < m: one period,
        mirrored about u = K, with the turning points exact."""
        p, q, s = self.x_start, self.x_end, self._s
        cn2 = np.cos(self._landen.am(np.arange(1, m // 2) * (2.0 * self._landen.K / m))) ** 2
        x = q - (q - p) * (q - s) * cn2 / ((p - s) + (q - p) * cn2)
        half = np.concatenate([[p], x, [q]])
        return np.concatenate([half, half[-2:0:-1]])

    # -- evaluation --------------------------------------------------------------

    def _eval(self, u, with_deriv: bool):
        """(x, dx/du, or None unless ``with_deriv``) at any real u.

        One recurrence over the u-series at |u| mod 2K (exact evenness) and,
        for dx/du, one over the differentiated series, odd in u.  Where
        |u| mod 2K is exactly 0 or K the turning point and a zero derivative
        are returned.
        """
        u, r, c, s = _phase(u, self.K)
        b1, b2 = _clenshaw(c, self._a)
        x = self._a0 + (c * b1 - b2)
        d = -(math.pi / self.K) * s * _clenshaw(c, self._na)[0] if with_deriv else None
        if isinstance(u, float):
            if r == 0.0 or r == self.K:
                x, d = (self.x_start if r == 0.0 else self.x_end), (0.0 if with_deriv else None)
            elif with_deriv and u < 0.0:
                d = -d
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
        """(x, dx/du), one recurrence each."""
        return self._eval(u, True)

    def invert(self, x):
        """First-quarter u in [0, K] with value(u) = x:
        F(atan2(sn, cn) | m) / kappa, sn^2 = (x-p)(q-s) / ((x-s)(q-p)), cn^2 = (q-x)(p-s) / ((x-s)(q-p)),
        whose common positive denominator atan2 does not need.  x may leave the
        branch range by 1e-12 of its span and is clipped to it; beyond that, or
        NaN, raises OutOfRange."""
        lo, hi = sorted((self.x_start, self.x_end))
        x_in = np.asarray(x, dtype=float)
        slack = 1e-12 * (hi - lo)
        if not np.all((x_in >= lo - slack) & (x_in <= hi + slack)):
            raise OutOfRange(f"x = {x} outside the branch range [{lo}, {hi}]")
        p, q, s = self.x_start, self.x_end, self._s
        x_in = np.clip(x_in, lo, hi)
        phi = np.arctan2(np.sqrt(np.abs((x_in - p) * (q - s))), np.sqrt(np.abs((q - x_in) * (p - s))))
        u = self._landen.F(phi) / self._kappa
        return float(u) if _is_scalar(x) else u

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

    def __call__(self, u):
        u, _, c, s = _phase(u, self._K)
        out = self._d0 * abs(u) + s * _clenshaw(c, self._b)[0]
        if isinstance(u, float):
            return -out if u < 0.0 else out
        return np.where(u < 0.0, -out, out)
