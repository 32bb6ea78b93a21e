"""Metrics, curvature, elliptic coordinates on the sphere, area and flux.

Coordinate conventions
----------------------
Separable strip coordinates (q1, q2) carry the metric

    ds^2 = (q1 - q2)/f(q1) dq1^2 + (q2 - q1)/f(q2) dq2^2,

positive definite when f(q1) and f(q2) have opposite signs.  Torus coordinates
(u1, u2) carry the conformal form ds^2 = lam (du1^2 + du2^2) with
lam = Q1(u1)^2 - Q2(u2)^2, which degenerates exactly at the four involution
fixed points (0,0), (2K1,0), (0,2K2), (2K1,2K2).  The quotient by
sigma(u) = -u is a topological sphere; near a fixed point the quotient
coordinate w = z^2 (z = u1 + i u2 centered there) carries the regular metric
with coefficient -> (P'(beta2)/16) * beta2 / 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._inversion import QuarterBranch
from .elliptic import EllipticModel, LimitModel
from .errors import DegeneratePoint
from .fields import Family, Jet, SystemSpec, _mul, _sum, _torus_jets, stackel_components
from .polyroots import eval_p_deriv

__all__ = [
    "NeumannConstants",
    "torus_point",
    "sphere_point",
    "stackel_metric",
    "torus_lambda",
    "torus_lambda_jet",
    "Case1ConformalModel",
    "conformal_case1",
    "curvature_closed",
    "curvature_numeric",
    "curvature_from_jet",
    "fixed_point_chart",
    "area_and_flux",
    "neumann_to_cartesian",
    "cartesian_to_neumann",
    "hyperbolic_chart",
    "limit_cylinder_metric",
    "limit_metric_decay_constant",
]


@dataclass(frozen=True)
class NeumannConstants:
    """Strictly descending constants alpha1 > alpha2 > alpha3."""

    alpha: tuple[float, float, float]

    def __post_init__(self) -> None:
        a1, a2, a3 = self.alpha
        if not (a1 > a2 > a3):
            raise ValueError(f"alpha must be strictly descending, got {self.alpha}")


def torus_point(model: EllipticModel, u1: float, u2: float) -> tuple[float, float]:
    """Canonical representative (u1, u2) of the point on the period torus,
    in [0, 4K1) x [0, 4K2)."""
    return float(np.mod(u1, 4.0 * model.K1)), float(np.mod(u2, 4.0 * model.K2))


def _fixed_points(model: EllipticModel) -> list[tuple[float, float]]:
    return [
        (0.0, 0.0),
        (2.0 * model.K1, 0.0),
        (0.0, 2.0 * model.K2),
        (2.0 * model.K1, 2.0 * model.K2),
    ]


def sphere_point(model: EllipticModel, p: tuple[float, float]) -> tuple[tuple[float, float], int]:
    """Orbit {p, sigma(p)} of a canonical torus point p under sigma(u) = -u, as
    (rep, chart): rep the lesser of p and its image, chart -1 in the bulk,
    otherwise the index 0..3 of the nearby fixed point."""
    L1, L2 = 4.0 * model.K1, 4.0 * model.K2
    image = (float(np.mod(-p[0], L1)), float(np.mod(-p[1], L2)))
    rep = min(tuple(p), image)
    r0 = min(model.K1, model.K2) / 8.0
    chart = -1
    for idx, (c1, c2) in enumerate(_fixed_points(model)):
        d1 = abs(rep[0] - c1)
        d1 = min(d1, L1 - d1)
        d2 = abs(rep[1] - c2)
        d2 = min(d2, L2 - d2)
        if math.hypot(d1, d2) < r0:
            chart = idx
            break
    return rep, chart


def stackel_metric(f, q1: float, q2: float) -> tuple[float, float]:
    """Covariant separable-form metric components (g11, g22), g11 = (q1-q2)/f(q1)
    and g22 = (q2-q1)/f(q2)."""
    if abs(q1 - q2) < 1e-14 * max(1.0, abs(q1), abs(q2)):
        raise DegeneratePoint(f"q1 = q2 = {q1}")
    g11, g22 = stackel_components(f, q1, q2)
    if g11 <= 0.0 or g22 <= 0.0:
        raise DegeneratePoint(
            f"metric not positive at ({q1}, {q2}): g11 = {g11:.3e}, g22 = {g22:.3e}"
        )
    return float(g11), float(g22)


def torus_lambda(model: EllipticModel, u1, u2):
    """Conformal factor Q1(u1)^2 - Q2(u2)^2, vectorized."""
    return model.q1(u1) ** 2 - model.q2(u2) ** 2


def torus_lambda_jet(model: EllipticModel, u1, u2) -> tuple:
    """Jet of lam = Q1(u1)^2 - Q2(u2)^2 with its second partials d11 lam and d22 lam,
    exact from Q1'' = P'(Q1)/8 and Q2'' = -P'(Q2)/8; u1 and u2 broadcast, one slice
    pass each."""
    x1, dx1, x2, dx2 = _torus_jets(model, u1, u2)
    # (x^2)'' = x'' x + 2 x'^2 + x x'', summed as the second-order product rule sums it
    second = lambda x, d, dd: dd * x + 2.0 * (d * d) + x * dd
    return x1**2 - x2**2, second(x1.v, x1.d1, dx1.d1), -second(x2.v, x2.d2, dx2.d2)


class Case1ConformalModel:
    """Isothermal coordinates for the sphere family with cubic f.

    Writing du1 = dq1/sqrt(f(q1)), du2 = dq2/sqrt(-f(q2)) turns the separable
    metric into lam (du1^2 + du2^2) with lam = q1(u1) - q2(u2), exactly
    parallel to the torus coordinates of the quartic family.
    """

    def __init__(self, constants: NeumannConstants):
        a1, a2, a3 = constants.alpha
        self.constants = constants
        # f(q) = 4 (a1-q)(a2-q)(a3-q) is a cubic: its fourth root is at infinity
        self.branch1 = QuarterBranch(a2, a1, math.inf, a3, 4.0)
        self.branch2 = QuarterBranch(a2, a3, math.inf, a1, 4.0)
        self.K1 = self.branch1.K
        self.K2 = self.branch2.K
        self._f = -4.0 * np.poly(constants.alpha)
        self._f.flags.writeable = False  # the model is shared per alpha

    def q1(self, u1):
        return self.branch1.value(u1)

    def q2(self, u2):
        return self.branch2.value(u2)

    def lam(self, u1, u2):
        return self.branch1.value(u1) - self.branch2.value(u2)

    def lam_jet(self, u1, u2) -> tuple:
        """Jet of lam with its second partials d11 lam and d22 lam, exact from
        q1'^2 = f(q1) and q2'^2 = -f(q2): q1'' = f'(q1)/2 and q2'' = -f'(q2)/2."""
        q1, dq1 = Jet.from_values(*self.branch1.value_and_deriv(u1), 0, 1.0, self._f)
        q2, dq2 = Jet.from_values(*self.branch2.value_and_deriv(u2), 1, -1.0, self._f)
        return q1 - q2, dq1.d1, -dq2.d2


def conformal_case1(alpha) -> Case1ConformalModel:
    """The conformal model of the constants ``alpha``, shared per alpha as
    ``SystemSpec.model`` is per quartic; ``Case1ConformalModel`` builds a new one."""
    alpha = tuple(float(a) for a in alpha)
    return _shared_conformal(alpha, repr(alpha))


@lru_cache(maxsize=8)
def _shared_conformal(alpha: tuple, exact: str) -> Case1ConformalModel:
    # keyed on the repr too: a constant -0.0 equals 0.0 but keeps its sign in the tables
    return Case1ConformalModel(NeumannConstants(alpha=alpha))


def curvature_closed(spec: SystemSpec, point=None):
    """Gaussian curvature in closed form.

    CASE_II coordinates may be scalars (a float is returned) or broadcastable
    arrays (an array of their broadcast shape).

    CASE_I: constant -a3/4 (unit 1 for the 4 prod(alpha - q) normalisation).
    CASE_II: -a3/4 + a0 / (8 (x1 + x2)^3) at the torus point (x_i are the
    slices).  The 1/8 is forced by the conformal Laplacian of
    lam = x1^2 - x2^2; formulas in circulation that omit it fail the
    finite-difference oracle by exactly that factor.
    """
    if spec.family == Family.CASE_I:
        return -spec.a3 / 4.0
    if spec.family == Family.CASE_II:
        if point is None:
            raise ValueError("CASE_II curvature needs a point")
        u1, u2 = point
        m = spec.model
        x1 = m.q1(u1)
        x2 = m.q2(u2)
        if np.any(x1 - x2 < 1e-9 * np.maximum(1.0, np.abs(x1))):
            raise DegeneratePoint(f"metric degenerate at ({u1}, {u2})")
        s = x1 + x2
        # s * s * s, not s ** 3: numpy's float power rounds by the SIMD loop it dispatches to
        k = -spec.a3 / 4.0 + spec.quartic.a0 / (8.0 * (s * s * s))
        return float(k) if np.ndim(k) == 0 else k
    raise ValueError(f"no closed curvature for family {spec.family}")


def curvature_numeric(lam_fn, point, h: float = 1e-3):
    """Curvature of a conformal metric by -(Lap log lam)/(2 lam).

    Five-point central Laplacian at steps h and h/2 with one Richardson
    extrapolation.  ``lam_fn(u1, u2)`` must be positive on the stencil.  The
    coordinates may be scalars (a float is returned) or broadcastable arrays
    (an array of their broadcast shape); ``lam_fn`` is called once per
    stencil offset, 9 times in all, with the point's own coordinates shifted.
    """
    u1, u2 = point

    lam0 = lam_fn(u1, u2)
    if np.any(np.asarray(lam0) <= 0.0):
        raise DegeneratePoint(f"lam <= 0 at ({u1}, {u2})")
    log0 = np.log(lam0)

    def lap_log(step: float):
        logs = []
        for a, b in ((u1 + step, u2), (u1 - step, u2), (u1, u2 + step), (u1, u2 - step)):
            vals = lam_fn(a, b)
            if np.any(np.asarray(vals) <= 0.0):
                raise DegeneratePoint(f"lam <= 0 on stencil around ({u1}, {u2})")
            logs.append(np.log(vals))
        l1, l2, l3, l4 = logs
        return (l1 + l2 + l3 + l4 - 4.0 * log0) / step**2

    coarse = lap_log(h)
    fine = lap_log(h / 2.0)
    lap = (4.0 * fine - coarse) / 3.0
    out = -lap / (2.0 * lam0)
    shape = np.broadcast(u1, u2).shape
    return float(out) if shape == () else np.broadcast_to(out, shape).copy()


def curvature_from_jet(lam: Jet, lam11, lam22):
    """Curvature -(d11 + d22) log lam / (2 lam) of the conformal metric
    lam (du1^2 + du2^2), exact from the jet of lam and its second partials
    lam11 and lam22, each None where it is identically zero (an array of their
    broadcast shape)."""
    if np.any(lam.v <= 0.0):
        raise DegeneratePoint("lam <= 0: the metric degenerates")
    # d_ii log lam = -r^2 lam_i^2 + r lam_ii, summed as the chain rule of log sums it;
    # a partial that is None is identically zero, and a term of only such partials drops out
    r = 1.0 / lam.v
    f2 = -r * r
    parts = (_sum(_mul(f2, _mul(d, d)), _mul(r, dd)) for d, dd in ((lam.d1, lam11), (lam.d2, lam22)))
    lap = sum(0.0 if d is None else d for d in parts)
    return -lap / (2.0 * lam.v)


def fixed_point_chart(model: EllipticModel, index: int, w: complex) -> float:
    """Conformal metric coefficient in the quotient chart w = z^2 at a fixed point.

    The pullback of lam (du1^2 + du2^2) under z = sqrt(w) has conformal
    coefficient lam(z) / (4 |w|), which extends over w = 0 with the limit
    (P'(beta2)/16) * beta2 / 2 (all four fixed points meet the root beta2).
    """
    if index not in (0, 1, 2, 3):
        raise ValueError("fixed point index must be 0..3")
    r_max = math.sqrt(model.K1 * model.K2) / 4.0
    w = complex(w)
    if abs(w) > r_max:
        raise DegeneratePoint(f"|w| = {abs(w):.3e} exceeds chart radius {r_max:.3e}")
    beta2 = model.beta[1]
    if w == 0:
        return float(0.5 * (eval_p_deriv(model.params, beta2) / 16.0) * beta2)
    z = np.sqrt(w)
    c1, c2 = _fixed_points(model)[index]
    return float(torus_lambda(model, c1 + z.real, c2 + z.imag)) / (4.0 * abs(w))


def area_and_flux(obj, B: float, n: int = 256) -> dict:
    """Total area of the quotient sphere and the flux ratio B * area / (2 pi).

    ``obj`` is an :class:`EllipticModel` (torus family) or
    :class:`NeumannConstants` (cubic sphere family).  Midpoint quadrature; for
    the torus the integrand lam is periodic-analytic in both directions, so the
    rule converges spectrally.  Reports the distance of the flux ratio to the
    nearest integer.  ``n`` is an integer (numpy integers too): a fractional
    one would put the midpoint nodes off the period.
    """
    n = operator.index(n)
    if n < 64:
        raise ValueError("use at least a 64-point rule")
    if isinstance(obj, EllipticModel):
        area = _torus_area(obj, n)
    elif isinstance(obj, NeumannConstants):
        area = _neumann_area(obj, n)
    else:
        raise TypeError(f"cannot compute area of {type(obj)!r}")
    flux = B * area / (2.0 * math.pi)
    nearest = round(flux)
    return {
        "area": area,
        "flux_over_2pi": flux,
        "nearest_integer": int(nearest),
        "gap": abs(flux - nearest),
    }


def _torus_area(model: EllipticModel, n: int) -> float:
    # fundamental half-domain [0, 4K1) x [0, 2K2) of the involution
    h1 = 4.0 * model.K1 / n
    h2 = 2.0 * model.K2 / n
    u1 = (np.arange(n) + 0.5) * h1
    u2 = (np.arange(n) + 0.5) * h2
    s1 = np.sum(model.q1(u1) ** 2)
    s2 = np.sum(model.q2(u2) ** 2)
    return float(h1 * h2 * (n * s1 - n * s2))


def _neumann_area(constants: NeumannConstants, n: int) -> float:
    # The midpoint double sum of (q1 - q2) r1 r2, r1 = (q1 - a3)^-1/2 and
    # r2 = (a1 - q2)^-1/2, separates in O(n) with q1 - q2 = (q1 - a2) + (a2 - q2),
    # q1 - a2 = (a1 - a2) sin^2 t and a2 - q2 = (a2 - a3) cos^2 t: every summand is
    # positive, where q1 r1 sum(r2) - sum(r1) q2 r2 would cancel.
    a1, a2, a3 = constants.alpha
    h = (math.pi / 2.0) / n
    t = (np.arange(n) + 0.5) * h
    sin2, cos2 = np.sin(t) ** 2, np.cos(t) ** 2
    r1 = 1.0 / np.sqrt((a2 - a3) + (a1 - a2) * sin2)
    r2 = 1.0 / np.sqrt(a1 - (a3 + (a2 - a3) * sin2))
    total = np.sum((a1 - a2) * sin2 * r1) * np.sum(r2) + np.sum(r1) * np.sum((a2 - a3) * cos2 * r2)
    return float(8.0 * h * h * total)


def neumann_to_cartesian(c: NeumannConstants, q1: float, q2: float, signs=(1, 1, 1)):
    """Cartesian point on the unit sphere from interlaced elliptic coordinates.

        x_i^2 = prod_j (alpha_i - q_j) / prod_{k != i} (alpha_i - alpha_k)

    The map is 8-to-1; the caller supplies the sign octant.
    """
    a = c.alpha
    if not (a[0] >= q1 >= a[1] >= q2 >= a[2]):
        raise DegeneratePoint(f"need alpha1 >= q1 >= alpha2 >= q2 >= alpha3, got {q1}, {q2}")
    x = np.empty(3)
    for i in range(3):
        others = [a[k] for k in range(3) if k != i]
        num = (a[i] - q1) * (a[i] - q2)
        den = (a[i] - others[0]) * (a[i] - others[1])
        val = num / den
        x[i] = math.copysign(math.sqrt(max(val, 0.0)), signs[i])
    return x


def cartesian_to_neumann(c: NeumannConstants, x) -> tuple[float, float]:
    """Elliptic coordinates as roots of the defining quadratic.

    Requires |x| = 1 and x off the coordinate planes (there the coordinates
    stick to the constants and the sign octant is ambiguous).
    """
    x = np.asarray(x, dtype=float)
    if abs(float(x @ x) - 1.0) > 1e-10:
        raise ValueError(f"|x|^2 = {float(x @ x)} is not 1")
    if np.min(np.abs(x)) < 1e-12:
        raise DegeneratePoint("a Cartesian component vanishes: elliptic coordinates degenerate")
    a1, a2, a3 = c.alpha
    xx = x**2
    s = (a2 + a3) * xx[0] + (a1 + a3) * xx[1] + (a1 + a2) * xx[2]
    t = a2 * a3 * xx[0] + a1 * a3 * xx[1] + a1 * a2 * xx[2]
    disc = s * s - 4.0 * t
    root = math.sqrt(max(disc, 0.0))
    q1 = 0.5 * (s + root)
    q2 = 0.5 * (s - root)
    return float(q1), float(q2)


def hyperbolic_chart(q1: float, q2_mag: float) -> tuple[float, float, float, float]:
    """Upper-half-plane chart for the degenerate cubic f(q) = 4 q^3, as
    (u, v, lam, h_over_mu): the chart point, the conformal factor lam = 1/v^2
    of the metric there, and the potential over mu.

    The strip has q1 > 0 > q2; the second argument is |q2|.  With
    X = q1^(-1/2), Y = |q2|^(-1/2) and z = (X + iY)^2 = u + iv the metric
    becomes (du^2 + dv^2)/v^2 and the potential h = mu (q1 + q2) = -4 mu u / v^2.
    """
    if q1 <= 0.0 or q2_mag <= 0.0:
        raise DegeneratePoint(f"need positive inputs, got ({q1}, {q2_mag})")
    X = q1 ** (-0.5)
    Y = q2_mag ** (-0.5)
    u = X * X - Y * Y
    v = 2.0 * X * Y
    return float(u), float(v), float(1.0 / (v * v)), float(-4.0 * u / (v * v))


def limit_cylinder_metric(lm: LimitModel, u_tilde) -> float:
    """Conformal factor of the cylinder limit in the rescaled coordinate
    ut2 = sqrt(c)(u2 - delta)/4, with Q2 from ``lm.at``:

        lam = 16 (beta1^2 - Q2^2) / c,
        Q2  = beta1 - 2 c / (sqrt(D) cosh(2 ut2) + b).

    beta1^2 - Q2^2 decays like A e^(-2|ut2|) with A = 8 beta1 c / sqrt(D),
    the same exponent as the cylinder form of the round metric.
    """
    _, ut2 = u_tilde
    q2 = lm.at(lm.delta + 4.0 * ut2 / math.sqrt(lm.c))[0]
    return 16.0 * (lm.beta1**2 - q2**2) / lm.c


def limit_metric_decay_constant(lm: LimitModel) -> float:
    """Decay constant A = 8 beta1 c / sqrt(D) of beta1^2 - Q2^2 in ut2."""
    return 8.0 * lm.beta1 * lm.c / math.sqrt(lm.D)
