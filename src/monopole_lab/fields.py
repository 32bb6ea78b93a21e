"""Electric potential, integral coefficients and magnetic gauge potential.

A :class:`SystemSpec` pins one of the four implemented families:

* ``CASE_I``        sphere in elliptic coordinates, cubic f(q) = 4 prod(alpha_i - q),
                    electric potential h = mu (q1 + q2);
* ``CASE_II``       torus/quotient-sphere family built from an admissible quartic,
                    h = mu / (Q1 + Q2);
* ``CASE_II_LIMIT`` cylinder degeneration beta2 -> beta1 of CASE_II;
* ``VY``            the two-centre system on the unit sphere in e(3)* variables.

The magnetic density B is a constant for every family, and the coupling in the
second integral is always k = -4 B / a3, derived and never stored.
:func:`normal_form` holds the CASE_I and CASE_II fields of H and F, each as a
:class:`Jet`: its values with their exact partial derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .elliptic import EllipticModel, LimitModel, build_model
from .errors import DegeneratePoint
from .polyroots import QuarticParams

__all__ = [
    "Family",
    "Jet",
    "SystemSpec",
    "case1_spec",
    "case2_spec",
    "case2_limit_spec",
    "vy_spec",
    "normal_form",
    "gauge_a",
]


class Family(str, Enum):
    CASE_I = "case1"
    CASE_II = "case2"
    CASE_II_LIMIT = "case2_limit"
    VY = "vy"


@dataclass(frozen=True)
class SystemSpec:
    """Complete system definition; k is derived, never user-set."""

    family: Family
    mu: float = 0.0
    B: float = 0.0
    alpha: tuple[float, float, float] | None = None
    quartic: QuarticParams | None = None
    limit: LimitModel | None = None
    vy_a: float | None = None
    vy_b: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            names = ", ".join(f.value for f in Family)
            raise ValueError(f"family must be a Family ({names}), got {self.family!r}")
        if self.family == Family.CASE_I:
            if self.alpha is None or len(self.alpha) != 3:
                raise ValueError("CASE_I needs three elliptic-coordinate constants")
            a1, a2, a3 = self.alpha
            if not (a1 > a2 > a3):
                raise ValueError(f"alpha must be strictly descending, got {self.alpha}")
        elif self.family == Family.CASE_II:
            if self.quartic is None:
                raise ValueError("CASE_II needs QuarticParams")
        elif self.family == Family.CASE_II_LIMIT:
            if self.limit is None:
                raise ValueError("CASE_II_LIMIT needs a LimitModel")
        elif self.family == Family.VY:
            if self.vy_a is None or self.vy_b is None:
                raise ValueError("VY needs the two metric parameters")
            if not (self.vy_a > self.vy_b > 0.0):
                raise ValueError(f"VY requires vy_a > vy_b > 0, got ({self.vy_a}, {self.vy_b})")

    @property
    def a3(self) -> float:
        """Leading coefficient of the metric polynomial f (or P)."""
        if self.family == Family.CASE_I:
            return -4.0  # f(q) = 4 (alpha1-q)(alpha2-q)(alpha3-q)
        if self.family == Family.CASE_II:
            return self.quartic.a3
        if self.family == Family.CASE_II_LIMIT:
            return -1.0
        raise ValueError("VY has no polynomial leading coefficient")

    @property
    def k(self) -> float:
        """Coupling of the linear-in-momentum terms: k = -4 B / a3."""
        return -4.0 * self.B / self.a3

    def f_cubic(self, q):
        """CASE_I metric cubic f(q) = 4 (alpha1-q)(alpha2-q)(alpha3-q)."""
        a1, a2, a3 = self.alpha
        return 4.0 * (a1 - q) * (a2 - q) * (a3 - q)

    @cached_property
    def model(self) -> EllipticModel:
        """The quartic's model, shared by every spec of that quartic in the process
        (EllipticModel.at's last point too); a refused quartic raises on every call."""
        if self.family != Family.CASE_II:
            raise ValueError("elliptic model only exists for CASE_II")
        return _shared_model(self.quartic, repr(self.quartic))

    @cached_property
    def gauge_i1(self):
        """The model's I1, the antiderivative of Q1^2 in the torus gauge (CASE_II)."""
        return self.model.i1


@lru_cache(maxsize=8)
def _shared_model(quartic: QuarticParams, exact: str) -> EllipticModel:
    # keyed on the repr too: a coefficient -0.0 equals 0.0 but keeps its sign in model.params
    return build_model(quartic)


def case1_spec(alpha, mu: float = 0.0, B: float = 0.0) -> SystemSpec:
    return SystemSpec(family=Family.CASE_I, mu=mu, B=B, alpha=tuple(float(a) for a in alpha))


def case2_spec(quartic: QuarticParams, mu: float = 0.0, B: float = 0.0) -> SystemSpec:
    return SystemSpec(family=Family.CASE_II, mu=mu, B=B, quartic=quartic)


def case2_limit_spec(limit: LimitModel, mu: float = 0.0, B: float = 0.0) -> SystemSpec:
    return SystemSpec(family=Family.CASE_II_LIMIT, mu=mu, B=B, limit=limit)


def vy_spec(vy_a: float, vy_b: float, mu: float = 0.0, B: float = 0.0) -> SystemSpec:
    return SystemSpec(family=Family.VY, mu=mu, B=B, vy_a=vy_a, vy_b=vy_b)


# ---------------------------------------------------------------------------
# jets: exact derivatives of the fields on a grid
# ---------------------------------------------------------------------------
#
# Forward-mode jets in two variables (Griewank & Walther, Evaluating
# Derivatives, 2nd ed., 2008).  A Jet carries a function's value v and its
# partials d1, d2 and d12 in (u1, u2), as floats or arrays that broadcast:
# no rule forms them from d11 or d22, and no check reads those.  A partial
# that is identically zero is None and takes no arithmetic, so a function of
# u1 alone stays an (n, 1) column: only the terms that mix the two axes fill
# an (n, n) grid.  The operators take the value through the very operation a
# plain array would, so a jet's value equals the plain evaluation bit for bit.
#
# A slice x = Q(u) with (x')^2 = c S(x) for a polynomial S seeds its jets
# exactly: differentiating the square gives the second derivative c S'(x)/2,
# so one value_and_deriv per axis and one polynomial evaluation give every
# derivative the fields need.


def _sum(*terms):
    """Sum of the partials that are not None (None when all are)."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _diff(a, *terms):
    """a less the terms that are not None (None when nothing is left)."""
    rest = _sum(*terms)
    return a if rest is None else -rest if a is None else a - rest


def _mul(a, b):
    return None if a is None or b is None else a * b


def _lift(x):
    return x if isinstance(x, Jet) else Jet(x)


class Jet:
    """Value, first partials and mixed partial of a function of (u1, u2)."""

    __slots__ = ("v", "d1", "d2", "d12")
    # an ndarray operand defers to the reflected operators below, which treat
    # it as a constant
    __array_ufunc__ = None

    def __init__(self, v, d1=None, d2=None, d12=None):
        self.v, self.d1, self.d2, self.d12 = v, d1, d2, d12

    @classmethod
    def along(cls, axis: int, v, dv) -> "Jet":
        """A function of u1 (axis 0) or u2 (axis 1) alone, from its value and derivative."""
        return cls(v, d1=dv) if axis == 0 else cls(v, d2=dv)

    @classmethod
    def from_values(cls, x, d, axis: int, c: float, poly) -> tuple["Jet", "Jet"]:
        """Jets of x = Q(u) and x' = Q'(u) from the slice's value x and derivative d,
        for a slice with x'^2 = c poly(x), ``poly`` in descending coefficients."""
        dd = 0.5 * c * np.polyval(np.polyder(poly), x)
        return cls.along(axis, x, d), cls.along(axis, d, dd)

    def partials(self) -> tuple:
        return self.d1, self.d2, self.d12

    def __neg__(self):
        return Jet(-self.v, *(_mul(-1.0, p) for p in self.partials()))

    def __add__(self, other):
        b = _lift(other)
        return Jet(self.v + b.v, *map(_sum, self.partials(), b.partials()))

    def __sub__(self, other):
        b = _lift(other)
        return Jet(self.v - b.v, *map(_diff, self.partials(), b.partials()))

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        a, b = self, _lift(other)
        return Jet(
            a.v * b.v,
            _sum(_mul(a.d1, b.v), _mul(a.v, b.d1)),
            _sum(_mul(a.d2, b.v), _mul(a.v, b.d2)),
            _sum(_mul(a.d12, b.v), _mul(a.d1, b.d2), _mul(a.d2, b.d1), _mul(a.v, b.d12)),
        )

    # a constant operand takes the jet rules with no partials; + and * commute
    # in floating point too, so the reflected forms round alike
    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n):
        if n != 2:
            raise ValueError("a jet is only squared")
        sq = self * self
        sq.v = self.v**2
        return sq

    def __truediv__(self, other):
        """a / b = q, each partial solved from the product rule of a = q b."""
        a, b = self, _lift(other)
        q, r = a.v / b.v, 1.0 / b.v
        q1 = _mul(_diff(a.d1, _mul(q, b.d1)), r)
        q2 = _mul(_diff(a.d2, _mul(q, b.d2)), r)
        return Jet(q, q1, q2, _mul(_diff(a.d12, _mul(q1, b.d2), _mul(q2, b.d1), _mul(q, b.d12)), r))

    def __rtruediv__(self, other):
        return _lift(other) / self

    def _chain(self, f, f1, f2) -> "Jet":
        """g(self) from g = f, g' = f1 and g'' = f2 at the value."""
        d1, d2 = self.d1, self.d2
        return Jet(
            f,
            _mul(f1, d1),
            _mul(f1, d2),
            _sum(_mul(f2, _mul(d1, d2)), _mul(f1, self.d12)),
        )

    def sqrt(self) -> "Jet":
        f = np.sqrt(self.v)
        f1 = 0.5 / f
        return self._chain(f, f1, -0.5 * f1 / self.v)


# ---------------------------------------------------------------------------
# the normal forms: each coordinate or slice enters as a jet, so every field
# comes with its exact partials
# ---------------------------------------------------------------------------


def stackel_components(f, q1, q2):
    """Covariant separable components ((q1-q2)/f(q1), (q2-q1)/f(q2)), vectorized."""
    return (q1 - q2) / f(q1), (q2 - q1) / f(q2)


def _torus_jets(model: EllipticModel, u1, u2):
    """Jets of Q1, Q1' at u1 and of Q2, Q2' at u2, exact from 4 Q1'^2 = P(Q1)
    and 4 Q2'^2 = -P(Q2): Q1'' = P'(Q1)/8, Q2'' = -P'(Q2)/8; one value_and_deriv
    per axis and no I1."""
    poly = model.params.coefficients()
    (x1, d1), (x2, d2) = model.branch1.value_and_deriv(u1), model.branch2.value_and_deriv(u2)
    return (*Jet.from_values(x1, d1, 0, 0.25, poly), *Jet.from_values(x2, d2, 1, -0.25, poly))


def _torus_varphi(spec: SystemSpec, x1, x2):
    return -spec.mu * x1 * x2 / (x1 + x2) - spec.k * spec.B * (x1 + x2) ** 2


def normal_form(spec: SystemSpec, a, b) -> tuple:
    """Jets of the diagonal normal form

        H = g^11 (p1-A1)^2 + g^22 (p2-A2)^2 + h,
        F = g^11 v^1 (p1-A1)^2 + g^22 v^2 (p2-A2)^2
            + phi^1 (p1-A1) + phi^2 (p2-A2) + varphi

    at (a, b), as (g11, g22, v1, v2, phi1, phi2, h, varphi) with g
    contravariant; a and b are floats or arrays that broadcast.

    CASE_I takes strip coordinates (q1, q2), q1 > q2, with the separable metric
    g_ii = +-(q1-q2)/f(q_i), v1 = q2, v2 = q1, h = mu (q1 + q2) and

        phi1 = -phi2 = k sqrt(-f(q1) f(q2)) / (q1 - q2),
        varphi = mu q1 q2 - k B (q1 + q2).

    This is the e(3)* Clebsch system on the leaf M.x = nu = B, with
    H_Clebsch = H + nu^2 - mu sum(alpha) and F_Clebsch = F + nu^2 sum(alpha),
    in one octant of the sphere: the strip chart covers each octant, and phi
    flips with the octant's orientation, so it is taken at -sgn(x1 x2 x3).

    CASE_II takes torus coordinates (u1, u2), with g^11 = g^22 = 1/(Q1^2 - Q2^2),
    v1 = Q2^2, v2 = Q1^2, h = mu / (Q1 + Q2) (denominator >= beta2 + beta3 > 0),

        phi1 = 2 k Q2' / (Q1 - Q2),   phi2 = -2 k Q1' / (Q1 - Q2),
        varphi = -mu Q1 Q2 / (Q1 + Q2) - k B (Q1 + Q2)^2,

    the regular torus form of phi: finite away from the four fixed points,
    where Q1 = Q2, and zero at the momenta-turning points Q1' = Q2' = 0.
    """
    if spec.family == Family.CASE_I:
        q1, q2 = Jet.along(0, a, 1.0), Jet.along(1, b, 1.0)
        radicand = -spec.f_cubic(q1) * spec.f_cubic(q2)
        if np.any(radicand.v <= 0.0):
            raise DegeneratePoint(f"f(q1) f(q2) >= 0 somewhere at ({a}, {b}): outside the strip")
        g11, g22 = stackel_components(spec.f_cubic, q1, q2)
        phi1 = spec.k * radicand.sqrt() / (q1 - q2)
        varphi = spec.mu * q1 * q2 - spec.k * spec.B * (q1 + q2)
        return 1.0 / g11, 1.0 / g22, q2, q1, phi1, -phi1, spec.mu * (q1 + q2), varphi
    if spec.family == Family.CASE_II:
        x1, d1, x2, d2 = _torus_jets(spec.model, a, b)
        gap = x1 - x2
        sep = np.abs(gap.v)
        if np.any(sep < 1e-9 * max(1.0, float(np.max(np.abs(x1.v))))):
            raise DegeneratePoint(f"x1 = x2: min |Q1 - Q2| = {float(np.min(sep)):.3e}")
        sq1, sq2 = x1**2, x2**2
        g = 1.0 / (sq1 - sq2)
        phi1, phi2 = 2.0 * spec.k * d2 / gap, -2.0 * spec.k * d1 / gap
        return g, g, sq2, sq1, phi1, phi2, spec.mu / (x1 + x2), _torus_varphi(spec, x1, x2)
    raise ValueError(f"no normal form for family {spec.family}")


def gauge_a(spec: SystemSpec, point):
    """Torus gauge potential (CASE_II): A1 = 0 and

        A2(u1, u2) = B * (I1(u1) - u1 * Q2(u2)^2),  I1(u1) = integral_0^u1 Q1^2,

    at point = (u1, u2), the bracket being the G of EllipticModel.at.  By
    construction d1 A2 - d2 A1 = B (Q1^2 - Q2^2) pointwise.  The expression
    lives on the covering plane; it is not periodic in u1 (the total flux
    obstructs any global gauge on the torus).
    """
    if spec.family != Family.CASE_II:
        raise ValueError("gauge_a is defined for CASE_II only")
    u1, u2 = point
    return 0.0, spec.B * spec.model.at(u1, u2)[4]

