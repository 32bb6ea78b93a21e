"""The elliptic function behind the special sphere metrics.

``build_model`` constructs, for an admissible quartic P, the even elliptic
function Q with 4 Q'^2 = P(Q), through its two real slices:

    Q1(u1)  rises from beta2 to beta1 over [0, K1], even, period 2 K1,
    Q2(u2)  falls from beta2 to beta3 over [0, K2], even, period 2 K2,

with the half periods given by the turning-point integrals

    K1 = integral beta2..beta1 of 2 dx / sqrt(P(x)),
    K2 = integral beta3..beta2 of 2 dx / sqrt(-P(x)).

Q1 satisfies 4 Q1'^2 = P(Q1); the imaginary-axis slice Q2 satisfies
4 Q2'^2 = -P(Q2) (the slice direction flips the sign of the squared
derivative).  Each slice is a Moebius image of the Jacobi cn^2 (see
``_inversion``), evaluated from its geometrically convergent cosine series in
u; its derivative, the differentiated series, meets these relations to
round-off, turning points included.  In the coalescing-root limit
beta2 -> beta1, ``LimitModel.at`` gives the elementary Q2, Q2' and the gauge
integral at u2, as ``EllipticModel.at`` gives a torus point's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._inversion import QuarterBranch, _is_scalar, _Landen
from .errors import GeometryError
from .polyroots import (
    QuarticParams,
    RootQuadruple,
    admissibility,
    from_roots,
    real_roots,
)

__all__ = [
    "EllipticModel",
    "LimitModel",
    "build_model",
    "build_model_from_roots",
    "jacobi_special",
]


@dataclass(frozen=True)
class EllipticModel:
    """Immutable bundle of the quartic, its roots, periods and evaluators."""

    params: QuarticParams
    roots: RootQuadruple
    K1: float
    K2: float
    branch1: QuarterBranch
    branch2: QuarterBranch
    _last: tuple = field(default=(math.nan, math.nan, None), init=False, repr=False, compare=False)

    @property
    def beta(self) -> tuple[float, float, float, float]:
        return self.roots.beta

    def q1(self, u1):
        return self.branch1.value(u1)

    def q2(self, u2):
        return self.branch2.value(u2)

    def dq1(self, u1):
        return self.branch1.deriv(u1)

    def dq2(self, u2):
        return self.branch2.deriv(u2)

    @cached_property
    def i1(self):
        """I1(u1) = integral_0^u1 Q1^2, the antiderivative in the torus gauge."""
        return self.branch1.cumulative(lambda x: x * x)

    def at(self, u1, u2) -> tuple:
        """(Q1, Q1', Q2, Q2', G) at the torus point (u1, u2), G = I1(u1) - u1 Q2(u2)^2
        (the torus gauge is A2 = B G), in one pass per axis: Q1, Q1' and I1 at
        u1, Q2 and Q2' at u2.  The result at the last pair of Python floats is
        kept in _last, one slot replaced whole; a hit returns what a fresh
        evaluation would (-0.0 gives what 0.0 does), NaN never hits, and arrays
        and 0-d numpy values bypass the slot.
        """
        memo = type(u1) is float and type(u2) is float
        if memo:
            last_u1, last_u2, out = self._last
            if last_u1 == u1 and last_u2 == u2:
                return out
        x1, d1, i1 = self.branch1.value_and_deriv(u1, self.i1)
        x2, d2 = self.branch2.value_and_deriv(u2)
        out = (x1, d1, x2, d2, i1 - u1 * x2**2)
        if memo:
            object.__setattr__(self, "_last", (u1, u2, out))
        return out


def build_model(params: QuarticParams) -> EllipticModel:
    """Build a new model on every call; raises GeometryError outside the regular regime.

    The closed admissible region is accepted: the boundary beta1 + beta4 = 0
    (even quartic, a0 = 0) still carries a regular metric, only the electric
    potential acquires two poles there.
    """
    roots = real_roots(params)  # raises on complex or multiple roots
    # Python floats keep the scalar slice evaluations in float arithmetic
    b1, b2, b3, b4 = (float(b) for b in roots.beta)
    tol = 1e-12 * max(abs(x) for x in roots.beta)
    if b1 + b4 > tol or b2 + b3 < -tol:
        report = admissibility(params)
        raise GeometryError(
            f"root inequalities fail: beta1+beta4 = {b1 + b4:.3e}, "
            f"beta2+beta3 = {b2 + b3:.3e} "
            f"(coefficient conditions: {report.conditions_35}, {report.condition_36})"
        )
    a3 = float(params.a3)
    # branch 1: (dx/du)^2 = P(x)/4 on [beta2, beta1]; branch 2: -P(x)/4 on
    # [beta3, beta2]; the other two roots follow in projective order
    branch1 = QuarterBranch(b2, b1, b4, b3, -a3 / 4.0)
    branch2 = QuarterBranch(b2, b3, b4, b1, -a3 / 4.0)
    return EllipticModel(
        params=params,
        roots=roots,
        K1=branch1.K,
        K2=branch2.K,
        branch1=branch1,
        branch2=branch2,
    )


def build_model_from_roots(beta, a3: float = -1.0) -> EllipticModel:
    return build_model(from_roots(beta, a3))


def jacobi_special(model: EllipticModel, z):
    """Closed form for the even quartic (a0 = 0) via the Jacobi dn function.

    For P(x) = a3 (x^2 - beta1^2)(x^2 - beta2^2) the slice Q1 is

        Q1(z) = beta2 / dn(alpha z | m),
        alpha = sqrt(-a3) * beta1 / 2,   m = 1 - (beta2/beta1)^2,

    with dn^2 = k'^2 + m cn^2, k' = beta2/beta1, and cn from the Landen
    sequence that the slices use.

    The phase and modulus are calibrated against Q1(0) = beta2 and
    Q1(K1) = beta1 rather than taken from any printed formula (formulas in
    circulation shift the argument by a root value and put a3 under the root
    with the wrong sign; both are transcription slips).
    """
    params = model.params
    if abs(params.a0) > 1e-12 * params.scale:
        raise GeometryError(f"linear coefficient a0 = {params.a0} is not zero")
    b1, b2 = model.beta[0], model.beta[1]
    alpha = math.sqrt(-params.a3) * b1 / 2.0
    kp = b2 / b1
    m = (b1 - b2) * (b1 + b2) / (b1 * b1)
    cn = np.cos(_Landen(m, kp).am(np.asarray(z, dtype=float) * alpha))
    out = b2 / np.sqrt(kp * kp + m * cn * cn)
    return out if np.asarray(out).shape else float(out)


@dataclass(frozen=True)
class LimitModel:
    """Coalescing-root limit beta2 -> beta1 (leading coefficient fixed at -1).

    Stores the surviving data: beta1 (= beta2), beta3, beta4 with
    2*beta1 + beta3 + beta4 = 0, and the derived constants

        b = 4 beta1,  c = (beta1 - beta3)(beta1 - beta4),
        D = b^2 - 4c = 4 (beta1 + beta3)^2 > 0,  delta = ln(D)/sqrt(c).

    Under the zero-sum constraint, strict ordering beta3 > beta4 is the same
    thing as beta1 + beta3 > 0 (the surviving root inequality), so D > 0 holds
    automatically for every valid instance.
    """

    beta1: float
    beta3: float
    beta4: float
    _last: tuple = field(default=(math.nan, None), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = 2.0 * self.beta1 + self.beta3 + self.beta4
        if abs(s) > 1e-10 * max(1.0, abs(self.beta1), abs(self.beta4)):
            raise GeometryError(f"2*beta1 + beta3 + beta4 = {s:.3e} must vanish")
        if not (self.beta1 > 0.0 > self.beta3 > self.beta4):
            raise ValueError(
                f"need beta1 > 0 > beta3 > beta4, got "
                f"({self.beta1}, {self.beta3}, {self.beta4})"
            )
        if not self.beta1 + self.beta3 > 0.0:
            raise GeometryError("limit model needs beta2 + beta3 = beta1 + beta3 > 0")

    @cached_property
    def b(self) -> float:
        return 4.0 * self.beta1

    @cached_property
    def c(self) -> float:
        return (self.beta1 - self.beta3) * (self.beta1 - self.beta4)

    @cached_property
    def D(self) -> float:
        return self.b**2 - 4.0 * self.c

    @cached_property
    def delta(self) -> float:
        return math.log(self.D) / math.sqrt(self.c)

    @cached_property
    def _slice_constants(self) -> tuple[float, float, float, float, float, float]:
        """sqrt(c), a = sqrt(D), w, J1(-inf), J2(-inf) and s_float of :meth:`at`."""
        b, c = self.b, self.c
        sqc, a = math.sqrt(c), math.sqrt(self.D)
        w = math.sqrt((b - a) / (b + a))
        j1_inf = -math.atanh(w) / sqc
        s_float = min(700.0, math.log(5e149) - math.log(a + b))  # den <= 2 (a + b) e^|s| < 1e150
        return sqc, a, w, j1_inf, (b * j1_inf + 1.0) / (4.0 * c), s_float

    def at(self, u2):
        """(Q2, dQ2/du, G) of the degenerate slice from one s and one cosh(s).

        With s = sqrt(c)(u - delta)/2 and den = 2 sqrt(D) cosh(s) + 2b,

            Q2  = beta1 - 4c / den,
            Q2' = 4c sqrt(D) sqrt(c) sinh(s) / den^2   (0 where den or Q2' overflows),
            G   = (2/sqrt(c)) [4c beta1 (J1(s) - J1(-inf)) - 4c^2 (J2(s) - J2(-inf))],

        where G = integral_{-inf}^{u} (beta1^2 - Q2^2) is the gauge integral
        (A1 = (B/c) G), in closed form through the antiderivatives of
        1/(a cosh s + b) and its square, a = sqrt(D):

            J1(s) = artanh(w tanh(s/2)) / sqrt(c),   w = sqrt((b-a)/(b+a)),
            J2(s) = [b J1(s) - a tanh(s)/(a + b sech(s))] / (4c).

        Q2 is symmetric about u = delta and tends to beta1 as u -> +-inf.

        A scalar u gives floats, an array arrays.  The hyperbolic functions stay
        numpy's for both: the libm ones round differently on some inputs.  A
        scalar converts each ufunc result to a float and does the arithmetic in
        floats while |s| < s_float (about 340), where den^2 is finite: past it
        Python's float ** raises OverflowError where numpy gives inf, and numpy's
        cosh warns past |s| = 710.5, so there it takes numpy scalars with overflow
        silenced, as an array does.  The result at the last Python float u is
        kept, in _last (u = 0 aside: 0.0 == -0.0, and Q2' keeps the sign of
        s = -0.0); 0-d numpy values and arrays bypass it.
        """
        last_u, out = self._last
        if type(u2) is float and last_u == u2 and u2 != 0.0:
            return out
        scalar = _is_scalar(u2)
        sqc, _, _, _, _, s_float = self._slice_constants
        s = 0.5 * sqc * ((float(u2) if scalar else np.asarray(u2, dtype=float)) - self.delta)
        if scalar and abs(s) < s_float:
            out = _limit_terms(self, s, float)[:3]
        else:
            # cosh overflows to inf far out (Q2 -> beta1, dQ2/du -> 0), and just
            # before it sinh(s) times 4c sqrt(D) sqrt(c) does, so den^2 is inf first
            with np.errstate(over="ignore", invalid="ignore"):
                q2, d2, g, den = _limit_terms(self, s, lambda v: v)
                d2 = np.where(np.isfinite(den) & np.isfinite(d2), d2, 0.0)
            out = (float(q2), float(d2), float(g)) if scalar else (q2, d2, g)
        if type(u2) is float:
            object.__setattr__(self, "_last", (u2, out))
        return out


def _limit_terms(lm: LimitModel, s, f):
    """(Q2, dQ2/du, G, den) of :meth:`LimitModel.at` at s; f maps each ufunc result."""
    b, c = lm.b, lm.c
    sqc, a, w, j1_inf, j2_inf, _ = lm._slice_constants
    cosh = f(np.cosh(s))
    den = 2.0 * a * cosh + 2.0 * b
    q2 = lm.beta1 - 4.0 * c / den
    d2 = 4.0 * c * a * sqc * f(np.sinh(s)) / den**2
    j1 = f(np.arctanh(w * f(np.tanh(s / 2.0)))) / sqc
    j2 = (b * j1 - a * f(np.tanh(s)) / (a + b * (1.0 / cosh))) / (4.0 * c)
    e1 = (2.0 / sqc) * 2.0 * c * (j1 - j1_inf)
    e2 = (2.0 / sqc) * 4.0 * c * c * (j2 - j2_inf)
    return q2, d2, 2.0 * lm.beta1 * e1 - e2, den
