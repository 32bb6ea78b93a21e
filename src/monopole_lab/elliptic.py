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
derivative).  Each slice is evaluated from its geometrically convergent
cosine series in u, and its derivative from the differentiated series, which
meets these relations to round-off, turning points included (see
``_inversion``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._inversion import QuarterBranch, _is_scalar
from .errors import InadmissibleParams, NonZeroRootSum, NotEvenQuartic, OutOfRange
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
    "q1",
    "q2",
    "dq1",
    "dq2",
    "invert_u",
    "jacobi_special",
    "limit_q2",
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

    def q1_squared_antiderivative(self):
        """Callable I(u) = integral_0^u Q1(s)^2 ds (used by the torus gauge)."""
        return self.branch1.cumulative(lambda x: x * x)


def build_model(params: QuarticParams) -> EllipticModel:
    """Build the evaluators; raises InadmissibleParams outside the regular regime.

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
        raise InadmissibleParams(
            f"root inequalities fail: beta1+beta4 = {b1 + b4:.3e}, "
            f"beta2+beta3 = {b2 + b3:.3e} "
            f"(coefficient conditions: {report.conditions_35}, {report.condition_36})"
        )
    a3 = float(params.a3)
    # branch 1: (dx/du)^2 = P(x)/4 on [beta2, beta1]
    branch1 = QuarterBranch(
        x_start=b2,
        x_end=b1,
        rest=lambda x: (-a3 / 4.0) * (x - b3) * (x - b4),
    )
    # branch 2: (dx/du)^2 = -P(x)/4 on [beta3, beta2]
    branch2 = QuarterBranch(
        x_start=b2,
        x_end=b3,
        rest=lambda x: (-a3 / 4.0) * (b1 - x) * (x - b4),
    )
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


def q1(model: EllipticModel, u1):
    """First slice: range [beta2, beta1], even, period 2 K1."""
    return model.q1(u1)


def q2(model: EllipticModel, u2):
    """Second slice: range [beta3, beta2], even, period 2 K2."""
    return model.q2(u2)


def dq1(model: EllipticModel, u1):
    """Q1', odd and 2 K1-periodic, with 4 Q1'^2 = P(Q1)."""
    return model.dq1(u1)


def dq2(model: EllipticModel, u2):
    """Q2', odd and 2 K2-periodic, with 4 Q2'^2 = -P(Q2)."""
    return model.dq2(u2)


def invert_u(model: EllipticModel, x: float, branch: str = "q1") -> float:
    """First-quarter inverse: u in [0, K] with Q(u) = x.

    ``branch`` selects the slice: "q1" needs x in [beta2, beta1], "q2" needs
    x in [beta3, beta2].
    """
    b1, b2, b3, _ = model.beta
    if branch == "q1":
        if not (b2 - 1e-12 <= x <= b1 + 1e-12):
            raise OutOfRange(f"x = {x} outside [{b2}, {b1}]")
        return float(model.branch1.invert(x))
    if branch == "q2":
        if not (b3 - 1e-12 <= x <= b2 + 1e-12):
            raise OutOfRange(f"x = {x} outside [{b3}, {b2}]")
        return float(model.branch2.invert(x))
    raise ValueError(f"unknown branch {branch!r}")


def jacobi_special(model: EllipticModel, z):
    """Closed form for the even quartic (a0 = 0) via the Jacobi dn function.

    For P(x) = a3 (x^2 - beta1^2)(x^2 - beta2^2) the slice Q1 is

        Q1(z) = beta2 / dn(alpha z | m),
        alpha = sqrt(-a3) * beta1 / 2,   m = 1 - (beta2/beta1)^2.

    The phase and modulus are calibrated against Q1(0) = beta2 and
    Q1(K1) = beta1 rather than taken from any printed formula (formulas in
    circulation shift the argument by a root value and put a3 under the root
    with the wrong sign; both are transcription slips).
    """
    from scipy.special import ellipj  # its only user; `import monopole_lab` stays scipy-free

    params = model.params
    if abs(params.a0) > 1e-12 * params.scale:
        raise NotEvenQuartic(f"linear coefficient a0 = {params.a0} is not zero")
    b1, b2 = model.beta[0], model.beta[1]
    alpha = math.sqrt(-params.a3) * b1 / 2.0
    m = 1.0 - (b2 / b1) ** 2
    _, _, dn, _ = ellipj(np.asarray(z, dtype=float) * alpha, m)
    out = b2 / dn
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

    def __post_init__(self) -> None:
        s = 2.0 * self.beta1 + self.beta3 + self.beta4
        if abs(s) > 1e-10 * max(1.0, abs(self.beta1), abs(self.beta4)):
            raise NonZeroRootSum(f"2*beta1 + beta3 + beta4 = {s:.3e} must vanish")
        if not (self.beta1 > 0.0 > self.beta3 > self.beta4):
            raise ValueError(
                f"need beta1 > 0 > beta3 > beta4, got "
                f"({self.beta1}, {self.beta3}, {self.beta4})"
            )
        if not self.beta1 + self.beta3 > 0.0:
            raise InadmissibleParams("limit model needs beta2 + beta3 = beta1 + beta3 > 0")

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
    def _slice_constants(self) -> tuple[float, float, float, float, float]:
        """sqrt(c), a = sqrt(D), w, J1(-inf) and J2(-inf) of :func:`_limit_slice`."""
        b, c = self.b, self.c
        sqc, a = math.sqrt(c), math.sqrt(self.D)
        w = math.sqrt((b - a) / (b + a))
        j1_inf = -math.atanh(w) / sqc
        return sqc, a, w, j1_inf, (b * j1_inf + 1.0) / (4.0 * c)


def _limit_slice(lm: LimitModel, u2):
    """(Q2, dQ2/du, G) of the degenerate slice from one s and one cosh(s).

    With s = sqrt(c)(u - delta)/2 and den = 2 sqrt(D) cosh(s) + 2b,

        Q2  = beta1 - 4c / den,
        Q2' = 4c sqrt(D) sqrt(c) sinh(s) / den^2   (0 where den overflows),
        G   = (2/sqrt(c)) [4c beta1 (J1(s) - J1(-inf)) - 4c^2 (J2(s) - J2(-inf))],

    where G = integral_{-inf}^{u} (beta1^2 - Q2^2) is the gauge integral
    (A1 = (B/c) G), in closed form through the antiderivatives of
    1/(a cosh s + b) and its square, a = sqrt(D):

        J1(s) = artanh(w tanh(s/2)) / sqrt(c),   w = sqrt((b-a)/(b+a)),
        J2(s) = [b J1(s) - a tanh(s)/(a + b sech(s))] / (4c).

    A scalar u gives floats, an array arrays.  The hyperbolic functions stay
    numpy's for both: the libm ones round differently on some inputs.
    """
    scalar = _is_scalar(u2)
    u = float(u2) if scalar else np.asarray(u2, dtype=float)
    b, c = lm.b, lm.c
    sqc, a, w, j1_inf, j2_inf = lm._slice_constants
    s = 0.5 * sqc * (u - lm.delta)
    # cosh overflows to inf far out (Q2 -> beta1, dQ2/du -> 0)
    with np.errstate(over="ignore", invalid="ignore"):
        cosh = np.cosh(s)
        den = 2.0 * a * cosh + 2.0 * b
        q2 = lm.beta1 - 4.0 * c / den
        d2 = 4.0 * c * a * sqc * np.sinh(s) / den**2
        d2 = (d2 if math.isfinite(den) else 0.0) if scalar else np.where(np.isfinite(den), d2, 0.0)
        j1 = np.arctanh(w * np.tanh(s / 2.0)) / sqc
        j2 = (b * j1 - a * np.tanh(s) / (a + b * (1.0 / cosh))) / (4.0 * c)
        e1 = (2.0 / sqc) * 2.0 * c * (j1 - j1_inf)
        e2 = (2.0 / sqc) * 4.0 * c * c * (j2 - j2_inf)
        g = 2.0 * lm.beta1 * e1 - e2
    if scalar:
        return float(q2), float(d2), float(g)
    return q2, d2, g


def limit_q2(lm: LimitModel, u2):
    """Degenerate second slice

        Q2(u) = beta1 - 4 c e^(s) / ((b + e^s)^2 - 4c),   s = sqrt(c) u / 2,
              = beta1 - 4 c / (2 sqrt(D) cosh(sqrt(c)(u - delta)/2) + 2 b),

    symmetric about u = delta, approaching beta1 as u -> +-inf.  The cosh form
    is used for evaluation (it degrades gracefully to beta1 on overflow).
    """
    return _limit_slice(lm, u2)[0]


def limit_q2_deriv(lm: LimitModel, u2):
    """dQ2/du for the degenerate slice (closed form)."""
    return _limit_slice(lm, u2)[1]
