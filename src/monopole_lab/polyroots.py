"""Quartic polynomial construction, root extraction and admissibility analysis.

Coefficient convention (kept everywhere, including the JSON configs):

    P(x) = a3*x**4 + a2*x**2 + a0*x + a1

There is no cubic term, ``a0`` multiplies x and ``a1`` is the constant.
The order is unusual on purpose; do not "fix" it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FewerThanFourRealRoots,
    MultipleRootDetected,
    NonZeroRootSum,
)

__all__ = [
    "QuarticParams",
    "RootQuadruple",
    "AdmissibilityReport",
    "eval_p",
    "eval_p_deriv",
    "discriminant",
    "real_roots",
    "admissibility",
    "from_roots",
]


@dataclass(frozen=True)
class QuarticParams:
    """Coefficients of P(x) = a3 x^4 + a2 x^2 + a0 x + a1 with a3 < 0."""

    a3: float
    a2: float
    a0: float
    a1: float

    def __post_init__(self) -> None:
        if not self.a3 < 0:
            raise ValueError(f"leading coefficient a3 must be negative, got {self.a3}")

    @property
    def scale(self) -> float:
        """Coefficient scale used to make tolerances relative."""
        return max(1.0, abs(self.a3), abs(self.a2), abs(self.a0), abs(self.a1))

    def coefficients(self) -> list[float]:
        """Coefficients in descending powers, including the zero cubic term."""
        return [self.a3, 0.0, self.a2, self.a0, self.a1]

    def config_dict(self) -> dict:
        """JSON-config form; "a0" is the linear key, "a1" the constant."""
        return {"a3": self.a3, "a2": self.a2, "a0": self.a0, "a1": self.a1}


@dataclass(frozen=True)
class RootQuadruple:
    """Four real roots in strictly descending order with zero sum.

    In the admissible regime the signs split as beta1 > beta2 > 0 > beta3 > beta4;
    the container itself only enforces ordering and the zero sum.
    """

    beta: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        b = self.beta
        if len(b) != 4:
            raise ValueError("expected exactly four roots")
        if not (b[0] > b[1] > b[2] > b[3]):
            raise ValueError(f"roots must be strictly descending, got {b}")
        tol = 1e-10 * max(abs(x) for x in b)
        if abs(sum(b)) > tol:
            raise NonZeroRootSum(f"root sum {sum(b):.3e} exceeds tolerance {tol:.3e}")

    @property
    def admissible(self) -> bool:
        """beta1 + beta4 < 0 and beta2 + beta3 > 0."""
        b = self.beta
        return (b[0] + b[3] < 0.0) and (b[1] + b[2] > 0.0)

    def __iter__(self):
        return iter(self.beta)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three independent admissibility checks.

    ``conditions_35``  sign pattern of the coefficients: a2 > 0, a3 < 0 and
                       a1 < a2/(4 a3) < 0.
    ``condition_36``   the degree-six coefficient inequality: a positive
                       discriminant (the inequality as printed divides it by
                       a3 < 0).
    ``root_inequalities``  beta1 + beta4 < 0 and beta2 + beta3 > 0, evaluated on
                       the numerically extracted roots (False when four real
                       roots cannot be extracted).

    The coefficient conditions and the root inequalities are reported
    independently rather than assumed equivalent: the coefficient conditions
    additionally pin the sign split beta2 > 0 > beta3 (through a1 < 0), which
    the root inequalities alone do not.
    """

    conditions_35: bool
    condition_36: bool
    root_inequalities: bool
    discriminant: float
    roots: RootQuadruple | None

    @property
    def admissible(self) -> bool:
        return self.conditions_35 and self.condition_36 and self.root_inequalities


def eval_p(params: QuarticParams, x):
    """Evaluate P(x) = a3 x^4 + a2 x^2 + a0 x + a1 (scalar or array)."""
    return np.polyval(params.coefficients(), x)


def eval_p_deriv(params: QuarticParams, x):
    """Evaluate P'(x) (scalar or array)."""
    return np.polyval(np.polyder(np.array(params.coefficients())), x)


def discriminant(params: QuarticParams) -> float:
    """Discriminant of P, written out for the coefficient order used here:

    256 a1^3 a3^3 - 128 a1^2 a2^2 a3^2 + 144 a0^2 a1 a2 a3^2
    - 27 a0^4 a3^2 + 16 a1 a2^4 a3 - 4 a0^2 a2^3 a3
    """
    a3, a2, a0, a1 = params.a3, params.a2, params.a0, params.a1
    return (
        256.0 * a1**3 * a3**3
        - 128.0 * a1**2 * a2**2 * a3**2
        + 144.0 * a0**2 * a1 * a2 * a3**2
        - 27.0 * a0**4 * a3**2
        + 16.0 * a1 * a2**4 * a3
        - 4.0 * a0**2 * a2**3 * a3
    )


def _horner(coeffs: list, x: float) -> float:
    """np.polyval(coeffs, x) for a float x, with np.polyval's operations."""
    y = 0.0
    for a in coeffs:
        y = y * x + a
    return y


def _newton_polish(coeffs: list, dcoeffs: list, x: float, sweeps: int = 3) -> float:
    """Newton on the polynomial with descending ``coeffs`` (derivative
    ``dcoeffs``), in Python floats."""
    for _ in range(sweeps):
        p = _horner(coeffs, x)
        dp = _horner(dcoeffs, x)
        if dp == 0.0:
            break
        step = p / dp
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def real_roots(params: QuarticParams) -> RootQuadruple:
    """Extract the four real roots, sorted descending.

    Companion-matrix eigenvalues (via ``numpy.roots``) followed by a Newton
    polish.  Raises :class:`MultipleRootDetected` when the discriminant is
    below the degeneracy threshold and :class:`FewerThanFourRealRoots` when
    complex roots are present.
    """
    scale = params.scale
    disc = discriminant(params)
    # the quartic discriminant is homogeneous of degree 6 in the coefficients
    if abs(disc) < 1e-10 * scale**6:
        raise MultipleRootDetected(
            f"|discriminant| = {abs(disc):.3e} below threshold; "
            "use the limit-case operations for coalescing roots"
        )
    raw = np.roots(params.coefficients())
    imag_tol = 1e-8 * max(1.0, float(np.max(np.abs(raw))))
    reals = [float(r.real) for r in raw if abs(r.imag) < imag_tol]
    if len(reals) != 4:
        raise FewerThanFourRealRoots(
            f"found {len(reals)} real roots (discriminant {disc:.3e})"
        )
    coeffs = [float(a) for a in params.coefficients()]
    # np.polyder's coefficients: a_k times its power
    dcoeffs = [a * k for a, k in zip(coeffs, (4.0, 3.0, 2.0, 1.0))]
    polished = sorted((_newton_polish(coeffs, dcoeffs, r) for r in reals), reverse=True)
    for r in polished:
        res_scale = 1e-10 * scale * max(1.0, abs(r)) ** 4
        residual = abs(_horner(coeffs, r))
        if residual > res_scale:
            raise FewerThanFourRealRoots(f"root {r!r} failed to polish: |P| = {residual:.3e}")
    return RootQuadruple(beta=tuple(polished))


def admissibility(params: QuarticParams) -> AdmissibilityReport:
    """Evaluate the coefficient conditions and the root inequalities.

    Never raises; extraction failures surface as ``root_inequalities=False``.
    """
    a3, a2, a0, a1 = params.a3, params.a2, params.a0, params.a1
    quarter = a2 / (4.0 * a3)
    conditions_35 = (a2 > 0.0) and (a3 < 0.0) and (a1 < quarter < 0.0)
    disc = discriminant(params)
    roots: RootQuadruple | None
    try:
        roots = real_roots(params)
        root_inequalities = roots.admissible
    except (FewerThanFourRealRoots, MultipleRootDetected, NonZeroRootSum):
        roots = None
        root_inequalities = False
    return AdmissibilityReport(
        conditions_35=conditions_35,
        condition_36=disc > 0.0,
        root_inequalities=root_inequalities,
        discriminant=disc,
        roots=roots,
    )


def from_roots(beta, a3: float) -> QuarticParams:
    """Expand a3 * (x - b1)(x - b2)(x - b3)(x - b4) into QuarticParams.

    The roots must sum to zero (otherwise the cubic term would survive).
    """
    b = [float(x) for x in beta]
    if len(b) != 4:
        raise ValueError("expected exactly four roots")
    tol = 1e-10 * max(1.0, max(abs(x) for x in b))
    if abs(sum(b)) > tol:
        raise NonZeroRootSum(f"root sum {sum(b):.3e} exceeds tolerance {tol:.3e}")
    monic = np.poly(b)  # [1, -e1, e2, -e3, e4]
    coeffs = a3 * monic
    return QuarticParams(a3=a3, a2=float(coeffs[2]), a0=float(coeffs[3]), a1=float(coeffs[4]))
