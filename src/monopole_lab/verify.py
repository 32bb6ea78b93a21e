"""Grid verification of the integrability conditions and proof identities.

For systems written in the diagonal normal form

    H = g^11 (p1-A1)^2 + g^22 (p2-A2)^2 + h,
    F = g^11 v^1 (p1-A1)^2 + g^22 v^2 (p2-A2)^2
        + phi^1 (p1-A1) + phi^2 (p2-A2) + varphi,

commutation {H, F} = 0 is equivalent to the condition system

    (C1)  d_i v^i = 0,
    (C2)  d_j v^i = (v^j - v^i) d_j ln g^ii          (i != j),
    (C3)  d_i phi^i = (phi^1 d_1 g^ii + phi^2 d_2 g^ii) / (2 g^ii),
    (C4)  2 sqrt(g11 g22) (v^2 - v^1) B = g^22 d_2 phi^1 + g^11 d_1 phi^2,
    (C5)  d_1 varphi - v^1 d_1 h - phi^2 B / sqrt(g11 g22) = 0,
          d_2 varphi - v^2 d_2 h + phi^1 B / sqrt(g11 g22) = 0,
    (C6)  phi^1 d_1 h + phi^2 d_2 h = 0,

with the quantum replacement of the last condition

    (C6*) (C6) + sqrt(g11 g22) (v^2-v^1)
                 (d2 g11/g11 d1 B + d1 g22/g22 d2 B - d1 d2 B) = 0,

whose extra term vanishes identically for constant magnetic density.  The
cross-differentiation consistency of (C5), d_2 of its first equation less d_1
of its second, is free of varphi:

    d1 v^2 d2 h - d2 v^1 d1 h + (v^2 - v^1) d1 d2 h
        - d2 (phi^2 B / sqrt(g11 g22)) - d1 (phi^1 B / sqrt(g11 g22)),

and it vanishes with (C6*) of the grid with h and B exchanged: the duality
check reads the difference of the two, each from its own terms.

All grid metric components here are CONTRAVARIANT (as they appear multiplying
the momenta in H); covariant samplers are inverted at ingestion.  Every grid
field is a :class:`~monopole_lab.fields.Jet`, its values with their exact
partials d1, d2 and d1 d2: on the torus every field is rational in
(Q1, Q1', Q2, Q2') with Q1'' = P'(Q1)/8 and Q2'' = -P'(Q2)/8, and the case1
grid is sampled in q itself, where every field is algebraic; both come from
:func:`~monopole_lab.fields.normal_form`.  The checks read every grid point,
and every condition residual is normalized by the largest magnitude among its
own additive terms on the grid.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import FunctionalDomainError, SingularSample
from .fields import Family, Jet, SystemSpec, normal_form

__all__ = [
    "AnsatzGrid",
    "ConditionReport",
    "build_case1_grid",
    "build_case2_grid",
    "swap_h_and_b",
    "check_classical",
    "check_quantum_c6star",
    "c6star_field",
    "consistency_field",
    "check_duality",
    "check_ode_identities",
    "check_functional_equation",
]

_WINDOW = (0.3, 0.7)  # the fraction of each axis interval that both grids sample

_FIELDS = ("g11", "g22", "v1", "v2", "phi1", "phi2", "h", "varphi", "B")


@dataclass(frozen=True)
class AnsatzGrid:
    """Uniform rectangular grid of sampled normal-form fields.

    ``g11``/``g22`` are contravariant; ``B`` is a full field (constant for all
    built-in systems, but synthetic grids may vary it).  Every field is a
    :class:`Jet` in (axis1, axis2) whose value and partials broadcast to the
    grid: a scalar, an (n, 1) or (1, n) column, or the full grid.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    g11: Jet
    g22: Jet
    v1: Jet
    v2: Jet
    phi1: Jet
    phi2: Jet
    h: Jet
    varphi: Jet
    B: Jet

    def __post_init__(self):
        for name in _FIELDS:
            if not isinstance(getattr(self, name), Jet):
                raise TypeError(f"grid field {name} must be a Jet: the checks read its exact partials")

    @property
    def shape(self) -> tuple[int, int]:
        return self.axis1.size, self.axis2.size


def _grid(spec: SystemSpec, axis1: np.ndarray, axis2: np.ndarray) -> AnsatzGrid:
    """The normal form's jets on the mesh of two axes, taken on an (n, 1) and a
    (1, n) column, so what depends on one axis alone is evaluated n times."""
    return AnsatzGrid(axis1, axis2, *normal_form(spec, axis1[:, None], axis2[None, :]), B=Jet(spec.B))


def build_case1_grid(spec: SystemSpec, n: int = 64) -> AnsatzGrid:
    """Sample the cubic sphere family on an interior strip rectangle, with
    the exact jets of its fields in (q1, q2)."""
    if spec.family != Family.CASE_I:
        raise ValueError("build_case1_grid needs a CASE_I spec")
    a1, a2, a3 = spec.alpha
    lo, hi = _WINDOW
    return _grid(spec, a2 + np.linspace(lo, hi, n) * (a1 - a2), a3 + np.linspace(lo, hi, n) * (a2 - a3))


def build_case2_grid(spec: SystemSpec, n: int = 64) -> AnsatzGrid:
    """Sample the torus family on an interior window of the first quadrant,
    with the exact jets of its fields in (u1, u2).

    Every field depends on u1 only through Q1, Q1' and on u2 only through
    Q2, Q2', so each slice is solved on its axis alone.
    """
    if spec.family != Family.CASE_II:
        raise ValueError("build_case2_grid needs a CASE_II spec")
    m = spec.model
    lo, hi = _WINDOW
    return _grid(spec, np.linspace(lo, hi, n) * m.K1, np.linspace(lo, hi, n) * m.K2)


def swap_h_and_b(grid: AnsatzGrid) -> AnsatzGrid:
    return replace(grid, h=grid.B, B=grid.h)


def _d(jet: Jet, axis: int, log: bool = False):
    """d_(axis+1) of a grid field, or of its log (d log g = dg / g), in the
    jet's own shape; an identically zero partial is 0.0."""
    part = (jet.d1, jet.d2)[axis]
    if part is None:
        return 0.0
    return part / jet.v if log else part


def _d12(jet: Jet):
    """The mixed d1 d2 of a grid field, 0.0 when identically zero."""
    return 0.0 if jet.d12 is None else jet.d12


def _values(grid: AnsatzGrid) -> tuple:
    """The values of the grid's fields, in the order of _FIELDS."""
    return tuple(getattr(grid, f).v for f in _FIELDS)


def _normalized_max(residual, terms: list) -> float:
    # np.abs of a float is a numpy scalar, so .max() takes floats and arrays alike
    scale = max(float(np.abs(t).max()) for t in terms)
    scale = max(scale, 1e-300)
    return float(np.abs(residual).max()) / scale


def _sum(terms: list):
    """A row's signed terms added left to right; a - b is exactly a + (-b)."""
    return functools.reduce(operator.add, terms)


def _row(terms: list) -> float:
    """Max |sum of a row's signed additive terms| on the grid over the largest |term|."""
    return _normalized_max(_sum(terms), terms)


@dataclass(frozen=True)
class ConditionReport:
    """Max normalized residuals per condition."""

    residuals: dict[str, float]
    n: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def check_classical(grid: AnsatzGrid, stencil=None) -> ConditionReport:
    """Max normalized residuals of (C1)-(C6).  ``stencil`` is ignored: every
    derivative is exact, and callers that pass an order positionally still run."""
    g11, g22, v1, v2, phi1, phi2, _, _, B = _values(grid)
    d1 = lambda jet, log=False: _d(jet, 0, log)
    d2 = lambda jet, log=False: _d(jet, 1, log)
    root = np.sqrt(g11 * g22)
    b_over_root = B / root
    # C1's own terms are its residual, so it is scaled by the other v-gradients
    c1 = np.maximum(np.abs(d1(grid.v1)), np.abs(d2(grid.v2)))
    res = {"C1": _normalized_max(c1, [d2(grid.v1), d1(grid.v2)])}
    rows = {
        "C2": [[d2(grid.v1), (v1 - v2) * d2(grid.g11, log=True)], [d1(grid.v2), (v2 - v1) * d1(grid.g22, log=True)]],
        "C3": [
            [d1(grid.phi1), -(phi1 * d1(grid.g11) + phi2 * d2(grid.g11)) / (2.0 * g11)],
            [d2(grid.phi2), -(phi1 * d1(grid.g22) + phi2 * d2(grid.g22)) / (2.0 * g22)],
        ],
        "C4": [[2.0 * root * (v2 - v1) * B, -g22 * d2(grid.phi1), -g11 * d1(grid.phi2)]],
        "C5": [
            [d1(grid.varphi), -v1 * d1(grid.h), -phi2 * b_over_root],
            [d2(grid.varphi), -v2 * d2(grid.h), phi1 * b_over_root],
        ],
        "C6": [[phi1 * d1(grid.h), phi2 * d2(grid.h)]],
    }
    res.update((name, max(map(_row, eqs))) for name, eqs in rows.items())
    return ConditionReport(residuals=res, n=grid.shape[0])


def _c6star(grid: AnsatzGrid) -> tuple[np.ndarray, list, np.ndarray]:
    """The (C6*) residual field, its additive terms, and the coefficient of
    d1 B in it."""
    g11, g22, v1, v2, phi1, phi2, *_ = _values(grid)
    weight = np.sqrt(g11 * g22) * (v2 - v1)
    ta = phi1 * _d(grid.h, 0)
    tb = phi2 * _d(grid.h, 1)
    dlog11, dlog22 = _d(grid.g11, 1, log=True), _d(grid.g22, 0, log=True)
    correction = weight * (dlog11 * _d(grid.B, 0) + dlog22 * _d(grid.B, 1) - _d12(grid.B))
    terms = [ta, tb, weight * dlog11 * _d(grid.B, 0), weight * dlog22 * _d(grid.B, 1), weight * _d12(grid.B)]
    return ta + tb + correction, terms, weight * _d(grid.g11, 1) / g11


def c6star_field(grid: AnsatzGrid) -> np.ndarray:
    """Raw residual field of the quantum condition (C6*)."""
    return _c6star(grid)[0]


def check_quantum_c6star(grid: AnsatzGrid, stencil=None) -> float:
    """Max normalized residual of (C6*) against its own additive terms, so
    that with constant B it reads (C6); ``stencil`` is ignored, as in
    :func:`check_classical`."""
    # the correction is summed factored by sqrt(g11 g22) (v2 - v1), not term by term
    return _normalized_max(*_c6star(grid)[:2])


def _consistency(grid: AnsatzGrid) -> list:
    """The signed additive terms of d2 (C5, first) - d1 (C5, second)."""
    g11, g22, v1, v2, *_, B = _values(grid)
    inv_root = 1.0 / np.sqrt(g11 * g22)

    def d_phi_b(phi: Jet, axis: int):
        """d_(axis+1) of phi B / sqrt(g11 g22); the root's partial through d log g."""
        d_log_root = 0.5 * (_d(grid.g11, axis, log=True) + _d(grid.g22, axis, log=True))
        return inv_root * (B * _d(phi, axis) + phi.v * _d(grid.B, axis) - phi.v * B * d_log_root)

    return [
        _d(grid.v2, 0) * _d(grid.h, 1),
        -_d(grid.v1, 1) * _d(grid.h, 0),
        (v2 - v1) * _d12(grid.h),
        -d_phi_b(grid.phi2, 1),
        -d_phi_b(grid.phi1, 0),
    ]


def consistency_field(grid: AnsatzGrid) -> np.ndarray:
    """Raw cross-differentiation consistency field of (C5), d2 of its first
    equation less d1 of its second (written out in the module docstring)."""
    return _sum(_consistency(grid))


def check_duality(grid: AnsatzGrid) -> float:
    """Max |consistency(grid) - c6star(grid with h and B swapped)|, normalized
    by the largest of the consistency's terms, the swapped (C6) terms and the
    swapped coefficient of d1 B, which unlike the swapped correction does not
    shrink with h: each d(phi B / sqrt(g11 g22)) term cancels products of
    size B phi within itself.

    Each side is formed from its own partials, so a field that breaks the
    (C5) consistency, or (C3) through the divergence of phi / sqrt(g11 g22),
    shows here; varphi cancels from the consistency and (C6*) has none, so a
    wrong varphi is (C5)'s to catch.

    The scale does not shrink with h, but the residual a broken h leaves does:
    a 1% tilt of h on case1 reads 2.0e-2 / 2.0e-5 / 2.0e-8 at mu = 1 / 1e-3 /
    1e-6, below the default tol 1e-6 at small mu.  The row is outside the
    exit gate.
    """
    terms = _consistency(grid)
    swapped, (ta, tb, *_), coefficient = _c6star(swap_h_and_b(grid))
    # the scale adds the swapped coefficient of d1 B, which is no term of either side
    return _normalized_max(_sum(terms) - swapped, terms + [ta, tb, coefficient])


# ---------------------------------------------------------------------------
# closed-form proof identities
# ---------------------------------------------------------------------------

def _power_of_quadratic(coeffs, alpha: float, q: np.ndarray):
    """(y, y', y'', y''') for y = (c0 + c1 q + c2 q^2)^alpha, closed form."""
    c0, c1, c2 = coeffs
    s = c0 + c1 * q + c2 * q * q
    if np.any(np.abs(s) < 1e-12):
        raise SingularSample("sample hits a zero of the quadratic")
    if alpha != round(alpha) and np.any(s <= 0.0):
        raise SingularSample("fractional power of a non-positive quadratic")
    ds = c1 + 2.0 * c2 * q
    dds = 2.0 * c2
    y = s**alpha
    y1 = alpha * s ** (alpha - 1.0) * ds
    y2 = alpha * (alpha - 1.0) * s ** (alpha - 2.0) * ds**2 + alpha * s ** (alpha - 1.0) * dds
    y3 = (
        alpha * (alpha - 1.0) * (alpha - 2.0) * s ** (alpha - 3.0) * ds**3
        + 3.0 * alpha * (alpha - 1.0) * s ** (alpha - 2.0) * ds * dds
    )
    return y, y1, y2, y3


def check_ode_identities(samples, coeffs=(1.0, 0.0, 1.0), exponents=(-2.0 / 3.0, 2.0, 3.0)) -> dict:
    """Closed-form residuals of the three solvable ODE identities.

    * ``third_order``: g = (c0+c1 q+c2 q^2)^(-3/2) annihilates
      (40/9)(g')^3 - 5 g g' g'' + g^2 g''';
    * ``solvable_n``: y with y^n = c0+c1 x+c2 x^2 annihilates
      (n-1)(n-2)(y')^3 + 3(n-1) y y' y'' + y^2 y''' for each n in ``exponents``;
    * ``case_b``: g = sqrt(c0+c1 q+c2 q^2) annihilates 3 g^2 g' g'' + g^3 g'''.

    All derivatives are closed-form chain rules on the quadratic; residuals
    are relative to the largest participating term.
    """
    q = np.asarray(samples, dtype=float)
    out: dict[str, float] = {}

    g, g1, g2, g3 = _power_of_quadratic(coeffs, -1.5, q)
    out["third_order"] = _row([(40.0 / 9.0) * g1**3, -5.0 * g * g1 * g2, g * g * g3])
    for n in exponents:
        y, y1, y2, y3 = _power_of_quadratic(coeffs, 1.0 / n, q)
        out[f"solvable_n={n:g}"] = _row([(n - 1.0) * (n - 2.0) * y1**3, 3.0 * (n - 1.0) * y * y1 * y2, y * y * y3])
    g, g1, g2, g3 = _power_of_quadratic(coeffs, 0.5, q)
    out["case_b"] = _row([3.0 * g * g * g1 * g2, g**3 * g3])
    return out


def check_functional_equation(case: str, q1: float, q2: float, coeff: float = 1.0) -> float:
    """Relative residual of the two-point functional equation

        a''(q1) (a(q1)-b(q2)-(q1-q2) b'(q2))^3
            = b''(q2) (b(q2)-a(q1)+(q1-q2) a'(q1))^3

    for the two surviving one-function cases a = b = coeff*sqrt(q)
    (``case="sqrt"``) and a = b = coeff*q^2 (``case="quadratic"``).
    """
    if case == "sqrt":
        if q1 <= 0.0 or q2 <= 0.0:
            raise FunctionalDomainError("sqrt case needs positive arguments")
        a = lambda q: coeff * math.sqrt(q)
        da = lambda q: 0.5 * coeff / math.sqrt(q)
        dda = lambda q: -0.25 * coeff * q**-1.5
    elif case == "quadratic":
        a = lambda q: coeff * q * q
        da = lambda q: 2.0 * coeff * q
        dda = lambda q: 2.0 * coeff
    else:
        raise ValueError(f"unknown case {case!r}")
    left = dda(q1) * (a(q1) - a(q2) - (q1 - q2) * da(q2)) ** 3
    right = dda(q2) * (a(q2) - a(q1) + (q1 - q2) * da(q1)) ** 3
    # the 1e-30 floor keeps a zero bracket, where both sides vanish, from dividing by zero
    return _normalized_max(left - right, [left, right, 1e-30])
