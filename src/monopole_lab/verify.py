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
cross-differentiation consistency of (C5) is the same expression with the
roles of h and B exchanged, and is evaluated as exactly that, so the duality
gap is zero by construction when both sides take their derivatives alike.

All grid metric components here are CONTRAVARIANT (as they appear multiplying
the momenta in H); covariant samplers are inverted at ingestion.  The built-in
grids carry each field as a :class:`JetField`, its values with their exact
first and second partials: on the torus every field is rational in
(Q1, Q1', Q2, Q2') with Q1'' = P'(Q1)/8 and Q2'' = -P'(Q2)/8, and the case1
grid is sampled in q itself, where every field is algebraic.  A field given
as a plain array (a corrupted potential, a synthetic varying B) is
differentiated by central differences of order 2 or 4 instead, and a check
that takes any stencil reads its residuals on the interior where the stencil
is valid; a grid of jets alone is read on every point.  Each derivative is
taken once per check, and every condition residual is normalized by the
largest magnitude among its own additive terms on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridTooSmall, FunctionalDomainError, SingularSample
from .fields import (
    Family,
    Jet,
    SystemSpec,
    _torus_h,
    _torus_jets,
    _torus_phi,
    _torus_varphi,
    electric_h,
    phi_components,
    varphi,
)
from .geometry import stackel_components

__all__ = [
    "AnsatzGrid",
    "JetField",
    "ConditionReport",
    "build_case1_grid",
    "build_case2_grid",
    "min_grid_size",
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


class JetField(np.ndarray):
    """Read-only grid values of a field together with its exact jet.

    ``jet`` is the field's :class:`Jet`, whose partials stay broadcast columns
    where the field allows.  An array made from a JetField (a copy, a slice,
    arithmetic) carries no jet, so a field that is changed is differentiated
    by the stencil and never by partials of what it was.
    """

    def __new__(cls, jet: Jet, shape: tuple[int, int]):
        v = np.asarray(jet.v, dtype=float)  # kept as the values when it has the grid's shape
        out = (v if v.shape == shape else np.broadcast_to(v, shape).copy()).view(cls)
        out.jet = jet
        out.flags.writeable = False
        return out

    def __array_finalize__(self, obj):
        self.jet = None

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array[()] if return_scalar else array  # ufunc results are plain arrays


_FIELDS = ("g11", "g22", "v1", "v2", "phi1", "phi2", "h", "varphi", "B")


@dataclass(frozen=True)
class AnsatzGrid:
    """Uniform rectangular grid of sampled normal-form fields.

    ``g11``/``g22`` are contravariant; ``B`` is a full field (constant for all
    built-in systems, but synthetic grids may vary it).  A field is a plain
    array or a :class:`JetField`.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    g11: np.ndarray
    g22: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    h: np.ndarray
    varphi: np.ndarray
    B: np.ndarray

    @property
    def h1(self) -> float:
        return float(self.axis1[1] - self.axis1[0])

    @property
    def h2(self) -> float:
        return float(self.axis2[1] - self.axis2[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.g11.shape


def _jet_grid(axis1, axis2, **jets: Jet) -> AnsatzGrid:
    shape = (axis1.size, axis2.size)
    return AnsatzGrid(axis1=axis1, axis2=axis2, **{k: JetField(j, shape) for k, j in jets.items()})


def build_case1_grid(spec: SystemSpec, n: int = 64) -> AnsatzGrid:
    """Sample the cubic sphere family on an interior strip rectangle, with
    the exact jets of its fields in (q1, q2)."""
    if spec.family != Family.CASE_I:
        raise ValueError("build_case1_grid needs a CASE_I spec")
    a1, a2, a3 = spec.alpha
    lo, hi = _WINDOW
    q1 = a2 + np.linspace(lo, hi, n) * (a1 - a2)
    q2 = a3 + np.linspace(lo, hi, n) * (a2 - a3)
    Q1, Q2 = Jet.along(0, q1[:, None], 1.0), Jet.along(1, q2[None, :], 1.0)
    g11_cov, g22_cov = stackel_components(spec.f_cubic, Q1, Q2)
    phi1, phi2 = phi_components(spec, (Q1, Q2))
    return _jet_grid(
        q1,
        q2,
        g11=1.0 / g11_cov,
        g22=1.0 / g22_cov,
        v1=Q2,
        v2=Q1,
        phi1=phi1,
        phi2=phi2,
        h=electric_h(spec, (Q1, Q2)),
        varphi=varphi(spec, (Q1, Q2)),
        B=Jet(spec.B),
    )


def build_case2_grid(spec: SystemSpec, n: int = 64) -> AnsatzGrid:
    """Sample the torus family on an interior window of the first quadrant,
    with the exact jets of its fields in (u1, u2).

    Every field depends on u1 only through Q1, Q1' and on u2 only through
    Q2, Q2': each slice is solved once on its axis and the fields are
    broadcast from the (n, 1) and (1, n) columns.
    """
    if spec.family != Family.CASE_II:
        raise ValueError("build_case2_grid needs a CASE_II spec")
    m = spec.model
    lo, hi = _WINDOW
    u1 = np.linspace(lo, hi, n) * m.K1
    u2 = np.linspace(lo, hi, n) * m.K2
    x1, d1, x2, d2 = _torus_jets(m, u1[:, None], u2[None, :])
    sq1, sq2 = x1**2, x2**2
    g = 1.0 / (sq1 - sq2)
    phi1, phi2 = _torus_phi(spec, x1, d1, x2, d2)
    return _jet_grid(
        u1,
        u2,
        g11=g,
        g22=g,
        v1=sq2,
        v2=sq1,
        phi1=phi1,
        phi2=phi2,
        h=_torus_h(spec, x1, x2),
        varphi=_torus_varphi(spec, x1, x2),
        B=Jet(spec.B),
    )


def swap_h_and_b(grid: AnsatzGrid) -> AnsatzGrid:
    return replace(grid, h=grid.B, B=grid.h)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def _margin(stencil: int) -> int:
    if stencil not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    return 1 if stencil == 2 else 2


def _d(F: np.ndarray, h: float, axis: int, stencil: int) -> np.ndarray:
    """Central first derivative, valid on the interior; edges are NaN."""
    m = _margin(stencil)
    inner = (slice(m, F.shape[0] - m), slice(m, F.shape[1] - m))
    at = lambda k: np.roll(F, -k, axis=axis)  # F[i + k] along the axis
    out = np.full_like(F, np.nan)
    if stencil == 2:
        out[inner] = (at(1) - at(-1))[inner] / (2.0 * h)
    else:
        out[inner] = (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2))[inner] / (12.0 * h)
    return out


def min_grid_size(stencil: int) -> int:
    """Smallest n whose n x n grid keeps a core at this stencil order (9 or 5)."""
    return 4 * _margin(stencil) + 1


def _core(shape: tuple[int, int], stencil: int):
    """Interior slice where both first and mixed second derivatives are valid."""
    m = 2 * _margin(stencil)
    if min(shape) < min_grid_size(stencil):
        raise GridTooSmall(f"grid {shape} too small for stencil order {stencil}")
    return (slice(m, shape[0] - m), slice(m, shape[1] - m))


def _check_core(grid: AnsatzGrid, stencil: int):
    """Where a check reads its residuals: every point of a grid whose fields
    all carry jets, else the core of the stencil (see _core)."""
    _margin(stencil)  # a stencil order that is not 2 or 4 is refused either way
    if all(getattr(getattr(grid, f), "jet", None) is not None for f in _FIELDS):
        return (slice(None), slice(None))
    return _core(grid.shape, stencil)


class _Derivatives(dict):
    """The derivatives of one grid's fields, each taken on first use and kept:
    read off the field's jet where it has one, else central differences at
    one stencil order.

    ``D[name, axis]`` is d_(axis+1) of the grid field ``name``, or of the log
    of a metric component for ``"log g11"``/``"log g22"`` (from a jet,
    d log g = dg / g); ``D[name, 0, 1]`` is the mixed d2 d1 of a grid field
    (by the stencil, the axis-1 difference of ``D[name, 0]``).  A jet's
    partial that is a column, or zero, is broadcast to the grid's shape.
    """

    def __init__(self, grid: AnsatzGrid, stencil: int):
        super().__init__()
        self._grid = grid
        self._stencil = stencil

    def __missing__(self, key):
        name, *axes = key
        field = getattr(self._grid, name.removeprefix("log "))
        jet = getattr(field, "jet", None)
        if jet is not None:
            part = jet.d12 if len(axes) == 2 else (jet.d1, jet.d2)[axes[0]]
            if part is not None and name.startswith("log "):
                part = part / field
            shape = self._grid.shape
            out = part if np.shape(part) == shape else np.broadcast_to(0.0 if part is None else part, shape)
        else:
            if len(axes) == 2:
                F = self[name, axes[0]]
            elif name.startswith("log "):
                F = np.log(field)
            else:
                F = field
            axis = axes[-1]
            out = _d(F, (self._grid.h1, self._grid.h2)[axis], axis, self._stencil)
        self[key] = out
        return out


def _normalized_max(residual: np.ndarray, terms: list[np.ndarray], core) -> float:
    scale = max(float(np.max(np.abs(t[core]))) for t in terms)
    scale = max(scale, 1e-300)
    return float(np.max(np.abs(residual[core]))) / scale


@dataclass(frozen=True)
class ConditionReport:
    """Max normalized residuals per condition."""

    residuals: dict[str, float]
    n: int
    stencil: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def check_classical(grid: AnsatzGrid, stencil: int = 4) -> ConditionReport:
    """Max normalized residuals of (C1)-(C6)."""
    core = _check_core(grid, stencil)
    D = _Derivatives(grid, stencil)
    root = np.sqrt(grid.g11 * grid.g22)
    res: dict[str, float] = {}

    # C1: d1 v1 = d2 v2 = 0; scale is the size of the nonzero v-gradients
    r_c1 = np.maximum(np.abs(D["v1", 0]), np.abs(D["v2", 1]))
    v_scale = [D["v1", 1], D["v2", 0]]
    res["C1"] = _normalized_max(r_c1, v_scale, core)

    # C2 (i=1, j=2y i=2, j=1)
    t12 = (grid.v2 - grid.v1) * D["log g11", 1]
    t21 = (grid.v1 - grid.v2) * D["log g22", 0]
    r12 = D["v1", 1] - t12
    r21 = D["v2", 0] - t21
    res["C2"] = max(
        _normalized_max(r12, [D["v1", 1], t12], core),
        _normalized_max(r21, [D["v2", 0], t21], core),
    )

    # C3 for i=1 and i=2
    t1 = (grid.phi1 * D["g11", 0] + grid.phi2 * D["g11", 1]) / (2.0 * grid.g11)
    t2 = (grid.phi1 * D["g22", 0] + grid.phi2 * D["g22", 1]) / (2.0 * grid.g22)
    r1 = D["phi1", 0] - t1
    r2 = D["phi2", 1] - t2
    res["C3"] = max(
        _normalized_max(r1, [D["phi1", 0], t1], core),
        _normalized_max(r2, [D["phi2", 1], t2], core),
    )

    # C4
    lhs = 2.0 * root * (grid.v2 - grid.v1) * grid.B
    rhs1 = grid.g22 * D["phi1", 1]
    rhs2 = grid.g11 * D["phi2", 0]
    res["C4"] = _normalized_max(lhs - rhs1 - rhs2, [lhs, rhs1, rhs2], core)

    # C5 (both displayed equations)
    b_over_root = grid.B / root
    t51 = grid.v1 * D["h", 0]
    t52 = grid.v2 * D["h", 1]
    r51 = D["varphi", 0] - t51 - grid.phi2 * b_over_root
    r52 = D["varphi", 1] - t52 + grid.phi1 * b_over_root
    res["C5"] = max(
        _normalized_max(r51, [D["varphi", 0], t51, grid.phi2 * b_over_root], core),
        _normalized_max(r52, [D["varphi", 1], t52, grid.phi1 * b_over_root], core),
    )

    # C6
    ta = grid.phi1 * D["h", 0]
    tb = grid.phi2 * D["h", 1]
    res["C6"] = _normalized_max(ta + tb, [ta, tb], core)

    return ConditionReport(residuals=res, n=grid.shape[0], stencil=stencil)


def _c6star(grid: AnsatzGrid, stencil: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The (C6*) residual field and the terms that set its scale."""
    D = _Derivatives(grid, stencil)
    weight = np.sqrt(grid.g11 * grid.g22) * (grid.v2 - grid.v1)
    ta = grid.phi1 * D["h", 0]
    tb = grid.phi2 * D["h", 1]
    correction = weight * (
        D["g11", 1] / grid.g11 * D["B", 0] + D["g22", 0] / grid.g22 * D["B", 1] - D["B", 0, 1]
    )
    return ta + tb + correction, [ta, tb, weight * D["g11", 1] / grid.g11]


def c6star_field(grid: AnsatzGrid, stencil: int = 4) -> np.ndarray:
    """Raw residual field of the quantum condition (C6*), NaN on the margins
    where a stencil was taken."""
    return _c6star(grid, stencil)[0]


def check_quantum_c6star(grid: AnsatzGrid, stencil: int = 4) -> float:
    """Max normalized residual of (C6*)."""
    core = _check_core(grid, stencil)
    field, terms = _c6star(grid, stencil)
    return _normalized_max(field, terms, core)


def consistency_field(grid: AnsatzGrid, stencil: int = 4) -> np.ndarray:
    """Cross-differentiation consistency of (C5):

        phi^1 d1 B + phi^2 d2 B + sqrt(g11 g22)(v^2 - v^1)
            (d2 g11/g11 d1 h + d1 g22/g22 d2 h - d1 d2 h),

    which is (C6*) with h and B exchanged, and is evaluated as exactly that.
    """
    return c6star_field(swap_h_and_b(grid), stencil)


def check_duality(grid: AnsatzGrid, stencil: int = 4, stencil_swapped: int | None = None) -> float:
    """Max |consistency(grid) - c6star(grid with h and B swapped)| on the core.

    With equal stencil orders the consistency field is the (C6*) field of the
    swapped grid, so the difference is zero by construction and the field is
    evaluated once; with mixed orders the difference is bounded by the two
    truncation errors of the fields the stencil differentiates (none on a
    grid of jets).
    """
    if stencil_swapped is None:
        stencil_swapped = stencil
    lhs = consistency_field(grid, stencil)
    rhs = lhs if stencil_swapped == stencil else c6star_field(swap_h_and_b(grid), stencil_swapped)
    core = _check_core(grid, max(stencil, stencil_swapped))
    return float(np.max(np.abs(lhs[core] - rhs[core])))


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


def _rel(residual, *terms):
    scale = max(float(np.max(np.abs(np.asarray(t)))) for t in terms)
    return float(np.max(np.abs(np.asarray(residual)))) / max(scale, 1e-300)


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
    t1 = (40.0 / 9.0) * g1**3
    t2 = -5.0 * g * g1 * g2
    t3 = g * g * g3
    out["third_order"] = _rel(t1 + t2 + t3, t1, t2, t3)

    for n in exponents:
        y, y1, y2, y3 = _power_of_quadratic(coeffs, 1.0 / n, q)
        t1 = (n - 1.0) * (n - 2.0) * y1**3
        t2 = 3.0 * (n - 1.0) * y * y1 * y2
        t3 = y * y * y3
        out[f"solvable_n={n:g}"] = _rel(t1 + t2 + t3, t1, t2, t3)

    g, g1, g2, g3 = _power_of_quadratic(coeffs, 0.5, q)
    t1 = 3.0 * g * g * g1 * g2
    t2 = g**3 * g3
    out["case_b"] = _rel(t1 + t2, t1, t2)
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
    return _rel(left - right, left, right, 1e-30)
