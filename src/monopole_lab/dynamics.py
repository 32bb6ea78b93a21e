"""Hamiltonians, integrals of motion, and adaptive flows.

Torus family (CASE_II) on T*T^2, written with the canonical momenta anchored
to the global covering-plane gauge A = (0, A2) of :func:`fields.gauge_a`:

    H = [(p1-A1)^2 + (p2-A2)^2] / (Q1^2 - Q2^2) + mu / (Q1 + Q2),
    F = [Q2^2 (p1-A1)^2 + Q1^2 (p2-A2)^2] / (Q1^2 - Q2^2)
        + 2 k [Q2'(p1-A1) - Q1'(p2-A2)] / (Q1 - Q2)
        - mu Q1 Q2 / (Q1 + Q2) - k B (Q1 + Q2)^2.

The flow itself is integrated in the gauge-invariant velocity variables
w = p - A(u), where Hamilton's equations close without any reference to A:

    du_i/dt = 2 w_i / lam,
    dw_1/dt = +2 B w_2 + |w|^2 d1(lam)/lam^2 - d1 h,
    dw_2/dt = -2 B w_1 + |w|^2 d2(lam)/lam^2 - d2 h,

with lam = Q1^2 - Q2^2 (the Lorentz term is the curl of A folded through the
chain rule, so no gauge re-anchoring is ever needed).

e(3)* systems (CASE_I Clebsch and VY) integrate dM/dt = {M, H},
dx/dt = {x, H} under {M_i, M_j} = eps_ijk M_k, {M_i, x_j} = eps_ijk x_k,
{x_i, x_j} = 0, with a per-step projection restoring the Casimirs |x|^2 = 1
and (M, x) = nu exactly.

For each family _flow packs the state into its integration variables y and
names its right-hand side (_torus_rhs, _limit_rhs, _e3_rhs), the exact
gradient of F in y and the unpacking (_torus_state, _phase_state, and the
Casimir projection _project_e3).  flow_step steps every family on them, and
hf_bracket reads {F, H} = grad F . dy/dt, the rate of change of F along H's flow.

The integrator is an embedded Dormand-Prince 5(4) pair with standard PI-free
step control; drift bounds are enforced through the local tolerance, and a
step that cannot meet it above the smallest step size raises StepRejected.
The attempt, the step control and every flow right-hand side run in Python
floats on tuples: on states of 4 and 6 components numpy's per-call cost
exceeds the arithmetic.  Each sum and product is taken in the order of the
elementwise numpy form y + dt * sum_j a_j k_j (and np.cross), so the
trajectories are bitwise those of that form.  The sums are written out as
left folds: the builtin sum of floats is compensated from Python 3.12 on.
The e(3)* projection, |q| in the two-centre flow and the monitors stay in
numpy: a BLAS dot or norm rounds differently from a Python sum, and numpy's
cosh/sinh/tanh/arctanh differ from libm's in the last bit on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, mul, sub

import numpy as np

from .elliptic import _limit_slice
from .errors import CenterSingularity, DegeneratePoint, FixedPointSingularity, StepRejected
from .fields import Family, SystemSpec, gauge_a, normal_form

__all__ = [
    "PhaseState",
    "E3State",
    "Trajectory",
    "StepResult",
    "torus_eval",
    "flow_step",
    "hf_bracket",
    "clebsch_eval",
    "vy_eval",
    "limit_h_eval",
    "limit_gauge_a1",
    "integrate",
    "random_state",
]


@dataclass(frozen=True)
class PhaseState:
    """Point of T*T^2 (or the limit cylinder): positions and canonical momenta."""

    u1: float
    u2: float
    p1: float
    p2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.p1, self.p2])


@dataclass(frozen=True)
class E3State:
    """Angular momentum and Poisson vector of an e(3)* system."""

    M: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", np.asarray(self.M, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.M, self.x])


@dataclass
class Trajectory:
    """Stored (decimated) output of one integration.

    Monitors are evaluated at every accepted step; the stored arrays are
    decimated by the stride, while ``monitor_extremes`` keeps the running
    (min, max) over all accepted steps.
    """

    times: np.ndarray
    states: np.ndarray
    monitors: dict[str, np.ndarray] = field(default_factory=dict)
    monitor_extremes: dict[str, tuple[float, float]] = field(default_factory=dict)

    def max_drift(self, key: str) -> float:
        """Largest |value - initial| over every accepted step."""
        lo, hi = self.monitor_extremes[key]
        v0 = float(self.monitors[key][0])
        return max(abs(hi - v0), abs(lo - v0))


@dataclass(frozen=True)
class StepResult:
    state: "PhaseState | E3State"
    dt_taken: float
    dt_next: float


# ---------------------------------------------------------------------------
# torus family
# ---------------------------------------------------------------------------

def _torus_w(spec: SystemSpec, s: PhaseState) -> np.ndarray:
    a1, a2 = gauge_a(spec, (s.u1, s.u2))
    return np.array([s.p1 - a1, s.p2 - a2])


def torus_eval(spec: SystemSpec, s: PhaseState) -> tuple[float, float]:
    """(H, F) of the torus family from one evaluation of each slice and of w.

    H = |w|^2/lam + mu/(Q1+Q2) and F as in the module docstring.
    """
    m = spec.model
    x1, d1 = m.branch1.value_and_deriv(s.u1)
    x2, d2 = m.branch2.value_and_deriv(s.u2)
    lam = x1 * x1 - x2 * x2
    if lam < 1e-10 * m.beta[0] ** 2:
        raise FixedPointSingularity(f"lam = {lam:.3e} at ({s.u1}, {s.u2})")
    w = _torus_w(spec, s)
    k = spec.k
    H = (w @ w) / lam + spec.mu / (x1 + x2)
    quad = (x2 * x2 * w[0] ** 2 + x1 * x1 * w[1] ** 2) / lam
    linear = 2.0 * k * (d2 * w[0] - d1 * w[1]) / (x1 - x2)
    scal = -spec.mu * x1 * x2 / (x1 + x2) - k * spec.B * (x1 + x2) ** 2
    return float(H), float(quad + linear + scal)


def _torus_rhs(spec: SystemSpec):
    m = spec.model
    mu, B = spec.mu, spec.B

    def rhs(y: tuple) -> tuple:
        u1, u2, w1, w2 = y
        x1, d1 = m.branch1.value_and_deriv(u1)
        x2, d2 = m.branch2.value_and_deriv(u2)
        lam = x1 * x1 - x2 * x2
        if lam <= 0.0:
            raise FixedPointSingularity(f"lam = {lam:.3e} during flow")
        ssum = x1 + x2
        dlam1 = 2.0 * x1 * d1
        dlam2 = -2.0 * x2 * d2
        dh1 = -mu * d1 / ssum**2
        dh2 = -mu * d2 / ssum**2
        wsq = w1 * w1 + w2 * w2
        return (
            2.0 * w1 / lam,
            2.0 * w2 / lam,
            2.0 * B * w2 + wsq * dlam1 / lam**2 - dh1,
            -2.0 * B * w1 + wsq * dlam2 / lam**2 - dh2,
        )

    return rhs


def _torus_state(spec: SystemSpec, y: tuple, _nu) -> PhaseState:
    """The state of the torus variables y = (u1, u2, w1, w2): p = w + A(u)."""
    u1, u2, w1, w2 = y
    a1, a2 = gauge_a(spec, (u1, u2))
    return PhaseState(u1=u1, u2=u2, p1=w1 + a1, p2=w2 + a2)


def _torus_grad_f(spec: SystemSpec, y: tuple) -> tuple:
    """grad F in y = (u1, u2, w1, w2), where in :func:`fields.normal_form`

        F = g (v1 w1^2 + v2 w2^2) + phi1 w1 + phi2 w2 + varphi;

    the u-partials are read off the jets of the fields."""
    u1, u2, w1, w2 = y
    g, _, v1, v2, phi1, phi2, _, vphi = normal_form(spec, u1, u2)
    gv1, gv2 = g * v1, g * v2
    du = [
        d(gv1) * w1 * w1 + d(gv2) * w2 * w2 + d(phi1) * w1 + d(phi2) * w2 + d(vphi)
        for d in (attrgetter("d1"), attrgetter("d2"))
    ]
    return (*du, 2.0 * gv1.v * w1 + phi1.v, 2.0 * gv2.v * w2 + phi2.v)


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

# rows a_ij of stages 2..6
_DP_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)


(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
) = _DP_A
# y5 cannot use k7 = rhs(y5); its weight in _DP_B5 is 0
_B1, _B2, _B3, _B4, _B5, _B6 = _DP_B5[:6]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_B4
_DT_MIN = 1e-13  # smallest step size an adaptive step tries


def _dp_attempt(rhs, y: tuple, k1: tuple, dt: float):
    """One 5(4) attempt from y with k1 = rhs(y): (y5, y5 - y4).

    Each stage sum is written out from 0.0, zero coefficients included, so
    it is added left to right exactly as the elementwise numpy form
    y + dt * sum_j a_j k_j adds it.
    """
    k2 = rhs(tuple([v + dt * (0.0 + _A21 * p1) for v, p1 in zip(y, k1)]))
    k3 = rhs(tuple([v + dt * (0.0 + _A31 * p1 + _A32 * p2) for v, p1, p2 in zip(y, k1, k2)]))
    k4 = rhs(tuple([
        v + dt * (0.0 + _A41 * p1 + _A42 * p2 + _A43 * p3)
        for v, p1, p2, p3 in zip(y, k1, k2, k3)
    ]))
    k5 = rhs(tuple([
        v + dt * (0.0 + _A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
        for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
    ]))
    k6 = rhs(tuple([
        v + dt * (0.0 + _A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
        for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)
    ]))
    y5 = tuple([
        v + dt * (0.0 + _B1 * p1 + _B2 * p2 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
        for v, p1, p2, p3, p4, p5, p6 in zip(y, k1, k2, k3, k4, k5, k6)
    ])
    k7 = rhs(y5)
    y4 = [
        v
        + dt * (0.0 + _E1 * p1 + _E2 * p2 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
        for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, k1, k2, k3, k4, k5, k6, k7)
    ]
    return y5, tuple(map(sub, y5, y4))


def _adaptive_step(rhs, y: tuple, dt: float, tol: float):
    """One accepted 5(4) step; returns (y_new, dt_taken, dt_next).

    A step whose error norm exceeds 1 is retried with a smaller dt, and so is
    one that meets a fixed point (FixedPointSingularity) on its way;
    StepRejected is raised once dt falls below _DT_MIN.  k1 = rhs(y) does not
    depend on dt and is evaluated once.
    """
    dt = float(dt)
    k1 = None
    while True:
        if dt < _DT_MIN:
            raise StepRejected(f"step size underflow: dt = {dt:.3e} < {_DT_MIN:g}")
        try:
            if k1 is None:
                k1 = rhs(y)
            y5, err = _dp_attempt(rhs, y, k1, dt)
        except FixedPointSingularity:
            dt *= 0.25
            continue
        q = [e / (tol * (1.0 + max(abs(a), abs(b)))) for e, a, b in zip(err, y, y5)]
        ssq = 0.0
        for v in q:
            ssq += v * v
        norm = math.sqrt(ssq / len(q))
        if not math.isfinite(norm):
            dt *= 0.2
            continue
        if norm <= 1.0:
            factor = 0.9 * (norm + 1e-300) ** -0.2
            return y5, dt, dt * min(5.0, max(0.2, factor))
        dt *= max(0.2, 0.9 * norm**-0.2)


# ---------------------------------------------------------------------------
# e(3)* systems: Clebsch (CASE_I) and the two-centre system (VY)
# ---------------------------------------------------------------------------

def clebsch_eval(spec: SystemSpec, s: E3State) -> tuple[float, float]:
    """H = |M|^2 - mu sum alpha_i x_i^2 and its quadratic partner integral."""
    if spec.family != Family.CASE_I:
        raise ValueError("clebsch_eval needs a CASE_I spec")
    a1, a2, a3 = spec.alpha
    M, x = s.M, s.x
    H = float(M @ M - spec.mu * (a1 * x[0] ** 2 + a2 * x[1] ** 2 + a3 * x[2] ** 2))
    F = float(
        a1 * M[0] ** 2
        + a2 * M[1] ** 2
        + a3 * M[2] ** 2
        + spec.mu * (a2 * a3 * x[0] ** 2 + a1 * a3 * x[1] ** 2 + a1 * a2 * x[2] ** 2)
    )
    return H, F


def _vy_r(spec: SystemSpec, q: np.ndarray) -> float:
    va, vb = spec.vy_a, spec.vy_b
    qn = float(np.linalg.norm(q))
    return float(
        vb * q[0] ** 2
        + va * q[1] ** 2
        + (va + vb) * q[2] ** 2
        - 2.0 * math.sqrt(va * vb) * qn * q[2]
    )


def vy_eval(spec: SystemSpec, s: E3State) -> tuple[float, float]:
    """Two-centre system on the sphere:

        H = |M|^2 / 2 - mu |q| / sqrt(R),
        F = A M1^2 + B M2^2 + (2 sqrt(AB)/|q|) (M, q) M3 - 2 mu sqrt(AB) q3 / sqrt(R),
        R = A q2^2 + B q1^2 + (A+B) q3^2 - 2 sqrt(AB) |q| q3.
    """
    if spec.family != Family.VY:
        raise ValueError("vy_eval needs a VY spec")
    M, q = s.M, s.x
    va, vb = spec.vy_a, spec.vy_b
    R = _vy_r(spec, q)
    qn = float(np.linalg.norm(q))
    if R < 1e-12 * max(1.0, qn**2):
        raise CenterSingularity(f"R(q) = {R:.3e}")
    sab = math.sqrt(va * vb)
    H = float(0.5 * (M @ M) - spec.mu * qn / math.sqrt(R))
    F = float(
        va * M[0] ** 2
        + vb * M[1] ** 2
        + (2.0 * sab / qn) * (M @ q) * M[2]
        - 2.0 * spec.mu * sab * q[2] / math.sqrt(R)
    )
    return H, F


def _cross(a, b) -> tuple:
    """a x b for 3-sequences, in np.cross's order of operations."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _e3_rhs(spec: SystemSpec):
    """The e(3)* right-hand side of a CASE_I or VY spec."""
    if spec.family == Family.CASE_I:
        alpha = spec.alpha
        m2mu = -2.0 * spec.mu

        def rhs(y: tuple) -> tuple:
            M, x = y[:3], y[3:]
            ax = tuple(map(mul, alpha, x))
            return (*[m2mu * v for v in _cross(ax, x)], *[2.0 * v for v in _cross(M, x)])

        return rhs
    # Family.VY
    va, vb, mu = spec.vy_a, spec.vy_b, spec.mu
    two_sab = 2.0 * math.sqrt(va * vb)
    diag = (2.0 * vb, 2.0 * va, 2.0 * (va + vb))
    e_z = (0.0, 0.0, 1.0)

    def rhs(y: tuple) -> tuple:
        M, q = y[:3], y[3:]
        qn = float(np.linalg.norm(q))
        R = _vy_r(spec, q)
        if R < 1e-12 * max(1.0, qn**2):
            raise CenterSingularity(f"orbit reached a Coulomb center: R = {R:.3e}")
        q2 = q[2]
        # grad R = diag q - 2 sqrt(AB) (q3 q/|q| + |q| e_z)
        gradR = [d * qi - two_sab * (q2 * qi / qn + qn * ez) for d, qi, ez in zip(diag, q, e_z)]
        sqR = math.sqrt(R)
        c = 0.5 * mu * qn * R**-1.5
        gradH = [-mu * (qi / qn) / sqR + c * gi for qi, gi in zip(q, gradR)]
        return (*_cross(gradH, q), *_cross(M, q))

    return rhs


def _clebsch_grad_f(spec: SystemSpec, y: tuple) -> tuple:
    """grad F in y = (M, x) for F = sum a_i M_i^2 + mu (a2 a3 x1^2 + a1 a3 x2^2 + a1 a2 x3^2)."""
    a1, a2, a3 = spec.alpha
    M, x = y[:3], y[3:]
    c = 2.0 * spec.mu
    return (
        2.0 * a1 * M[0], 2.0 * a2 * M[1], 2.0 * a3 * M[2], c * a2 * a3 * x[0], c * a1 * a3 * x[1], c * a1 * a2 * x[2]
    )


def _vy_grad_f(spec: SystemSpec, y: tuple) -> tuple:
    """grad F in y = (M, q) for the F of :func:`vy_eval`; c = 2 sqrt(AB)/|q|."""
    M, q = np.array(y[:3]), np.array(y[3:])
    va, vb, mu = spec.vy_a, spec.vy_b, spec.mu
    sab, qn, R, e_z = math.sqrt(va * vb), np.linalg.norm(q), _vy_r(spec, q), np.array([0.0, 0.0, 1.0])
    c, mq = 2.0 * sab / qn, M @ q
    grad_r = np.array([2.0 * vb, 2.0 * va, 2.0 * (va + vb)]) * q - 2.0 * sab * (q[2] * q / qn + qn * e_z)
    dM = np.array([2.0 * va * M[0], 2.0 * vb * M[1], 0.0]) + c * M[2] * q + c * mq * e_z
    dq = c * M[2] * (M - mq * q / qn**2) + mu * sab * (q[2] * R**-1.5 * grad_r - 2.0 / math.sqrt(R) * e_z)
    return (*dM.tolist(), *dq.tolist())


def _project_e3(_spec: SystemSpec, y: tuple, nu: float) -> E3State:
    """The state of y projected onto the leaf |x| = 1, (M, x) = nu."""
    y = np.array(y)
    M, x = y[:3], y[3:]
    x = x / np.linalg.norm(x)
    return E3State(M=M + (nu - M @ x) * x, x=x)


# ---------------------------------------------------------------------------
# cylinder limit (beta2 -> beta1): linear integral F = p1
# ---------------------------------------------------------------------------

def limit_gauge_a1(spec: SystemSpec, u2) -> float:
    """Gauge A1(u2) = (B/c) * integral_{-inf}^{u2} (beta1^2 - Q2^2), A2 = 0.

    The integral is in closed form (see ``elliptic._limit_slice``).
    """
    lm = spec.limit
    return (spec.B / lm.c) * _limit_slice(lm, u2)[2]


def limit_h_eval(spec: SystemSpec, s: PhaseState) -> float:
    """Cylinder Hamiltonian

        H = c/(4 lam2) [(p1 - A1)^2 + (4/c) p2^2] + mu/(beta1 + Q2),
        lam2 = beta1^2 - Q2(u2)^2.

    Far out on the cylinder Q2 rounds to beta1 and lam2 to 0: DegeneratePoint.
    """
    lm = spec.limit
    x2, _, g = _limit_slice(lm, s.u2)
    lam2 = lm.beta1**2 - x2**2
    if lam2 == 0.0:
        raise DegeneratePoint(f"lam2 rounds to 0 at u2 = {s.u2} (Q2 = beta1 = {x2})")
    a1 = (spec.B / lm.c) * g
    return float(
        (0.25 * lm.c * (s.p1 - a1) ** 2 + s.p2**2) / lam2 + spec.mu / (lm.beta1 + x2)
    )


def _limit_rhs(spec: SystemSpec):
    lm = spec.limit
    c, mu, B = lm.c, spec.mu, spec.B
    b1 = lm.beta1
    b_over_c = B / c

    def rhs(y: tuple) -> tuple:
        _u1, u2, p1, p2 = y
        x2, d2, g = _limit_slice(lm, u2)
        lam2 = b1 * b1 - x2 * x2
        a1 = b_over_c * g
        da1 = B * lam2 / c
        dlam2 = -2.0 * x2 * d2
        try:
            num = 0.25 * c * (p1 - a1) ** 2 + p2 * p2
            return (
                0.5 * c * (p1 - a1) / lam2,
                2.0 * p2 / lam2,
                0.0,
                0.5 * c * (p1 - a1) * da1 / lam2 + num * dlam2 / lam2**2 + mu * d2 / (b1 + x2) ** 2,
            )
        except (ZeroDivisionError, OverflowError):
            # lam2 = 0 where Q2 has reached its plateau beta1 far out, or a
            # runaway stage: numpy's inf and nan, which the step control
            # retries as a non-finite error norm
            return (math.nan,) * 4

    return rhs


def _phase_state(_spec: SystemSpec, y: tuple, _nu) -> PhaseState:
    return PhaseState(*y)


# ---------------------------------------------------------------------------
# the families' variables; the bracket and the trajectory drivers
# ---------------------------------------------------------------------------

def _flow(spec: SystemSpec, s: PhaseState | E3State) -> tuple:
    """(y, rhs, grad_f, unpack) at state s: the family's integration
    variables, the flow's right-hand side in them, grad F in them and the map
    of y back to a state.  The torus integrates the velocities w = p - A(u),
    the cylinder (u, p), where F = p1, and e(3)* (M, x).
    """
    if spec.family == Family.CASE_II:
        a1, a2 = gauge_a(spec, (s.u1, s.u2))
        return (s.u1, s.u2, s.p1 - a1, s.p2 - a2), _torus_rhs(spec), _torus_grad_f, _torus_state
    if spec.family == Family.CASE_II_LIMIT:
        return (s.u1, s.u2, s.p1, s.p2), _limit_rhs(spec), lambda *_: (0.0, 0.0, 1.0, 0.0), _phase_state
    grad_f = _clebsch_grad_f if spec.family == Family.CASE_I else _vy_grad_f
    return tuple(s.as_array().tolist()), _e3_rhs(spec), grad_f, _project_e3


def hf_bracket(spec: SystemSpec, s: PhaseState | E3State) -> tuple[float, float]:
    """{F, H} at state s and its scale: (sum_i t_i, sum_i |t_i|), where
    t_i = dF/dy_i dy_i/dt in the family's integration variables y.

    A state where the flow is singular raises the right-hand side's error,
    and one where it is not finite DegeneratePoint.
    """
    y, rhs, grad_f, _ = _flow(spec, s)
    dy = rhs(y)
    terms = list(map(mul, grad_f(spec, y), dy))
    scale = math.fsum(map(abs, terms))
    if not math.isfinite(scale):
        raise DegeneratePoint(f"the flow is not finite at {s}")
    return math.fsum(terms), scale


def flow_step(
    spec: SystemSpec, s: PhaseState | E3State, dt: float, tol: float = 1e-10, nu: float | None = None
) -> StepResult:
    """One accepted adaptive step of the flow of any family, in the variables
    of :func:`_flow`.  After the step an e(3)* state is projected onto the
    Casimir leaf |x| = 1, (M, x) = nu (default: the value carried by ``s``).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y, rhs, _, unpack = _flow(spec, s)
    if nu is None and isinstance(s, E3State):
        nu = float(s.M @ s.x)
    y, taken, dt_next = _adaptive_step(rhs, y, dt, tol)
    return StepResult(state=unpack(spec, y, nu), dt_taken=taken, dt_next=dt_next)


def integrate(
    spec: SystemSpec,
    state0,
    t_end: float,
    tol: float = 1e-10,
    stride: int = 1,
) -> Trajectory:
    """Integrate to t_end, monitoring H and F every accepted step.

    Stored samples are decimated by ``stride``; e(3)* runs also record the
    Casimirs C1 = |x|^2 and C2 = (M, x).
    """
    nu = None
    if spec.family == Family.CASE_II:
        def monitors(st):
            H, F = torus_eval(spec, st)
            return {"H": H, "F": F}
    elif spec.family == Family.CASE_II_LIMIT:
        monitors = lambda st: {"H": limit_h_eval(spec, st), "F": st.p1}
    else:
        ev = clebsch_eval if spec.family == Family.CASE_I else vy_eval

        def monitors(st):
            H, F = ev(spec, st)
            return {"H": H, "F": F, "C1": float(st.x @ st.x), "C2": float(st.M @ st.x)}

        nu = float(state0.M @ state0.x)

    times = [0.0]
    states = [state0.as_array()]
    mon = {k: [v] for k, v in monitors(state0).items()}
    extremes = {k: (v[0], v[0]) for k, v in mon.items()}
    t = 0.0
    dt = 1e-3
    state = state0
    n_accepted = 0
    while t < t_end - 1e-14:
        dt = min(dt, t_end - t)
        res = flow_step(spec, state, dt, tol, nu)
        state = res.state
        t += res.dt_taken
        dt = res.dt_next
        n_accepted += 1
        vals = monitors(state)
        for k, v in vals.items():
            lo, hi = extremes[k]
            extremes[k] = (min(lo, v), max(hi, v))
        if n_accepted % stride == 0 or t >= t_end - 1e-14:
            times.append(t)
            states.append(state.as_array())
            for k, v in vals.items():
                mon[k].append(v)
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        monitors={k: np.array(v) for k, v in mon.items()},
        monitor_extremes=extremes,
    )


def random_state(spec: SystemSpec, rng: np.random.Generator):
    """Reproducible random state away from singular loci."""
    if spec.family == Family.CASE_II:
        m = spec.model
        u1 = float(rng.uniform(0.15, 0.85) * m.K1 + rng.choice([0.0, m.K1, 2.0 * m.K1]))
        u2 = float(rng.uniform(0.15, 0.85) * m.K2 + rng.choice([0.0, m.K2, 2.0 * m.K2]))
        w = rng.normal(0.0, 1.0, 2)
        a1, a2 = gauge_a(spec, (u1, u2))
        return PhaseState(u1=u1, u2=u2, p1=float(w[0] + a1), p2=float(w[1] + a2))
    if spec.family in (Family.CASE_I, Family.VY):
        x = rng.normal(0.0, 1.0, 3)
        x /= np.linalg.norm(x)
        M = rng.normal(0.0, 1.0, 3)
        if spec.family == Family.CASE_I:
            # leaf value nu doubles as the magnetic density for sphere runs
            M = M + (spec.B - M @ x) * x
        return E3State(M=M, x=x)
    # Family.CASE_II_LIMIT
    return PhaseState(
        u1=float(rng.uniform(0.0, 2.0 * math.pi)),
        u2=float(spec.limit.delta + rng.uniform(-2.0, 2.0)),
        p1=float(rng.normal(0.0, 1.0)),
        p2=float(rng.normal(0.0, 1.0)),
    )
