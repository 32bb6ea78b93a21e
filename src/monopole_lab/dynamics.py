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

The integrator is an embedded Dormand-Prince 5(4) pair with standard PI-free
step control; drift bounds are enforced through the local tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import limit_q2, limit_q2_deriv
from .errors import CenterSingularity, FixedPointSingularity, StepRejected
from .fields import Family, SystemSpec, gauge_a

__all__ = [
    "PhaseState",
    "E3State",
    "Trajectory",
    "StepResult",
    "h_eval",
    "f_eval",
    "flow_step",
    "poisson_bracket_fd",
    "phase_gradient",
    "clebsch_eval",
    "vy_eval",
    "lie_poisson_bracket",
    "e3_gradient",
    "e3_flow_step",
    "limit_h_eval",
    "limit_gauge_a1",
    "limit_system_step",
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


def _torus_lambda(spec: SystemSpec, u1: float, u2: float) -> float:
    m = spec.model
    lam = m.q1(u1) ** 2 - m.q2(u2) ** 2
    if lam < 1e-10 * m.beta[0] ** 2:
        raise FixedPointSingularity(f"lam = {lam:.3e} at ({u1}, {u2})")
    return lam


def h_eval(spec: SystemSpec, s: PhaseState) -> float:
    """Torus Hamiltonian |w|^2/lam + mu/(Q1+Q2)."""
    m = spec.model
    lam = _torus_lambda(spec, s.u1, s.u2)
    w = _torus_w(spec, s)
    return float((w @ w) / lam + spec.mu / (m.q1(s.u1) + m.q2(s.u2)))


def f_eval(spec: SystemSpec, s: PhaseState) -> float:
    """Second integral of the torus family (see module docstring)."""
    m = spec.model
    x1, d1 = m.branch1.value_and_deriv(s.u1)
    x2, d2 = m.branch2.value_and_deriv(s.u2)
    lam = x1 * x1 - x2 * x2
    if lam < 1e-10 * m.beta[0] ** 2:
        raise FixedPointSingularity(f"lam = {lam:.3e} at ({s.u1}, {s.u2})")
    w = _torus_w(spec, s)
    k = spec.k
    quad = (x2 * x2 * w[0] ** 2 + x1 * x1 * w[1] ** 2) / lam
    linear = 2.0 * k * (d2 * w[0] - d1 * w[1]) / (x1 - x2)
    scal = -spec.mu * x1 * x2 / (x1 + x2) - k * spec.B * (x1 + x2) ** 2
    return float(quad + linear + scal)


def _torus_rhs(spec: SystemSpec):
    m = spec.model
    mu, B = spec.mu, spec.B

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
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
        return np.array(
            [
                2.0 * w1 / lam,
                2.0 * w2 / lam,
                2.0 * B * w2 + wsq * dlam1 / lam**2 - dh1,
                -2.0 * B * w1 + wsq * dlam2 / lam**2 - dh2,
            ]
        )

    return rhs


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_A = (
    (),
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
_DP_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)


def _dp_attempt(rhs, t, y, dt):
    k = [rhs(t, y)]
    for i in range(1, 6):
        yi = y + dt * sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(rhs(t + _DP_C[i] * dt, yi))
    y5 = y + dt * sum(b * kk for b, kk in zip(_DP_B5, k))
    k.append(rhs(t + dt, y5))
    y4 = y + dt * sum(b * kk for b, kk in zip(_DP_B4, k))
    return y5, y5 - y4


def _adaptive_step(rhs, t, y, dt, tol, dt_min=1e-13):
    """One accepted 5(4) step; returns (y_new, dt_taken, dt_next)."""
    dt = float(dt)
    while True:
        if dt < dt_min:
            raise StepRejected(f"step size underflow at t = {t}")
        try:
            y5, err = _dp_attempt(rhs, t, y, dt)
        except FixedPointSingularity:
            dt *= 0.25
            continue
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y5)))
        norm = math.sqrt(float(np.mean((err / scale) ** 2)))
        if not math.isfinite(norm):
            dt *= 0.2
            continue
        if norm <= 1.0 or dt < 4.0 * dt_min:
            factor = 0.9 * (norm + 1e-300) ** -0.2
            return y5, dt, dt * min(5.0, max(0.2, factor))
        dt *= max(0.2, 0.9 * norm**-0.2)


def flow_step(spec: SystemSpec, s: PhaseState, dt: float, tol: float = 1e-10) -> StepResult:
    """One accepted adaptive step of the torus flow (gauge-invariant form)."""
    if spec.family != Family.CASE_II:
        raise ValueError("flow_step drives CASE_II; use e3_flow_step or limit_system_step")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rhs = _torus_rhs(spec)
    w = _torus_w(spec, s)
    y = np.array([s.u1, s.u2, w[0], w[1]])
    y_new, taken, dt_next = _adaptive_step(rhs, 0.0, y, dt, tol)
    a1, a2 = gauge_a(spec, (y_new[0], y_new[1]))
    out = PhaseState(u1=y_new[0], u2=y_new[1], p1=y_new[2] + a1, p2=y_new[3] + a2)
    return StepResult(state=out, dt_taken=taken, dt_next=dt_next)


# ---------------------------------------------------------------------------
# finite-difference Poisson brackets
# ---------------------------------------------------------------------------

def _richardson_diff(fn, x0: np.ndarray, i: int, h: float) -> float:
    e = np.zeros_like(x0)
    e[i] = 1.0
    d_h = (fn(x0 + h * e) - fn(x0 - h * e)) / (2.0 * h)
    d_h2 = (fn(x0 + 0.5 * h * e) - fn(x0 - 0.5 * h * e)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def phase_gradient(fn, s: PhaseState, h: float = 1e-4) -> np.ndarray:
    """Gradient (d/du1, d/du2, d/dp1, d/dp2) by Richardson-extrapolated differences."""
    x0 = s.as_array()
    wrapped = lambda arr: fn(PhaseState(*arr))
    return np.array([_richardson_diff(wrapped, x0, i, h) for i in range(4)])


def poisson_bracket_fd(fn_a, fn_b, s: PhaseState, h: float = 1e-4) -> float:
    """Canonical bracket {a, b} = sum_i da/du_i db/dp_i - da/dp_i db/du_i."""
    ga = phase_gradient(fn_a, s, h)
    gb = phase_gradient(fn_b, s, h)
    return float(ga[0] * gb[2] - ga[2] * gb[0] + ga[1] * gb[3] - ga[3] * gb[1])


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


def e3_gradient(fn, s: E3State, h: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """(grad_M f, grad_x f) by Richardson-extrapolated central differences."""
    x0 = s.as_array()
    wrapped = lambda arr: fn(E3State(M=arr[:3], x=arr[3:]))
    g = np.array([_richardson_diff(wrapped, x0, i, h) for i in range(6)])
    return g[:3], g[3:]


def lie_poisson_bracket(fn_a, fn_b, s: E3State, h: float = 1e-4) -> float:
    """Bracket assembled from the e(3)* structure constants:

        {a, b} = M . (grad_M a x grad_M b)
                 + x . (grad_M a x grad_x b + grad_x a x grad_M b).
    """
    gam, gax = e3_gradient(fn_a, s, h)
    gbm, gbx = e3_gradient(fn_b, s, h)
    return float(
        s.M @ np.cross(gam, gbm) + s.x @ (np.cross(gam, gbx) + np.cross(gax, gbm))
    )


def _e3_rhs(spec: SystemSpec):
    if spec.family == Family.CASE_I:
        alpha = np.array(spec.alpha)
        mu = spec.mu

        def rhs(_t, y):
            M, x = y[:3], y[3:]
            dM = -2.0 * mu * np.cross(alpha * x, x)
            dx = 2.0 * np.cross(M, x)
            return np.concatenate([dM, dx])

        return rhs
    if spec.family == Family.VY:
        va, vb, mu = spec.vy_a, spec.vy_b, spec.mu
        sab = math.sqrt(va * vb)

        def rhs(_t, y):
            M, q = y[:3], y[3:]
            qn = float(np.linalg.norm(q))
            R = _vy_r(spec, q)
            if R < 1e-12 * max(1.0, qn**2):
                raise CenterSingularity(f"orbit reached a Coulomb center: R = {R:.3e}")
            gradR = np.array([2.0 * vb * q[0], 2.0 * va * q[1], 2.0 * (va + vb) * q[2]])
            gradR -= 2.0 * sab * (q[2] * q / qn + qn * np.array([0.0, 0.0, 1.0]))
            gradH = -mu * (q / qn) / math.sqrt(R) + 0.5 * mu * qn * R**-1.5 * gradR
            dM = np.cross(gradH, q)
            dq = np.cross(M, q)
            return np.concatenate([dM, dq])

        return rhs
    raise ValueError(f"no e(3)* flow for family {spec.family}")


def _project_e3(y: np.ndarray, nu: float) -> np.ndarray:
    M, x = y[:3], y[3:]
    x = x / np.linalg.norm(x)
    M = M + (nu - M @ x) * x
    return np.concatenate([M, x])


def e3_flow_step(
    spec: SystemSpec, s: E3State, dt: float, tol: float = 1e-10, nu: float | None = None
) -> StepResult:
    """One accepted adaptive step of the Lie-Poisson flow with Casimir projection.

    After the step, x is renormalised to the unit sphere and M is shifted along
    x to restore (M, x) = nu (default: the value carried by the input state).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rhs = _e3_rhs(spec)
    y = s.as_array()
    if nu is None:
        nu = float(s.M @ s.x)
    y_new, taken, dt_next = _adaptive_step(rhs, 0.0, y, dt, tol)
    y_new = _project_e3(y_new, nu)
    return StepResult(state=E3State(M=y_new[:3], x=y_new[3:]), dt_taken=taken, dt_next=dt_next)


# ---------------------------------------------------------------------------
# cylinder limit (beta2 -> beta1): linear integral F = p1
# ---------------------------------------------------------------------------

def limit_gauge_a1(spec: SystemSpec, u2) -> float:
    """Gauge A1(u2) = (B/c) * integral_{-inf}^{u2} (beta1^2 - Q2^2), A2 = 0.

    Closed form through antiderivatives of 1/(a cosh s + b) and its square,
    a = sqrt(D):

        J1(s) = artanh(w tanh(s/2)) / sqrt(c),   w = sqrt((b-a)/(b+a)),
        J2(s) = [b J1(s) - a tanh(s)/(a + b sech(s))] / (4c).
    """
    lm = spec.limit
    a = math.sqrt(lm.D)
    b, c, B = lm.b, lm.c, spec.B
    w = math.sqrt((b - a) / (b + a))
    sqc = math.sqrt(c)

    def j1(sv):
        return np.arctanh(w * np.tanh(sv / 2.0)) / sqc

    def j2(sv):
        sech = 1.0 / np.cosh(sv)
        core = a * np.tanh(sv) / (a + b * sech)
        return (b * j1(sv) - core) / (4.0 * c)

    s = 0.5 * sqc * (np.asarray(u2, dtype=float) - lm.delta)
    j1_inf = -math.atanh(w) / sqc
    j2_inf = (b * j1_inf + 1.0) / (4.0 * c)
    e1 = (2.0 / sqc) * 2.0 * c * (j1(s) - j1_inf)
    e2 = (2.0 / sqc) * 4.0 * c * c * (j2(s) - j2_inf)
    out = (B / c) * (2.0 * lm.beta1 * e1 - e2)
    return out if np.asarray(out).shape else float(out)


def limit_h_eval(spec: SystemSpec, s: PhaseState) -> float:
    """Cylinder Hamiltonian

        H = c/(4 lam2) [(p1 - A1)^2 + (4/c) p2^2] + mu/(beta1 + Q2),
        lam2 = beta1^2 - Q2(u2)^2.
    """
    lm = spec.limit
    x2 = limit_q2(lm, s.u2)
    lam2 = lm.beta1**2 - x2**2
    a1 = limit_gauge_a1(spec, s.u2)
    return float(
        (0.25 * lm.c * (s.p1 - a1) ** 2 + s.p2**2) / lam2 + spec.mu / (lm.beta1 + x2)
    )


def _limit_rhs(spec: SystemSpec):
    lm = spec.limit
    c, mu, B = lm.c, spec.mu, spec.B
    b1 = lm.beta1

    def rhs(_t, y):
        _u1, u2, p1, p2 = y
        x2 = limit_q2(lm, u2)
        d2 = limit_q2_deriv(lm, u2)
        lam2 = b1 * b1 - x2 * x2
        a1 = limit_gauge_a1(spec, u2)
        da1 = B * lam2 / c
        dlam2 = -2.0 * x2 * d2
        num = 0.25 * c * (p1 - a1) ** 2 + p2 * p2
        return np.array(
            [
                0.5 * c * (p1 - a1) / lam2,
                2.0 * p2 / lam2,
                0.0,
                0.5 * c * (p1 - a1) * da1 / lam2 + num * dlam2 / lam2**2 + mu * d2 / (b1 + x2) ** 2,
            ]
        )

    return rhs


def limit_system_step(spec: SystemSpec, s: PhaseState, dt: float, tol: float = 1e-10) -> StepResult:
    """One accepted adaptive step of the cylinder flow; p1 never differentiated."""
    if spec.family != Family.CASE_II_LIMIT:
        raise ValueError("limit_system_step needs a CASE_II_LIMIT spec")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rhs = _limit_rhs(spec)
    y_new, taken, dt_next = _adaptive_step(rhs, 0.0, s.as_array(), dt, tol)
    return StepResult(state=PhaseState(*y_new), dt_taken=taken, dt_next=dt_next)


# ---------------------------------------------------------------------------
# trajectory drivers
# ---------------------------------------------------------------------------

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
    if spec.family == Family.CASE_II:
        monitors = lambda st: {"H": h_eval(spec, st), "F": f_eval(spec, st)}
        stepper = lambda st, dt: flow_step(spec, st, dt, tol)
    elif spec.family in (Family.CASE_I, Family.VY):
        ev = clebsch_eval if spec.family == Family.CASE_I else vy_eval

        def monitors(st):
            H, F = ev(spec, st)
            return {"H": H, "F": F, "C1": float(st.x @ st.x), "C2": float(st.M @ st.x)}

        nu = float(state0.M @ state0.x)
        stepper = lambda st, dt: e3_flow_step(spec, st, dt, tol, nu=nu)
    elif spec.family == Family.CASE_II_LIMIT:
        monitors = lambda st: {"H": limit_h_eval(spec, st), "F": st.p1}
        stepper = lambda st, dt: limit_system_step(spec, st, dt, tol)
    else:
        raise ValueError(f"cannot integrate family {spec.family}")

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
        res = stepper(state, dt)
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


def random_state(spec: SystemSpec, rng: np.random.Generator, momentum_scale: float = 1.0):
    """Reproducible random state away from singular loci."""
    if spec.family == Family.CASE_II:
        m = spec.model
        u1 = float(rng.uniform(0.15, 0.85) * m.K1 + rng.choice([0.0, m.K1, 2.0 * m.K1]))
        u2 = float(rng.uniform(0.15, 0.85) * m.K2 + rng.choice([0.0, m.K2, 2.0 * m.K2]))
        w = rng.normal(0.0, momentum_scale, 2)
        a1, a2 = gauge_a(spec, (u1, u2))
        return PhaseState(u1=u1, u2=u2, p1=float(w[0] + a1), p2=float(w[1] + a2))
    if spec.family in (Family.CASE_I, Family.VY):
        x = rng.normal(0.0, 1.0, 3)
        x /= np.linalg.norm(x)
        M = rng.normal(0.0, momentum_scale, 3)
        if spec.family == Family.CASE_I:
            # leaf value nu doubles as the magnetic density for sphere runs
            M = M + (spec.B - M @ x) * x
        return E3State(M=M, x=x)
    if spec.family == Family.CASE_II_LIMIT:
        return PhaseState(
            u1=float(rng.uniform(0.0, 2.0 * math.pi)),
            u2=float(spec.limit.delta + rng.uniform(-2.0, 2.0)),
            p1=float(rng.normal(0.0, momentum_scale)),
            p2=float(rng.normal(0.0, momentum_scale)),
        )
    raise ValueError(f"no random state for family {spec.family}")
