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
chain rule, so no gauge re-anchoring is ever needed).  The slices ride in the
state, y = (u1, u2, w1, w2, Q1, Q1', Q2, Q2'), by 4 Q1'^2 = P(Q1) and
4 Q2'^2 = -P(Q2): dQ_i/dt = Q_i' du_i/dt, dQ1'/dt = P'(Q1)/8 du1/dt and
dQ2'/dt = -P'(Q2)/8 du2/dt, so no stage sums a slice series.  Each step
reseeds (Q, Q') from EllipticModel.at(u), kept since the last step's unpacking,
and its error norm counts the 4 dimensions of T*T^2, not 8.

e(3)* systems (CASE_I Clebsch and VY) integrate dM/dt = {M, H},
dx/dt = {x, H} under {M_i, M_j} = eps_ijk M_k, {M_i, x_j} = eps_ijk x_k,
{x_i, x_j} = 0, with a per-step projection restoring the Casimirs |x|^2 = 1
and (M, x) = nu exactly.

For each family _flow packs the state into its integration variables y and
names its right-hand side (_torus_rhs, _limit_rhs, _e3_rhs), the exact
gradient of F in y and the unpacking (_torus_state, _phase_state, and the
Casimir projection _project_e3).  flow_step steps every family on them, and
hf_bracket reads {F, H} = grad F . dy/dt, the rate of change of F along H's flow.

The integrator is Hairer's DOP853, an explicit Runge-Kutta method of order 8
with embedded error estimates of orders 5 and 3 (Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, 2nd ed., II.10), under PI-free
step control; drift bounds are enforced through the local tolerance, and a
step that cannot meet it above the smallest step size raises StepRejected.
The attempt, the step control and every flow right-hand side run in Python
floats on tuples: on states of 4 to 8 components numpy's per-call cost
exceeds the arithmetic.  Each sum and product is taken in the order of the
elementwise numpy form y + dt * sum_j a_j k_j (and np.cross), so the
trajectories are bitwise those of that form.  The sums are written out as
left folds: the builtin sum of floats is compensated from Python 3.12 on.
The BLAS dots of the e(3)* projection, of |q| and of the e(3)* monitors stay
(a BLAS dot rounds differently from a Python sum); the wrappers go: a norm is
math.sqrt(v.dot(v)), as np.linalg.norm takes it, with float arithmetic around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, mul

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

def torus_eval(spec: SystemSpec, s: PhaseState) -> tuple[float, float]:
    """(H, F) of the torus family from one EllipticModel.at of the point.

    H = |w|^2/lam + mu/(Q1+Q2) and F as in the module docstring.
    """
    m = spec.model
    x1, d1, x2, d2, g = m.at(s.u1, s.u2)
    lam = x1 * x1 - x2 * x2
    if lam < 1e-10 * m.beta[0] ** 2:
        raise FixedPointSingularity(f"lam = {lam:.3e} at ({s.u1}, {s.u2})")
    w1, w2 = s.p1, s.p2 - spec.B * g
    k = spec.k
    H = (w1 * w1 + w2 * w2) / lam + spec.mu / (x1 + x2)
    quad = (x2 * x2 * w1 * w1 + x1 * x1 * w2 * w2) / lam
    linear = 2.0 * k * (d2 * w1 - d1 * w2) / (x1 - x2)
    scal = -spec.mu * x1 * x2 / (x1 + x2) - k * spec.B * (x1 + x2) ** 2
    return float(H), float(quad + linear + scal)


def _torus_rhs(spec: SystemSpec):
    mu, B = spec.mu, spec.B
    a3, _, a2, a0, _ = spec.quartic.coefficients()
    c3, c1, c0 = 0.5 * a3, 0.25 * a2, 0.125 * a0  # P'(x)/8 = c3 x^3 + c1 x + c0

    def rhs(y: tuple) -> tuple:
        u1, u2, w1, w2, x1, d1, x2, d2 = y
        lam = x1 * x1 - x2 * x2
        if lam <= 0.0:
            raise FixedPointSingularity(f"lam = {lam:.3e} during flow")
        ssum = x1 + x2
        dlam1 = 2.0 * x1 * d1
        dlam2 = -2.0 * x2 * d2
        dh1 = -mu * d1 / ssum**2
        dh2 = -mu * d2 / ssum**2
        wsq = w1 * w1 + w2 * w2
        du1, du2 = 2.0 * w1 / lam, 2.0 * w2 / lam
        return (
            du1, du2,
            2.0 * B * w2 + wsq * dlam1 / lam**2 - dh1,
            -2.0 * B * w1 + wsq * dlam2 / lam**2 - dh2,
            d1 * du1, ((c3 * x1 * x1 + c1) * x1 + c0) * du1,
            d2 * du2, -((c3 * x2 * x2 + c1) * x2 + c0) * du2,
        )

    return rhs


def _torus_state(spec: SystemSpec, y: tuple, _nu) -> PhaseState:
    """The state of the torus variables y = (u1, u2, w1, w2, ...): p = w + A(u)."""
    u1, u2, w1, w2 = y[:4]
    return PhaseState(u1=u1, u2=u2, p1=w1, p2=w2 + spec.B * spec.model.at(u1, u2)[4])


def _torus_grad_f(spec: SystemSpec, y: tuple) -> tuple:
    """grad F in y = (u1, u2, w1, w2, Q, Q'), where in :func:`fields.normal_form`

        F = g (v1 w1^2 + v2 w2^2) + phi1 w1 + phi2 w2 + varphi;

    the u-partials come from the jets of the fields at u, those in Q, Q' are 0."""
    u1, u2, w1, w2 = y[:4]
    g, _, v1, v2, phi1, phi2, _, vphi = normal_form(spec, u1, u2)
    gv1, gv2 = g * v1, g * v2
    du = [
        d(gv1) * w1 * w1 + d(gv2) * w2 * w2 + d(phi1) * w1 + d(phi2) * w2 + d(vphi)
        for d in (attrgetter("d1"), attrgetter("d2"))
    ]
    return (*du, 2.0 * gv1.v * w1 + phi1.v, 2.0 * gv2.v * w2 + phi2.v, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3): Hairer's DOP853
# ---------------------------------------------------------------------------

# The coefficients of scipy's dop853_coefficients.py, after Hairer's dop853.f.
# Row i of _DOP_A holds the nonzero a_ij of stage i + 2 as {j: a_ij}; stage 12
# sits at c = 1.  y_new takes the weights _DOP_B, and the embedded error
# estimates of orders 5 and 3 the weights _DOP_E5 and _DOP_B - _DOP_BHH.
_DOP_A = (
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2},
    {
        1: 2.41365134159266685502369798665e-1,
        3: -8.84549479328286085344864962717e-1,
        4: 9.24834003261792003115737966543e-1,
    },
    {
        1: 3.7037037037037037037037037037e-2,
        4: 1.70828608729473871279604482173e-1,
        5: 1.25467687566822425016691814123e-1,
    },
    {
        1: 3.7109375e-2,
        4: 1.70252211019544039314978060272e-1,
        5: 6.02165389804559606850219397283e-2,
        6: -1.7578125e-2,
    },
    {
        1: 3.70920001185047927108779319836e-2,
        4: 1.70383925712239993810214054705e-1,
        5: 1.07262030446373284651809199168e-1,
        6: -1.53194377486244017527936158236e-2,
        7: 8.27378916381402288758473766002e-3,
    },
    {
        1: 6.24110958716075717114429577812e-1,
        4: -3.36089262944694129406857109825,
        5: -8.68219346841726006818189891453e-1,
        6: 2.75920996994467083049415600797e1,
        7: 2.01540675504778934086186788979e1,
        8: -4.34898841810699588477366255144e1,
    },
    {
        1: 4.77662536438264365890433908527e-1,
        4: -2.48811461997166764192642586468,
        5: -5.90290826836842996371446475743e-1,
        6: 2.12300514481811942347288949897e1,
        7: 1.52792336328824235832596922938e1,
        8: -3.32882109689848629194453265587e1,
        9: -2.03312017085086261358222928593e-2,
    },
    {
        1: -9.3714243008598732571704021658e-1,
        4: 5.18637242884406370830023853209,
        5: 1.09143734899672957818500254654,
        6: -8.14978701074692612513997267357,
        7: -1.85200656599969598641566180701e1,
        8: 2.27394870993505042818970056734e1,
        9: 2.49360555267965238987089396762,
        10: -3.0467644718982195003823669022,
    },
    {
        1: 2.27331014751653820792359768449,
        4: -1.05344954667372501984066689879e1,
        5: -2.00087205822486249909675718444,
        6: -1.79589318631187989172765950534e1,
        7: 2.79488845294199600508499808837e1,
        8: -2.85899827713502369474065508674,
        9: -8.87285693353062954433549289258,
        10: 1.23605671757943030647266201528e1,
        11: 6.43392746015763530355970484046e-1,
    },
)
_DOP_B = {
    1: 5.42937341165687622380535766363e-2,
    6: 4.45031289275240888144113950566,
    7: 1.89151789931450038304281599044,
    8: -5.8012039600105847814672114227,
    9: 3.1116436695781989440891606237e-1,
    10: -1.52160949662516078556178806805e-1,
    11: 2.01365400804030348374776537501e-1,
    12: 4.47106157277725905176885569043e-2,
}
_DOP_E5 = {
    1: 0.1312004499419488073250102996e-1,
    6: -0.1225156446376204440720569753e1,
    7: -0.4957589496572501915214079952,
    8: 0.1664377182454986536961530415e1,
    9: -0.3503288487499736816886487290,
    10: 0.3341791187130174790297318841,
    11: 0.8192320648511571246570742613e-1,
    12: -0.2235530786388629525884427845e-1,
}
_DOP_BHH = {1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547, 12: 0.220588235294117647058823529412e-1}
_DOP_E3 = {j: b - _DOP_BHH.get(j, 0.0) for j, b in _DOP_B.items()}

(
    (_A21,),
    (_A31, _A32),
    (_A41, _A43),
    (_A51, _A53, _A54),
    (_A61, _A64, _A65),
    (_A71, _A74, _A75, _A76),
    (_A81, _A84, _A85, _A86, _A87),
    (_A91, _A94, _A95, _A96, _A97, _A98),
    (_A101, _A104, _A105, _A106, _A107, _A108, _A109),
    (_A111, _A114, _A115, _A116, _A117, _A118, _A119, _A1110),
    (_A121, _A124, _A125, _A126, _A127, _A128, _A129, _A1210, _A1211),
) = (tuple(row.values()) for row in _DOP_A)
# the weights of k1 and k6..k12 in y_new (_B), e5 (_F) and e3 (_G)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = _DOP_B.values()
_F1, _F6, _F7, _F8, _F9, _F10, _F11, _F12 = _DOP_E5.values()
_G1, _G6, _G7, _G8, _G9, _G10, _G11, _G12 = _DOP_E3.values()
_DT_MIN = 1e-13  # smallest step size an adaptive step tries


def _dop853_attempt(rhs, y: tuple, k1: tuple, dt: float):
    """One DOP853 attempt from y with k1 = rhs(y): (y_new, e5, e3), the
    order-8 solution and the order-5 and order-3 error estimates.

    Every sum is a left fold over its nonzero coefficients, exactly as the
    elementwise numpy form y + dt * (a_i1 k1 + a_i2 k2 + ...) adds it.
    """
    k2 = rhs(tuple([v + dt * (_A21 * p1) for v, p1 in zip(y, k1)]))
    k3 = rhs(tuple([v + dt * (_A31 * p1 + _A32 * p2) for v, p1, p2 in zip(y, k1, k2)]))
    k4 = rhs(tuple([v + dt * (_A41 * p1 + _A43 * p3) for v, p1, p3 in zip(y, k1, k3)]))
    k5 = rhs(tuple([v + dt * (_A51 * p1 + _A53 * p3 + _A54 * p4) for v, p1, p3, p4 in zip(y, k1, k3, k4)]))
    k6 = rhs(tuple([v + dt * (_A61 * p1 + _A64 * p4 + _A65 * p5) for v, p1, p4, p5 in zip(y, k1, k4, k5)]))
    k7 = rhs(tuple([
        v + dt * (_A71 * p1 + _A74 * p4 + _A75 * p5 + _A76 * p6)
        for v, p1, p4, p5, p6 in zip(y, k1, k4, k5, k6)
    ]))
    k8 = rhs(tuple([
        v + dt * (_A81 * p1 + _A84 * p4 + _A85 * p5 + _A86 * p6 + _A87 * p7)
        for v, p1, p4, p5, p6, p7 in zip(y, k1, k4, k5, k6, k7)
    ]))
    k9 = rhs(tuple([
        v + dt * (_A91 * p1 + _A94 * p4 + _A95 * p5 + _A96 * p6 + _A97 * p7 + _A98 * p8)
        for v, p1, p4, p5, p6, p7, p8 in zip(y, k1, k4, k5, k6, k7, k8)
    ]))
    k10 = rhs(tuple([
        v + dt * (_A101 * p1 + _A104 * p4 + _A105 * p5 + _A106 * p6 + _A107 * p7 + _A108 * p8 + _A109 * p9)
        for v, p1, p4, p5, p6, p7, p8, p9 in zip(y, k1, k4, k5, k6, k7, k8, k9)
    ]))
    k11 = rhs(tuple([
        v
        + dt
        * (_A111 * p1 + _A114 * p4 + _A115 * p5 + _A116 * p6 + _A117 * p7 + _A118 * p8 + _A119 * p9 + _A1110 * p10)
        for v, p1, p4, p5, p6, p7, p8, p9, p10 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)
    ]))
    k12 = rhs(tuple([
        v
        + dt
        * (
            _A121 * p1 + _A124 * p4 + _A125 * p5 + _A126 * p6 + _A127 * p7
            + _A128 * p8 + _A129 * p9 + _A1210 * p10 + _A1211 * p11
        )
        for v, p1, p4, p5, p6, p7, p8, p9, p10, p11 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)
    ]))
    y_new, e5, e3 = [], [], []
    for v, p1, p6, p7, p8, p9, p10, p11, p12 in zip(y, k1, k6, k7, k8, k9, k10, k11, k12):
        y_new.append(
            v + dt * (_B1 * p1 + _B6 * p6 + _B7 * p7 + _B8 * p8 + _B9 * p9 + _B10 * p10 + _B11 * p11 + _B12 * p12)
        )
        e5.append(dt * (_F1 * p1 + _F6 * p6 + _F7 * p7 + _F8 * p8 + _F9 * p9 + _F10 * p10 + _F11 * p11 + _F12 * p12))
        e3.append(dt * (_G1 * p1 + _G6 * p6 + _G7 * p7 + _G8 * p8 + _G9 * p9 + _G10 * p10 + _G11 * p11 + _G12 * p12))
    return tuple(y_new), e5, e3


def _adaptive_step(rhs, y: tuple, dt: float, tol: float, n: int = 0):
    """One accepted DOP853 step; returns (y_new, dt_taken, dt_next).

    The error norm is Hairer's err5^2 / sqrt((err5^2 + 0.01 err3^2) n), each
    estimate taken on the scale tol (1 + max(|y_i|, |y_new_i|)) and n the
    phase-space dimension (default len(y)).  A step whose norm exceeds 1 is
    retried with a smaller dt, and so is one that meets a fixed point
    (FixedPointSingularity) on its way, or whose norm is not finite;
    StepRejected is raised once dt falls below _DT_MIN.
    k1 = rhs(y) does not depend on dt and is evaluated once per step: it is
    the 13th evaluation rhs(y_new) of the step before, so an attempt costs
    the 11 right-hand sides of stages 2 to 12.
    """
    dt = float(dt)
    k1 = None
    while True:
        if dt < _DT_MIN:
            raise StepRejected(f"step size underflow: dt = {dt:.3e} < {_DT_MIN:g}")
        try:
            if k1 is None:
                k1 = rhs(y)
            y_new, e5, e3 = _dop853_attempt(rhs, y, k1, dt)
        except FixedPointSingularity:
            dt *= 0.25
            continue
        sq5 = sq3 = 0.0
        for a5, a3, a, b in zip(e5, e3, y, y_new):
            scale = tol * (1.0 + max(abs(a), abs(b)))
            q5, q3 = a5 / scale, a3 / scale
            sq5 += q5 * q5
            sq3 += q3 * q3
        den = math.sqrt((sq5 + 0.01 * sq3) * (n or len(y)))
        if not math.isfinite(den):
            dt *= 0.2
            continue
        norm = sq5 / den if den else 0.0
        if norm <= 1.0:
            factor = 0.9 * (norm + 1e-300) ** -0.125
            return y_new, dt, dt * min(5.0, max(0.2, factor))
        dt *= max(0.2, 0.9 * norm**-0.125)


# ---------------------------------------------------------------------------
# e(3)* systems: Clebsch (CASE_I) and the two-centre system (VY)
# ---------------------------------------------------------------------------

def clebsch_eval(spec: SystemSpec, s: E3State) -> tuple[float, float]:
    """H = |M|^2 - mu sum alpha_i x_i^2 and its quadratic partner integral."""
    if spec.family != Family.CASE_I:
        raise ValueError("clebsch_eval needs a CASE_I spec")
    a1, a2, a3 = spec.alpha
    mu = spec.mu
    M0, M1, M2 = s.M.tolist()
    x0, x1, x2 = s.x.tolist()
    H = float(s.M.dot(s.M)) - mu * (a1 * x0**2 + a2 * x1**2 + a3 * x2**2)
    F = a1 * M0**2 + a2 * M1**2 + a3 * M2**2 + mu * (a2 * a3 * x0**2 + a1 * a3 * x1**2 + a1 * a2 * x2**2)
    return H, F


def _vy_r(spec: SystemSpec, q: np.ndarray, qn: float) -> float:
    """R(q) of :func:`vy_eval`; qn = |q| is the caller's."""
    va, vb = spec.vy_a, spec.vy_b
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
    qn = math.sqrt(q.dot(q))
    R = _vy_r(spec, q, qn)
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


def _e3_rhs(spec: SystemSpec):
    """The e(3)* right-hand side of a CASE_I or VY spec, written out flat."""
    if spec.family == Family.CASE_I:
        a1, a2, a3 = spec.alpha
        m2mu = -2.0 * spec.mu

        def rhs(y: tuple) -> tuple:
            M0, M1, M2, x0, x1, x2 = y
            ax0, ax1, ax2 = a1 * x0, a2 * x1, a3 * x2
            return (  # -2 mu (alpha x) x x and 2 M x x
                m2mu * (ax1 * x2 - ax2 * x1), m2mu * (ax2 * x0 - ax0 * x2), m2mu * (ax0 * x1 - ax1 * x0),
                2.0 * (M1 * x2 - M2 * x1), 2.0 * (M2 * x0 - M0 * x2), 2.0 * (M0 * x1 - M1 * x0),
            )

        return rhs
    # Family.VY
    va, vb, mu = spec.vy_a, spec.vy_b, spec.mu
    two_sab = 2.0 * math.sqrt(va * vb)
    d0, d1, d2 = 2.0 * vb, 2.0 * va, 2.0 * (va + vb)

    def rhs(y: tuple) -> tuple:
        M0, M1, M2, q0, q1, q2 = y
        q = y[3:]
        qn = math.sqrt(np.dot(q, q))
        R = _vy_r(spec, q, qn)
        if R < 1e-12 * max(1.0, qn**2):
            raise CenterSingularity(f"orbit reached a Coulomb center: R = {R:.3e}")
        # grad H = -mu q/|q| / sqrt(R) + c grad R, grad R = diag q - 2 sqrt(AB) (q3 q/|q| + |q| e_z)
        # (the + 0.0 are |q| e_z's zero components: they fix the sign of a zero); then grad H x q, M x q
        sqR = math.sqrt(R)
        c = 0.5 * mu * qn * R**-1.5
        h0 = -mu * (q0 / qn) / sqR + c * (d0 * q0 - two_sab * (q2 * q0 / qn + 0.0))
        h1 = -mu * (q1 / qn) / sqR + c * (d1 * q1 - two_sab * (q2 * q1 / qn + 0.0))
        h2 = -mu * (q2 / qn) / sqR + c * (d2 * q2 - two_sab * (q2 * q2 / qn + qn))
        return (h1 * q2 - h2 * q1, h2 * q0 - h0 * q2, h0 * q1 - h1 * q0,
                M1 * q2 - M2 * q1, M2 * q0 - M0 * q2, M0 * q1 - M1 * q0)

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
    sab, qn, e_z = math.sqrt(va * vb), math.sqrt(q.dot(q)), np.array([0.0, 0.0, 1.0])
    R = _vy_r(spec, q, qn)
    c, mq = 2.0 * sab / qn, M @ q
    grad_r = np.array([2.0 * vb, 2.0 * va, 2.0 * (va + vb)]) * q - 2.0 * sab * (q[2] * q / qn + qn * e_z)
    dM = np.array([2.0 * va * M[0], 2.0 * vb * M[1], 0.0]) + c * M[2] * q + c * mq * e_z
    dq = c * M[2] * (M - mq * q / qn**2) + mu * sab * (q[2] * R**-1.5 * grad_r - 2.0 / math.sqrt(R) * e_z)
    return (*dM.tolist(), *dq.tolist())


def _project_e3(_spec: SystemSpec, y: tuple, nu: float) -> E3State:
    """The state of y projected onto the leaf |x| = 1, (M, x) = nu."""
    M, x = np.array(y[:3]), np.array(y[3:])
    x = x / math.sqrt(x.dot(x))
    return E3State(M=M + (nu - M.dot(x)) * x, x=x)


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
    """(y, rhs, grad_f, unpack, n) at state s: the family's integration
    variables, the flow's right-hand side and grad F in them, the map of y
    back to a state and the phase-space dimension.  The torus integrates
    (u, w = p - A(u), Q, Q'), the cylinder (u, p), where F = p1, and e(3)* (M, x).
    """
    if spec.family == Family.CASE_II:
        x1, d1, x2, d2, g = spec.model.at(s.u1, s.u2)
        y = (s.u1, s.u2, s.p1, s.p2 - spec.B * g, x1, d1, x2, d2)
        return y, _torus_rhs(spec), _torus_grad_f, _torus_state, 4
    if spec.family == Family.CASE_II_LIMIT:
        return (s.u1, s.u2, s.p1, s.p2), _limit_rhs(spec), lambda *_: (0.0, 0.0, 1.0, 0.0), _phase_state, 4
    grad_f = _clebsch_grad_f if spec.family == Family.CASE_I else _vy_grad_f
    return tuple(s.M.tolist() + s.x.tolist()), _e3_rhs(spec), grad_f, _project_e3, 6


def hf_bracket(spec: SystemSpec, s: PhaseState | E3State) -> tuple[float, float]:
    """{F, H} at state s and its scale: (sum_i t_i, sum_i |t_i|), where
    t_i = dF/dy_i dy_i/dt in the family's integration variables y.

    A state where the flow is singular raises the right-hand side's error,
    and one where it is not finite DegeneratePoint.
    """
    y, rhs, grad_f, *_ = _flow(spec, s)
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
    dt and tol must be finite and positive (a NaN or infinite dt never
    shrinks below _DT_MIN), or ValueError is raised.
    """
    if not (0.0 < dt < math.inf and 0.0 < tol < math.inf):
        raise ValueError(f"dt and tol must be finite and positive, got dt = {dt}, tol = {tol}")
    y, rhs, _, unpack, n = _flow(spec, s)
    if nu is None and isinstance(s, E3State):
        nu = float(s.M @ s.x)
    y, taken, dt_next = _adaptive_step(rhs, y, dt, tol, n)
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
    Casimirs C1 = |x|^2 and C2 = (M, x).  Before any step, ValueError is
    raised unless t_end is finite and >= 0, tol finite and > 0 and stride an
    int >= 1.
    """
    if not (0.0 <= t_end < math.inf and 0.0 < tol < math.inf):
        raise ValueError(f"t_end must be finite and >= 0, tol finite and > 0, got t_end = {t_end}, tol = {tol}")
    if not (isinstance(stride, int) and stride >= 1):
        raise ValueError(f"stride must be an int >= 1, got {stride!r}")
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
    # Family.CASE_II_LIMIT: |s| = sqrt(c) |u2 - delta| / 2 <= 6 keeps the state
    # off the plateau where Q2 has rounded to beta1 (h = 2 for sqrt(c) <= 6)
    h = min(2.0, 12.0 / math.sqrt(spec.limit.c))
    return PhaseState(
        u1=float(rng.uniform(0.0, 2.0 * math.pi)),
        u2=float(spec.limit.delta + rng.uniform(-h, h)),
        p1=float(rng.normal(0.0, 1.0)),
        p2=float(rng.normal(0.0, 1.0)),
    )
