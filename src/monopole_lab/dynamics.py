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

The cylinder limit (CASE_II_LIMIT) is the same flow with Q1 frozen at beta1.
In its gauge A = (A1(u2), 0), A1 = (B/c) G, dG/du2 = beta1^2 - Q2^2, its H is
(c/4 w1^2 + w2^2)/lam + mu/(beta1 + Q2) in the field -(B/c) lam, and
4 Q2'^2 = -Pt(Q2), Pt(x) = -(x - beta1)^2 (x - beta3)(x - beta4).  So one
factory, _torus_rhs, writes the flow of (k1 w1^2 + w2^2)/lam + mu/(Q1 + Q2) in
a field b lam: the torus at (k1, b) = (1, B), the cylinder at (c/4, -B/c) in
y = (u1, u2, p1 - A1, p2, beta1, 0, Q2, Q2'), with Pt's c0 chosen so that
Pt'(beta1)/8 is an exact 0 and Q1 stays beta1 bit for bit.  Each step
reseeds (Q2, Q2') from LimitModel.at(u2), and its unpacking restores p1
as it was packed: F = p1 is exact, as the e(3)* projection restores the
Casimirs.  A stage whose Q2 is at or past beta1 (lam <= 0) raises
FixedPointSingularity and is retried, as at the torus fixed point.  The Q1
rows are exact zeros, so the attempt holds (Q1, Q1') fixed, out of its sums.

e(3)* systems (CASE_I Clebsch and VY) integrate dM/dt = {M, H},
dx/dt = {x, H} under {M_i, M_j} = eps_ijk M_k, {M_i, x_j} = eps_ijk x_k,
{x_i, x_j} = 0, with a per-step projection restoring the Casimirs |x|^2 = 1
and (M, x) = nu exactly.

For each family _flow packs the state into its integration variables y and
names its right-hand side (_torus_rhs on the torus and the cylinder, _e3_rhs),
grad F in y and the unpacking (_torus_state, the cylinder's p1 restored, and
the Casimir projection _project_e3, which builds its E3State from the floats
it computed).  The torus, Clebsch and VY (H, F) are each written once, in y
and in arithmetic that also takes a complex y (_torus_hf, _clebsch_hf,
_vy_hf): the monitors evaluate them at the state's y, and grad F is their
complex step (_complex_step_grad_f), exact to round-off.  The cylinder's
F = p1 = w1 + A1(u2), A1 not in y, has a closed form of one line.  All but
the packing are built once per spec and kept until a flow of another spec
(_flow_parts).  flow_step steps every family on them, and hf_bracket reads
{F, H} = grad F . dy/dt, the rate of change of F along H's flow.

The integrator is Hairer's DOP853, an explicit Runge-Kutta method of order 8
with embedded error estimates of orders 5 and 3 (Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, 2nd ed., II.10), under PI-free
step control; drift bounds are enforced through the local tolerance, and a
step that cannot meet it above the smallest step size raises StepRejected.
The attempt, the step control and every flow right-hand side run in Python
floats on tuples: on states of 4 to 8 components numpy's per-call cost
exceeds the arithmetic.  Each sum and product is taken in the order of the
elementwise numpy form y + dt * sum_j a_j k_j (and np.cross), so the
trajectories are bitwise those of that form.  The attempt is generated from
the tableau once per state length and set of fixed components
(_attempt_kernel) as straight-line code, each sum a left fold over literal
coefficients: the builtin sum of floats is compensated from Python 3.12 on,
and a walk over zip per stage costs more than its arithmetic.  The attempt
also sums the squares of the scaled error estimates, so the step control
only forms the error norm from two floats.
The e(3)* path has no BLAS call either: E3State holds tuples, and every
3-vector dot (|q|, the projection, the monitors, random_state's M . x) is the
left fold a0 b0 + a1 b1 + a2 b2 (_dot).  A BLAS dot rounds by the kernel
OpenBLAS picks at run time, so it would give each CPU its own e(3)* CSVs;
the fold gives the bits of the Haswell kernel's dot on every CPU.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import DegeneratePoint, FixedPointSingularity, StepRejected
from .fields import Family, SystemSpec, gauge_a

__all__ = [
    "PhaseState",
    "E3State",
    "Trajectory",
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
    """Angular momentum and Poisson vector of an e(3)* system, each held as
    a tuple of 3 floats (any sequence of 3 numbers is taken, another length
    raises ValueError)."""

    M: tuple
    x: tuple

    def __post_init__(self) -> None:
        M, x = tuple(map(float, self.M)), tuple(map(float, self.x))
        if len(M) != 3 or len(x) != 3:
            name, v = ("M", M) if len(M) != 3 else ("x", x)
            raise ValueError(f"E3State.{name} needs 3 components, got {len(v)}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "x", x)

    def as_array(self) -> np.ndarray:
        return np.array(self.M + self.x)


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
    H, F = _torus_hf(spec, (s.u1, s.u2, s.p1, s.p2 - spec.B * g, x1, d1, x2, d2))
    return float(H), float(F)


def _torus_hf(spec: SystemSpec, y) -> tuple:
    """(H, F) of the module docstring in y = (u1, u2, w1, w2, Q1, Q1', Q2, Q2'),
    w = p - A(u); neither reads u but through the slices."""
    _, _, w1, w2, x1, d1, x2, d2 = y
    k = spec.k
    lam = x1 * x1 - x2 * x2
    H = (w1 * w1 + w2 * w2) / lam + spec.mu / (x1 + x2)
    quad = (x2 * x2 * w1 * w1 + x1 * x1 * w2 * w2) / lam
    linear = 2.0 * k * (d2 * w1 - d1 * w2) / (x1 - x2)
    scal = -spec.mu * x1 * x2 / (x1 + x2) - k * spec.B * (x1 + x2) ** 2
    return H, quad + linear + scal


def _torus_rhs(mu, b, k1, c3, c1, c0):
    """The rational flow in y = (u1, u2, w1, w2, Q1, Q1', Q2, Q2') of
    H = (k1 w1^2 + w2^2)/lam + mu/(Q1 + Q2) in the field b lam, with
    P'(x)/8 = c3 x^3 + c1 x + c0 in the slice rows: the torus at k1 = 1,
    b = B, and the cylinder at k1 = c/4, b = -B/c (module docstring)."""
    nmu, b2, nbk2, k2 = -mu, 2.0 * b, -2.0 * b * k1, 2.0 * k1  # -mu, 2b, -2b k1 and 2 k1 of dy/dt

    def rhs(y: tuple) -> tuple:
        u1, u2, w1, w2, x1, d1, x2, d2 = y
        lam = x1 * x1 - x2 * x2
        if lam <= 0.0:
            raise FixedPointSingularity(f"lam = {lam:.3e} during flow")
        lam_sq, ssum_sq = lam**2, (x1 + x2) ** 2
        wsq = k1 * w1 * w1 + w2 * w2
        du1, du2 = k2 * w1 / lam, 2.0 * w2 / lam
        return (
            du1, du2,
            b2 * w2 + wsq * (2.0 * x1 * d1) / lam_sq - nmu * d1 / ssum_sq,
            nbk2 * w1 + wsq * (-2.0 * x2 * d2) / lam_sq - nmu * d2 / ssum_sq,
            d1 * du1, ((c3 * x1 * x1 + c1) * x1 + c0) * du1,
            d2 * du2, -((c3 * x2 * x2 + c1) * x2 + c0) * du2,
        )

    return rhs


def _torus_state(spec: SystemSpec, y: tuple, _nu) -> PhaseState:
    """The state of the torus variables y = (u1, u2, w1, w2, ...): p = w + A(u)."""
    u1, u2, w1, w2 = y[:4]
    return PhaseState(u1=u1, u2=u2, p1=w1, p2=w2 + spec.B * spec.model.at(u1, u2)[4])


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

_DT_MIN = 1e-13  # smallest step size an adaptive step tries


@functools.cache
def _attempt_kernel(n: int, fixed: tuple):
    """The DOP853 attempt on states of n components, components ``fixed``
    held, generated from the tableau and compiled on the first call for that
    (n, fixed).

    The kernel is straight-line float code: y and each stage k unpacked into
    locals, every coefficient a literal (repr round-trips a float), only the
    nonzero entries the tableau holds.  Each stage sum and y_new, e5 and e3
    are left folds over those entries, in their order, as the elementwise
    numpy form y + dt * (a_i1 k1 + a_i2 k2 + ...) adds them.  The error
    norm's two sums of squares follow, from 0.0, one component at a time in
    order.  A fixed component has rows of exact zeros and a value other than
    -0.0: every stage sum and y_new give its value back, and it adds an
    exact 0 to both sums of squares, so the kernel leaves it out of them all.
    """
    live = [i for i in range(n) if i not in fixed]
    comps = lambda name: "".join(f"{name}_{i}, " if i in live else "_, " for i in range(n))
    fold = lambda weights, i: " + ".join(f"{w!r} * k{j}_{i}" for j, w in weights.items())
    y = "".join(f"y_{i}, " for i in range(n))
    lines = ["def attempt(rhs, y, k1, dt, tol):", f"    {y}= y", f"    {comps('k1')}= k1"]
    for j, row in enumerate(_DOP_A, start=2):
        stage = "".join(f"y_{i} + dt * ({fold(row, i)}), " if i in live else f"y_{i}, " for i in range(n))
        lines.append(f"    {comps(f'k{j}')}= rhs(({stage}))")
    for i in live:
        lines += [
            f"    n_{i} = y_{i} + dt * ({fold(_DOP_B, i)})",
            f"    a, b = abs(y_{i}), abs(n_{i})",
            "    scale = tol * (1.0 + (b if b > a else a))",  # max(a, b), without the builtin's call
            f"    q5_{i} = dt * ({fold(_DOP_E5, i)}) / scale",
            f"    q3_{i} = dt * ({fold(_DOP_E3, i)}) / scale",
        ]
    y_new = "".join(f"n_{i}, " if i in live else f"y_{i}, " for i in range(n))
    sq5, sq3 = ("".join(f" + {q}_{i} * {q}_{i}" for i in live) for q in ("q5", "q3"))
    lines.append(f"    return ({y_new}), 0.0{sq5}, 0.0{sq3}")
    namespace = {}
    exec(compile("\n".join(lines), f"<DOP853 attempt, n = {n}, fixed = {fixed}>", "exec"), namespace)
    return namespace["attempt"]


def _dop853_attempt(rhs, y: tuple, k1: tuple, dt: float, tol: float, fixed: tuple = ()):
    """One DOP853 attempt from y with k1 = rhs(y): (y_new, sq5, sq3), the
    order-8 solution and the sums of squares of the order-5 and order-3
    error estimates, each component's on the scale tol (1 + max(|y_i|,
    |y_new_i|)), by the kernel :func:`_attempt_kernel` generates for
    (len(y), fixed)."""
    return _attempt_kernel(len(y), fixed)(rhs, y, k1, dt, tol)


def _adaptive_step(rhs, y: tuple, dt: float, tol: float, n: int = 0, fixed: tuple = ()):
    """One accepted DOP853 step; returns (y_new, dt_taken, dt_next).

    The error norm is Hairer's err5^2 / sqrt((err5^2 + 0.01 err3^2) n), each
    estimate taken on the scale tol (1 + max(|y_i|, |y_new_i|)) and n the
    phase-space dimension (default len(y)).  A step whose norm exceeds 1 is
    retried with a smaller dt, and so is one that meets a fixed point
    (FixedPointSingularity) on its way, or whose norm is not finite;
    StepRejected is raised once dt falls below _DT_MIN.
    k1 = rhs(y) does not depend on dt and is evaluated once per step: it is
    the 13th evaluation rhs(y_new) of the step before, so an attempt costs
    the 11 right-hand sides of stages 2 to 12.  The components ``fixed``
    have rows of exact zeros, and y_new keeps their values.
    """
    dt = float(dt)
    k1 = None
    while True:
        if dt < _DT_MIN:
            raise StepRejected(f"step size underflow: dt = {dt:.3e} < {_DT_MIN:g}")
        try:
            if k1 is None:
                k1 = rhs(y)
            y_new, sq5, sq3 = _dop853_attempt(rhs, y, k1, dt, tol, fixed)
        except FixedPointSingularity:
            dt *= 0.25
            continue
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

def _dot(a, b) -> float:
    """a . b of two 3-vectors, a left fold in floats: the same bits on every
    CPU, where a BLAS dot's depend on the kernel OpenBLAS picks at run time."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def clebsch_eval(spec: SystemSpec, s: E3State) -> tuple[float, float]:
    """H = |M|^2 - mu sum alpha_i x_i^2 and its quadratic partner integral."""
    if spec.family != Family.CASE_I:
        raise ValueError("clebsch_eval needs a CASE_I spec")
    return _clebsch_hf(spec, s.M + s.x)


def _clebsch_hf(spec: SystemSpec, y) -> tuple:
    """(H, F) of :func:`clebsch_eval` in y = (M, x)."""
    a1, a2, a3 = spec.alpha
    mu = spec.mu
    M0, M1, M2, x0, x1, x2 = y
    H = (M0 * M0 + M1 * M1 + M2 * M2) - mu * (a1 * x0**2 + a2 * x1**2 + a3 * x2**2)
    F = a1 * M0**2 + a2 * M1**2 + a3 * M2**2 + mu * (a2 * a3 * x0**2 + a1 * a3 * x1**2 + a1 * a2 * x2**2)
    return H, F


def _sqrt(x):
    """math.sqrt of a float, cmath.sqrt of a complex (for a complex step)."""
    return cmath.sqrt(x) if isinstance(x, complex) else math.sqrt(x)


def _vy_r(spec: SystemSpec, q, qn):
    """R(q) of :func:`vy_eval`; qn = |q| is the caller's."""
    va, vb = spec.vy_a, spec.vy_b
    q0, q1, q2 = q
    return vb * q0**2 + va * q1**2 + (va + vb) * q2**2 - 2.0 * math.sqrt(va * vb) * qn * q2


def vy_eval(spec: SystemSpec, s: E3State) -> tuple[float, float]:
    """Two-centre system on the sphere:

        H = |M|^2 / 2 - mu |q| / sqrt(R),
        F = A M1^2 + B M2^2 + (2 sqrt(AB)/|q|) (M, q) M3 - 2 mu sqrt(AB) q3 / sqrt(R),
        R = A q2^2 + B q1^2 + (A+B) q3^2 - 2 sqrt(AB) |q| q3.
    """
    if spec.family != Family.VY:
        raise ValueError("vy_eval needs a VY spec")
    qn = math.sqrt(_dot(s.x, s.x))
    R = _vy_r(spec, s.x, qn)
    if R < 1e-12 * max(1.0, qn**2):
        raise DegeneratePoint(f"R(q) = {R:.3e}")
    return _vy_hf(spec, s.M + s.x)


def _vy_hf(spec: SystemSpec, y) -> tuple:
    """(H, F) of :func:`vy_eval` in y = (M, q)."""
    M0, M1, M2, q0, q1, q2 = y
    qn = _sqrt(q0 * q0 + q1 * q1 + q2 * q2)
    sab, sqR = math.sqrt(spec.vy_a * spec.vy_b), _sqrt(_vy_r(spec, y[3:], qn))
    H = 0.5 * (M0 * M0 + M1 * M1 + M2 * M2) - spec.mu * qn / sqR
    F = (spec.vy_a * M0**2 + spec.vy_b * M1**2 + (2.0 * sab / qn) * (M0 * q0 + M1 * q1 + M2 * q2) * M2
         - 2.0 * spec.mu * sab * q2 / sqR)
    return H, F


def _complex_step_grad_f(hf, spec: SystemSpec, y: tuple) -> tuple:
    """grad F at y of the F of hf(spec, y) = (H, F), by complex step:
    dF/dy_k = Im F(y + i h e_k) / h with h = 1e-200.  It subtracts nothing,
    so it is exact to round-off for an F whose arithmetic takes a complex y
    (Squire & Trapp, SIAM Rev. 40 (1998) 110).  Only the imaginary part is
    read: CPython's complex division does not round as float division does."""
    return tuple(hf(spec, y[:k] + (y[k] + 1e-200j,) + y[k + 1:])[1].imag / 1e-200 for k in range(len(y)))


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
        qn = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2)
        R = _vy_r(spec, y[3:], qn)
        if R < 1e-12 * max(1.0, qn**2):
            raise DegeneratePoint(f"orbit reached a Coulomb center: R = {R:.3e}")
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


def _project_e3(_spec: SystemSpec, y: tuple, nu: float) -> E3State:
    """The state of y projected onto the leaf |x| = 1, (M, x) = nu."""
    M0, M1, M2, x0, x1, x2 = y
    n = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    x0, x1, x2 = x0 / n, x1 / n, x2 / n
    c = float(nu) - (M0 * x0 + M1 * x1 + M2 * x2)
    # two tuples of 3 floats: the constructor's conversion and length check
    # would only copy them
    s = object.__new__(E3State)
    attrs = s.__dict__
    attrs["M"], attrs["x"] = (M0 + c * x0, M1 + c * x1, M2 + c * x2), (x0, x1, x2)
    return s


# ---------------------------------------------------------------------------
# cylinder limit (beta2 -> beta1): linear integral F = p1
# ---------------------------------------------------------------------------

def limit_gauge_a1(spec: SystemSpec, u2) -> float:
    """Gauge A1(u2) = (B/c) * integral_{-inf}^{u2} (beta1^2 - Q2^2), A2 = 0,
    the integral in closed form (see ``LimitModel.at``)."""
    if spec.family != Family.CASE_II_LIMIT:
        raise ValueError("limit_gauge_a1 needs a CASE_II_LIMIT spec")
    lm = spec.limit
    return (spec.B / lm.c) * lm.at(u2)[2]


def limit_h_eval(spec: SystemSpec, s: PhaseState) -> float:
    """Cylinder Hamiltonian

        H = c/(4 lam2) [(p1 - A1)^2 + (4/c) p2^2] + mu/(beta1 + Q2),
        lam2 = beta1^2 - Q2(u2)^2.

    Far out on the cylinder Q2 rounds to beta1 and lam2 to 0: DegeneratePoint.
    """
    if spec.family != Family.CASE_II_LIMIT:
        raise ValueError("limit_h_eval needs a CASE_II_LIMIT spec")
    lm = spec.limit
    x2, _, g = lm.at(s.u2)
    lam2 = lm.beta1**2 - x2**2
    if lam2 == 0.0:
        raise DegeneratePoint(f"lam2 rounds to 0 at u2 = {s.u2} (Q2 = beta1 = {x2})")
    a1 = (spec.B / lm.c) * g
    return float(
        (0.25 * lm.c * (s.p1 - a1) ** 2 + s.p2**2) / lam2 + spec.mu / (lm.beta1 + x2)
    )


# ---------------------------------------------------------------------------
# the families' variables; the bracket and the trajectory drivers
# ---------------------------------------------------------------------------

# the last spec whose flow was built, and its state type and parts: one slot
# replaced whole, matched by identity (hashing a spec costs more than the
# building saves), and kept out of the spec, which stays picklable
_last_flow = (None, None)


def _flow_parts(spec: SystemSpec, s: PhaseState | E3State) -> tuple:
    """(pack, rhs, grad_f, n, fixed): the parts of spec's flow that do not
    read the state, built when spec is not the spec of the last call.
    pack(s) returns the integration variables y at s and the map of y back
    to a state, and n is the phase-space dimension.  ValueError is raised
    unless s is a state of spec's family.
    """
    global _last_flow
    last, built = _last_flow
    if last is not spec:
        built = _build_flow_parts(spec)
        _last_flow = spec, built
    kind, parts = built
    if not isinstance(s, kind):
        raise ValueError(f"a {spec.family.name} flow needs a state of type {kind.__name__}, got {type(s).__name__}")
    return parts


def _build_flow_parts(spec: SystemSpec) -> tuple:
    """The state type and the :func:`_flow_parts` of spec.

    The torus and the cylinder integrate (u, w = p - A(u), Q, Q'), and
    e(3)* (M, x).  On the cylinder F = p1 = w1 + A1(u2), and the unpacking
    returns s.p1.  Its (Q1, Q1') = (beta1, +0.0) are fixed: their rows
    0.0 * du1 are exact zeros while du1 is finite.  A stage whose du1 is
    not gives the attempt a non-finite error norm with or without them held,
    but where the summed Q1 turns NaN a held one may meet lam <= 0 at a
    later stage, and the step retries at dt / 4 rather than dt / 5.
    """
    if spec.family == Family.CASE_II:
        model, B = spec.model, spec.B
        a3, _, a2, a0, _ = spec.quartic.coefficients()

        def pack(s):
            x1, d1, x2, d2, g = model.at(s.u1, s.u2)
            return (s.u1, s.u2, s.p1, s.p2 - B * g, x1, d1, x2, d2), _torus_state

        def grad_f(spec, y):  # F is singular at Q1 = Q2
            gap = y[4] - y[6]
            if abs(gap) < 1e-9 * max(1.0, abs(y[4])):
                raise DegeneratePoint(f"x1 = x2: min |Q1 - Q2| = {abs(gap):.3e}")
            return _complex_step_grad_f(_torus_hf, spec, y)

        rhs = _torus_rhs(spec.mu, B, 1.0, 0.5 * a3, 0.25 * a2, 0.125 * a0)
        return PhaseState, (pack, rhs, grad_f, 4, ())
    if spec.family == Family.CASE_II_LIMIT:
        # Pt(x) = -(x - beta1)^2 (x - beta3)(x - beta4); c0 makes Pt'(beta1)/8
        # an exact 0, so the Q1 rows are exact zeros and Q1 stays beta1
        lm = spec.limit
        b1, b_over_c = lm.beta1, spec.B / lm.c
        c3, c1 = -0.5, 0.25 * (3.0 * b1 * b1 - lm.beta3 * lm.beta4)

        def pack(s):
            p1 = s.p1
            x2, d2, g = lm.at(s.u2)
            y = (s.u1, s.u2, p1 - b_over_c * g, s.p2, b1, 0.0, x2, d2)
            return y, lambda _spec, y, _nu: PhaseState(y[0], y[1], p1, y[3])

        rhs = _torus_rhs(spec.mu, -b_over_c, 0.25 * lm.c, c3, c1, -((c3 * b1 * b1 + c1) * b1))
        grad_f = lambda _spec, y: (0.0, b_over_c * (y[4] * y[4] - y[6] * y[6]), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return PhaseState, (pack, rhs, grad_f, 4, (4, 5))
    grad_f = functools.partial(_complex_step_grad_f, _clebsch_hf if spec.family == Family.CASE_I else _vy_hf)
    return E3State, (lambda s: (s.M + s.x, _project_e3), _e3_rhs(spec), grad_f, 6, ())


def _flow(spec: SystemSpec, s: PhaseState | E3State) -> tuple:
    """(y, rhs, grad_f, unpack, n, fixed) at state s: the family's
    integration variables, the flow's right-hand side and grad F in them,
    the map of y back to a state, the phase-space dimension and the
    components of y whose rows are exact zeros (:func:`_flow_parts`)."""
    pack, rhs, grad_f, n, fixed = _flow_parts(spec, s)
    y, unpack = pack(s)
    return y, rhs, grad_f, unpack, n, fixed


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
) -> tuple:
    """One accepted adaptive step of the flow of any family, in the variables
    of :func:`_flow`: (state, dt_taken, dt_next), as :func:`_adaptive_step`
    returns them.  After the step an e(3)* state is projected onto the
    Casimir leaf |x| = 1, (M, x) = nu (default: the value carried by ``s``).
    dt and tol must be finite and positive (a NaN or infinite dt never
    shrinks below _DT_MIN), or ValueError is raised.
    """
    if not (0.0 < dt < math.inf and 0.0 < tol < math.inf):
        raise ValueError(f"dt and tol must be finite and positive, got dt = {dt}, tol = {tol}")
    y, rhs, _, unpack, n, fixed = _flow(spec, s)
    if nu is None and isinstance(s, E3State):
        nu = _dot(s.M, s.x)
    y, taken, dt_next = _adaptive_step(rhs, y, dt, tol, n, fixed)
    return unpack(spec, y, nu), taken, dt_next


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
    raised unless t_end is finite and >= 0, tol finite and > 0, stride an
    int >= 1 and state0 a state of spec's family.
    """
    if not (0.0 <= t_end < math.inf and 0.0 < tol < math.inf):
        raise ValueError(f"t_end must be finite and >= 0, tol finite and > 0, got t_end = {t_end}, tol = {tol}")
    if not (isinstance(stride, int) and stride >= 1):
        raise ValueError(f"stride must be an int >= 1, got {stride!r}")
    _flow_parts(spec, state0)  # a state of the other kind, refused before the monitors read it
    nu, names = None, ("H", "F", "C1", "C2")  # the e(3)* monitors add the Casimirs
    if spec.family == Family.CASE_II:
        monitors = lambda st: torus_eval(spec, st)
    elif spec.family == Family.CASE_II_LIMIT:
        monitors = lambda st: (limit_h_eval(spec, st), st.p1)
    else:
        ev = clebsch_eval if spec.family == Family.CASE_I else vy_eval

        def monitors(st):
            return (*ev(spec, st), _dot(st.x, st.x), _dot(st.M, st.x))

        nu = _dot(state0.M, state0.x)

    times = [0.0]
    states = [state0.as_array()]
    vals = monitors(state0)
    mon = [[v] for v in vals]
    lo, hi = list(vals), list(vals)  # the running extremes over every accepted step
    t = 0.0
    dt = 1e-3
    state = state0
    n_accepted = 0
    while t < t_end - 1e-14:
        dt = min(dt, t_end - t)
        state, taken, dt = flow_step(spec, state, dt, tol, nu)
        t += taken
        n_accepted += 1
        vals = monitors(state)
        for i, v in enumerate(vals):  # min() and max(), which keep the old value unless v passes it
            if v < lo[i]:
                lo[i] = v
            if v > hi[i]:
                hi[i] = v
        if n_accepted % stride == 0 or t >= t_end - 1e-14:
            times.append(t)
            states.append(state.as_array())
            for series, v in zip(mon, vals):
                series.append(v)
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        monitors={k: np.array(v) for k, v in zip(names, mon)},
        monitor_extremes={k: (a, b) for k, a, b in zip(names, lo, hi)},
    )


def random_state(spec: SystemSpec, rng: np.random.Generator):
    """Reproducible random state of spec's family, drawn from rng.

    The torus state keeps each u_i at least 0.15 K_i from a multiple of K_i,
    and the cylinder's keeps off the plateau where Q2 has rounded to beta1.
    An e(3)* state has x uniform on the unit sphere and M standard normal,
    on case1 moved onto the leaf (M, x) = B.  A vy state is not kept off the
    Coulomb centres, where R(q) = 0: a run from near one crawls, drifts, and
    may end in StepRejected.
    """
    if spec.family == Family.CASE_II:
        m = spec.model
        u1 = float(rng.uniform(0.15, 0.85) * m.K1 + (0.0, m.K1, 2.0 * m.K1)[rng.integers(0, 3)])
        u2 = float(rng.uniform(0.15, 0.85) * m.K2 + (0.0, m.K2, 2.0 * m.K2)[rng.integers(0, 3)])
        w = rng.normal(0.0, 1.0, 2)
        a1, a2 = gauge_a(spec, (u1, u2))
        return PhaseState(u1=u1, u2=u2, p1=float(w[0] + a1), p2=float(w[1] + a2))
    if spec.family in (Family.CASE_I, Family.VY):
        x = rng.normal(0.0, 1.0, 3).tolist()
        n = math.sqrt(_dot(x, x))
        x = [v / n for v in x]
        M = rng.normal(0.0, 1.0, 3).tolist()
        if spec.family == Family.CASE_I:
            # leaf value nu doubles as the magnetic density for sphere runs
            c = spec.B - _dot(M, x)
            M = [m + c * v for m, v in zip(M, x)]
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
