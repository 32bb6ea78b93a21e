"""Finite-difference Poisson brackets: the oracle that the exact bracket
``dynamics.hf_bracket`` is checked against.

Every partial is a Richardson-extrapolated central difference with step h,
(4 D(h/2) - D(h)) / 3, accurate to O(h^4).
"""

import numpy as np

from monopole_lab import dynamics as dyn
from monopole_lab.dynamics import E3State, PhaseState


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


def flow_terms(spec, s, f_of_y, h: float = 1e-4) -> np.ndarray:
    """The terms dF/dy_i dy_i/dt of dF/dt along the flow, in the family's
    integration variables y: the partials of ``f_of_y`` by differences, dy/dt
    from the flow's right-hand side."""
    y, rhs, *_ = dyn._flow(spec, s)
    y0 = np.array(y)
    grad = np.array([_richardson_diff(f_of_y, y0, i, h) for i in range(y0.size)])
    return grad * np.array(rhs(y))


def torus_f_of_y(spec):
    """The torus F as a function of y = (u1, u2, w1, w2, Q, Q'), through
    p = w + A(u): the slice components enter only through u."""
    return lambda y: dyn.torus_eval(spec, dyn._torus_state(spec, tuple(y), None))[1]


def e3_f_of_y(spec, ev):
    """The F of ``ev`` (clebsch_eval or vy_eval) as a function of y = (M, x)."""
    return lambda y: ev(spec, E3State(M=y[:3], x=y[3:]))[1]
