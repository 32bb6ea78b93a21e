"""Global error of ``integrate`` at t = 10 against scipy's DOP853.

Drift does not see a phase error, so each panel compares the state itself:
one spec over ``random_state`` seeds 0-9, each run to t = 10 at tol 1e-10 and
compared with ``solve_ivp`` at rtol = atol = 1e-13.  The e(3)* references
integrate the flow's own right-hand side in (M, x).  The torus and the
cylinder share one flow, which carries the slices (Q1, Q1', Q2, Q2') in its
state (on the cylinder Q1 = beta1, Q1' = 0), so their references must not:
_slice_rhs is the torus right-hand side in (u, w) with both slice series
summed at every call, _closed_form_limit_rhs the cylinder's in (u, p), the
form of its H, with its closed-form slice and gauge evaluated at every call,
and each panel compares (u, p), with p = w + A(u) on the torus.  A wrong
slice row (a sign, a factor of P' or of the cylinder's c/4 and -B/c) is then
an error against the series or the closed form, not part of its own
reference.  A
reference that needs more than _BUDGET right-hand sides (a vy orbit through a
Coulomb centre) does not finish: its seed stays in the panel, as None, and is
still integrated.

_DP5 holds the same panels of the embedded Dormand-Prince 5(4) core that the
DOP853 core replaced, measured with this file at commit 76f892f (the torus
then in (u, w) against its own right-hand side).  The gate: the median
per-seed ratio to it is at most 1, and the panel maximum at most twice its
maximum.

The error gate does not see cost.  vy seed 4 passes within R ~ 2e-9 of a
Coulomb centre, where DOP853 crawls at dt ~ 1e-11: 107 392 right-hand sides
over 6 731 steps to t = 10, against the 5(4) core's 9 046.  A cap just above
that keeps the crawl from growing unnoticed until the regularised flow
(ROADMAP item 5) removes it.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from monopole_lab import dynamics as dyn
from monopole_lab import fields
from monopole_lab.elliptic import LimitModel
from monopole_lab.polyroots import from_roots

SPECS = {
    "case2 B 0.5": lambda: fields.case2_spec(from_roots((3, 2, -1, -4), -1.0), mu=1.0, B=0.5),
    "case2 B 0": lambda: fields.case2_spec(from_roots((4, 1, -1, -4), -1.0), mu=0.5, B=0.0),
    "case1": lambda: fields.case1_spec((3, 2, 1), mu=0.7, B=0.5),
    "vy": lambda: fields.vy_spec(1, 0.5, mu=0.3),
    "cylinder": lambda: fields.case2_limit_spec(LimitModel(3, -1, -5), mu=1.0, B=0.6),
}

_DP5 = {
    "case2 B 0.5": (3.57e-10, 1.25e-10, 2.94e-09, 4.27e-10, 4.75e-10, 5.27e-10, 2.56e-10, 5.33e-10, 1.18e-09, 5.34e-10),
    "case2 B 0": (3.00e-10, 7.94e-10, 6.18e-08, 1.84e-09, 5.73e-10, 2.39e-10, 7.68e-10, 1.05e-10, 2.28e-08, 3.30e-10),
    "case1": (2.82e-09, 7.72e-09, 6.83e-09, 4.99e-09, 1.39e-08, 1.42e-09, 6.51e-09, 7.43e-09, 1.15e-08, 1.05e-08),
    "vy": (None, 1.61e-09, 5.25e-09, 4.79e-10, None, 7.08e-10, 8.64e-10, 1.70e-09, 1.81e-09, 1.95e-09),
    "cylinder": (4.37e-10, 3.39e-10, 2.08e-10, 4.30e-10, 3.24e-08, 1.49e-10, 2.17e-09, 3.52e-09, 8.19e-09, 2.34e-09),
}
_T_END = 10.0
_BUDGET = 50_000
_VY_SEED4_CALLS = 110_000


class _OverBudget(Exception):
    pass


def _reference(rhs, y0):
    """y(t_end) by solve_ivp's DOP853 at 1e-13, or None past _BUDGET calls."""
    calls = 0

    def f(_t, y):
        nonlocal calls
        calls += 1
        if calls > _BUDGET:
            raise _OverBudget
        return rhs(tuple(y.tolist()))

    try:
        sol = solve_ivp(f, (0.0, _T_END), np.array(y0), method="DOP853", rtol=1e-13, atol=1e-13)
    except _OverBudget:
        return None
    assert sol.success, sol.message
    return sol.y[:, -1]


def _slice_rhs(spec):
    """The torus right-hand side in y = (u1, u2, w1, w2) with Q and Q' summed
    from the slice series at every call: operation for operation the (u, w)
    rows of dynamics._torus_rhs, with no slice rows."""
    m, mu, B = spec.model, spec.mu, spec.B

    def rhs(y):
        u1, u2, w1, w2 = y
        x1, d1 = m.branch1.value_and_deriv(u1)
        x2, d2 = m.branch2.value_and_deriv(u2)
        lam, ssum, wsq = x1 * x1 - x2 * x2, x1 + x2, w1 * w1 + w2 * w2
        dlam1, dlam2 = 2.0 * x1 * d1, -2.0 * x2 * d2
        dh1, dh2 = -mu * d1 / ssum**2, -mu * d2 / ssum**2
        return (
            2.0 * w1 / lam,
            2.0 * w2 / lam,
            2.0 * B * w2 + wsq * dlam1 / lam**2 - dh1,
            -2.0 * B * w1 + wsq * dlam2 / lam**2 - dh2,
        )

    return rhs


def _closed_form_limit_rhs(spec):
    """The cylinder right-hand side in y = (u1, u2, p1, p2) with (Q2, Q2', G)
    evaluated in closed form at every call: Hamilton's equations of
    dynamics.limit_h_eval's H, with dp1/dt = 0, and no slice rows."""
    lm, mu, B = spec.limit, spec.mu, spec.B
    c, b1 = lm.c, lm.beta1

    def rhs(y):
        _u1, u2, p1, p2 = y
        x2, d2, g = lm.at(u2)
        lam2 = b1 * b1 - x2 * x2
        a1, da1, dlam2 = (B / c) * g, B * lam2 / c, -2.0 * x2 * d2
        num = 0.25 * c * (p1 - a1) ** 2 + p2 * p2
        return (
            0.5 * c * (p1 - a1) / lam2,
            2.0 * p2 / lam2,
            0.0,
            0.5 * c * (p1 - a1) * da1 / lam2 + num * dlam2 / lam2**2 + mu * d2 / (b1 + x2) ** 2,
        )

    return rhs


def _panel(spec, tol=1e-10):
    """max |state - state_ref| at t_end for seeds 0-9; None where the reference did not finish."""
    errors = []
    for seed in range(10):
        s0 = dyn.random_state(spec, np.random.default_rng(seed))
        end = dyn.integrate(spec, s0, _T_END, tol=tol).states[-1]
        if spec.family == fields.Family.CASE_II:
            a1, a2 = fields.gauge_a(spec, (s0.u1, s0.u2))
            ref = _reference(_slice_rhs(spec), (s0.u1, s0.u2, s0.p1 - a1, s0.p2 - a2))
            ref = None if ref is None else dyn._torus_state(spec, tuple(ref.tolist()), None).as_array()
        elif spec.family == fields.Family.CASE_II_LIMIT:
            ref = _reference(_closed_form_limit_rhs(spec), (s0.u1, s0.u2, s0.p1, s0.p2))
        else:
            y0, rhs, *_ = dyn._flow(spec, s0)
            ref = _reference(rhs, y0)
        errors.append(None if ref is None else float(np.max(np.abs(end - ref))))
    return errors


@pytest.mark.parametrize("name", SPECS)
def test_global_error_no_worse_than_dp5(name):
    errors, dp5 = _panel(SPECS[name]()), _DP5[name]
    assert [e is None for e in errors] == [e is None for e in dp5]
    ratios = [e / p for e, p in zip(errors, dp5) if e is not None]
    assert np.median(ratios) <= 1.0, errors
    assert max(e for e in errors if e is not None) <= 2.0 * max(e for e in dp5 if e is not None), errors


def test_vy_near_centre_cost_is_capped(monkeypatch):
    calls = 0
    e3_rhs = dyn._e3_rhs

    def counting(spec):
        rhs = e3_rhs(spec)

        def counted(y):
            nonlocal calls
            calls += 1
            return rhs(y)

        return counted

    monkeypatch.setattr(dyn, "_e3_rhs", counting)
    spec = SPECS["vy"]()
    dyn.integrate(spec, dyn.random_state(spec, np.random.default_rng(4)), _T_END, tol=1e-10)
    assert calls <= _VY_SEED4_CALLS
