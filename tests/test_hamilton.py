"""Each flow's right-hand side is Hamilton's equations of the H it monitors.

Conservation of H, F and the Casimirs and {H, F} = 0 all survive a time
reparametrisation y' -> f(y) y' with f > 0; this check does not.  The gap of
:func:`richardson.hamilton_gap` on 50 random states of each spec and a few
near its singular locus (the torus fixed point u = 0, the far cylinder where
lam2 -> 0, a Coulomb centre) is bounded from a measured panel, and a
rescaled right-hand side or a flipped B exceeds that bound by 10^4 or more.
On e(3)* the same panel is also checked with grad H by complex step, which
leaves only round-off and so sees a mu off by 1e-10.
"""

import dataclasses
import math

import numpy as np
import pytest

from monopole_lab import dynamics as dyn
from monopole_lab.elliptic import LimitModel
from monopole_lab.fields import Family, case1_spec, case2_limit_spec, case2_spec, vy_spec
from monopole_lab.polyroots import from_roots
from richardson import hamilton_gap

_Q3241 = from_roots([3, 2, -1, -4], -1.0)

# spec and bound; the worst gaps measured on this panel were 1.3e-8, 1.9e-8
# and 1.7e-8 (the quartics with B != 0), 3.4e-9 (B = 0), 2.4e-9 (cylinder),
# 6.4e-12 (case1) and 3.9e-11 (vy): on the torus and the cylinder they are
# those of the differences of H
SPECS = {
    "case2": (lambda: case2_spec(_Q3241, mu=1.0, B=0.5), 1e-7),
    "case2-4-1": (lambda: case2_spec(from_roots([4, 1, -1, -4], -1.0), mu=0.5, B=-0.7), 1e-7),
    "case2-mu0": (lambda: case2_spec(_Q3241, mu=0.0, B=0.5), 1e-7),
    "case2-B0": (lambda: case2_spec(_Q3241, mu=1.0, B=0.0), 2e-8),
    "cylinder": (lambda: case2_limit_spec(LimitModel(3.0, -1.0, -5.0), mu=1.0, B=0.6), 1e-8),
    "case1": (lambda: case1_spec((3.0, 2.0, 1.0), mu=0.7, B=0.5), 1e-10),
    "vy": (lambda: vy_spec(1.0, 0.5, mu=0.3), 2e-10),
}


def _panel(spec):
    rng = np.random.default_rng(20)
    states = [dyn.random_state(spec, rng) for _ in range(50)]
    if spec.family == Family.CASE_II:  # lam = Q1^2 - Q2^2 from 2.4e-4 to 2.6e-3
        m = spec.model
        states += [dyn.PhaseState(e * m.K1, s * e * m.K2, 0.3, -0.2) for e in (0.003, 0.01) for s in (1, -1)]
    elif spec.family == Family.CASE_II_LIMIT:  # lam2 = 2.3e-3 at |u2 - delta| = 4
        states += [dyn.PhaseState(0.3, spec.limit.delta + d, 0.3, 0.2) for d in (-4.0, 4.0)]
    elif spec.family == Family.VY:  # 0.03 off a centre along x2
        va, vb = spec.vy_a, spec.vy_b
        x = np.array([math.sqrt(1 - vb / va), 0.03, math.sqrt(vb / va)])
        states.append(dyn.E3State(M=np.array([0.1, -0.2, 0.3]), x=x / np.linalg.norm(x)))
    return states


def _worst(spec, rhs=None):
    return max(hamilton_gap(spec, s, rhs) for s in _panel(spec))


@pytest.mark.parametrize("name", list(SPECS))
def test_rhs_is_hamiltons_equations_of_its_h(name):
    make, bound = SPECS[name]
    assert _worst(make()) <= bound


def _scaled(rhs, factor):
    return lambda y: tuple(factor(y) * v for v in rhs(y))


def _rhs(spec):
    """The right-hand side of spec's flow: on the torus and the cylinder the
    one factory dynamics._torus_rhs, with the family's constants (a flipped
    B flips the field b)."""
    return dyn._flow(spec, dyn.PhaseState(0.1, 0.2, 0.0, 0.0))[1]


MUTANTS = {
    "torus-rescaled": ("case2", lambda spec: _scaled(_rhs(spec), lambda y: 1.0 + 0.01 * (y[4] ** 2 - y[6] ** 2))),
    "torus-flipped-B": ("case2", lambda spec: _rhs(dataclasses.replace(spec, B=-spec.B))),
    "case1-rescaled": ("case1", lambda spec: _scaled(dyn._e3_rhs(spec), lambda y: 1.0 + 0.01 * y[3])),
    "cylinder-rescaled": ("cylinder", lambda spec: _scaled(_rhs(spec), lambda y: 1.001)),
    "cylinder-flipped-B": ("cylinder", lambda spec: _rhs(dataclasses.replace(spec, B=-spec.B))),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutated_rhs_fails_the_bound(mutant):
    # a rescaled right-hand side keeps every integral conserved; a flipped B
    # is the flow of another system's H
    name, make_rhs = MUTANTS[mutant]
    make, bound = SPECS[name]
    spec = make()
    assert _worst(spec, make_rhs(spec)) >= 1e4 * bound


# e(3)* with grad H by complex step, dH/dy_k = Im H(y + i h e_k) / h at
# h = 1e-200, which subtracts nothing: the gap is that of the rates' round-off
# alone.  Worst measured on the panel: 5.6e-16 (case1) and 1.2e-14 (vy, at the
# state 0.03 off a Coulomb centre); a mu scaled by 1 + 1e-10 reads 1.0e-10 on
# both, which the Richardson bounds above cannot see
EXACT_E3 = {"case1": (dyn._clebsch_hf, 5e-15), "vy": (dyn._vy_hf, 1e-13)}


def _exact_e3_gap(spec, hf, s, rhs=None) -> float:
    """The largest gap between rhs(y) and the Lie-Poisson rates M' = grad_M H x M
    + grad_x H x x, x' = grad_M H x x of the H of hf at y = (M, x), relative to
    the largest rate."""
    y, flow_rhs, *_ = dyn._flow(spec, s)
    g = np.array([hf(spec, y[:k] + (y[k] + 1e-200j,) + y[k + 1 :])[0].imag / 1e-200 for k in range(6)])
    M, x = np.array(y[:3]), np.array(y[3:])
    want = np.concatenate([np.cross(g[:3], M) + np.cross(g[3:], x), np.cross(g[:3], x)])
    got = np.array((rhs or flow_rhs)(y))
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", list(EXACT_E3))
def test_e3_rhs_is_exactly_lie_poisson_of_its_h(name):
    hf, bound = EXACT_E3[name]
    spec = SPECS[name][0]()
    panel = _panel(spec)
    assert max(_exact_e3_gap(spec, hf, s) for s in panel) <= bound
    scaled_mu = dyn._e3_rhs(dataclasses.replace(spec, mu=spec.mu * (1.0 + 1e-10)))
    assert max(_exact_e3_gap(spec, hf, s, scaled_mu) for s in panel) >= 100 * bound
