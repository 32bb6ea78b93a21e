"""Runs to t = 10^3: each family lands on t_end exactly, and its drift grows
no faster than linearly in t.

Every other tier-1 run stops by t = 50.  At a fixed local tolerance the
drift of H and F grows like t: measured at tol 1e-10 (relative drift at 10^2,
then 10^3),

    case2 seed 7     H 7.5e-11, 7.1e-10   F 5.0e-11, 3.5e-10
    case1 seed 7     H 6.9e-9,  7.0e-8    F 2.4e-9,  2.4e-8
    cylinder seed 7  H 2.8e-9,  3.8e-8    (F = p1 is exact)
    vy seed 1        H 2.3e-9,  2.3e-8    F 1.8e-9,  1.9e-8

so the gate is a factor 20 per decade, where growth like t reads 7.0 to 13.4.
vy seed 7 starts near a Coulomb centre: it drifts 1.2e-5 by t = 10^2 and
ends in StepRejected before 10^3.
"""

import numpy as np
import pytest

from monopole_lab import dynamics as dyn
from monopole_lab.elliptic import LimitModel
from monopole_lab.fields import case1_spec, case2_limit_spec, case2_spec, vy_spec
from monopole_lab.polyroots import from_roots

# spec, seed and the monitors gated: the cylinder's F = p1 does not drift
RUNS = {
    "case2": (lambda: case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=1.0, B=0.5), 7, ("H", "F")),
    "case1": (lambda: case1_spec((3.0, 2.0, 1.0), mu=0.7, B=0.5), 7, ("H", "F")),
    "cylinder": (lambda: case2_limit_spec(LimitModel(3.0, -1.0, -5.0), mu=1.0, B=0.6), 7, ("H",)),
    "vy": (lambda: vy_spec(1.0, 0.5, mu=0.3), 1, ("H", "F")),
}


def _run(spec, seed, t_end):
    """A run from seed's random state to t_end at tol 1e-10, only its ends stored."""
    s = dyn.random_state(spec, np.random.default_rng(seed))
    return dyn.integrate(spec, s, t_end, tol=1e-10, stride=10**9)


def _drift(traj, key):
    """The relative drift of the CLI's simulate: max |v - v0| / max(1, |v0|)."""
    return traj.max_drift(key) / max(1.0, abs(float(traj.monitors[key][0])))


@pytest.mark.parametrize("name", list(RUNS))
def test_drift_grows_no_faster_than_linearly_to_t_1000(name):
    make, seed, keys = RUNS[name]
    spec = make()
    short, long = _run(spec, seed, 100.0), _run(spec, seed, 1000.0)
    assert short.times[-1] == 100.0 and long.times[-1] == 1000.0
    for key in keys:
        assert 0.0 < _drift(long, key) <= 20.0 * _drift(short, key), key


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="from near a Coulomb centre the vy flow crawls and drifts past --max-drift 1e-6 by t = 100; "
    "ROADMAP item 16 regularises it",
)
def test_vy_seed_7_holds_the_drift_gate_to_t_100():
    traj = _run(vy_spec(1.0, 0.5, mu=0.3), 7, 100.0)
    assert traj.times[-1] == 100.0
    assert max(_drift(traj, key) for key in traj.monitors) <= 1e-6
