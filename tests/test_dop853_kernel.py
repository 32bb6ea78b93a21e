"""The generated DOP853 attempt against the hand-written one it replaced.

The oracle below is the attempt as it was written out by hand: one list
comprehension per stage over zip(y, k1, ...), each sum a left fold over the
nonzero coefficients, and the error norm's sums of squares as the step
control's loop over zip(e5, e3, |y|, |y_new|) took them.  The kernel
generated from the tableau must give the same bits, call the right-hand side
on the same stage states and stop at the same stage when the right-hand side
raises.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monopole_lab import dynamics as dyn
from monopole_lab.errors import FixedPointSingularity

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
) = (tuple(row.values()) for row in dyn._DOP_A)
# the weights of k1 and k6..k12 in y_new (_B), e5 (_F) and e3 (_G)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = dyn._DOP_B.values()
_F1, _F6, _F7, _F8, _F9, _F10, _F11, _F12 = dyn._DOP_E5.values()
_G1, _G6, _G7, _G8, _G9, _G10, _G11, _G12 = dyn._DOP_E3.values()


def _oracle_attempt(rhs, y, k1, dt):
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


def _oracle_sums(y, y_new, e5, e3, tol):
    """(sq5, sq3), the sums of squares of the scaled error estimates, by the
    step control's loop the kernel's straight-line sums replaced."""
    sq5 = sq3 = 0.0
    for a5, a3, a, b in zip(e5, e3, map(abs, y), map(abs, y_new)):
        scale = tol * (1.0 + (b if b > a else a))
        q5, q3 = a5 / scale, a3 / scale
        sq5 += q5 * q5
        sq3 += q3 * q3
    return sq5, sq3


def _oracle_step_attempt(rhs, y, k1, dt, tol):
    """The oracle's attempt in the kernel's form: (y_new, sq5, sq3)."""
    y_new, e5, e3 = _oracle_attempt(rhs, y, k1, dt)
    return (y_new, *_oracle_sums(y, y_new, e5, e3, tol))


# 6, 8 and 9 are the states of the e(3)* flows, of the torus and cylinder
# flow and of the Sundman state of the torus with t as a ninth component
SIZES = tuple(range(1, 10))
TOL = 1e-10


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _both(make_rhs, y, dt, tol=TOL, attempts=(dyn._dop853_attempt, _oracle_step_attempt)):
    """(calls, outcome) of the kernel and of the oracle from y, each with a
    fresh right-hand side; an outcome is the bits of y_new, sq5 and sq3, or
    the exception raised."""
    runs = []
    for attempt in attempts:
        calls, rhs = [], make_rhs()
        counted = lambda v: calls.append(_bits(v)) or rhs(v)
        k1 = rhs(y)
        try:
            y_new, sq5, sq3 = attempt(counted, y, k1, dt, tol)
            outcome = _bits(y_new), _bits((sq5, sq3))
        except FixedPointSingularity as exc:
            outcome = str(exc)
        runs.append((calls, outcome))
    return runs


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.2])
def test_kernel_matches_the_oracle(n, dt):
    # a smooth coupled right-hand side from random states
    rng = np.random.default_rng(n)
    c = rng.normal(0.0, 1.0, n).tolist()

    def make_rhs():
        return lambda v: tuple(math.cos(v[(i + 1) % n]) - c[i] * v[i] * v[i - 1] for i in range(n))

    for _ in range(5):
        y = tuple(rng.normal(0.0, 2.0, n).tolist())
        for tol in (TOL, 1e-6):
            (got_calls, got), (want_calls, want) = _both(make_rhs, y, dt, tol)
            assert len(got_calls) == 11
            assert got_calls == want_calls
            assert got == want


@pytest.mark.parametrize("n", SIZES[1:])
@pytest.mark.parametrize("dt", [1e-3, 0.2, 10.0])
def test_fixed_components_are_the_full_kernel(n, dt):
    # components whose rows are exact zeros (+-0.0, as the cylinder's Q1 rows
    # 0.0 * du1 are while du1 is finite) and whose values are not -0.0: the
    # kernel that holds them gives the full kernel's stage states, y_new and
    # sums, bit for bit.  The rows are bounded, so every stage is finite
    rng = np.random.default_rng(100 + n)
    c = rng.normal(0.0, 1.0, n).tolist()
    for fixed in ((0,), (n - 1,), tuple(range(0, n - 1, 2))):
        held = lambda *args: dyn._dop853_attempt(*args, fixed)

        def make_rhs():
            def rhs(v):
                row = [math.sin(c[i] * v[(i + 1) % n]) - c[i] * math.tanh(v[i] * v[i - 1]) for i in range(n)]
                return tuple(0.0 * r if i in fixed else r for i, r in enumerate(row))

            return rhs

        for _ in range(5):
            y = rng.normal(0.0, 2.0, n).tolist()
            y = tuple(0.0 if i in fixed and i % 3 == 0 else v for i, v in enumerate(y))
            (got_calls, got), (want_calls, want) = _both(make_rhs, y, dt, attempts=(held, dyn._dop853_attempt))
            assert got_calls == want_calls and got == want
            assert all(struct.unpack(f"{n}d", got[0])[i] == y[i] for i in fixed)


def _scripted(stages):
    """A right-hand side that returns the next stage of ``stages`` at each call."""

    def make_rhs():
        it = iter(stages)
        return lambda _v: next(it)

    return make_rhs


@pytest.mark.parametrize("n", SIZES)
def test_kernel_keeps_the_left_fold_at_extreme_stages(n):
    # stages of +-1e16 and O(1): a compensated or regrouped sum keeps O(1)
    # parts that the left fold rounds away
    big = [1e16, 1.0, -1e16, 3.0, -1e16, 1e16, 1.0, -1e16, 3.0, 1e16, -1e16, 1.0]
    stages = [tuple(big[(j + i) % 12] * (1 + i % 3) for i in range(n)) for j in range(12)]
    y = tuple(0.5 + i for i in range(n))
    (got_calls, got), (want_calls, want) = _both(_scripted(stages), y, 1.0)
    assert got_calls == want_calls and got == want
    y_new = struct.unpack(f"{n}d", got[0])
    exact = math.fsum(b * stages[j - 1][0] for j, b in dyn._DOP_B.items())
    assert y_new[0] != 0.5 + exact
    assert all(map(math.isfinite, struct.unpack("2d", got[1])))


@pytest.mark.parametrize("n", SIZES)
def test_kernel_carries_non_finite_stages(n):
    # inf and NaN stages, as the cylinder's plateau gives: the same bits,
    # NaN payloads and signs included
    pool = [math.inf, -math.inf, math.nan, 1.0, -2.5, 0.0, -0.0]
    stages = [tuple(pool[(3 * j + i) % len(pool)] for i in range(n)) for j in range(12)]
    for dt in (0.05, 1.0):
        (got_calls, got), (want_calls, want) = _both(_scripted(stages), tuple([0.25] * n), dt)
        assert got_calls == want_calls and got == want
    y_new = struct.unpack(f"{n}d", got[0])
    assert not all(map(math.isfinite, y_new))
    assert not all(map(math.isfinite, struct.unpack("2d", got[1])))


@pytest.mark.parametrize("n", SIZES)
def test_kernel_stops_where_the_rhs_raises(n):
    # k1 and stages 2..6 evaluate; stage 7 raises, and no stage after it runs
    def make_rhs():
        count = [0]

        def rhs(v):
            count[0] += 1
            if count[0] == 7:
                raise FixedPointSingularity("stage 7")
            return tuple(1.0 + x * x for x in v)

        return rhs

    (got_calls, got), (want_calls, want) = _both(make_rhs, tuple([0.1] * n), 0.05)
    assert got == want == "stage 7"
    assert len(got_calls) == len(want_calls) == 6
    assert got_calls == want_calls


def test_kernels_are_built_lazily_once_per_length():
    # importing the CLI compiles no kernel; each state length and set of
    # fixed components builds one, on its first attempt, and every later
    # attempt of that (length, fixed) reuses it
    script = """
import monopole_lab.cli
from monopole_lab import dynamics as dyn
assert dyn._attempt_kernel.cache_info().currsize == 0
rhs = lambda v: tuple(-x for x in v)
for _ in range(3):
    for n, fixed in ((1, ()), (2, ()), (4, ()), (4, (1, 2))):
        y = (1.0,) * n
        dyn._dop853_attempt(rhs, y, rhs(y), 0.1, 1e-10, fixed)
info = dyn._attempt_kernel.cache_info()
assert (info.misses, info.currsize) == (4, 4), info
assert dyn._attempt_kernel(4, ()) is dyn._attempt_kernel(4, ())
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)
