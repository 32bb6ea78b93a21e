import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from monopole_lab import dynamics as dyn
from monopole_lab import fields
from monopole_lab import geometry as geo
from monopole_lab import verify as ver
from monopole_lab.errors import FunctionalDomainError, SingularSample
from monopole_lab.fields import Jet, case1_spec, case2_spec
from monopole_lab.polyroots import from_roots
from second_order_jets import Jet2

NEAR = (3, 2.99, -1, -4.99)  # the near-coalescing quartic


@pytest.fixture(scope="module")
def grid1(case1):
    return ver.build_case1_grid(case1, 64)


@pytest.fixture(scope="module")
def grid2(case2):
    return ver.build_case2_grid(case2, 64)


@pytest.fixture(scope="module")
def grid_near():
    return ver.build_case2_grid(case2_spec(from_roots(list(NEAR), -1.0), mu=1.0, B=0.5), 64)


def _tilt(grid):
    """1 + 0.01 u1 / max u1 as a jet: a 1% change across the grid, with its partials."""
    u1 = grid.axis1[:, None]
    return Jet.along(0, 1.0 + 0.01 * u1 / u1.max(), 0.01 / u1.max())


def test_classical_conditions_case1(grid1):
    rep = ver.check_classical(grid1)
    assert set(rep.residuals) == {"C1", "C2", "C3", "C4", "C5", "C6"}
    assert rep.max_residual < 1e-6


def test_classical_conditions_case2(grid2):
    rep = ver.check_classical(grid2)
    assert rep.max_residual < 1e-6


def test_corrupted_potential_is_detected(grid1):
    rep = ver.check_classical(dataclasses.replace(grid1, h=grid1.h * _tilt(grid1)))
    assert rep.residuals["C5"] > 1e-3
    assert rep.residuals["C6"] > 1e-3
    # the detector localizes: metric-only conditions stay clean
    assert rep.residuals["C2"] < 1e-6


def _d(F, h, axis):
    """Order-4 central first derivative, wrapping at the edges (read inside):
    the oracle the jets are checked against."""
    at = lambda k: np.roll(F, -k, axis=axis)
    return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h)


def _second_difference(F, h, axis):
    """Order-4 central second derivative, wrapping at the edges (read inside)."""
    at = lambda k: np.roll(F, -k, axis=axis)
    return (-at(2) + 16.0 * at(1) - 30.0 * F + 16.0 * at(-1) - at(-2)) / (12.0 * h * h)


def _gaps(F, parts: dict, h1, h2, step):
    """(max |partial - order-4 stencil|, max |partial|, max |F|) per named
    partial of F on the points of the 32-interval grid's stencil core."""
    n = F.shape[0]
    pts = (slice(4 * step, n - 4 * step, step),) * 2
    d1 = _d(F, h1, 0)
    stencils = {
        "d1": d1,
        "d2": _d(F, h2, 1),
        "d12": _d(d1, h2, 1),
        "d11": _second_difference(F, h1, 0),
        "d22": _second_difference(F, h2, 1),
    }
    out = {}
    for k, part in parts.items():
        part = np.broadcast_to(0.0 if part is None else part, F.shape)[pts]
        gap = float(np.max(np.abs(part - stencils[k][pts])))
        out[k] = (gap, float(np.max(np.abs(part))), float(np.max(np.abs(F))))
    return out


def _jet_gaps(grid, lam_jet, K1, K2, step):
    """The gaps of every grid field's d1, d2 and d12, and of lambda's d11 and
    d22 on the n-point mesh of the same window of (u1, u2) in [0, K1] x [0, K2]."""
    h1, h2 = grid.axis1[1] - grid.axis1[0], grid.axis2[1] - grid.axis2[0]
    out = {}
    for f in ver._FIELDS:
        jet = getattr(grid, f)
        parts = {k: getattr(jet, k) for k in ("d1", "d2", "d12")}
        gaps = _gaps(np.broadcast_to(jet.v, grid.shape), parts, h1, h2, step)
        out.update(((f, k), gap) for k, gap in gaps.items())
    u1, u2 = np.linspace(*ver._WINDOW, grid.shape[0]) * K1, np.linspace(*ver._WINDOW, grid.shape[1]) * K2
    lam, lam11, lam22 = lam_jet(u1[:, None], u2[None, :])
    F = np.broadcast_to(lam.v, grid.shape)
    gaps = _gaps(F, {"d11": lam11, "d22": lam22}, u1[1] - u1[0], u2[1] - u2[0], step)
    out.update((("lambda", k), gap) for k, gap in gaps.items())
    return out


@pytest.mark.parametrize("geometry", ["case1", (3, 2, -1, -4), NEAR, (4, 1, -1, -4)])
def test_jets_match_the_stencil_at_fourth_order(case1, geometry):
    # 33 and 65 points: 32 and 64 intervals, so the coarse points are fine points
    if geometry == "case1":
        build = lambda n: ver.build_case1_grid(case1, n)
        conf = geo.conformal_case1(case1.alpha)
        lam = (conf.lam_jet, conf.K1, conf.K2)
    else:
        spec = case2_spec(from_roots(list(geometry), -1.0), mu=1.3, B=0.7)
        build = lambda n: ver.build_case2_grid(spec, n)
        m = spec.model
        lam = (lambda a, b: geo.torus_lambda_jet(m, a, b), m.K1, m.K2)
    coarse, fine = _jet_gaps(build(33), *lam, 1), _jet_gaps(build(65), *lam, 2)
    fourth_order = set()
    for key, (gap, scale, size) in fine.items():
        if scale == 0.0:  # a partial that is identically zero: the stencil reads round-off
            assert gap <= 1e-9 * max(1.0, size), key
            continue
        assert gap <= 1e-4 * scale, key  # agreement at n = 64
        if coarse[key][0] > 1e-7 * coarse[key][1]:  # truncation, not round-off, at n = 32
            assert coarse[key][0] >= 12.0 * gap, key  # 16 at fourth order
            fourth_order.add(key[1])
        else:
            assert gap <= 1e-7 * scale, key
    # every kind of partial shows the fourth-order fall somewhere
    assert fourth_order >= {"d12"} and fourth_order & {"d1", "d2"} and fourth_order & {"d11", "d22"}


def test_scaled_phi_and_wrong_varphi_are_detected(grid1, grid2):
    # the jets change with their values, so the exact derivatives see the fault
    for grid in (grid1, grid2):
        rep = ver.check_classical(dataclasses.replace(grid, phi1=1.01 * grid.phi1))
        assert rep.residuals["C4"] > 1e-3
        rep = ver.check_classical(dataclasses.replace(grid, varphi=1.01 * grid.varphi))
        assert rep.residuals["C5"] > 1e-3
        assert max(rep.residuals[c] for c in ("C1", "C2", "C3", "C4", "C6")) < 1e-10


def test_changed_field_loses_its_jet(grid1):
    # a field changed as a plain array has lost its partials: the grid refuses it
    with pytest.raises(TypeError, match="field h must be a Jet"):
        dataclasses.replace(grid1, h=np.broadcast_to(grid1.h.v, grid1.shape) * 1.01)
    # a field changed as a jet carries partials that changed with it
    scaled = 1.01 * grid1.h
    assert np.array_equal(scaled.d1, 1.01 * grid1.h.d1)


def test_quantum_condition_constant_b(grid1, grid2):
    for grid in (grid1, grid2):
        assert ver.check_quantum_c6star(grid) < 1e-6
        # constant B: the correction term vanishes identically
        c6_only = grid.phi1.v * grid.h.d1 + grid.phi2.v * grid.h.d2
        full = ver.c6star_field(grid)
        assert np.max(np.abs(full - c6_only)) < 1e-12


def test_quantum_condition_synthetic_b(grid2):
    # B = u1 turns on the correction; compare with a hand-assembled field
    syn = dataclasses.replace(grid2, B=Jet.along(0, grid2.axis1[:, None], 1.0))
    field = ver.c6star_field(syn)
    g11, g22, v1, v2, phi1, phi2, h = (syn.g11, syn.g22, syn.v1, syn.v2, syn.phi1, syn.phi2, syn.h)
    root = np.sqrt(g11.v * g22.v)
    # d1 B = 1, d2 B = d1 d2 B = 0
    correction = g11.d2 / g11.v * 1.0 + g22.d1 / g22.v * 0.0 - 0.0
    hand = phi1.v * h.d1 + phi2.v * h.d2 + root * (v2.v - v1.v) * correction
    assert np.max(np.abs(field - hand)) == 0.0
    assert ver.check_quantum_c6star(syn) > 1e-3  # the correction is active


@pytest.mark.parametrize("mu", [1.0, 1e-3, 1e-6])
def test_c6star_scale_is_its_own_terms(case1, mu):
    # with constant B (C6*) is (C6) term for term, so a tilted h fails both
    # alike at every mu; a scale that shrank with h passed it at small mu
    grids = [ver.build_case1_grid(case1_spec(case1.alpha, mu=mu, B=0.5), 64)] + [
        ver.build_case2_grid(case2_spec(from_roots(list(roots), -1.0), mu=mu, B=0.5), 64)
        for roots in ((3, 2, -1, -4), NEAR)
    ]
    for grid in grids:
        assert ver.check_quantum_c6star(grid) <= 1e-15
        tilted = dataclasses.replace(grid, h=grid.h * _tilt(grid))
        c6 = ver.check_classical(tilted).residuals["C6"]
        assert ver.check_quantum_c6star(tilted) == c6 > 1e-2


def test_duality_structural_identity(grid1, grid2, grid_near):
    # the (C5) consistency and the swapped (C6*), each from its own partials
    for grid in (grid1, grid2, grid_near):
        assert ver.check_duality(grid) <= 1e-12


def test_duality_detects_tilted_phi_and_h(grid1, grid2, grid_near):
    for grid in (grid1, grid2, grid_near):
        tilt = _tilt(grid)
        assert ver.check_duality(dataclasses.replace(grid, phi1=grid.phi1 * tilt)) > 1e-4
        assert ver.check_duality(dataclasses.replace(grid, h=grid.h * tilt)) > 1e-4
        # varphi cancels from the consistency: a wrong varphi is (C5)'s to catch
        assert ver.check_duality(dataclasses.replace(grid, varphi=1.01 * grid.varphi)) <= 1e-12
    # on case1 phi1 / sqrt(g11 g22) is constant, so a constant-scaled phi1 is (C4)'s to catch
    assert ver.check_duality(dataclasses.replace(grid1, phi1=1.01 * grid1.phi1)) <= 1e-12


def test_grid_too_small(case1, case2):
    # no grid is too small: every point is read, down to a single one
    for n in (1, 2, 3, 8):
        for grid in (ver.build_case1_grid(case1, n), ver.build_case2_grid(case2, n)):
            assert grid.shape == (n, n)
            rep = ver.check_classical(grid)
            assert rep.n == n and rep.max_residual < 1e-12, n
            assert ver.check_quantum_c6star(grid) < 1e-12, n
            assert ver.check_duality(grid) < 1e-12, n


def _assert_grid_matches(grid, ref):
    for name, want in ref.items():
        got = getattr(grid, name)
        got = got if name.startswith("axis") else np.broadcast_to(got.v, grid.shape)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (3, 2.99, -1, -4.99), (4, 1, -1, -4)])
def test_case2_grid_matches_meshgrid_reference(roots):
    # the per-axis build equals the closed-form fields on the full mesh, bit for bit
    # mu and k = 4B not powers of two, so a regrouped product shows in the bits
    spec = case2_spec(from_roots(list(roots), -1.0), mu=1.3, B=0.7)
    m, mu, k, B = spec.model, spec.mu, spec.k, spec.B
    n = 64
    u1 = np.linspace(0.3, 0.7, n) * m.K1
    u2 = np.linspace(0.3, 0.7, n) * m.K2
    U1, U2 = np.meshgrid(u1, u2, indexing="ij")
    Q1, dQ1, Q2, dQ2 = m.q1(U1), m.dq1(U1), m.q2(U2), m.dq2(U2)
    lam = Q1**2 - Q2**2
    ref = {
        "axis1": u1,
        "axis2": u2,
        "g11": 1.0 / lam,
        "g22": 1.0 / lam,
        "v1": Q2**2,
        "v2": Q1**2,
        "phi1": 2.0 * k * dQ2 / (Q1 - Q2),
        "phi2": -2.0 * k * dQ1 / (Q1 - Q2),
        "h": mu / (Q1 + Q2),
        "varphi": -mu * Q1 * Q2 / (Q1 + Q2) - k * B * (Q1 + Q2) ** 2,
        "B": np.full((n, n), B),
    }
    _assert_grid_matches(ver.build_case2_grid(spec, n), ref)


@pytest.mark.parametrize("alpha", [(3.0, 2.0, 1.0), (5.0, 1.5, -2.0)])
def test_case1_grid_matches_meshgrid_reference(alpha):
    # the case1 grid equals the closed-form strip fields on the full mesh, bit for bit
    spec = case1_spec(alpha, mu=1.3, B=0.7)
    mu, k, B, f = spec.mu, spec.k, spec.B, spec.f_cubic
    a1, a2, a3 = alpha
    n = 64
    q1 = a2 + np.linspace(0.3, 0.7, n) * (a1 - a2)
    q2 = a3 + np.linspace(0.3, 0.7, n) * (a2 - a3)
    Q1, Q2 = np.meshgrid(q1, q2, indexing="ij")
    phi1 = k * np.sqrt(-f(Q1) * f(Q2)) / (Q1 - Q2)
    ref = {
        "axis1": q1,
        "axis2": q2,
        "g11": 1.0 / ((Q1 - Q2) / f(Q1)),
        "g22": 1.0 / ((Q2 - Q1) / f(Q2)),
        "v1": Q2,
        "v2": Q1,
        "phi1": phi1,
        "phi2": -phi1,
        "h": mu * (Q1 + Q2),
        "varphi": mu * Q1 * Q2 - k * B * (Q1 + Q2),
        "B": np.full((n, n), B),
    }
    _assert_grid_matches(ver.build_case1_grid(spec, n), ref)


def test_case2_grid_solves_each_slice_once(case2, monkeypatch):
    from monopole_lab._inversion import QuarterBranch

    m = case2.model
    calls = []
    fn = QuarterBranch._eval
    monkeypatch.setattr(
        QuarterBranch, "_eval", lambda self, u, *args: calls.append(self) or fn(self, u, *args)
    )
    ver.build_case2_grid(case2, 16)
    assert len(calls) == 2
    assert {id(b) for b in calls} == {id(m.branch1), id(m.branch2)}


def test_ode_identities_random_samples():
    rng = np.random.default_rng(77)
    out = ver.check_ode_identities(rng.uniform(-3.0, 3.0, 1000), coeffs=(1.0, 0.0, 1.0))
    for name, val in out.items():
        assert val < 1e-10, name
    out = ver.check_ode_identities(
        rng.uniform(0.2, 3.0, 500), coeffs=(0.3, 0.4, 1.2)
    )
    for name, val in out.items():
        assert val < 1e-10, name


def test_ode_identity_linear_case_exact():
    out = ver.check_ode_identities(np.array([0.5]), coeffs=(1.0, 0.0, 1.0), exponents=(1.0,))
    assert out["solvable_n=1"] == 0.0


def test_ode_identity_constant_quadratic():
    out = ver.check_ode_identities(np.array([0.3, 0.9]), coeffs=(2.0, 0.0, 0.0))
    for val in out.values():
        assert val == 0.0


def test_ode_identities_singular_sample():
    with pytest.raises(SingularSample):
        ver.check_ode_identities(np.array([1.0]), coeffs=(-1.0, 0.0, 1.0))


def test_functional_equation_cases():
    assert ver.check_functional_equation("quadratic", 2.7, -1.2, 0.8) < 1e-12
    assert ver.check_functional_equation("sqrt", 4.0, 1.0) < 1e-12
    rng = np.random.default_rng(42)
    for _ in range(200):
        q1, q2 = rng.uniform(0.2, 5.0, 2)
        if abs(q1 - q2) < 0.1:  # shrinking bracket: cancellation dominates
            continue
        assert ver.check_functional_equation("sqrt", q1, q2, 1.3) < 1e-10
        assert ver.check_functional_equation("quadratic", q1, -q2, 0.7) < 1e-10
    with pytest.raises(FunctionalDomainError):
        ver.check_functional_equation("sqrt", -1.0, 1.0)
    with pytest.raises(ValueError):
        ver.check_functional_equation("cubic", 1.0, 2.0)


# the formulas of the checks written out with one read of a jet's partial per
# use: the reference the derivative table must reproduce bit for bit
def _p(jet, k):
    part = getattr(jet, k)
    return 0.0 if part is None else part


def _ref_classical(grid):
    nmax = ver._normalized_max
    F = {f: getattr(grid, f) for f in ver._FIELDS}
    g11, g22, v1, v2, phi1, phi2, h, varphi, B = (F[f].v for f in ver._FIELDS)
    d1 = lambda f: _p(F[f], "d1")
    d2 = lambda f: _p(F[f], "d2")
    root = np.sqrt(g11 * g22)
    res = {}
    r_c1 = np.maximum(np.abs(d1("v1")), np.abs(d2("v2")))
    res["C1"] = nmax(r_c1, [d2("v1"), d1("v2")])
    t12 = (v2 - v1) * (d2("g11") / g11)
    t21 = (v1 - v2) * (d1("g22") / g22)
    res["C2"] = max(
        nmax(d2("v1") - t12, [d2("v1"), t12]),
        nmax(d1("v2") - t21, [d1("v2"), t21]),
    )
    t1 = (phi1 * d1("g11") + phi2 * d2("g11")) / (2.0 * g11)
    t2 = (phi1 * d1("g22") + phi2 * d2("g22")) / (2.0 * g22)
    res["C3"] = max(
        nmax(d1("phi1") - t1, [d1("phi1"), t1]),
        nmax(d2("phi2") - t2, [d2("phi2"), t2]),
    )
    lhs = 2.0 * root * (v2 - v1) * B
    rhs1 = g22 * d2("phi1")
    rhs2 = g11 * d1("phi2")
    res["C4"] = nmax(lhs - rhs1 - rhs2, [lhs, rhs1, rhs2])
    bor = B / root
    r51 = d1("varphi") - v1 * d1("h") - phi2 * bor
    r52 = d2("varphi") - v2 * d2("h") + phi1 * bor
    res["C5"] = max(
        nmax(r51, [d1("varphi"), v1 * d1("h"), phi2 * bor]),
        nmax(r52, [d2("varphi"), v2 * d2("h"), phi1 * bor]),
    )
    ta = phi1 * d1("h")
    tb = phi2 * d2("h")
    res["C6"] = nmax(ta + tb, [ta, tb])
    return res


def _ref_fields(grid):
    """(c6star_field, consistency_field, the swapped c6star_field, the (C6*)
    additive terms, the consistency's terms, the swapped (C6) terms with the
    swapped coefficient of d1 B), written out."""
    F = {f: getattr(grid, f) for f in ver._FIELDS}
    g11, g22, v1, v2, phi1, phi2, h, varphi, B = (F[f].v for f in ver._FIELDS)
    d = lambda f, k: _p(F[f], k)
    weight = np.sqrt(g11 * g22) * (v2 - v1)

    def c6s(h, b):
        return phi1 * d(h, "d1") + phi2 * d(h, "d2") + weight * (
            d("g11", "d2") / g11 * d(b, "d1") + d("g22", "d1") / g22 * d(b, "d2") - d(b, "d12")
        )

    def c6star_terms(h, b):
        return [
            phi1 * d(h, "d1"),
            phi2 * d(h, "d2"),
            weight * (d("g11", "d2") / g11) * d(b, "d1"),
            weight * (d("g22", "d1") / g22) * d(b, "d2"),
            weight * d(b, "d12"),
        ]

    def c6_terms(h):
        return [phi1 * d(h, "d1"), phi2 * d(h, "d2"), weight * d("g11", "d2") / g11]

    inv_root = 1.0 / np.sqrt(g11 * g22)
    d_phi_b = lambda phi, f, k: inv_root * (
        B * d(f, k) + phi * d("B", k) - phi * B * (0.5 * (d("g11", k) / g11 + d("g22", k) / g22))
    )
    cons_terms = [
        d("v2", "d1") * d("h", "d2"),
        d("v1", "d2") * d("h", "d1"),
        (v2 - v1) * d("h", "d12"),
        d_phi_b(phi2, "phi2", "d2"),
        d_phi_b(phi1, "phi1", "d1"),
    ]
    a, b, c, e, f = cons_terms
    return c6s("h", "B"), a - b + c - e - f, c6s("B", "h"), c6star_terms("h", "B"), cons_terms, c6_terms("B")


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n", [9, 24, 64])
def test_derivative_table_matches_per_use_reference(case1, n):
    spec2 = case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=1.3, B=0.7)
    near = case2_spec(from_roots(list(NEAR), -1.0), mu=1.3, B=0.7)
    g2 = ver.build_case2_grid(spec2, n)
    u1, u2 = Jet.along(0, g2.axis1[:, None], 1.0), Jet.along(1, g2.axis2[None, :], 1.0)
    sin_u1 = Jet.along(0, np.sin(u1.v), np.cos(u1.v))
    grids = {
        "case1": ver.build_case1_grid(case1, n),
        "case2": g2,
        "near": ver.build_case2_grid(near, n),
        "varying B": dataclasses.replace(g2, B=sin_u1 * u2 + 0.3 * u2**2),
    }
    for name, grid in grids.items():
        c6s, cons, swapped, terms, cons_terms, swapped_terms = _ref_fields(grid)
        want = _ref_classical(grid)
        got = ver.check_classical(grid).residuals
        assert list(got) == list(want), name
        for cond in want:
            assert _bits(got[cond]) == _bits(want[cond]), (name, cond)
        assert _bits(ver.c6star_field(grid)) == _bits(c6s), name
        assert _bits(ver.consistency_field(grid)) == _bits(cons), name
        c6_ref = ver._normalized_max(c6s, terms)
        assert _bits(ver.check_quantum_c6star(grid)) == _bits(c6_ref), name
        dual = ver._normalized_max(cons - swapped, cons_terms + swapped_terms)
        assert _bits(ver.check_duality(grid)) == _bits(dual), name


@pytest.mark.parametrize("geometry", ["case1", (3, 2, -1, -4), NEAR, (4, 1, -1, -4)])
def test_partials_match_the_second_order_reference(case1, geometry, monkeypatch):
    # a jet without d11 and d22 forms every value and partial the checks read,
    # and hf_bracket at a torus state, with the bits of the second-order rules
    spec = case1 if geometry == "case1" else case2_spec(from_roots(list(geometry), -1.0), mu=1.3, B=0.7)
    grid = (ver.build_case1_grid if geometry == "case1" else ver.build_case2_grid)(spec, 24)
    rng = np.random.default_rng(3)
    states = [dyn.random_state(spec, rng) for _ in range(20)] if geometry != "case1" else []

    def run():
        jets = fields.normal_form(spec, grid.axis1[:, None], grid.axis2[None, :])
        parts = [[None if p is None else (np.shape(p), _bits(p)) for p in (j.v, j.d1, j.d2, j.d12)] for j in jets]
        return parts, [dyn.hf_bracket(spec, s) for s in states], type(jets[0])

    got = run()
    monkeypatch.setattr(fields, "Jet", Jet2)
    want = run()
    assert (got[2], want[2]) == (Jet, Jet2)
    assert got[:2] == want[:2]


@pytest.mark.parametrize("stencil", ["2", "4"])
def test_verify_demo_families_pass_at_each_stencil(stencil, tmp_path, capsys):
    # the stencil order is parsed and checked, but every derivative is exact:
    # both demo families verify at either order
    from monopole_lab.cli import main

    ran = 0
    for cfg in sorted((Path(__file__).parents[1] / "demos" / "configs").glob("*.json")):
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--stencil", stencil])
        if "max residual:" not in capsys.readouterr().out:
            continue  # a family verify does not support, or an inadmissible quartic
        ran += 1
        assert code == 0, cfg.name
    assert ran == 2
