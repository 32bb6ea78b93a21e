import dataclasses
from pathlib import Path

import numpy as np
import pytest

from monopole_lab import verify as ver
from monopole_lab.errors import FunctionalDomainError, GridTooSmall, SingularSample


@pytest.fixture(scope="module")
def grid1(case1):
    return ver.build_case1_grid(case1, 64)


@pytest.fixture(scope="module")
def grid2(case2):
    return ver.build_case2_grid(case2, 64)


def test_classical_conditions_case1(grid1):
    rep = ver.check_classical(grid1, stencil=4)
    assert set(rep.residuals) == {"C1", "C2", "C3", "C4", "C5", "C6"}
    assert rep.max_residual < 1e-6


def test_classical_conditions_case2(grid2):
    rep = ver.check_classical(grid2, stencil=4)
    assert rep.max_residual < 1e-6


def test_corrupted_potential_is_detected(grid1):
    h_bad = grid1.h.copy()
    h_bad[: h_bad.shape[0] // 2, :] *= 1.01
    rep = ver.check_classical(dataclasses.replace(grid1, h=h_bad), stencil=4)
    assert rep.residuals["C5"] > 1e-3
    assert rep.residuals["C6"] > 1e-3
    # the detector localizes: metric-only conditions stay clean
    assert rep.residuals["C2"] < 1e-6


def test_quantum_condition_constant_b(grid1, grid2):
    for grid in (grid1, grid2):
        assert ver.check_quantum_c6star(grid, stencil=4) < 1e-6
        # constant B: the correction term vanishes identically
        core = ver._core(grid.shape, 4)
        d1 = lambda F: ver._d(F, grid.h1, 0, 4)
        d2 = lambda F: ver._d(F, grid.h2, 1, 4)
        c6_only = grid.phi1 * d1(grid.h) + grid.phi2 * d2(grid.h)
        full = ver.c6star_field(grid, 4)
        assert np.max(np.abs(full[core] - c6_only[core])) < 1e-12


def test_quantum_condition_synthetic_b(grid2):
    # B = u1 turns on the correction; compare with a hand-assembled stencil
    U1 = np.meshgrid(grid2.axis1, grid2.axis2, indexing="ij")[0]
    syn = dataclasses.replace(grid2, B=U1.copy())
    field = ver.c6star_field(syn, 4)
    h1, h2 = syn.h1, syn.h2
    d1 = lambda F: ver._d(F, h1, 0, 4)
    d2 = lambda F: ver._d(F, h2, 1, 4)
    root = np.sqrt(syn.g11 * syn.g22)
    hand = (
        syn.phi1 * d1(syn.h)
        + syn.phi2 * d2(syn.h)
        + root
        * (syn.v2 - syn.v1)
        * (
            d2(syn.g11) / syn.g11 * d1(syn.B)
            + d1(syn.g22) / syn.g22 * d2(syn.B)
            - ver._d(ver._d(syn.B, h1, 0, 4), h2, 1, 4)
        )
    )
    core = ver._core(syn.shape, 4)
    assert np.max(np.abs(field[core] - hand[core])) == 0.0
    assert ver.check_quantum_c6star(syn, 4) > 1e-3  # the correction is active


def test_duality_structural_identity(grid1, grid2):
    assert ver.check_duality(grid1, stencil=4) == 0.0
    assert ver.check_duality(grid2, stencil=4) == 0.0
    assert ver.check_duality(grid2, stencil=2) == 0.0


def test_duality_mixed_orders_bounded_by_truncation(grid2):
    diff = ver.check_duality(grid2, stencil=2, stencil_swapped=4)
    core = ver._core(grid2.shape, 4)
    res2 = float(np.max(np.abs(ver.consistency_field(grid2, 2)[core])))
    res4 = float(np.max(np.abs(ver.consistency_field(grid2, 4)[core])))
    assert diff <= 1.01 * (res2 + res4)


def test_stencil_convergence_second_order(case1):
    r32 = ver.check_classical(ver.build_case1_grid(case1, 32), stencil=2).residuals
    r64 = ver.check_classical(ver.build_case1_grid(case1, 64), stencil=2).residuals
    for cond in r32:
        if r64[cond] < 1e-12:
            continue  # condition holds to rounding at both resolutions
        assert r32[cond] / r64[cond] >= 3.5


def test_grid_too_small(case1):
    small = ver.build_case1_grid(case1, 8)
    with pytest.raises(GridTooSmall):
        ver.check_classical(small, stencil=4)


@pytest.mark.parametrize("roots", [(3, 2, -1, -4), (3, 2.99, -1, -4.99), (4, 1, -1, -4)])
def test_case2_grid_matches_meshgrid_reference(roots):
    # the per-axis build equals the pointwise fields on the full mesh, bit for bit
    from monopole_lab.fields import case2_spec, electric_h, phi_components, varphi
    from monopole_lab.geometry import torus_lambda
    from monopole_lab.polyroots import from_roots

    # mu and k = 4B not powers of two, so a regrouped product shows in the bits
    spec = case2_spec(from_roots(list(roots), -1.0), mu=1.3, B=0.7)
    m = spec.model
    n = 64
    u1 = np.linspace(0.3, 0.7, n) * m.K1
    u2 = np.linspace(0.3, 0.7, n) * m.K2
    U1, U2 = np.meshgrid(u1, u2, indexing="ij")
    lam = torus_lambda(m, U1, U2)
    phi1, phi2 = phi_components(spec, (U1, U2))
    ref = {
        "axis1": u1,
        "axis2": u2,
        "g11": 1.0 / lam,
        "g22": 1.0 / lam,
        "v1": m.q2(U2) ** 2,
        "v2": m.q1(U1) ** 2,
        "phi1": phi1,
        "phi2": phi2,
        "h": electric_h(spec, (U1, U2)),
        "varphi": varphi(spec, (U1, U2)),
        "B": np.full((n, n), spec.B),
    }
    grid = ver.build_case2_grid(spec, n)
    for name, want in ref.items():
        got = getattr(grid, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_case2_grid_solves_each_slice_once(case2, monkeypatch):
    from monopole_lab._inversion import QuarterBranch

    m = case2.model
    calls = []
    fn = QuarterBranch._eval
    monkeypatch.setattr(
        QuarterBranch, "_eval", lambda self, u, with_deriv: calls.append(self) or fn(self, u, with_deriv)
    )
    ver.build_case2_grid(case2, 16)
    assert len(calls) == 2
    assert {id(b) for b in calls} == {id(m.branch1), id(m.branch2)}


def test_min_grid_size_is_the_core_limit(case1):
    for stencil in (2, 4):
        n = ver.min_grid_size(stencil)
        ver.check_classical(ver.build_case1_grid(case1, n), stencil)
        with pytest.raises(GridTooSmall):
            ver.check_classical(ver.build_case1_grid(case1, n - 1), stencil)


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


# the formulas of the checks as they were written before the derivative table,
# one stencil call per use: the reference the table must reproduce bit for bit
def _ref_d(F, h, axis, stencil):
    shift = lambda k: np.roll(F, -k, axis=axis)
    m = 1 if stencil == 2 else 2
    inner = (slice(m, F.shape[0] - m), slice(m, F.shape[1] - m))
    out = np.full_like(F, np.nan)
    if stencil == 2:
        sl = shift(1) - shift(-1)
        out[inner] = sl[inner] / (2.0 * h)
    else:
        sl = -shift(2) + 8.0 * shift(1) - 8.0 * shift(-1) + shift(-2)
        out[inner] = sl[inner] / (12.0 * h)
    return out


def _ref_classical(grid, stencil):
    core = ver._core(grid.shape, stencil)
    nmax = ver._normalized_max
    d1 = lambda F: _ref_d(F, grid.h1, 0, stencil)
    d2 = lambda F: _ref_d(F, grid.h2, 1, stencil)
    root = np.sqrt(grid.g11 * grid.g22)
    res = {}
    r_c1 = np.maximum(np.abs(d1(grid.v1)), np.abs(d2(grid.v2)))
    res["C1"] = nmax(r_c1, [d2(grid.v1), d1(grid.v2)], core)
    t12 = (grid.v2 - grid.v1) * d2(np.log(grid.g11))
    t21 = (grid.v1 - grid.v2) * d1(np.log(grid.g22))
    res["C2"] = max(
        nmax(d2(grid.v1) - t12, [d2(grid.v1), t12], core),
        nmax(d1(grid.v2) - t21, [d1(grid.v2), t21], core),
    )
    t1 = (grid.phi1 * d1(grid.g11) + grid.phi2 * d2(grid.g11)) / (2.0 * grid.g11)
    t2 = (grid.phi1 * d1(grid.g22) + grid.phi2 * d2(grid.g22)) / (2.0 * grid.g22)
    res["C3"] = max(
        nmax(d1(grid.phi1) - t1, [d1(grid.phi1), t1], core),
        nmax(d2(grid.phi2) - t2, [d2(grid.phi2), t2], core),
    )
    lhs = 2.0 * root * (grid.v2 - grid.v1) * grid.B
    rhs1 = grid.g22 * d2(grid.phi1)
    rhs2 = grid.g11 * d1(grid.phi2)
    res["C4"] = nmax(lhs - rhs1 - rhs2, [lhs, rhs1, rhs2], core)
    bor = grid.B / root
    r51 = d1(grid.varphi) - grid.v1 * d1(grid.h) - grid.phi2 * bor
    r52 = d2(grid.varphi) - grid.v2 * d2(grid.h) + grid.phi1 * bor
    res["C5"] = max(
        nmax(r51, [d1(grid.varphi), grid.v1 * d1(grid.h), grid.phi2 * bor], core),
        nmax(r52, [d2(grid.varphi), grid.v2 * d2(grid.h), grid.phi1 * bor], core),
    )
    ta = grid.phi1 * d1(grid.h)
    tb = grid.phi2 * d2(grid.h)
    res["C6"] = nmax(ta + tb, [ta, tb], core)
    return res


def _ref_fields(grid, stencil):
    """(c6star_field, consistency_field, the (C6*) scale terms), written out twice."""
    h1, h2 = grid.h1, grid.h2
    d1 = lambda F: _ref_d(F, h1, 0, stencil)
    d2 = lambda F: _ref_d(F, h2, 1, stencil)
    root = np.sqrt(grid.g11 * grid.g22)
    c6s = grid.phi1 * d1(grid.h) + grid.phi2 * d2(grid.h) + root * (grid.v2 - grid.v1) * (
        d2(grid.g11) / grid.g11 * d1(grid.B)
        + d1(grid.g22) / grid.g22 * d2(grid.B)
        - _ref_d(_ref_d(grid.B, h1, 0, stencil), h2, 1, stencil)
    )
    cons = grid.phi1 * d1(grid.B) + grid.phi2 * d2(grid.B) + root * (grid.v2 - grid.v1) * (
        d2(grid.g11) / grid.g11 * d1(grid.h)
        + d1(grid.g22) / grid.g22 * d2(grid.h)
        - _ref_d(_ref_d(grid.h, h1, 0, stencil), h2, 1, stencil)
    )
    terms = [
        grid.phi1 * d1(grid.h),
        grid.phi2 * d2(grid.h),
        np.sqrt(grid.g11 * grid.g22) * (grid.v2 - grid.v1) * d2(grid.g11) / grid.g11,
    ]
    return c6s, cons, terms


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n", [9, 24, 64])
def test_derivative_table_matches_per_use_reference(case1, n):
    from monopole_lab.fields import case2_spec
    from monopole_lab.polyroots import from_roots

    spec2 = case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=1.3, B=0.7)
    near = case2_spec(from_roots([3, 2.99, -1, -4.99], -1.0), mu=1.3, B=0.7)
    g2 = ver.build_case2_grid(spec2, n)
    U1, U2 = np.meshgrid(g2.axis1, g2.axis2, indexing="ij")
    grids = {
        "case1": ver.build_case1_grid(case1, n),
        "case2": g2,
        "near": ver.build_case2_grid(near, n),
        "varying B": dataclasses.replace(g2, B=np.sin(U1) * U2 + 0.3 * U2**2),
    }
    for name, grid in grids.items():
        fields = {s: _ref_fields(grid, s) for s in (2, 4)}
        for s in (2, 4):
            c6s, cons, terms = fields[s]
            core = ver._core(grid.shape, s)
            want = _ref_classical(grid, s)
            got = ver.check_classical(grid, s).residuals
            assert list(got) == list(want), name
            for cond in want:
                assert _bits(got[cond]) == _bits(want[cond]), (name, s, cond)
            assert _bits(ver.c6star_field(grid, s)) == _bits(c6s), (name, s)
            assert _bits(ver.consistency_field(grid, s)) == _bits(cons), (name, s)
            c6_ref = ver._normalized_max(c6s, terms, core)
            assert _bits(ver.check_quantum_c6star(grid, s)) == _bits(c6_ref), (name, s)
            for s2 in (2, 4):
                swapped = _ref_fields(ver.swap_h_and_b(grid), s2)[0]
                wide = ver._core(grid.shape, max(s, s2))
                dual = float(np.max(np.abs(cons[wide] - swapped[wide])))
                assert _bits(ver.check_duality(grid, s, s2)) == _bits(dual), (name, s, s2)


@pytest.mark.parametrize("stencil", ["2", "4"])
def test_verify_takes_each_derivative_once(stencil, tmp_path, monkeypatch, capsys):
    from monopole_lab.cli import main

    d = ver._d
    taken = []  # per public check call: (input array, axis, stencil) of each _d call
    monkeypatch.setattr(
        ver, "_d", lambda F, h, axis, s: taken[-1].append((F, axis, s)) or d(F, h, axis, s)
    )
    for name in ("check_classical", "check_quantum_c6star", "check_duality"):
        fn = getattr(ver, name)
        monkeypatch.setattr(ver, name, lambda *a, fn=fn, **k: taken.append([]) or fn(*a, **k))
    ran = 0
    for cfg in sorted((Path(__file__).parents[1] / "demos" / "configs").glob("*.json")):
        taken.clear()
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--stencil", stencil])
        if not taken:  # a family verify does not support, or an inadmissible quartic
            continue
        ran += 1
        assert len(taken) == 3, cfg.name
        assert 0 < sum(map(len, taken)) <= 40, cfg.name  # 57 with one stencil per use
        for calls in taken:  # the inputs are kept alive above, so ids are not reused
            keys = [(id(F), axis, s) for F, axis, s in calls]
            assert len(set(keys)) == len(keys), cfg.name
    assert ran == 2
