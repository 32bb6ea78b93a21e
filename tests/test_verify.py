import dataclasses

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
