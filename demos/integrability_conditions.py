"""Check the full PDE condition system directly on sampled grids.

For a Hamiltonian in diagonal normal form with a quadratic partner integral
the commutation {H, F} = 0 is equivalent to six first-order conditions on the
coefficient functions.  The built-in grids carry the exact derivative jets of
their fields, and both families satisfy the conditions to round-off; the
quantum variant of the last condition coincides with the classical one
whenever the magnetic density is constant, and the cross-derivative
consistency of (C5) vanishes with the quantum condition of the grid whose h
and B are swapped.  A corrupted field is built as a jet too, like the tilted
potential below, so its partials change with its values.
"""

import dataclasses

import numpy as np

from monopole_lab import (
    build_case1_grid,
    build_case2_grid,
    case1_spec,
    case2_spec,
    check_classical,
    check_duality,
    check_functional_equation,
    check_ode_identities,
    check_quantum_c6star,
    from_roots,
)
from monopole_lab.fields import Jet

spec1 = case1_spec((3.0, 2.0, 1.0), mu=1.0, B=0.5)
spec2 = case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=1.0, B=0.7)

for name, grid in (("cubic sphere family", build_case1_grid(spec1, 64)),
                   ("torus family", build_case2_grid(spec2, 64))):
    report = check_classical(grid)
    print(f"-- {name}, 64x64 grid, exact jets")
    for cond, val in report.residuals.items():
        print(f"   {cond}: {val:.3e}")
    print(f"   C6*: {check_quantum_c6star(grid):.3e}")
    print(f"   h <-> B duality gap: {check_duality(grid):.3e}")

print()
print("-- the detector actually detects: tilt h by 1% across the grid")
grid = build_case1_grid(spec1, 64)
q1 = grid.axis1[:, None]
tilt = Jet.along(0, 1.0 + 0.01 * q1 / q1.max(), 0.01 / q1.max())
bad = dataclasses.replace(grid, h=grid.h * tilt)
rep = check_classical(bad)
print(f"   C5 residual jumps to {rep.residuals['C5']:.3e}, C6 to {rep.residuals['C6']:.3e}, "
      f"the duality gap to {check_duality(bad):.3e}; C2 stays at {rep.residuals['C2']:.3e}")

print()
print("-- closed-form classification identities at 1000 random samples")
rng = np.random.default_rng(5)
res = check_ode_identities(rng.uniform(-3.0, 3.0, 1000), coeffs=(1.0, 0.0, 1.0))
for name, val in res.items():
    print(f"   {name}: {val:.3e}")
print(f"   functional equation, sqrt case at (4, 1): "
      f"{check_functional_equation('sqrt', 4.0, 1.0):.3e}")
print(f"   functional equation, quadratic case:      "
      f"{check_functional_equation('quadratic', 2.3, -0.7):.3e}")
