"""Elliptic coordinates on the round sphere and the hyperbolic degeneration.

The sphere coordinates are the roots (q1, q2) of sum x_i^2/(alpha_i - q) = 0;
they interlace the constants and turn the round metric into separable form
with cubic f(q) = 4 prod(alpha_i - q).  The potential mu (q1 + q2) is a
quadratic function of the Cartesian coordinates.  For the degenerate cubic
f = 4 q^3 the same construction lands on the hyperbolic upper half plane.
"""

import numpy as np

from monopole_lab import (
    NeumannConstants,
    cartesian_to_neumann,
    hyperbolic_chart,
    neumann_to_cartesian,
    stackel_metric,
)

c = NeumannConstants((3.0, 2.0, 1.0))
rng = np.random.default_rng(2)

print("-- residue formulas: |x| = 1 and the quadratic potential identity")
a1, a2, a3 = c.alpha
for _ in range(4):
    q1 = rng.uniform(a2, a1)
    q2 = rng.uniform(a3, a2)
    x = neumann_to_cartesian(c, q1, q2, signs=(1, -1, 1))
    quad = (a2 + a3) * x[0] ** 2 + (a1 + a3) * x[1] ** 2 + (a1 + a2) * x[2] ** 2
    back = cartesian_to_neumann(c, x)
    print(f"q = ({q1:.4f}, {q2:.4f}): |x|^2-1 = {x @ x - 1:+.1e}, "
          f"(q1+q2) - quadratic form = {q1 + q2 - quad:+.1e}, "
          f"round trip error = {abs(back[0]-q1) + abs(back[1]-q2):.1e}")

print()
print("-- the separable metric components at a strip point")
f = lambda q: 4.0 * (a1 - q) * (a2 - q) * (a3 - q)
g11, g22 = stackel_metric(f, 2.5, 1.5)
print(f"g11 = {g11:.6f}, g22 = {g22:.6f} (both positive)")

print()
print("-- degenerate cubic f = 4 q^3: upper half plane")
u, v, _, h_over_mu = hyperbolic_chart(1.0, 1.0)
print(f"(q1, |q2|) = (1, 1) maps to (u, v) = ({u}, {v}); h/mu = {h_over_mu}")
u, v, _, h_over_mu = hyperbolic_chart(0.25, 4.0)
print(f"(q1, |q2|) = (0.25, 4) maps to (u, v) = ({u:.4f}, {v:.4f}); "
      f"h/mu = {h_over_mu:.4f} = q1 + q2 = {0.25 - 4.0:.4f}")
