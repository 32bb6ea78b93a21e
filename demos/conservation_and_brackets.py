"""Commutation of H with its partner integral F, and conservation under flow.

Three families, three phase spaces: the torus family on T*T^2 with canonical
brackets, and the Clebsch and two-centre systems on e(3)* with Lie-Poisson
brackets.  In each case the exact {F, H} = grad F . dy/dt (the rate of change
of F along H's flow) is round-off against the sum of its terms' magnitudes,
and both values are conserved along trajectories.
"""

import numpy as np

from monopole_lab import case1_spec, case2_spec, from_roots, hf_bracket, integrate, random_state, vy_spec

rng = np.random.default_rng(11)

print("-- torus family, roots (3, 2, -1, -4), mu = 1, B = 0.7")
spec = case2_spec(from_roots([3, 2, -1, -4], -1.0), mu=1.0, B=0.7)
s = random_state(spec, rng)
br, scale = hf_bracket(spec, s)
print(f"{{F, H}} at a random state = {br:.3e} (scale {scale:.3e})")
traj = integrate(spec, s, t_end=30.0, tol=1e-10, stride=20)
for key in ("H", "F"):
    m = traj.monitors[key]
    print(f"relative {key} drift over t = 30: {np.max(np.abs(m - m[0])) / abs(m[0]):.3e}")

print()
print("-- Clebsch system, alpha = (3, 2, 1), mu = 1, on the leaf |x| = 1, (M,x) = B")
spec1 = case1_spec((3.0, 2.0, 1.0), mu=1.0, B=0.5)
s1 = random_state(spec1, rng)
br, scale = hf_bracket(spec1, s1)
print(f"{{F, H}} = {br:.3e} (scale {scale:.3e})")
tr = integrate(spec1, s1, t_end=30.0, tol=1e-10, stride=20)
print(f"Casimir drift: C1 {np.max(np.abs(tr.monitors['C1'] - 1.0)):.3e}, "
      f"C2 {np.max(np.abs(tr.monitors['C2'] - tr.monitors['C2'][0])):.3e}")

print()
print("-- two-centre system on the sphere, (A, B) = (2, 1), mu = 1")
# generic orbit: near-collision orbits (R -> 0 at a center) would need
# regularisation before any integrator can hold energy through the encounter
specv = vy_spec(2.0, 1.0, mu=1.0)
sv = random_state(specv, np.random.default_rng(2))
br, scale = hf_bracket(specv, sv)
print(f"{{F, H}} = {br:.3e} (scale {scale:.3e})")
trv = integrate(specv, sv, t_end=30.0, tol=1e-10, stride=20)
H = trv.monitors["H"]
print(f"relative H drift: {np.max(np.abs(H - H[0])) / abs(H[0]):.3e}")
