"""The coalescing-root limit: a cylinder that closes up into a sphere.

When the two largest roots merge, the first slice freezes at beta1 and the
second degenerates to an elementary function symmetric about u = delta.  The
metric decays at both cylinder ends exactly like the round metric in
cylindrical coordinates, and the flow acquires the obvious linear integral p1.
"""

import math

import numpy as np

from monopole_lab import (
    LimitModel,
    case2_limit_spec,
    integrate,
    limit_cylinder_metric,
    limit_metric_decay_constant,
    limit_q2,
    random_state,
)
from monopole_lab.geometry import limit_tilde_q2

lm = LimitModel(beta1=2.0, beta3=-1.0, beta4=-3.0)
print(f"b = {lm.b}, c = {lm.c}, D = {lm.D}, delta = {lm.delta:.6f}")

print()
print("-- the degenerate slice and its symmetry")
print(f"Q2(delta) = {limit_q2(lm, lm.delta)} (minimum of the cosh)")
u = np.linspace(-4.0, 6.0, 7)
print(f"max |Q2(2 delta - u) - Q2(u)| = {np.max(np.abs(limit_q2(lm, 2*lm.delta - u) - limit_q2(lm, u))):.3e}")
print(f"Q2(+-50) - beta1 = {limit_q2(lm, 50.0) - lm.beta1:.3e}, {limit_q2(lm, -50.0) - lm.beta1:.3e}")

print()
print("-- metric decay at the cylinder ends")
A = limit_metric_decay_constant(lm)
print(f"decay constant A = 8 beta1 c / sqrt(D) = {A}")
for ut in (3.0, 5.0, 7.0):
    val = lm.beta1**2 - float(limit_tilde_q2(lm, ut)) ** 2
    print(f"ut2 = {ut}: (beta1^2 - Qt2^2) e^(2 ut2) / A = {val * math.exp(2 * ut) / A:.8f}")
lam = limit_cylinder_metric(lm, (0.0, 5.0))
print(f"(conformal factor itself is 16/c times that: lam e^10/A = {lam * math.exp(10.0) / A:.6f})")

print()
print("-- the cylinder flow conserves p1 exactly")
spec = case2_limit_spec(lm, mu=1.0, B=0.6)
rng = np.random.default_rng(3)
traj = integrate(spec, random_state(spec, rng), t_end=30.0, tol=1e-10, stride=20)
H = traj.monitors["H"]
p1 = traj.monitors["F"]
print(f"p1 drift: {np.max(np.abs(p1 - p1[0])):.3e}")
print(f"relative H drift: {np.max(np.abs(H - H[0])) / abs(H[0]):.3e}")
