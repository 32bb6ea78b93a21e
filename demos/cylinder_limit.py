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
    random_state,
)

lm = LimitModel(beta1=2.0, beta3=-1.0, beta4=-3.0)
print(f"b = {lm.b}, c = {lm.c}, D = {lm.D}, delta = {lm.delta:.6f}")

print()
print("-- the degenerate slice and its symmetry")
print(f"Q2(delta) = {lm.at(lm.delta)[0]} (minimum of the cosh)")
u = np.linspace(-4.0, 6.0, 7)
print(f"max |Q2(2 delta - u) - Q2(u)| = {np.max(np.abs(lm.at(2*lm.delta - u)[0] - lm.at(u)[0])):.3e}")
print(f"Q2(+-50) - beta1 = {lm.at(50.0)[0] - lm.beta1:.3e}, {lm.at(-50.0)[0] - lm.beta1:.3e}")

print()
print("-- metric decay at the cylinder ends")
A = limit_metric_decay_constant(lm)
print(f"decay constant A = 8 beta1 c / sqrt(D) = {A}")
for ut in (3.0, 5.0, 7.0):
    # ut2 = sqrt(c)(u2 - delta)/4, the rescaled coordinate of the cylinder metric
    val = lm.beta1**2 - lm.at(lm.delta + 4.0 * ut / math.sqrt(lm.c))[0] ** 2
    print(f"ut2 = {ut}: (beta1^2 - Q2^2) e^(2 ut2) / A = {val * math.exp(2 * ut) / A:.8f}")
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
