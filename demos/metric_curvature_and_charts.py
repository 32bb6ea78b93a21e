"""Metrics on the period torus, the quotient charts, and curvature.

The conformal factor lam = Q1^2 - Q2^2 vanishes at the four involution fixed
points; the quotient by u -> -u is a topological sphere and the coefficient in
the chart w = z^2 extends smoothly across each fixed point.
"""

import numpy as np

from monopole_lab import (
    build_model_from_roots,
    case2_spec,
    conformal_case1,
    curvature_closed,
    curvature_numeric,
    fixed_point_chart,
    from_roots,
    torus_metric,
)
from monopole_lab.geometry import curvature_from_jet, torus_lambda_jet
from monopole_lab.polyroots import eval_p_deriv

params = from_roots([3, 2, -1, -4], -1.0)
model = build_model_from_roots([3, 2, -1, -4], -1.0)
spec = case2_spec(params, mu=1.0, B=0.5)

print("-- degeneracy locus: lam on a 512^2 grid")
u1 = np.linspace(0.0, 4.0 * model.K1, 512, endpoint=False)
u2 = np.linspace(0.0, 4.0 * model.K2, 512, endpoint=False)
lam = model.q1(u1)[:, None] ** 2 - model.q2(u2)[None, :] ** 2
print(f"min lam = {lam.min():.3e} at the corner (0,0); interior minimum is positive")

print()
print("-- curvature: closed form vs the exact jet of lam and its differences")
lam_fn = lambda a, b: float(model.q1(a) ** 2 - model.q2(b) ** 2)
pt = (0.4 * model.K1, 0.6 * model.K2)
print(f"closed  K = {curvature_closed(spec, pt):.10f}")
print(f"jet     K = {curvature_from_jet(*torus_lambda_jet(model, *pt)):.10f}")
print(f"numeric K = {curvature_numeric(lam_fn, pt):.10f}")

x1, x2 = model.q1(pt[0]), model.q2(pt[1])
print(f"(equals -a3/4 + a0/(8 (x1+x2)^3) with x1 = {x1:.4f}, x2 = {x2:.4f})")

print()
print("-- the sphere family with cubic f: constant curvature 1")
conf = conformal_case1((3.0, 2.0, 1.0))
kn = curvature_numeric(lambda a, b: conf.lam(a, b), (0.5 * conf.K1, 0.5 * conf.K2))
print(f"jet     K = {curvature_from_jet(*conf.lam_jet(0.5 * conf.K1, 0.5 * conf.K2)):.10f}")
print(f"numeric K = {kn:.10f}")

print()
print("-- fixed-point chart w = z^2: the coefficient extends over w = 0")
limit = 0.5 * (eval_p_deriv(params, model.beta[1]) / 16.0) * model.beta[1]
print(f"limit value P'(beta2) beta2 / 32 = {limit}")
for radius in (1e-2, 1e-3, 1e-4):
    w = radius * np.exp(1j * 0.7)
    got = fixed_point_chart(model, 0, w).lam
    print(f"|w| = {radius:g}: coefficient = {got:.8f} (rel. gap {abs(got-limit)/limit:.2e})")

print()
print("-- involution consistency: lam(p) = lam(-p)")
p = (0.537, 1.234)
print(torus_metric(model, p).lam - torus_metric(model, (-p[0], -p[1])).lam)
