"""From a generator to its semigroup: resolvents, backward-Euler powers,
contractivity and positivity certificates.

Run with:  python demos/04_semigroups.py
"""

import numpy as np

from conesemi import (
    FunctionalGauge,
    LinOp,
    PolyCone,
    SemigroupConfig,
    check_resolvent_contractivity,
    check_semigroup_positivity,
    euler_power,
    is_contractive,
    is_positive_operator,
    matrix_exp,
)

A = np.array([[-2.0, 1.0], [1.0, -2.0]])
op = LinOp(A)
cone = PolyCone.standard_orthant(2)
x = np.array([1.0, 0.0])

print("== backward-Euler powers converge to the exponential ==")
target = matrix_exp(A, 1.0) @ x
for n in (4, 8, 16, 32, 64):
    approx = euler_power(op, 1.0, n, x)
    err = np.max(np.abs(approx - target))
    print(f"  n = {n:3d}: error {err:.3e}")
print("(halving error per doubling: the first-order signature)")

print()
print("== resolvents of a dissipative generator stay contractive ==")
phi = cone.certify_functional([1.0, 1.0])
for lam in (0.1, 0.5, 1.0):
    rep = check_resolvent_contractivity(op, cone, phi, lam, n_samples=100, seed=0)
    print(f"  lam = {lam}: {rep.verdict}")

print()
print("== positivity on the whole time grid, with a total functional family ==")
phis = [cone.certify_functional(f) for f in cone.facets]
cfg = SemigroupConfig(t_grid=(0.1, 1.0, 5.0), euler_steps=16, method="both")
rep = check_semigroup_positivity(op, phis, cone, cfg, n_samples=50, seed=0)
for sub in rep.subreports:
    if sub.data.get("role") == "conclusion":
        print(f"  {sub.name}: {sub.verdict} (worst entry margin "
              f"{sub.data['worst_margin']:+.2e})")

print()
print("== one negative off-diagonal entry destroys positivity immediately ==")
bad = np.array([[-2.0, -0.5], [1.0, -2.0]])
T = matrix_exp(bad, 0.01)
rep = is_positive_operator(T, cone)
w = rep.witnesses[0]
print(f"  at t = 0.01 the propagator pushes {w.point.tolist()} out of the cone: "
      f"facet margin {w.margin:.4f}")

print()
print("== contractivity is read off the rows of the gauge's polytope: exact ==")
R = np.linalg.solve(np.eye(2) - 0.5 * A, np.eye(2))
rep = is_contractive(R, FunctionalGauge(cone, phi))
print(f"  verdict: {rep.verdict}; samples: {rep.samples_used}; note: {rep.notes[0]}")
