"""The second-derivative operator with zero boundary values, on a grid:
stencil structure, resolvent cross-check, and a positive contractive
semigroup.

Run with:  python demos/06_dirichlet_heat.py
"""

import numpy as np

from conesemi import Grid, SemigroupConfig, dirichlet_laplacian, matrix_exp
from conesemi.dirichlet import (
    convergence_study,
    format_convergence_table,
    resolvent_closed_form,
    run_dirichlet_checks,
)

print("== the stencil at N = 3 interior nodes (h = 1/4) ==")
print(dirichlet_laplacian(Grid(3)).matrix)

print()
print("== finite differences vs the closed-form resolvent ==")
for label, rhs in (
    ("constant 1", lambda t: np.ones_like(t)),
    ("sin(pi t)", lambda t: np.sin(np.pi * t)),
):
    rows = convergence_study([15, 31, 63], rhs)
    print(format_convergence_table(rows, label=label))
    print()

grid = Grid(31)
x = resolvent_closed_form(grid, np.ones(31))
print(f"closed form for the constant right-hand side at t = 1/2: {x[15]:.6f}")
print(f"analytic value 1 - 2*sqrt(e)/(1+e)            = {1 - 2*np.sqrt(np.e)/(1+np.e):.6f}")

print()
print("== the propagator is entrywise nonnegative and never grows peaks ==")
print("(the sup-norm of the positive part is the order-unit gauge of 1, so")
print(" T contracts it exactly when T >= 0 and every row sum of T is at most 1)")
A = dirichlet_laplacian(grid).matrix
for t in (0.01, 0.1, 1.0):
    T = matrix_exp(A, t)
    print(f"  t = {t:4}: min entry {np.min(T):+.2e}, largest row sum {np.max(T.sum(axis=1)):.6f}")

print()
print("== the full check pipeline ==")
report = run_dirichlet_checks(grid, SemigroupConfig(t_grid=(0.1, 1.0), method="expm"))
for sub in report.subreports:
    print(f"  {sub.name}: {sub.verdict}")
print("overall:", report.verdict, "(every check is decided exactly)")
