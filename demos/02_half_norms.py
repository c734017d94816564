"""The five sublinear gauges and their subdifferentials.

Run with:  python demos/02_half_norms.py
"""

import numpy as np

from conesemi import (
    CanonicalHalfNorm,
    EuclideanNorm,
    FunctionalGauge,
    OrderUnitGauge,
    PolyCone,
    RegularizedGauge,
    WeightedNorm,
    regularized_norm,
)

orthant = PolyCone.standard_orthant(2)
sup = WeightedNorm.sup(2)
x = np.array([1.0, -2.0])

print(f"evaluating every gauge at x = {x} over the orthant:")
gauges = [
    FunctionalGauge(orthant, [1, 1]),
    CanonicalHalfNorm(orthant, sup),
    OrderUnitGauge(orthant, [1, 1]),
    RegularizedGauge(orthant, sup),
    EuclideanNorm(orthant),
]
for g in gauges:
    print(f"  {g.variant:14s} -> {g.value(x):.6f}")
print("on the orthant the order-unit gauge of (1,1) is the sup-norm of the positive part:")
print("  ||x^+||_inf =", np.max(np.maximum(x, 0.0)))

print()
print("on the cone the functional gauge is the plain pairing:")
p = FunctionalGauge(orthant, [1, 1])
print("  p((2,3)) =", p.value([2, 3]), " <(2,3),(1,1)> =", 5.0)
print("on the negative cone it vanishes exactly:")
print("  p((-1,-2)) =", p.value([-1, -2]))

print()
print("subdifferentials are optimizable constraint sets:")
desc = p.subdifferential(x)
print("  at x = (1,-2) the set is the single functional", desc.vertices()[0])
desc0 = p.subdifferential([0, 0])
print("  at the origin it is the whole order interval with corners:")
for v in desc0.vertices():
    print("   ", np.round(v, 9))
val, point = desc0.optimize([1, 1], "max")
print("  maximizing <(1,1), u> over it gives", val, "at", point)

print()
print("strictness of the regularized gauge: p(x) + p(-x) dominates ||x||_r")
rg = RegularizedGauge(orthant, sup)
chain = rg.value(x) + rg.value(-x)
print(f"  {rg.value(x):.3f} + {rg.value(-x):.3f} = {chain:.3f}"
      f" >= {regularized_norm(orthant, sup, x):.3f}")

print()
print("the same machinery on the tilted cone x1 >= |x2|:")
diamond = PolyCone.from_generators([[1, 1], [1, -1]])
pd = FunctionalGauge(diamond, [1, 0])
print("  gauge of (0,1):", pd.value([0, 1]), "(attained at the majorant (1/2,1/2))")
