"""Embedding an ordered space into functions on its extreme dual rays, and
representing positive functionals as nonnegative weights.

Run with:  python demos/05_states_and_measures.py
"""

import numpy as np

from conesemi import PolyCone, build_state_space, embed, represent_functional

print("== orthant: states are the coordinate evaluations ==")
orthant = PolyCone.standard_orthant(2)
space = build_state_space(orthant, [1, 1])
print("states:", space.states.tolist())
print("embed((1,-2)) =", embed(space, [1, -2]).tolist(),
      "(mixed signs = not in the cone)")
mu = represent_functional(space, orthant.certify_functional([2, 3]))
print("weights for the functional (2,3):", mu.weights.tolist())

print()
print("== tilted cone with unit (1,0) ==")
diamond = PolyCone.from_generators([[1, 1], [1, -1]])
space = build_state_space(diamond, [1, 0])
print("unit-normalized states:", space.states.tolist())
print("embed of the unit is the constant 1:", embed(space, [1, 0]).tolist())
mu = represent_functional(space, diamond.certify_functional([3, 1]))
for s, w in zip(space.states, mu.weights):
    print(f"  weight {w:g} at state {s.tolist()}")
print("total mass equals the functional at the unit:", mu.total_mass)

print()
print("== non-simplicial dual: many weightings, each of mass phi(u) ==")
pyramid = PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]])
space = build_state_space(pyramid, [0, 0, 1])
phi = pyramid.certify_functional(pyramid.facets.sum(axis=0))
mu = represent_functional(space, phi)
print("states:", np.round(space.states, 6).tolist())
print("weights:", np.round(mu.weights, 9).tolist())
recon = space.states.T @ mu.weights
print("reproduction residual:", float(np.max(np.abs(recon - phi.coords))))
print("total mass and phi(u):", mu.total_mass, float(phi.coords @ space.unit))

print()
print("== bipositivity: the embedding decides membership ==")
rng = np.random.default_rng(0)
space = build_state_space(diamond, [1, 0])
agree = sum(
    diamond.contains(x) == (float(np.min(embed(space, x))) >= -1e-10)
    for x in rng.standard_normal((500, 2)) * 2
)
print(f"membership vs embedding sign on 500 random points: {agree}/500 agree")
