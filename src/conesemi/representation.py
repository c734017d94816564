"""Finite state-space representation of positive functionals.

For a cone with order unit ``u`` the states are the extreme rays of the
dual cone (the facet normals), rescaled so each evaluates to 1 on ``u``.
Mapping a vector to its state evaluations is a bipositive embedding into
functions on that finite set, and every positive functional is a
nonnegative weighting of states.  Every state is 1 on ``u``, so every such
weighting of ``phi`` has total mass ``<phi, u>``.  A simplicial cone has
exactly one weighting, found by one linear solve; otherwise finding one is
an LP feasibility problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import DualVector, PolyCone
from .errors import NotOrderUnit, NotPositiveFunctional, NotRepresentable, SingularMatrix
from .numerics import LpProblem, as_vector, linear_solve, solve_lp

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Normalized extreme dual rays of a cone, with the unit they evaluate 1 on."""

    states: np.ndarray  # one state per row
    unit: np.ndarray

    def __post_init__(self):
        self.states.flags.writeable = False
        self.unit.flags.writeable = False

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class Measure:
    """Nonnegative weights aligned with the states of a StateSpace."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights)
        object.__setattr__(self, "weights", np.maximum(w, 0.0))
        self.weights.flags.writeable = False

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def build_state_space(cone: PolyCone, unit) -> StateSpace:
    """States are the facet normals rescaled to evaluate 1 on the unit."""
    unit = as_vector(unit, dim=cone.dim)
    if not cone.is_order_unit(unit):
        raise NotOrderUnit("state normalization needs an interior unit")
    scale = cone.facets @ unit
    states = cone.facets / scale[:, None]
    return StateSpace(states=states, unit=unit.copy())


def embed(space: StateSpace, x) -> np.ndarray:
    """Evaluations of x at every state; nonnegative exactly on the cone."""
    x = as_vector(x, dim=space.dim)
    return space.states @ x


def represent_functional(space: StateSpace, phi: DualVector) -> Measure:
    """Nonnegative weights with ``sum_w weights * state = phi``.

    Existence is guaranteed because the states generate the dual cone, and
    every feasible weighting has total mass ``<phi, u>``.  With as many
    independent states as dimensions the weighting is unique and comes from
    one linear solve; a weight below ``-1e-9`` relative to the size of ``phi`` raises
    :class:`NotRepresentable`, and smaller ones are clamped to 0.  Otherwise
    a feasibility LP over ``weights >= 0`` answers, and the weighting is the
    basic solution that its phase 1 reaches under Bland's rule over the
    states in order: deterministic for a fixed input.  The reproduction
    residual is re-checked at 1e-9.
    """
    if not isinstance(phi, DualVector) or not phi.certified_positive:
        raise NotPositiveFunctional("representation needs a certified functional")
    target = as_vector(phi.coords, dim=space.dim)
    weights = _unique_weights(space, target) if space.size == space.dim else None
    if weights is None:
        res = solve_lp(
            LpProblem(
                objective=np.zeros(space.size),
                eq_constraints=(space.states.T, target),
                nonneg=True,
            )
        )
        if not res.optimal:
            raise NotRepresentable(
                "no nonnegative weighting reproduces the functional; its positivity "
                "certificate is inconsistent"
            )
        weights = res.point
    measure = Measure(weights)
    residual = float(np.max(np.abs(space.states.T @ measure.weights - target)))
    if residual > RESIDUAL_TOL:
        raise NotRepresentable(f"reproduction residual {residual:.3g} exceeds 1e-9")
    return measure


def _unique_weights(space: StateSpace, target: np.ndarray) -> np.ndarray | None:
    """The one weighting on a simplicial state set, or None when its states
    are too close to dependent for the LU pivot guard."""
    try:
        weights = linear_solve(space.states.T, target)
    except SingularMatrix:
        return None
    if np.min(weights) < -RESIDUAL_TOL * max(1.0, float(np.max(np.abs(target)))):
        raise NotRepresentable(
            f"the unique weighting has a negative weight {np.min(weights):.3g}; the "
            "functional's positivity certificate is inconsistent"
        )
    return weights
