"""Finite state-space representation of positive functionals.

For a cone with order unit ``u`` the states are the extreme rays of the
dual cone (the facet normals), rescaled so each evaluates to 1 on ``u``.
Mapping a vector to its state evaluations is a bipositive embedding into
functions on that finite set, and every positive functional is a
nonnegative weighting of states.  Every state is 1 on ``u``, so every such
weighting of ``phi`` has total mass ``<phi, u>``.  The cone's generators are
the facet normals of the dual cone, so they locate every functional on the
faces of K', and a Caratheodory walk down those faces finds a weighting
with at most ``dim`` states, exactly and without an LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone import DualVector, PolyCone, _incidence
from .errors import NotOrderUnit, NotPositiveFunctional, NotRepresentable
from .numerics import as_vector

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Normalized extreme dual rays of a cone, with the unit they evaluate 1 on
    and the cone's generators, which are the facet normals of the dual cone."""

    states: np.ndarray  # one state per row
    unit: np.ndarray
    generators: np.ndarray  # one facet normal of K' per row
    incidence: np.ndarray = field(init=False, repr=False)  # generator x state, by cone._incidence

    def __post_init__(self):
        object.__setattr__(self, "incidence", _incidence(self.states, self.generators).T)
        for table in (self.states, self.unit, self.generators, self.incidence):
            table.flags.writeable = False

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
    return StateSpace(states=states, unit=unit.copy(), generators=cone.generators)


def embed(space: StateSpace, x) -> np.ndarray:
    """Evaluations of x at every state; nonnegative exactly on the cone."""
    x = as_vector(x, dim=space.dim)
    return space.states @ x


def represent_functional(space: StateSpace, phi: DualVector) -> Measure:
    """Nonnegative weights with ``sum_w weights * state = phi``, at most
    ``dim`` of them nonzero, by a Caratheodory walk down the faces of K'.

    ``phi`` must be nonnegative on the generators up to ``1e-10 ||phi||_inf``,
    else :class:`NotRepresentable`.  Each step takes the first state, in
    state order, of the smallest face of K' that holds the remainder ``r``
    (the face cut out by the generator rows with ``G r <= 1e-12 ||phi||_inf``),
    and subtracts the largest multiple of it that keeps ``r`` in K'.  That
    makes a row active that the state is not incident to (``incidence``), so
    the face shrinks and the walk ends within ``dim`` steps.  Every tolerance
    is relative to ``||phi||_inf``, so scaling ``phi`` by a power of two
    scales the weights exactly.  A reproduction residual above
    ``1e-9 ||phi||_inf`` raises :class:`NotRepresentable`.
    """
    if not isinstance(phi, DualVector) or not phi.certified_positive:
        raise NotPositiveFunctional("representation needs a certified functional")
    target = as_vector(phi.coords, dim=space.dim)
    scale = float(np.max(np.abs(target)))
    G = space.generators
    if np.min(G @ target) < -1e-10 * scale:
        raise NotRepresentable(
            "the functional is negative on a generator; its positivity certificate "
            "is inconsistent"
        )
    GS = G @ space.states.T  # column j: state j on every facet row of K'
    weights = np.zeros(space.size)
    rest = target
    for _ in range(space.dim):
        values = G @ rest
        face = np.flatnonzero(space.incidence[values <= 1e-12 * scale].all(axis=0))
        if not face.size:
            break
        j = face[0]
        rows = ~space.incidence[:, j]
        step = np.min(values[rows] / GS[rows, j])
        weights[j] += step
        rest = rest - step * space.states[j]
    measure = Measure(weights)
    residual = float(np.max(np.abs(space.states.T @ measure.weights - target)))
    if residual > RESIDUAL_TOL * scale:
        raise NotRepresentable(
            f"reproduction residual {residual:.3g} exceeds 1e-9 relative to the functional"
        )
    return measure
