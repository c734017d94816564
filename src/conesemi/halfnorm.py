"""Sublinear functions attached to a cone.

Five variants share one interface (``value`` / ``values`` /
``subdifferential`` / ``pairing_extremum`` / ``pairing_extrema``):

* ``CanonicalHalfNorm`` -- the distance from ``-x`` to the cone, i.e. the
  smallest norm of a majorant of ``x``;
* ``RegularizedGauge``  -- the same construction run through the
  regularization of the ambient norm (a strict half-norm);
* ``FunctionalGauge``   -- ``inf { <y, phi> : y >= 0, y >= x }`` for a
  positive functional ``phi``; the workhorse for semigroup certificates;
* ``OrderUnitGauge``    -- smallest ``lam >= 0`` with ``x <= lam * u`` for an
  interior unit ``u``; closed facet formula;
* ``EuclideanNorm``     -- the plain 2-norm with its analytic subdifferential,
  kept for the 2-d operator fixtures.

All but the Euclidean norm are positively homogeneous and zero on ``-K``,
and each is the support function of a polytope ``S``, its subdifferential
at 0: ``p(x) = max_{u in S} <x, u>``, a half-norm in the sense of Arendt,
Chernoff and Kato (J. Operator Theory 8, 1982).  On an orthant the norm of
the positive part is one of them: ``||x^+||`` for weighted l1 is the
functional gauge of the weights, and for weighted linf the order-unit gauge
of their reciprocals.  :class:`HalfNorm` keeps these rules in one place.
``values`` is the one evaluation path: it scales each row by a power of
two to ``||x||_inf`` in ``[1/2, 1)`` (exact both ways), gives
exactly 0 on ``-K`` (membership ``MEMBER_TOL`` at that scale; downstream
positivity logic relies on it), lets the variant evaluate the other rows,
clamps at 0 and scales back; ``value`` is one row of it.  Each variant
states ``S`` once as ``{u : G u >= h}``, auxiliary coordinates after the
first ``dim``.  The subdifferential at ``x`` is the face of ``S`` where
``<x, u>`` attains ``p(x)``; ``subdifferential`` describes it as a
:class:`SubdiffDesc`.  ``pairing_extrema`` is the one pairing path, the
extremum of ``<c, u>`` over that face for paired rows ``x``, ``c``: it takes
each ``x`` to unit scale and lets the variant answer the whole batch;
``pairing_extremum`` is one row of it.

One table-or-LP rule, in :class:`HalfNorm`, serves every polyhedral
variant.  When ``C(m, w)`` for the ``m x w`` matrix ``G`` is at most
``VERTEX_SUBSET_GUARD``, the vertices of ``{u : G u >= h}`` projected onto
the first ``dim`` coordinates form ``_table``: ``p(x)`` is the largest
``<x, v>`` over its rows and a pairing is the extremum of ``<c, v>`` over
the rows that attain it, one matrix product per batch.  The projection is
exact: the support function of a projected set is the support of the
lifted set with the objective padded by zeros, and the face that ``x``
exposes projects onto the subdifferential at ``x``.  Above the guard each
value is one LP, ``max <x, u>`` over ``S`` (weighted l1/linf ambient norms
keep it exact, and since ``S`` contains 0, phase 1 starts at a feasible
point), and each pairing one optimization over ``subdifferential(x)``.  The order-unit gauge
states its table in closed form, and so does the functional gauge on a
simplicial cone, which also takes its values from ``phi = F^T c``; the
Euclidean norm keeps no table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cone import MEMBER_TOL, DualVector, PolyCone
from .errors import (
    DimensionMismatch,
    EmptySubdifferential,
    MalformedProblem,
    NotOrderUnit,
    NumericalFailure,
    Unbounded,
    VariantUnsupported,
)
from .numerics import (
    LpProblem,
    as_matrix,
    as_vector,
    distinct_rows,
    linear_solve,
    solve_lp,
    vertex_table,
)

L1 = "l1"
LINF = "linf"

# Largest count of active sets, C(m, w) for the m x w description G u >= h
# of any variant's S, for which a half-norm builds its vertex table; above
# it every evaluation is an LP.  For a functional gauge that is C(2k, n)
# for k rays in R^n.  Near the guard, on one Xeon core with one BLAS
# thread: functional gauges on pyramids with 25 rays in R^3 to 8 rays in
# R^7 build in 23-35 ms, against 1.6-3.8 ms for one LP value plus one LP
# pairing, so the table pays for itself after 10-18 evaluations (a certify
# gauge gets a median of 131); canonical and regularized gauges with
# C(m, w) from 5,005 to 19,600 (linf 11 rays in R^3 and 7 in R^4, l1 44
# rays in R^3 and 10 in R^5, regularized l1 6 rays and linf 4 rays in R^3)
# build in 28-59 ms, against 4.5-19 ms, after 2-11 evaluations.  A
# functional gauge on a simplicial cone states its 2^n corners in closed
# form instead, up to this many.
VERTEX_SUBSET_GUARD = 20_000
# Pairing ties: <x, v> within this of the maximum, relative to the size of
# the vertices, with x at unit scale.
TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WeightedNorm:
    """Weighted l1 or linf norm; the two LP-representable ambient norms."""

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in (L1, LINF):
            raise MalformedProblem(f"norm kind must be 'l1' or 'linf', got {self.kind!r}")
        w = as_vector(self.weights)
        if np.min(w) <= 0:
            raise MalformedProblem("norm weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        self.weights.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.weights.size

    def value(self, x) -> float:
        return float(self._rows(as_vector(x, dim=self.dim)[None, :])[0])

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """The norm of each row of a validated matrix."""
        if self.kind == L1:
            return np.abs(X) @ self.weights
        return np.max(self.weights * np.abs(X), axis=1)

    def dual_value(self, u) -> float:
        u = as_vector(u, dim=self.dim)
        if self.kind == L1:
            return float(np.max(np.abs(u) / self.weights))
        return float(np.sum(np.abs(u) / self.weights))

    @classmethod
    def sup(cls, n: int) -> "WeightedNorm":
        return cls(LINF, np.ones(n))

    @classmethod
    def one(cls, n: int) -> "WeightedNorm":
        return cls(L1, np.ones(n))


class SubdiffDesc:
    """Optimizable description of a subdifferential set.

    ``polyhedral`` descriptions may use auxiliary variables (absolute-value
    splits for dual balls); the functional coordinates are the first
    ``n_primary`` variables.  An empty description raises
    :class:`EmptySubdifferential` when it is optimized.
    """

    def __init__(
        self,
        kind: str,
        n_primary: int,
        *,
        eq: tuple[np.ndarray, np.ndarray] | None = None,
        ineq: tuple[np.ndarray, np.ndarray] | None = None,
        point: np.ndarray | None = None,
        center: np.ndarray | None = None,
        radius: float = 0.0,
        n_vars: int | None = None,
    ):
        self.kind = kind
        self.n_primary = n_primary
        self.eq = eq
        self.ineq = ineq
        self.point = point
        self.center = center
        self.radius = radius
        self.n_vars = n_vars if n_vars is not None else n_primary

    @classmethod
    def singleton(cls, point: np.ndarray) -> "SubdiffDesc":
        point = as_vector(point)
        return cls("singleton", point.size, point=point)

    @classmethod
    def ball(cls, center: np.ndarray, radius: float) -> "SubdiffDesc":
        center = as_vector(center)
        return cls("ball", center.size, center=center, radius=float(radius))

    def optimize(self, c, sense: str = "min") -> tuple[float, np.ndarray]:
        """Exact extremum of ``<c, u>`` over the set, with an attaining point."""
        c = as_vector(c, dim=self.n_primary)
        _check_sense(sense)
        if self.kind == "singleton":
            return float(c @ self.point), self.point
        if self.kind == "ball":
            cn = float(np.linalg.norm(c))
            base = float(c @ self.center)
            if cn == 0.0:
                return base, self.center
            direction = c / cn
            if sense == "min":
                return base - self.radius * cn, self.center - self.radius * direction
            return base + self.radius * cn, self.center + self.radius * direction
        padded = np.zeros(self.n_vars)
        padded[: self.n_primary] = c
        res = solve_lp(
            LpProblem(
                objective=padded,
                eq_constraints=self.eq,
                ineq_constraints=self.ineq,
                sense=sense,
            )
        )
        if res.status == "unbounded":
            raise Unbounded("subdifferential description is unbounded")
        if not res.optimal:
            raise EmptySubdifferential("subdifferential optimization infeasible")
        return float(res.value), res.point[: self.n_primary]

    def vertices(self) -> list[np.ndarray]:
        """Extreme candidates in functional coordinates (test oracle helper)."""
        if self.kind == "singleton":
            return [self.point]
        if self.kind == "ball":
            raise VariantUnsupported("a ball has no vertex description")
        blocks = [] if self.ineq is None else [self.ineq]
        if self.eq is not None:
            blocks += [self.eq, (-self.eq[0], -self.eq[1])]
        P = vertex_table(tuple(np.concatenate(part) for part in zip(*blocks)))[:, : self.n_primary]
        return list(P[distinct_rows(P, 1e-9)])


class HalfNorm:
    """Common interface, and the rules that every half-norm shares.

    A variant states ``_polar``, the set ``S = {u : G u >= h}`` whose
    support function it is.  ``_table`` holds the vertices of ``S`` in the
    first ``dim`` coordinates, or ``None`` above ``VERTEX_SUBSET_GUARD``.
    ``_unit_values`` (the values at unit-scale rows outside ``-K``) and
    ``_pairings`` (the pairing extrema at unit-scale rows) read the table
    when there is one; otherwise a value is one LP over ``S`` and a pairing
    one optimization over the subdifferential's description.  A variant may
    override ``_unit_values`` with a closed form.
    """

    variant = "abstract"

    def __init__(self, cone: PolyCone):
        self.cone = cone

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @functools.cached_property
    def _table(self) -> np.ndarray | None:
        """The vertices of ``S``, read-only and shared through the cone's
        memo by every half-norm with the same ``G`` and ``h``; ``None`` when
        ``C(m, w)`` exceeds ``VERTEX_SUBSET_GUARD``."""
        G, h = self._polar
        if math.comb(*G.shape) > VERTEX_SUBSET_GUARD:
            return None
        key = repr(G.shape).encode() + G.tobytes() + h.tobytes()
        return self.cone.memo(key, functools.partial(_projected_vertices, G, h, self.dim))

    def value(self, x) -> float:
        """One row of :meth:`values`."""
        return float(self._values(as_vector(x, dim=self.dim)[None, :])[0])

    def values(self, X) -> np.ndarray:
        """Values at the rows of ``X`` in one batch."""
        return self._values(_as_rows(X, self.dim))

    def _values(self, X: np.ndarray) -> np.ndarray:
        U, exponent = _unit_rows(X)
        outside = np.max(U @ self.cone.facets.T, axis=1) > MEMBER_TOL
        if outside.all():
            unit_values = self._unit_values(U)
        else:
            unit_values = np.zeros(X.shape[0])
            if outside.any():
                unit_values[outside] = self._unit_values(U[outside])
        return np.ldexp(np.maximum(unit_values, 0.0), exponent)

    def _unit_values(self, U: np.ndarray) -> np.ndarray:
        if self._table is not None:
            return np.max(U @ self._table.T, axis=1)
        return np.array([_support(self._polar, u, self.variant) for u in U])

    def subdifferential(self, x) -> SubdiffDesc:
        """The face of ``S`` on which ``<x, u> = p(x)``."""
        x = as_vector(x, dim=self.dim)
        G, h = self._polar
        at_x = np.zeros((1, G.shape[1]))
        at_x[0, : self.dim] = x
        return SubdiffDesc(
            "polyhedral",
            self.dim,
            eq=(at_x, np.array([self.value(x)])),
            ineq=(G, h),
            n_vars=G.shape[1],
        )

    def pairing_extremum(self, x, c, sense: str = "min") -> tuple[float, np.ndarray]:
        """One row of :meth:`pairing_extrema`."""
        x = as_vector(x, dim=self.dim)
        c = as_vector(c, dim=self.dim)
        extrema, functionals = self._pairing_extrema(x[None, :], c[None, :], sense)
        return float(extrema[0]), functionals[0]

    def pairing_extrema(self, X, C, sense: str = "min") -> tuple[np.ndarray, np.ndarray]:
        """Extremum of ``<c, u>`` over the subdifferential at ``x``, for each
        pair of rows ``x`` of ``X`` and ``c`` of ``C``: the vector of extrema
        and the matrix of attaining functionals, one row each.

        The subdifferential is the same at every positive multiple of ``x``,
        so each ``x`` goes to unit scale first.
        """
        X = _as_rows(X, self.dim)
        C = _as_rows(C, self.dim)
        if C.shape[0] != X.shape[0]:
            raise DimensionMismatch(f"{X.shape[0]} points but {C.shape[0]} directions")
        return self._pairing_extrema(X, C, sense)

    def _pairing_extrema(self, X: np.ndarray, C: np.ndarray, sense: str):
        _check_sense(sense)
        return self._pairings(_unit_rows(X)[0], C, sense)

    def _pairings(self, U: np.ndarray, C: np.ndarray, sense: str):
        if self._table is not None:
            return _face_extrema(self._table, U, C, sense)
        rows = [self.subdifferential(u).optimize(c, sense) for u, c in zip(U, C)]
        return np.array([m for m, _ in rows]), np.vstack([u for _, u in rows])

    def __call__(self, x) -> float:
        return self.value(x)


def _as_rows(X, dim: int) -> np.ndarray:
    X = as_matrix(X)
    if X.shape[1] != dim:
        raise DimensionMismatch(f"expected rows of dimension {dim}, got {X.shape[1]}")
    return X


def _unit_rows(X: np.ndarray):
    """Rows times the powers of two that bring ``||x||_inf`` into
    ``[1/2, 1)``, and the exponents that undo it; zero rows stay 0.  One
    row takes the scalar ``frexp``, which is the cheap path."""
    if X.shape[0] == 1:
        exponent = math.frexp(float(np.max(np.abs(X))))[1]
        return np.ldexp(X, -exponent), exponent
    exponent = np.frexp(np.max(np.abs(X), axis=1))[1]
    return np.ldexp(X, -exponent[:, None]), exponent


def _check_sense(sense: str) -> None:
    if sense not in ("min", "max"):
        raise MalformedProblem(f"sense must be 'min' or 'max', got {sense!r}")


def _face_extrema(V: np.ndarray, U: np.ndarray, C: np.ndarray, sense: str):
    """Extremum of ``<c, v>`` over the rows ``v`` of ``V`` that attain
    ``max <x, v>``, for each pair of rows ``x`` of ``U`` and ``c`` of ``C``:
    over the face of ``conv(V)`` exposed by ``x``, which is the
    subdifferential at ``x`` of the support function of ``V``.  A tie keeps
    the first vertex in table order."""
    scores = U @ V.T
    face = scores >= np.max(scores, axis=1, keepdims=True) - TIE_TOL * np.max(np.abs(V))
    pairing = C @ V.T
    if sense == "min":
        k = np.argmin(np.where(face, pairing, np.inf), axis=1)
    else:
        k = np.argmax(np.where(face, pairing, -np.inf), axis=1)
    return pairing[np.arange(k.size), k], V[k]


def _projected_vertices(G: np.ndarray, h: np.ndarray, dim: int) -> np.ndarray:
    """The vertices of ``{w : G w >= h}`` in their first ``dim`` coordinates,
    read-only."""
    table = np.ascontiguousarray(vertex_table((G, h))[:, :dim])
    table.flags.writeable = False
    return table


def _support(polar: tuple[np.ndarray, np.ndarray], c: np.ndarray, context: str) -> float:
    """``max <c, w>`` over ``{w : G w >= h}``, ``c`` padded with zeros."""
    G, h = polar
    objective = np.zeros(G.shape[1])
    objective[: c.size] = c
    res = solve_lp(LpProblem(objective=objective, ineq_constraints=(G, h), sense="max"))
    if not res.optimal:
        raise NumericalFailure(f"{context}: support LP reported {res.status}")
    return float(res.value)


def _dual_ball(cone: PolyCone, norm: WeightedNorm, blocks: int = 1):
    """``{(u_1, .., u_b, v) : u_j in K', dual-norm(u_1 + .. + u_b) <= 1}``
    as ``G w >= h``.

    The dual of weighted l1 is a box (pure rows); the dual of weighted linf
    is a weighted l1 ball, which needs the split ``v >= |u_1 + .. + u_b|``.
    """
    n, w = cone.dim, norm.weights
    split = norm.kind == LINF
    width = (blocks + split) * n
    in_dual_cone = np.zeros((blocks * cone.generators.shape[0], width))
    in_dual_cone[:, : blocks * n] = np.kron(np.eye(blocks), cone.generators)
    total = np.zeros((n, width))
    total[:, : blocks * n] = np.tile(np.eye(n), blocks)
    zeros = np.zeros(in_dual_cone.shape[0])
    if not split:
        return np.vstack([in_dual_cone, -total, total]), np.concatenate([zeros, -w, -w])
    v = np.zeros((n, width))
    v[:, blocks * n :] = np.eye(n)
    mass = np.zeros((1, width))
    mass[0, blocks * n :] = -1.0 / w
    return (
        np.vstack([in_dual_cone, v - total, v + total, mass]),
        np.concatenate([zeros, np.zeros(2 * n), [-1.0]]),
    )


class FunctionalGauge(HalfNorm):
    """Half-norm ``inf { <y, phi> : y in K, y - x in K }`` for positive phi.

    On the cone it equals ``<x, phi>``; on ``-K`` it vanishes.  By LP
    duality it is the support function of
    ``S = { u in K' : phi - u in K' } = { u : 0 <= G u <= G phi }`` (G the
    generators), so the ``HalfNorm`` rule decides from ``C(2k, n)`` (k rays
    in R^n) between a vertex table and LPs.  On a simplicial cone
    ``phi = F^T c`` and ``S = { F^T b : 0 <= b <= c }``: the value is
    ``<c, (F x)^+>`` at any dimension, and the table is the ``2^n`` corners
    ``F^T b``, ``b_i in {0, c_i}``, in closed form.  On ``K`` (at unit
    scale) the value is ``<x, phi>`` itself.
    """

    variant = "functional"

    def __init__(self, cone: PolyCone, functional):
        super().__init__(cone)
        if isinstance(functional, DualVector):
            if not functional.certified_positive:
                functional = cone.certify_functional(functional.coords)
            elif functional.dim != cone.dim:
                raise DimensionMismatch("functional dimension differs from cone")
        else:
            functional = cone.certify_functional(functional)
        self.functional = functional

    @property
    def phi(self) -> np.ndarray:
        return self.functional.coords

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        G = self.cone.generators
        return np.vstack([G, -G]), np.concatenate([np.zeros(G.shape[0]), -(G @ self.phi)])

    @functools.cached_property
    def _simplicial(self) -> np.ndarray | None:
        """``c >= 0`` with ``phi = F^T c`` on a simplicial cone, else
        ``None``; kept in the cone's memo under ``phi``."""
        G, F = self.cone.generators, self.cone.facets
        if G.shape[0] != self.dim or F.shape[0] != self.dim:
            return None
        return self.cone.memo(self.phi.tobytes(), self._solve_simplicial)

    def _solve_simplicial(self) -> np.ndarray:
        c = np.maximum(linear_solve(self.cone.facets.T, self.phi), 0.0)
        c.flags.writeable = False  # shared by every gauge on this (cone, phi)
        return c

    @functools.cached_property
    def _table(self) -> np.ndarray | None:
        """The corners of ``S`` on a simplicial cone with at most
        ``VERTEX_SUBSET_GUARD`` of them; elsewhere the ``HalfNorm`` rule."""
        c, n = self._simplicial, self.dim
        if c is None or 2**n > VERTEX_SUBSET_GUARD:
            return HalfNorm._table.func(self)
        table = (c * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)) @ self.cone.facets
        table.flags.writeable = False
        return table

    def _unit_values(self, U: np.ndarray) -> np.ndarray:
        FU = U @ self.cone.facets.T
        out = U @ self.phi  # exact on K; the other paths would add round-off
        rest = np.min(FU, axis=1) < -MEMBER_TOL
        if rest.any():
            if self._simplicial is not None:
                out[rest] = np.maximum(FU[rest], 0.0) @ self._simplicial
            else:
                out[rest] = super()._unit_values(U[rest])
        return out


class CanonicalHalfNorm(HalfNorm):
    """Smallest ambient norm of a majorant: ``inf { ||y|| : y - x in K }``.

    By LP duality the support function of ``S = { u in K' : dual-norm(u)
    <= 1 }``, the positive functionals in the dual unit ball.
    """

    variant = "canonical"

    def __init__(self, cone: PolyCone, norm: WeightedNorm):
        super().__init__(cone)
        if norm.dim != cone.dim:
            raise DimensionMismatch("norm weights dimension differs from cone")
        self.norm = norm

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        return _dual_ball(self.cone, self.norm)


class OrderUnitGauge(HalfNorm):
    """Gauge of an interior unit: smallest ``lam >= 0`` with ``x <= lam u``.

    Closed facet formula ``max(0, max_f <x,f>/<u,f>)``: the support function
    of the vertex set ``{0} u { f/<f,u> }``, whose hull is
    ``S = { u' in K' : <u', u> <= 1 }``.  That set is the table, at any
    dimension, so values and pairing extrema solve no LP.
    """

    variant = "order_unit"

    def __init__(self, cone: PolyCone, unit):
        super().__init__(cone)
        unit = as_vector(unit, dim=cone.dim)
        if not cone.is_order_unit(unit):
            raise NotOrderUnit("the gauge needs an interior point of the cone")
        self.unit = unit

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        G = self.cone.generators
        return np.vstack([G, -self.unit[None, :]]), np.concatenate([np.zeros(G.shape[0]), [-1.0]])

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """The closed-form vertex set ``{0} u { f/<f,u> }``, any size."""
        F = self.cone.facets
        table = np.vstack([np.zeros(self.dim), F / (F @ self.unit)[:, None]])
        table.flags.writeable = False
        return table


class RegularizedGauge(HalfNorm):
    """Majorant gauge of the regularized norm.

    ``inf { ||z|| : -z <= y <= z, y >= 0, y >= x }`` with all inequalities
    in the cone order; a strict half-norm.  Taking ``y = z`` shows it is
    ``inf { ||z|| : z >= 0, z >= x }``, and by LP duality the support
    function of ``S = { u in K' : u + v in the dual unit ball for some
    v in K' }``, the projection of a set with auxiliary coordinates ``v``.
    Its faces are the projections of the lifted faces, so the table and the
    subdifferential's description both work on the lifted set.
    """

    variant = "regular_gauge"

    def __init__(self, cone: PolyCone, norm: WeightedNorm):
        super().__init__(cone)
        if norm.dim != cone.dim:
            raise DimensionMismatch("norm weights dimension differs from cone")
        self.norm = norm

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        return _dual_ball(self.cone, self.norm, blocks=2)


class EuclideanNorm(HalfNorm):
    """Plain 2-norm; subdifferential is the normalized point, or the unit
    ball at the origin.  Not zero on ``-K``, so it keeps its own values."""

    variant = "euclidean"
    # the Euclidean ball has no vertices
    _table = None

    def value(self, x) -> float:
        x = as_vector(x, dim=self.dim)
        return float(np.linalg.norm(x))

    def _values(self, X: np.ndarray) -> np.ndarray:
        return np.linalg.norm(X, axis=1)

    def subdifferential(self, x) -> SubdiffDesc:
        x = as_vector(x, dim=self.dim)
        nrm = float(np.linalg.norm(x))
        if nrm <= 1e-12:
            return SubdiffDesc.ball(np.zeros(self.dim), 1.0)
        return SubdiffDesc.singleton(x / nrm)


def regularized_norm(cone: PolyCone, norm: WeightedNorm, x) -> float:
    """Regularization of the ambient norm: ``inf { ||z|| : -z <= x <= z }``.

    By LP duality ``max <x, u - v>`` over ``u, v in K'`` with ``u + v`` in
    the dual unit ball.
    """
    x = as_vector(x, dim=cone.dim)
    return max(0.0, _support(_dual_ball(cone, norm, blocks=2), np.concatenate([x, -x]),
                             "regularized norm"))
