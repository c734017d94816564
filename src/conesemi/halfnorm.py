"""Sublinear functions attached to a cone.

Six variants share one interface (``value`` / ``values`` /
``subdifferential`` / ``pairing_extremum`` / ``pairing_extrema``):

* ``CanonicalHalfNorm`` -- the distance from ``-x`` to the cone, i.e. the
  smallest norm of a majorant of ``x``;
* ``RegularizedGauge``  -- the same construction run through the
  regularization of the ambient norm (a strict half-norm);
* ``FunctionalGauge``   -- ``inf { <y, phi> : y >= 0, y >= x }`` for a
  positive functional ``phi``; the workhorse for semigroup certificates;
* ``OrderUnitGauge``    -- smallest ``lam >= 0`` with ``x <= lam * u`` for an
  interior unit ``u``; closed facet formula;
* ``PositivePartNorm``  -- norm of the positive part, defined on simplicial
  cones only;
* ``EuclideanNorm``     -- the plain 2-norm with its analytic subdifferential,
  kept for the 2-d operator fixtures.

All but the Euclidean norm are positively homogeneous and zero on ``-K``,
and each is the support function of a polytope ``S``, its subdifferential
at 0: ``p(x) = max_{u in S} <x, u>``, a half-norm in the sense of Arendt,
Chernoff and Kato (J. Operator Theory 8, 1982).  The positive-part norm is
one only where its ambient norm is monotone for the order.  :class:`HalfNorm` keeps these rules in
one place.  ``values`` is the one evaluation path: it scales each row by a
power of two to ``||x||_inf`` in ``[1/2, 1)`` (exact both ways), gives
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

The functional and order-unit gauges are closed forms (see each class),
values and pairings alike, one matrix product per batch; the positive-part
norm is one LU solve per batch of values.  The canonical and regularized
gauges, and a functional gauge on a cone above ``VERTEX_SUBSET_GUARD``,
solve one LP per value: ``max <x, u>`` over ``S``.  Weighted l1/linf ambient
norms keep that LP exact, and since ``S`` contains 0, phase 1 starts at a
feasible point.  Their pairings (and the positive-part and Euclidean
norms') optimize over ``subdifferential(x)`` row by row.
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
    VariantPreconditionFailed,
    VariantUnsupported,
)
from .numerics import (
    LpProblem,
    as_matrix,
    as_vector,
    enumerate_vertices,
    factorized_solver,
    linear_solve,
    solve_lp,
    vertex_table,
)

L1 = "l1"
LINF = "linf"

# Largest count of active sets, C(2k, n) for k rays in R^n, for which a
# functional gauge on a non-simplicial cone builds its vertex table; above
# it every evaluation is an LP.  Near the guard (pyramids with 25 rays in
# R^3 to 8 rays in R^7) the build takes 23-35 ms on one Xeon core and one
# LP value plus one LP pairing 1.6-3.8 ms, so the table pays for itself
# after 10-18 evaluations; a certify gauge gets a median of 131.
VERTEX_SUBSET_GUARD = 20_000
# Pairing ties: <x, v> within this of the maximum, relative to the size of
# the vertices (or facets), with x at unit scale.
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
    ``n_primary`` variables.  Nonemptiness is checked by one feasibility LP
    at construction.
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
        if kind == "polyhedral":
            res = solve_lp(
                LpProblem(
                    objective=np.zeros(self.n_vars),
                    eq_constraints=eq,
                    ineq_constraints=ineq,
                )
            )
            if not res.optimal:
                raise EmptySubdifferential(
                    "constructed subdifferential description is infeasible"
                )

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
        if not res.optimal:  # pragma: no cover - nonemptiness checked upfront
            raise EmptySubdifferential("subdifferential optimization infeasible")
        return float(res.value), res.point[: self.n_primary]

    def vertices(self) -> list[np.ndarray]:
        """Extreme candidates in functional coordinates (test oracle helper)."""
        if self.kind == "singleton":
            return [self.point]
        if self.kind == "ball":
            raise VariantUnsupported("a ball has no vertex description")
        rows = []
        rhs = []
        if self.ineq is not None:
            rows.append(self.ineq[0])
            rhs.append(self.ineq[1])
        if self.eq is not None:
            A, b = self.eq
            rows.extend([A, -A])
            rhs.extend([b, -b])
        verts = enumerate_vertices((np.vstack(rows), np.concatenate(rhs)))
        out: list[np.ndarray] = []
        for v in verts:
            p = v[: self.n_primary]
            if not any(np.max(np.abs(p - q)) <= 1e-9 for q in out):
                out.append(p)
        return out


class HalfNorm:
    """Common interface, and the rules that every half-norm shares.

    A variant states ``_polar``, the set ``S = {u : G u >= h}`` whose
    support function it is, and may override ``_unit_values`` (its values
    at unit-scale rows outside ``-K``; by default one LP over ``S`` per row)
    and ``_pairings`` (the pairing extrema at unit-scale rows; by default
    one optimization over the subdifferential's description per row).
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
    generators).  The path is chosen from the cone, once per gauge and on
    first use:

    * simplicial cones, any dimension: ``phi = F^T c`` and
      ``p(x) = <c, (F x)^+>``, the pairing extremum taken coordinate by
      coordinate;
    * other cones with ``C(2k, n)`` at most ``VERTEX_SUBSET_GUARD`` (k rays in
      R^n): a vertex table of ``S`` from batched active-set solves;
    * larger cones: one simplex LP per value, and pairings over
      :meth:`subdifferential` row by row.

    The choice and its table live in a one-slot memo on the cone, keyed by
    ``phi``, so a later gauge on the same cone and functional reuses them.
    On ``K`` (at unit scale) the value is ``<x, phi>`` itself.
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
    def _closed_form(self) -> tuple[str, np.ndarray | None]:
        """``("simplicial", c)`` with ``phi = F^T c``, ``("vertices", V)``
        with the vertex table of ``S``, or ``("lp", None)``."""
        return self.cone.memo(self.phi.tobytes(), self._build_closed_form)

    def _build_closed_form(self) -> tuple[str, np.ndarray | None]:
        G, F = self.cone.generators, self.cone.facets
        k, n = G.shape
        if k == n and F.shape[0] == n:
            kind, table = "simplicial", np.maximum(linear_solve(F.T, self.phi), 0.0)
        elif math.comb(2 * k, n) <= VERTEX_SUBSET_GUARD:
            kind, table = "vertices", vertex_table(self._polar)
        else:
            return "lp", None
        table.flags.writeable = False  # shared by every gauge on this (cone, phi)
        return kind, table

    def _unit_values(self, U: np.ndarray) -> np.ndarray:
        FU = U @ self.cone.facets.T
        out = U @ self.phi  # exact on K; the closed forms would add round-off
        rest = np.min(FU, axis=1) < -MEMBER_TOL
        if rest.any():
            kind, table = self._closed_form
            if kind == "simplicial":
                out[rest] = np.maximum(FU[rest], 0.0) @ table
            elif kind == "vertices":
                out[rest] = np.max(U[rest] @ table.T, axis=1)
            else:
                out[rest] = super()._unit_values(U[rest])
        return out

    def _pairings(self, U: np.ndarray, C: np.ndarray, sense: str):
        """Same extrema as optimizing over :meth:`subdifferential`; the
        equivalence is property-tested on every path."""
        kind, table = self._closed_form
        if kind == "vertices":
            return _face_extrema(table, U, C, sense)
        if kind == "lp":
            return super()._pairings(U, C, sense)
        # S = { F^T b : 0 <= b <= c }: b_i = c_i where <f_i, x> > 0, 0 where
        # it is negative, and whichever end is extreme for <f_i, c> on a tie
        F = self.cone.facets
        FU, FC = U @ F.T, C @ F.T
        tie = np.abs(FU) <= TIE_TOL * np.max(np.abs(F), axis=1)
        top = FC < 0 if sense == "min" else FC > 0
        B = np.where(np.where(tie, top, FU > 0), table, 0.0)
        return np.einsum("ij,ij->i", FC, B), B @ F


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


class PositivePartNorm(HalfNorm):
    """Norm of the positive part; simplicial cones only.

    Evaluated as ``||G^T a^+||`` with ``G^T a = x`` (G the generators), from
    one cached LU factorization for a whole batch.  Subdifferentials use the
    canonical half-norm's ``S``, which is this norm's own where the ambient
    norm is monotone for the order (on orthants, say); elsewhere ``||x^+||``
    need not be subadditive.
    """

    variant = "positive_part"

    def __init__(self, cone: PolyCone, norm: WeightedNorm):
        super().__init__(cone)
        if not cone.is_lattice():
            raise VariantPreconditionFailed(
                "positive-part norm needs a simplicial cone"
            )
        if norm.dim != cone.dim:
            raise DimensionMismatch("norm weights dimension differs from cone")
        self.norm = norm

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        return _dual_ball(self.cone, self.norm)

    @functools.cached_property
    def _ray_coordinates(self):
        return factorized_solver(self.cone.generators.T)

    def _unit_values(self, U: np.ndarray) -> np.ndarray:
        coords = self._ray_coordinates(U.T)
        return self.norm._rows(np.maximum(coords, 0.0).T @ self.cone.generators)


class OrderUnitGauge(HalfNorm):
    """Gauge of an interior unit: smallest ``lam >= 0`` with ``x <= lam u``.

    Closed facet formula ``max(0, max_f <x,f>/<u,f>)``: the support function
    of the vertex set ``{0} u { f/<f,u> }``, whose hull is
    ``S = { u' in K' : <u', u> <= 1 }``.  Values, batches and pairing
    extrema all come from that table; no LP is solved.
    """

    variant = "order_unit"

    def __init__(self, cone: PolyCone, unit):
        super().__init__(cone)
        unit = as_vector(unit, dim=cone.dim)
        if not cone.is_order_unit(unit):
            raise NotOrderUnit("the gauge needs an interior point of the cone")
        self.unit = unit
        F = cone.facets
        self._vertices = np.vstack([np.zeros(cone.dim), F / (F @ unit)[:, None]])

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        G = self.cone.generators
        return np.vstack([G, -self.unit[None, :]]), np.concatenate([np.zeros(G.shape[0]), [-1.0]])

    def _unit_values(self, U: np.ndarray) -> np.ndarray:
        return np.max(U @ self._vertices.T, axis=1)

    def _pairings(self, U: np.ndarray, C: np.ndarray, sense: str):
        return _face_extrema(self._vertices, U, C, sense)


class RegularizedGauge(HalfNorm):
    """Majorant gauge of the regularized norm.

    ``inf { ||z|| : -z <= y <= z, y >= 0, y >= x }`` with all inequalities
    in the cone order; a strict half-norm.  Taking ``y = z`` shows it is
    ``inf { ||z|| : z >= 0, z >= x }``, and by LP duality the support
    function of ``S = { u in K' : u + v in the dual unit ball for some
    v in K' }``.  Subdifferentials, faces of that projection, are not
    offered.
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

    def subdifferential(self, x) -> SubdiffDesc:
        raise VariantUnsupported(
            "no subdifferential description is offered for the regularized gauge"
        )


class EuclideanNorm(HalfNorm):
    """Plain 2-norm; subdifferential is the normalized point, or the unit
    ball at the origin.  Not zero on ``-K``, so it keeps its own values."""

    variant = "euclidean"

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
