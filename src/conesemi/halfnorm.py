"""Sublinear functions attached to a cone.

Six variants share one interface (``value`` / ``values`` /
``subdifferential`` / ``pairing_extremum``):

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

The functional and order-unit gauges are support functions of a polytope
``S``, the subdifferential at 0: ``p(x) = max_{v in S} <x, v>``.  They are
evaluated in closed form (see each class) at ``x / ||x||_inf`` and batched
over the rows of a matrix by ``values``; only a functional gauge on a cone
above ``VERTEX_SUBSET_GUARD`` solves LPs.  The canonical and regularized
gauges are linear programs; weighted l1/linf ambient norms keep every such
evaluation an exact LP.  Subdifferentials are returned as constraint
descriptions (:class:`SubdiffDesc`) supporting linear optimization, built
from the dual characterizations stated with each variant; they are the
oracle for the faster ``pairing_extremum``.  Values are clamped so that
elements of ``-K`` evaluate to exactly 0; downstream positivity logic relies
on that.
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
    NotGenerating,
    NotOrderUnit,
    Unbounded,
    VariantPreconditionFailed,
    VariantUnsupported,
)
from .numerics import (
    LpProblem,
    as_matrix,
    as_vector,
    enumerate_vertices,
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
# the vertices (or facets), with x scaled to ||x||_inf = 1.
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
        x = as_vector(x, dim=self.dim)
        if self.kind == L1:
            return float(self.weights @ np.abs(x))
        return float(np.max(self.weights * np.abs(x)))

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
    """Common interface: a cone, a value, and a subdifferential description."""

    variant = "abstract"

    def __init__(self, cone: PolyCone):
        self.cone = cone

    @property
    def dim(self) -> int:
        return self.cone.dim

    def value(self, x) -> float:
        raise NotImplementedError

    def values(self, X) -> np.ndarray:
        """Values at the rows of ``X``; closed-form variants batch this."""
        return np.array([self.value(x) for x in _as_rows(X, self.dim)])

    def subdifferential(self, x) -> SubdiffDesc:
        raise NotImplementedError

    def pairing_extremum(self, x, c, sense: str = "min") -> tuple[float, np.ndarray]:
        """Extremum of ``<c, u>`` over the subdifferential at ``x``.

        Subclasses may override with an equivalent faster formulation; the
        default routes through the explicit description.
        """
        return self.subdifferential(x).optimize(c, sense)

    def __call__(self, x) -> float:
        return self.value(x)


def _as_rows(X, dim: int) -> np.ndarray:
    X = as_matrix(X)
    if X.shape[1] != dim:
        raise DimensionMismatch(f"expected rows of dimension {dim}, got {X.shape[1]}")
    return X


def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to ``||x||_inf = 1``, and the scales; zero rows stay 0."""
    scale = np.max(np.abs(X), axis=1)
    return X / np.where(scale > 0, scale, 1.0)[:, None], scale


def _unit(x: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(x)))
    return x / peak if peak > 0 else x


def _check_sense(sense: str) -> None:
    if sense not in ("min", "max"):
        raise MalformedProblem(f"sense must be 'min' or 'max', got {sense!r}")


def _face_extremum(V: np.ndarray, x: np.ndarray, c: np.ndarray, sense: str):
    """Extremum of ``<c, v>`` over the rows ``v`` of ``V`` that attain
    ``max <x, v>``: over the face of ``conv(V)`` exposed by ``x``, which is
    the subdifferential at ``x`` of the support function of ``V``."""
    scores = V @ x
    face = V[scores >= np.max(scores) - TIE_TOL * np.max(np.abs(V))]
    pairing = face @ c
    k = int(np.argmin(pairing) if sense == "min" else np.argmax(pairing))
    return float(pairing[k]), face[k].copy()


def _solve_bounded(problem: LpProblem, context: str) -> tuple[float, np.ndarray]:
    res = solve_lp(problem)
    if res.status == "infeasible":
        raise NotGenerating(f"{context}: majorant problem infeasible")
    if res.status == "unbounded":
        raise Unbounded(f"{context}: unexpectedly unbounded")
    return float(res.value), res.point


class FunctionalGauge(HalfNorm):
    """Half-norm ``inf { <y, phi> : y in K, y - x in K }`` for positive phi.

    On the cone it equals ``<x, phi>``; on ``-K`` it vanishes.  By LP
    duality it is the support function of
    ``S = { u in K' : phi - u in K' } = { u : 0 <= G u <= G phi }`` (G the
    generators), ``p(x) = max_{v in S} <x, v>``, and the subdifferential at
    ``x`` is the face of ``S`` where that maximum is attained.  The path is
    chosen from the cone, once per gauge and on first use:

    * simplicial cones, any dimension: ``phi = F^T c`` and
      ``p(x) = <c, (F x)^+>``, the pairing extremum taken coordinate by
      coordinate;
    * other cones with ``C(2k, n)`` at most ``VERTEX_SUBSET_GUARD`` (k rays in
      R^n): a vertex table of ``S`` from batched active-set solves;
    * larger cones: one simplex LP per value and per pairing, the same LPs
      that serve as the test oracle (``_lp_value`` / ``_lp_pairing``).

    Every path evaluates at ``x / ||x||_inf`` and scales back, so the
    membership short-cuts for ``K`` and ``-K`` are relative tolerances.
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
    def _closed_form(self) -> tuple[str, np.ndarray | None]:
        """``("simplicial", c)`` with ``phi = F^T c``, ``("vertices", V)``
        with the vertex table of ``S``, or ``("lp", None)``."""
        G, F = self.cone.generators, self.cone.facets
        k, n = G.shape
        if k == n and F.shape[0] == n:
            return "simplicial", np.maximum(linear_solve(F.T, self.phi), 0.0)
        if math.comb(2 * k, n) <= VERTEX_SUBSET_GUARD:
            upper = np.concatenate([np.zeros(k), -(G @ self.phi)])
            return "vertices", vertex_table((np.vstack([G, -G]), upper))
        return "lp", None

    def value(self, x) -> float:
        return float(self._values(as_vector(x, dim=self.dim)[None, :])[0])

    def values(self, X) -> np.ndarray:
        return self._values(_as_rows(X, self.dim))

    def _values(self, X: np.ndarray) -> np.ndarray:
        U, scale = _unit_rows(X)
        FU = U @ self.cone.facets.T
        in_minus_k = np.max(FU, axis=1) <= MEMBER_TOL
        # on K the value is <x, phi> exactly, not the closed form's round-off
        in_k = ~in_minus_k & (np.min(FU, axis=1) >= -MEMBER_TOL)
        rest = ~(in_minus_k | in_k)
        out = np.zeros(X.shape[0])
        out[in_k] = np.maximum(X[in_k] @ self.phi, 0.0)
        if rest.any():
            kind, table = self._closed_form
            if kind == "simplicial":
                unit_values = np.maximum(FU[rest], 0.0) @ table
            elif kind == "vertices":
                unit_values = np.max(U[rest] @ table.T, axis=1)
            else:
                unit_values = [self._lp_value(u) for u in U[rest]]
            out[rest] = scale[rest] * unit_values
        return out

    def _lp_value(self, x) -> float:
        """The LP evaluation: the fallback above the guard and the oracle."""
        x = as_vector(x, dim=self.dim)
        if self.cone.contains(-x):
            return 0.0
        if self.cone.contains(x):
            return max(0.0, float(self.phi @ x))
        # majorants written in ray coordinates y = R^T a, a >= 0, which makes
        # every LP variable sign-constrained and keeps phase 1 minimal
        R = self.cone.generators
        F = self.cone.facets
        val, _ = _solve_bounded(
            LpProblem(
                objective=R @ self.phi,
                ineq_constraints=(F @ R.T, F @ x),
                nonneg=True,
            ),
            "functional gauge",
        )
        return max(0.0, val)

    def subdifferential(self, x) -> SubdiffDesc:
        x = as_vector(x, dim=self.dim)
        val = self.value(x)
        G = self.cone.generators
        ineq_G = np.vstack([G, -G])
        ineq_h = np.concatenate([np.zeros(G.shape[0]), -(G @ self.phi)])
        return SubdiffDesc(
            "polyhedral",
            self.dim,
            eq=(x.reshape(1, -1), np.array([val])),
            ineq=(ineq_G, ineq_h),
        )

    def pairing_extremum(self, x, c, sense: str = "min") -> tuple[float, np.ndarray]:
        """Same extremum as optimizing over :meth:`subdifferential`; the
        equivalence is property-tested on every path."""
        x = _unit(as_vector(x, dim=self.dim))
        c = as_vector(c, dim=self.dim)
        _check_sense(sense)
        kind, table = self._closed_form
        if kind == "vertices":
            return _face_extremum(table, x, c, sense)
        if kind == "lp":
            return self._lp_pairing(x, c, sense)
        # S = { F^T b : 0 <= b <= c }: b_i = c_i where <f_i, x> > 0, 0 where
        # it is negative, and whichever end is extreme for <f_i, c> on a tie
        F = self.cone.facets
        fx, fc = F @ x, F @ c
        tie = np.abs(fx) <= TIE_TOL * np.max(np.abs(F), axis=1)
        top = fc < 0 if sense == "min" else fc > 0
        b = np.where(np.where(tie, top, fx > 0), table, 0.0)
        return float(fc @ b), F.T @ b

    def _lp_pairing(self, x, c, sense: str) -> tuple[float, np.ndarray]:
        """The pairing LP in dual-ray coordinates ``u = F^T b, b >= 0`` (one
        equality row, no free variables): the fallback above the guard."""
        val = self.value(x)
        F = self.cone.facets
        G = self.cone.generators
        res = solve_lp(
            LpProblem(
                objective=F @ c,
                eq_constraints=((F @ x).reshape(1, -1), np.array([val])),
                ineq_constraints=(-(G @ F.T), -(G @ self.phi)),
                sense=sense,
                nonneg=True,
            )
        )
        if not res.optimal:
            raise EmptySubdifferential(
                f"dual-ray pairing problem reported {res.status}"
            )
        return float(res.value), F.T @ res.point


class CanonicalHalfNorm(HalfNorm):
    """Smallest ambient norm of a majorant: ``inf { ||y|| : y - x in K }``.

    Subdifferential: positive functionals in the dual-norm unit ball that
    attain the value at ``x``.
    """

    variant = "canonical"

    def __init__(self, cone: PolyCone, norm: WeightedNorm):
        super().__init__(cone)
        if norm.dim != cone.dim:
            raise DimensionMismatch("norm weights dimension differs from cone")
        self.norm = norm

    def value(self, x) -> float:
        x = as_vector(x, dim=self.dim)
        if self.cone.contains(-x):
            return 0.0
        F = self.cone.facets
        # variables (y, epigraph): y - x in K, minimize ||y||
        obj, G, h, _ = _append_norm_objective(self.norm, F, F @ x, z_start=0)
        val, _ = _solve_bounded(
            LpProblem(objective=obj, ineq_constraints=(G, h)), "canonical half-norm"
        )
        return max(0.0, val)

    def subdifferential(self, x) -> SubdiffDesc:
        x = as_vector(x, dim=self.dim)
        return _dual_ball_subdiff(self.cone, self.norm, x, self.value(x))


class PositivePartNorm(HalfNorm):
    """Norm of the positive part; simplicial cones only.

    Subdifferential follows the same dual-ball description as the canonical
    half-norm, with the value replaced by ``||x^+||``.
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

    def value(self, x) -> float:
        x = as_vector(x, dim=self.dim)
        if self.cone.contains(-x):
            return 0.0
        return self.norm.value(self.cone.positive_part(x))

    def subdifferential(self, x) -> SubdiffDesc:
        x = as_vector(x, dim=self.dim)
        return _dual_ball_subdiff(self.cone, self.norm, x, self.value(x))


class OrderUnitGauge(HalfNorm):
    """Gauge of an interior unit: smallest ``lam >= 0`` with ``x <= lam u``.

    Closed facet formula ``max(0, max_f <x,f>/<u,f>)``: the support function
    of the vertex set ``{0} u { f/<f,u> }``, whose hull is the subdifferential
    at 0, ``{ u' in K' : <u', u> <= 1 }``.  Values, batches and pairing
    extrema all come from that table; no LP is solved.  Points of ``-K``
    (relative to ``||x||_inf``) evaluate to exactly 0.
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

    def value(self, x) -> float:
        return float(self._values(as_vector(x, dim=self.dim)[None, :])[0])

    def values(self, X) -> np.ndarray:
        return self._values(_as_rows(X, self.dim))

    def _values(self, X: np.ndarray) -> np.ndarray:
        out = np.max(X @ self._vertices.T, axis=1)
        scale = np.max(np.abs(X), axis=1)
        out[np.max(X @ self.cone.facets.T, axis=1) <= MEMBER_TOL * scale] = 0.0
        return out

    def subdifferential(self, x) -> SubdiffDesc:
        x = as_vector(x, dim=self.dim)
        val = self.value(x)
        G = self.cone.generators
        ineq_G = np.vstack([G, -self.unit.reshape(1, -1)])
        ineq_h = np.concatenate([np.zeros(G.shape[0]), [-1.0]])
        return SubdiffDesc(
            "polyhedral",
            self.dim,
            eq=(x.reshape(1, -1), np.array([val])),
            ineq=(ineq_G, ineq_h),
        )

    def pairing_extremum(self, x, c, sense: str = "min") -> tuple[float, np.ndarray]:
        """Same extremum as optimizing over :meth:`subdifferential`, taken
        over the table vertices that attain the value at ``x``."""
        x = _unit(as_vector(x, dim=self.dim))
        c = as_vector(c, dim=self.dim)
        _check_sense(sense)
        return _face_extremum(self._vertices, x, c, sense)


class RegularizedGauge(HalfNorm):
    """Majorant gauge of the regularized norm, flattened into one LP.

    ``inf { ||z|| : -z <= y <= z, y >= 0, y >= x }`` with all inequalities in
    the cone order.  A strict half-norm; no closed dual form is implemented,
    so subdifferentials raise.
    """

    variant = "regular_gauge"

    def __init__(self, cone: PolyCone, norm: WeightedNorm):
        super().__init__(cone)
        if norm.dim != cone.dim:
            raise DimensionMismatch("norm weights dimension differs from cone")
        self.norm = norm

    def value(self, x) -> float:
        x = as_vector(x, dim=self.dim)
        if self.cone.contains(-x):
            return 0.0
        F = self.cone.facets
        nf, n = F.shape
        # variables (y, z, aux); cone rows then norm epigraph rows
        rows = []
        rhs = []
        zero = np.zeros((nf, n))
        rows.append(np.hstack([F, zero]))  # y in K
        rhs.append(np.zeros(nf))
        rows.append(np.hstack([F, zero]))  # y - x in K
        rhs.append(F @ x)
        rows.append(np.hstack([-F, F]))  # z - y in K
        rhs.append(np.zeros(nf))
        rows.append(np.hstack([F, F]))  # z + y in K
        rhs.append(np.zeros(nf))
        G0 = np.vstack(rows)
        h0 = np.concatenate(rhs)
        obj, G, h, n_vars = _append_norm_objective(self.norm, G0, h0, z_start=n)
        val, _ = _solve_bounded(
            LpProblem(objective=obj, ineq_constraints=(G, h)), "regularized gauge"
        )
        return max(0.0, val)

    def subdifferential(self, x) -> SubdiffDesc:
        raise VariantUnsupported(
            "no dual description implemented for the regularized gauge"
        )


class EuclideanNorm(HalfNorm):
    """Plain 2-norm; subdifferential is the normalized point, or the unit
    ball at the origin."""

    variant = "euclidean"

    def value(self, x) -> float:
        x = as_vector(x, dim=self.dim)
        return float(np.linalg.norm(x))

    def subdifferential(self, x) -> SubdiffDesc:
        x = as_vector(x, dim=self.dim)
        nrm = float(np.linalg.norm(x))
        if nrm <= 1e-12:
            return SubdiffDesc.ball(np.zeros(self.dim), 1.0)
        return SubdiffDesc.singleton(x / nrm)


def regularized_norm(cone: PolyCone, norm: WeightedNorm, x) -> float:
    """Regularization of the ambient norm: ``inf { ||z|| : -z <= x <= z }``."""
    x = as_vector(x, dim=cone.dim)
    F = cone.facets
    nf, n = F.shape
    G0 = np.vstack([F, F])  # z - x in K and z + x in K
    h0 = np.concatenate([F @ x, -(F @ x)])
    obj, G, h, _ = _append_norm_objective(norm, G0, h0, z_start=0)
    val, _ = _solve_bounded(
        LpProblem(objective=obj, ineq_constraints=(G, h)), "regularized norm"
    )
    return max(0.0, val)


def _append_norm_objective(norm, G0, h0, z_start):
    """Extend an inequality system with epigraph rows so that minimizing the
    returned objective computes ``||z||`` for the block starting at z_start."""
    n = norm.dim
    m0, width = G0.shape
    if norm.kind == LINF:
        n_vars = width + 1
        G = np.zeros((m0 + 2 * n, n_vars))
        G[:m0, :width] = G0
        h = np.concatenate([h0, np.zeros(2 * n)])
        for i in range(n):
            G[m0 + 2 * i, z_start + i] = -norm.weights[i]
            G[m0 + 2 * i, width] = 1.0
            G[m0 + 2 * i + 1, z_start + i] = norm.weights[i]
            G[m0 + 2 * i + 1, width] = 1.0
        obj = np.zeros(n_vars)
        obj[width] = 1.0
        return obj, G, h, n_vars
    n_vars = width + n
    G = np.zeros((m0 + 2 * n, n_vars))
    G[:m0, :width] = G0
    h = np.concatenate([h0, np.zeros(2 * n)])
    for i in range(n):
        G[m0 + 2 * i, z_start + i] = -1.0
        G[m0 + 2 * i, width + i] = 1.0
        G[m0 + 2 * i + 1, z_start + i] = 1.0
        G[m0 + 2 * i + 1, width + i] = 1.0
    obj = np.concatenate([np.zeros(width), norm.weights])
    return obj, G, h, n_vars


def _dual_ball_subdiff(cone, norm, x, val) -> SubdiffDesc:
    """``{ u in K' : dual-norm(u) <= 1, <x,u> = val }`` as a SubdiffDesc.

    The dual of weighted-linf is a weighted l1 ball (needs split variables);
    the dual of weighted-l1 is a box (pure rows).
    """
    G = cone.generators
    n = cone.dim
    ng = G.shape[0]
    w = norm.weights
    if norm.kind == L1:
        ineq_G = np.vstack([G, -np.eye(n), np.eye(n)])
        ineq_h = np.concatenate([np.zeros(ng), -w, -w])
        return SubdiffDesc(
            "polyhedral",
            n,
            eq=(x.reshape(1, -1), np.array([val])),
            ineq=(ineq_G, ineq_h),
        )
    # linf primal: dual ball sum_i |u_i| / w_i <= 1 with split v >= |u|
    n_vars = 2 * n
    rows = []
    rhs = []
    block = np.zeros((ng, n_vars))
    block[:, :n] = G
    rows.append(block)
    rhs.append(np.zeros(ng))
    split = np.zeros((2 * n, n_vars))
    for i in range(n):
        split[2 * i, i] = -1.0
        split[2 * i, n + i] = 1.0
        split[2 * i + 1, i] = 1.0
        split[2 * i + 1, n + i] = 1.0
    rows.append(split)
    rhs.append(np.zeros(2 * n))
    mass = np.zeros((1, n_vars))
    mass[0, n:] = -1.0 / w
    rows.append(mass)
    rhs.append(np.array([-1.0]))
    eq_row = np.zeros((1, n_vars))
    eq_row[0, :n] = x
    return SubdiffDesc(
        "polyhedral",
        n,
        eq=(eq_row, np.array([val])),
        ineq=(np.vstack(rows), np.concatenate(rhs)),
        n_vars=n_vars,
    )
