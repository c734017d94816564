"""Polyhedral cone algebra: the order structure every other module builds on.

A :class:`PolyCone` carries both descriptions of the same set -- generating
rays and inward facet normals.  :meth:`PolyCone.from_generators` finds the
facets by batched enumeration of hyperplanes through (dim-1)-subsets of
rays.  Cones here are pointed and full-dimensional; pointedness makes the
induced relation a partial order, full-dimensionality makes every vector
majorizable and keeps the facet description exact.  Both restrictions are
validated, not assumed: a full-dimensional cone is pointed exactly when its
facet normals span the space; only a cone that fails that test, or whose
rays do not span, re-enumerates facets in the rays' span to name a ray on a line.

Membership uses the tight tolerance 1e-10 since it is the primitive that all
other checks compose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyPhi,
    MalformedProblem,
    NotGenerating,
    NotLattice,
    NotPointed,
    NotPositiveFunctional,
    NumericalFailure,
)
from .numerics import (LpProblem, as_matrix, as_vector, distinct_rows, linear_solve, ordered_rows,
                       solve_lp, subset_blocks)
from .report import FAILS, HOLDS, Report, Witness

MEMBER_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DualVector:
    """A functional together with its positivity certificate."""

    coords: np.ndarray
    certified_positive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coords", as_vector(self.coords))
        self.coords.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.coords.size


class PolyCone:
    """Pointed, full-dimensional polyhedral cone with dual descriptions."""

    def __init__(self, generators: np.ndarray, facets: np.ndarray):
        self.generators = as_matrix(generators)
        self.facets = as_matrix(facets)
        self.dim = self.generators.shape[1]
        if self.facets.shape[1] != self.dim:
            raise DimensionMismatch("generators and facets live in different spaces")
        # The standard orthant in its standard description: products with
        # its generators or facets are identity products, which the checks
        # skip when this is set
        eye = np.eye(self.dim)
        self.is_orthant = bool(
            np.array_equal(self.generators, eye) and np.array_equal(self.facets, eye)
        )
        if not self.is_orthant and np.min(self.generators @ self.facets.T) < -MEMBER_TOL:
            raise MalformedProblem("a generator violates a facet inequality")
        self.generators.flags.writeable = False
        self.facets.flags.writeable = False
        self._memo_slot: tuple[bytes, object] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generators(cls, rays) -> "PolyCone":
        """Build the cone spanned by ``rays``; compute facets by enumeration.

        Facet normals come from (dim-1)-subsets of rays whose span is a
        hyperplane with all rays on one side, enumerated in the blocks of
        :func:`~conesemi.numerics.subset_blocks` by stacked determinants and
        one sign test per block; the surviving rays are then reduced to the
        extreme ones.
        Pointedness is read off the facets: a full-dimensional cone is pointed
        exactly when its dual is, that is, when the facet normals span the
        space.  Only when they do not (or when no facet exists, or the rays
        do not span) does :func:`_check_pointed` name a ray whose negative
        lies in the cone, from the facets of the cone within the rays' span;
        no LP runs.  Guarded to dimension 10.
        """
        R = as_matrix(rays)
        k, n = R.shape
        if n > 10:
            raise DimensionTooLarge(f"facet enumeration guarded to dim <= 10, got {n}")
        norms = np.linalg.norm(R, axis=1)
        if np.any(norms < 1e-14):
            raise MalformedProblem("zero ray among the generators")

        R = _dedup_directions(R)
        if np.linalg.matrix_rank(R, tol=1e-10) < n:
            _check_pointed(R)
            raise NotGenerating(
                "rays do not span the ambient space; the facet description of a "
                "lower-dimensional cone needs equalities, which PolyCone does not carry"
            )

        if n == 1:
            if R.shape[0] > 1:
                _check_pointed(R)
            facets = np.array([[1.0 if R[0, 0] > 0 else -1.0]])
            return cls(R[:1], facets)

        facets = _enumerate_facets(R)
        if np.linalg.matrix_rank(facets, tol=1e-10) < n:
            _check_pointed(R)
            if facets.shape[0] == 0:
                raise NotGenerating("no facet found; rays do not describe a solid cone")
        gens = _extreme_rays(R, facets)
        return cls(gens, facets)

    @classmethod
    def standard_orthant(cls, n: int) -> "PolyCone":
        """The coordinatewise order on R^n; self-dual."""
        eye = np.eye(n)
        return cls(eye.copy(), eye.copy())

    def dual_cone(self) -> "PolyCone":
        """Functionals nonnegative on the cone: generators and facets swap."""
        return PolyCone(self.facets.copy(), self.generators.copy())

    def memo(self, key: bytes, build):
        """``build()``, kept in one slot under ``key``.

        For a table derived from this cone and one more input, such as a
        half-norm's vertex table keyed by the description of its polytope.
        Generators and facets are read-only, so the slot stays valid; another
        key replaces it.
        """
        if self._memo_slot is None or self._memo_slot[0] != key:
            self._memo_slot = (key, build())
        return self._memo_slot[1]

    # -- order queries -----------------------------------------------------

    def contains(self, x, tol: float = MEMBER_TOL) -> bool:
        x = as_vector(x, dim=self.dim)
        return bool(np.min(self.facets @ x) >= -tol)

    def leq(self, x, y, tol: float = MEMBER_TOL) -> bool:
        """Order relation: x <= y when y - x lies in the cone."""
        x = as_vector(x, dim=self.dim)
        y = as_vector(y, dim=self.dim)
        return self.contains(y - x, tol=tol)

    def is_lattice(self) -> bool:
        """Simplicial test: exactly dim independent extreme rays."""
        return self.generators.shape[0] == self.dim

    def positive_part(self, x) -> np.ndarray:
        """Least element above both x and 0, via generator coordinates.

        Only simplicial cones admit this: the coordinates of x in the ray
        basis are clamped at zero and mapped back.
        """
        if not self.is_lattice():
            raise NotLattice("positive parts need a simplicial cone")
        x = as_vector(x, dim=self.dim)
        coords = linear_solve(self.generators.T, x)
        return self.generators.T @ np.maximum(coords, 0.0)

    def is_order_unit(self, u, tol: float = MEMBER_TOL) -> bool:
        """Interior-point test: strictly positive against every facet."""
        u = as_vector(u, dim=self.dim)
        return bool(np.min(self.facets @ u) > tol)

    def certify_functional(self, coords) -> DualVector:
        """Check dual-cone membership and attach the certificate."""
        v = as_vector(coords, dim=self.dim)
        worst = float(np.min(self.generators @ v))
        if worst < -MEMBER_TOL:
            raise NotPositiveFunctional(
                f"functional is negative on a generator (margin {worst:.3g})"
            )
        return DualVector(v, certified_positive=True)

    def is_total(self, phis: list[DualVector], tol: float = 1e-9) -> Report:
        """Decide whether joint nonnegativity against ``phis`` implies membership.

        Every member is certified, so ``cone(phis)`` lies in the dual cone K',
        and by bipolarity the family is total exactly when ``cone(phis) = K'``,
        that is, when it contains every facet normal f of K.  Such an f spans
        an extreme ray of K', so it lies in ``cone(phis)`` only as a positive
        multiple of a member.  Hence a facet passes at once when the member
        phi most parallel to it satisfies ``||f - c phi||_1 <= tol`` with
        ``c = max(<f,phi>, 0) / <phi,phi>``: on the box ``||x||_inf <= 1``
        that gives ``<x,f> >= c <x,phi> - tol >= -tol``, the verdict the
        facet's LP reaches.  Only the facets with no such member go to that
        LP, ``min <x,f>`` over ``{<x,phi> >= 0, ||x||_inf <= 1}``; the family
        is total exactly when every optimum clears ``-tol``, and the LP point
        is the witness of a ``fails``.  The box bound is lossless by
        homogeneity.  This is a complete check, not a sampled one.
        """
        if not phis:
            raise EmptyPhi("totality asked for an empty functional family")
        rows = []
        for i, phi in enumerate(phis):
            if not isinstance(phi, DualVector) or not phi.certified_positive:
                raise NotPositiveFunctional(f"phi[{i}] lacks a positivity certificate")
            rows.append(as_vector(phi.coords, dim=self.dim))
        Phi = np.vstack(rows)
        F = self.facets
        sq = np.sum(Phi * Phi, axis=1)
        sq[sq == 0.0] = 1.0  # a zero member gets c = 0: its residual is ||f||_1
        best = np.argmax((F @ Phi.T) / np.sqrt(sq), axis=1)
        near = Phi[best]
        c = np.maximum(np.sum(F * near, axis=1), 0.0) / sq[best]
        matched = np.sum(np.abs(F - c[:, None] * near), axis=1) <= tol
        witnesses = _facet_lp_witnesses(Phi, F[~matched], tol)
        verdict = FAILS if witnesses else HOLDS
        return Report(
            name="total_set",
            verdict=verdict,
            witnesses=witnesses,
            samples_used=0,
            tolerance=tol,
            notes=["exact facet-LP check"],
        )

    def __repr__(self) -> str:
        return (
            f"PolyCone(dim={self.dim}, rays={self.generators.shape[0]}, "
            f"facets={self.facets.shape[0]})"
        )


def _dedup_directions(R: np.ndarray) -> np.ndarray:
    """The rays whose unit vectors :func:`~conesemi.numerics.distinct_rows` keeps at 1e-10."""
    return R[distinct_rows(R / np.linalg.norm(R, axis=1, keepdims=True), 1e-10)]


def _check_pointed(R: np.ndarray) -> None:
    """No ray's negative may lie in ``cone(R)``.

    In coordinates of the rays' span (SVD, rank at 1e-10 relative), with the
    rays scaled to unit length, the cone is solid, and a ray lies on a line
    of it exactly when every facet normal from :func:`_enumerate_facets`
    vanishes on it at that enumerator's 1e-10.  With no facet every ray
    does; in a 1-D span every ray does when their signs are mixed.
    """
    U, s, _ = np.linalg.svd(R, full_matrices=False)
    span = s > 1e-10 * s[0]
    C = U[:, span] * s[span]
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    if C.shape[1] == 1:
        on_line = np.full(C.shape[0], np.min(C) < 0.0 < np.max(C))
    else:
        on_line = np.all(np.abs(C @ _enumerate_facets(C).T) <= 1e-10, axis=1)
    if on_line.any():
        raise NotPointed(f"both ray {int(np.argmax(on_line))} and its negative belong to the cone")


def _enumerate_facets(R: np.ndarray) -> np.ndarray:
    """Facet normals of ``cone(R)``, scaled to a largest entry of +-1, sorted;
    an empty (0, n) array when there is none.

    The normal of the span of n-1 rays is their generalized cross product,
    the signed minors of the (n-1) x n matrix: exact for small integer data,
    and zero exactly when the rows span less than a hyperplane.  A block of
    :func:`~conesemi.numerics.subset_blocks` costs one stacked determinant
    per deleted column and one matrix product for the sign test against
    every ray; the facets are the rows :func:`~conesemi.numerics.distinct_rows`
    keeps at 1e-10, sorted by :func:`~conesemi.numerics.ordered_rows`.
    """
    k, n = R.shape
    found = [np.empty((0, n))]
    scale = max(1.0, float(np.max(np.abs(R)))) ** max(n - 1, 1)
    cols = np.arange(n)
    signs = (-1.0) ** cols
    for block in subset_blocks(k, n - 1):
        M = R[block]
        normals = np.stack([np.linalg.det(M[:, :, cols != i]) for i in range(n)], axis=1) * signs
        normals = normals[np.max(np.abs(normals), axis=1) > 1e-10 * scale]
        pivots = normals[np.arange(normals.shape[0]), np.argmax(np.abs(normals), axis=1)]
        normals = normals / pivots[:, None]
        P = normals @ R.T
        ok = np.stack([np.min(P, axis=1) >= -1e-10, np.max(P, axis=1) <= 1e-10], axis=1)
        found.append(np.stack([normals, -normals], axis=1)[ok] + 0.0)
    cands = np.concatenate(found)
    return ordered_rows(cands[distinct_rows(cands, 1e-10)])


def _facet_lp_witnesses(Phi: np.ndarray, facets: np.ndarray, tol: float) -> list[Witness]:
    """The totality LP per facet: ``min <x,f>`` over ``{Phi x >= 0, ||x||_inf <= 1}``.

    Returns a witness for each facet whose optimum falls below ``-tol``.  The
    LP point is re-checked at the verdict's scale first; a point that the
    family refutes raises :class:`NumericalFailure` instead of a ``fails``
    whose own witness contradicts it.
    """
    n = Phi.shape[1]
    eye = np.eye(n)
    G = np.vstack([Phi, eye, -eye])
    h = np.concatenate([np.zeros(Phi.shape[0]), -np.ones(2 * n)])
    witnesses = []
    for f in facets:
        res = solve_lp(LpProblem(objective=f, ineq_constraints=(G, h)))
        if not res.optimal:  # pragma: no cover - box keeps the LP bounded
            raise MalformedProblem(f"totality LP returned {res.status}")
        if res.value < -tol:
            x = res.point
            slack = tol * (1.0 + float(np.max(np.abs(x))))
            if np.min(Phi @ x) < -slack or not float(f @ x) < -tol:
                raise NumericalFailure("totality LP point is refuted by the family it solved")
            witnesses.append(
                Witness(
                    point=x,
                    functional=f.copy(),
                    margin=float(res.value),
                    label="nonnegative on every phi yet outside the cone",
                )
            )
    return witnesses


def _extreme_rays(R: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """The rays on which the facets active at them have rank ``dim - 1``.

    One stacked rank call: ray i's matrix is the facet table with its
    inactive rows zeroed, which leaves the singular values unchanged.
    """
    active = np.abs(R @ facets.T) <= 1e-9 * (1.0 + np.max(np.abs(R), axis=1, keepdims=True))
    keep = np.linalg.matrix_rank(active[:, :, None] * facets, tol=1e-10) == R.shape[1] - 1
    if not keep.any():
        raise NotGenerating("no extreme ray survived facet reduction")
    return R[keep]
