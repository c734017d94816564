"""Polyhedral cone algebra: the order structure every other module builds on.

A :class:`PolyCone` carries both descriptions of the same set -- generating
rays and inward facet normals -- and decides once which facet vanishes on
which generator: :attr:`PolyCone.incidence` holds ``|<f, g>| <= 1e-10`` with
every row scaled by the power of two that puts its largest entry in [1, 2).
That scaling is exact, so the matrix is the same at every ``2^k`` scale; the
extreme-ray and pointedness tests of :meth:`PolyCone.from_generators`, which
finds the facets as the vertices of a slice of the dual cone by the one
active-set loop of :mod:`~conesemi.numerics`, read the same rule, and so do
:meth:`PolyCone.certify_functional` and :meth:`PolyCone.is_total`: a family
is total when each facet has a member that vanishes where the facet does,
and otherwise a witness follows in closed form, with no LP.  One sign
rule goes with it (:meth:`_negative_pairs`): an exact pair check counts
``<f, M g>`` (:meth:`margins`) as negative only below ``-tol |f|ᵀ|M||g|``,
which on the orthant is the sign of an entry of ``M``; for a computed ``M``
the size is the largest over all pairs, which covers its rounding.  Cones
here are pointed and full-dimensional, validated, not assumed: a solid
cone is pointed exactly when its facet normals span.  Membership uses 1e-10.
"""

from __future__ import annotations

import math
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
)
from .numerics import _active_set_vertices, as_matrix, as_vector, distinct_rows, ordered_rows
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
        # its generators or facets are identity products, which margins skips
        eye = np.eye(self.dim)
        self._orthant = np.array_equal(self.generators, eye) and np.array_equal(self.facets, eye)
        # the generators as every sign rule reads them (see _incidence)
        self._scaled_generators = self.generators if self._orthant else _pow2_rows(self.generators)
        self.incidence = eye == 0.0 if self._orthant else _incidence(self.facets, self.generators)
        for table in (self.generators, self._scaled_generators, self.facets, self.incidence):
            table.flags.writeable = False
        self._memo_slot: tuple[bytes, object] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generators(cls, rays) -> "PolyCone":
        """Build the cone spanned by ``rays``; compute facets by enumeration.

        Repeated directions merge on unit rays.  The facets come from
        :func:`_enumerate_facets` on the rays scaled by powers of two to a
        largest entry in [1, 2), which is exact, so integer rays give exact
        facets; the extreme rays, judged on those, keep the caller's lengths.
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
        if not np.all(np.any(R, axis=1)):
            raise MalformedProblem("zero ray among the generators")

        P = _pow2_rows(R)
        U = P / np.linalg.norm(P, axis=1, keepdims=True)
        keep = _dedup_directions(U)
        R, P, U = R[keep], P[keep], U[keep]
        if np.linalg.matrix_rank(U, tol=1e-10) < n:
            _check_pointed(U)
            raise NotGenerating(
                "rays do not span the ambient space; the facet description of a "
                "lower-dimensional cone needs equalities, which PolyCone does not carry"
            )

        if n == 1:
            if R.shape[0] > 1:
                _check_pointed(U)
            facets = np.array([[1.0 if R[0, 0] > 0 else -1.0]])
            return cls(R[:1], facets)

        facets = _enumerate_facets(P)
        if np.linalg.matrix_rank(facets, tol=1e-10) < n:
            _check_pointed(U)
            if facets.shape[0] == 0:
                raise NotGenerating("no facet found; rays do not describe a solid cone")
        return cls(R[_extreme_rays(P, facets)], facets)

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

    def contains(self, x) -> bool:
        x = as_vector(x, dim=self.dim)
        return bool(np.min(self.facets @ x) >= -MEMBER_TOL)

    def leq(self, x, y) -> bool:
        """Order relation: x <= y when y - x lies in the cone."""
        x = as_vector(x, dim=self.dim)
        y = as_vector(y, dim=self.dim)
        return self.contains(y - x)

    def is_lattice(self) -> bool:
        """Simplicial test: exactly dim extreme rays and dim facets."""
        return self.generators.shape[0] == self.facets.shape[0] == self.dim

    def positive_part(self, x) -> np.ndarray:
        """Least element above both x and 0, via generator coordinates.

        Only simplicial cones admit this: the coordinates of x in the ray
        basis, ``<f, x> / <f, g_f>`` for each facet ``f`` and its own
        generator ``g_f``, are clamped at zero and mapped back.
        """
        if not self.is_lattice():
            raise NotLattice("positive parts need a simplicial cone")
        x = as_vector(x, dim=self.dim)
        own, scale = self._facet_partners()
        return self.generators[own].T @ np.maximum(self.facets @ x / scale, 0.0)

    def _facet_partners(self) -> tuple[np.ndarray, np.ndarray]:
        """On a simplicial cone, the one generator ``g_f`` that each facet
        ``f`` is not incident to, and ``<f, g_f> > 0``, read off :meth:`margins`."""
        own = np.argmin(self.incidence, axis=1)
        return own, self.margins()[np.arange(own.size), own]

    def margins(self, M=None) -> np.ndarray:
        """``<f, M g>`` for every facet ``f`` (rows) and generator ``g``
        (columns), ``M`` the identity when omitted; on the standard orthant in
        its standard description, the entries of ``M`` with no product formed."""
        M = np.eye(self.dim) if M is None else as_matrix(M, square=True)
        if M.shape[0] != self.dim:
            raise DimensionMismatch(f"a {M.shape[0]}x{M.shape[0]} matrix on a cone in R^{self.dim}")
        return M + 0.0 if self._orthant else self.facets @ (M @ self.generators.T)

    def _negative_pairs(self, M, tol: float, pairs=None, computed: bool = False) -> tuple:
        """:meth:`margins` of ``M`` and the mask of those among ``pairs`` (all when omitted)
        below ``-tol |f|ᵀ|M||g|``, the size of the terms each sums: no power-of-two scale of a
        ray, a facet or ``M`` moves it, and on the orthant it is the sign of an entry of ``M``.
        A ``computed`` ``M`` may carry a rounding negative where its exact entry is 0, so there
        the size is the largest over all pairs, and only a common scale leaves the mask."""
        margins = self.margins(M)
        negative = margins < 0.0 if pairs is None else pairs & (margins < 0.0)
        if negative.any():
            A = np.abs(np.asarray(M, dtype=float))
            scale = A if self._orthant else np.abs(self.facets) @ (A @ np.abs(self.generators).T)
            negative &= margins < -tol * (scale.max() if computed else scale)
        return margins, negative

    def is_order_unit(self, u) -> bool:
        """Interior-point test: strictly positive against every facet."""
        u = as_vector(u, dim=self.dim)
        return bool(np.min(self.facets @ u) > MEMBER_TOL)

    def certify_functional(self, coords) -> DualVector:
        """Check dual-cone membership and attach the certificate: ``<phi, g> >=
        -MEMBER_TOL`` on rows scaled by :func:`_pow2_rows`, the sign rule of
        :func:`_incidence`, so no ``2^k`` scale moves it and :meth:`is_total`
        accepts every member it certifies."""
        v = as_vector(coords, dim=self.dim)
        worst = float((self._scaled_generators @ v).min())
        # _pow2_rows(v)'s power of two, moved exactly onto the (negative) bound
        if worst < 0.0 and worst < math.ldexp(-MEMBER_TOL, math.frexp(np.abs(v).max())[1] - 1):
            raise NotPositiveFunctional(
                f"functional is negative on a generator (margin {worst:.3g})"
            )
        return DualVector(v, certified_positive=True)

    def is_total(self, phis: list[DualVector]) -> Report:
        """Decide whether joint nonnegativity against ``phis`` implies membership.

        Every member is certified, so ``cone(phis)`` lies in the dual cone K',
        and by bipolarity the family is total exactly when ``cone(phis) = K'``,
        that is, when it contains every facet normal f of K.  Such an f spans
        an extreme ray of K', so it lies in ``cone(phis)`` only as a positive
        multiple of a member; a nonzero member of K' is one exactly when it
        vanishes on every generator incident to f, since those span ``f^⊥``.
        Vanishing is :func:`_incidence`, the rule of :attr:`incidence`, so one
        product matches every facet; zero members match nothing.  On the rays
        scaled by :func:`_pow2_rows`, an unmatched f has the witness ``x =
        y/d - c``: ``y``, the sum of the rays incident to f, lies inside that
        face, where every member is positive, and ``c``, the sum of all rays,
        inside K, so with ``d = min <phi, y> / (2 <phi, c>)`` (infinite with no
        nonzero member) ``<phi, x> >= <phi, c> > 0`` and ``<f, x> = -<f, c> <
        0``.  ``x`` is scaled to ``||x||_inf = 1``.  No LP runs, and no ``2^k``
        scale of a ray or a member changes a bit of the report.
        """
        if not phis:
            raise EmptyPhi("totality asked for an empty functional family")
        for i, phi in enumerate(phis):
            if not isinstance(phi, DualVector) or not phi.certified_positive:
                raise NotPositiveFunctional(f"phi[{i}] lacks a positivity certificate")
            if phi.dim != self.dim:
                raise DimensionMismatch(f"phi[{i}] has dimension {phi.dim}, not {self.dim}")
        Phi = np.vstack([phi.coords for phi in phis])
        G = self._scaled_generators
        negative = (_pow2_rows(Phi) @ G.T < -MEMBER_TOL).any(axis=1)  # _incidence's sign rule
        if negative.any():
            raise NotPositiveFunctional(f"phi[{np.argmax(negative)}] is negative on a generator")
        Phi = Phi[Phi.any(axis=1)]
        incidence = self.incidence.astype(float)
        matched = (incidence @ ~_incidence(Phi, G).T == 0.0).any(axis=1)
        witnesses = []
        if not matched.all():
            c = G.sum(axis=0)
            Y = incidence[~matched] @ G
            d = (Phi @ Y.T / (2.0 * (Phi @ c))[:, None]).min(axis=0, initial=np.inf)
            X = Y / d[:, None] - c
            X /= np.abs(X).max(axis=1, keepdims=True)
            label = "nonnegative on every phi yet outside the cone"
            witnesses = [Witness(x, f.copy(), float(f @ x), label)
                         for f, x in zip(self.facets[~matched], X)]
        return Report(name="total_set", verdict=FAILS if witnesses else HOLDS, witnesses=witnesses,
                      samples_used=0, tolerance=MEMBER_TOL, notes=["exact incidence check"])

    def __repr__(self) -> str:
        return (
            f"PolyCone(dim={self.dim}, rays={self.generators.shape[0]}, "
            f"facets={self.facets.shape[0]})"
        )


def _dedup_directions(U: np.ndarray) -> np.ndarray:
    """Indices of the unit rays :func:`~conesemi.numerics.distinct_rows` keeps at 1e-10."""
    return distinct_rows(U, 1e-10)


def _check_pointed(U: np.ndarray) -> None:
    """No ray's negative may lie in ``cone(U)``, ``U`` unit rays.

    In coordinates of the rays' span (SVD, rank at 1e-10 relative), with the
    rays scaled by powers of two, the cone is solid, and a ray lies on a line
    of it exactly when every facet normal from :func:`_enumerate_facets` is
    incident to it (:func:`_incidence`).  With no facet every ray does; in a
    1-D span every ray does when their signs are mixed.
    """
    W, s, _ = np.linalg.svd(U, full_matrices=False)
    span = s > 1e-10 * s[0]
    C = _pow2_rows(W[:, span] * s[span])
    if C.shape[1] == 1:
        on_line = np.full(C.shape[0], np.min(C) < 0.0 < np.max(C))
    else:
        on_line = np.all(_incidence(_enumerate_facets(C), C), axis=0)
    if on_line.any():
        raise NotPointed(f"both ray {int(np.argmax(on_line))} and its negative belong to the cone")


def _enumerate_facets(U: np.ndarray) -> np.ndarray:
    """Facet normals of the solid ``cone(U)``, ``U`` rays of unit length or
    largest entry in [1, 2), at a largest entry of +-1, sorted; an empty
    (0, n) array when there is none.

    The rays' sum ``c`` is interior, so the facet normals, rescaled, are the
    vertices of the slice ``{f : U f >= 0, <c, f> = 1}``.  The loop's
    feasibility rule grows with the slice, so a normal must also leave no
    ray more than 1e-10 on its far side; facets are distinct at 1e-10."""
    F = _active_set_vertices(U, np.zeros(U.shape[0]), U.sum(axis=0)[None, :], np.ones(1))
    F = F / np.max(np.abs(F), axis=1, keepdims=True) + 0.0
    F = F[np.min(F @ U.T, axis=1) >= -1e-10]
    return ordered_rows(F[distinct_rows(F, 1e-10)])


def _pow2_rows(X: np.ndarray) -> np.ndarray:
    """Each nonzero row scaled by the power of two that puts its largest entry in [1, 2)."""
    return np.ldexp(X, 1 - np.frexp(np.abs(X).max(axis=1))[1][:, None])


def _incidence(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Facet ``f`` (rows of ``F``) vanishes on generator ``g`` (rows of ``G``): ``|<f, g>| <=
    MEMBER_TOL`` on rows scaled by :func:`_pow2_rows`, which is exact, so the matrix is the same at
    every ``2^k`` scale.  A pair below ``-MEMBER_TOL``: a generator violates a facet inequality."""
    S = _pow2_rows(F) @ _pow2_rows(G).T
    if (S < -MEMBER_TOL).any():
        raise MalformedProblem("a generator violates a facet inequality")
    return np.abs(S) <= MEMBER_TOL


def _extreme_rays(U: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """A mask of the scaled rays ``U`` whose incident facets have rank ``dim - 1``.

    Incidence is :func:`_incidence`, at the tolerance of the facet sign test
    in :func:`_enumerate_facets`.  One stacked rank call: ray i's matrix is
    the facet table with its other rows zeroed, which leaves the singular
    values unchanged."""
    active = _incidence(facets, U).T
    keep = np.linalg.matrix_rank(active[:, :, None] * facets, tol=1e-10) == U.shape[1] - 1
    if not keep.any():
        raise NotGenerating("no extreme ray survived facet reduction")
    return keep
