"""Certificates for dissipativity, dispersivity, and the positive
off-diagonal (POD) property of matrices with restricted domains.

Pointwise checks are exact extrema over subdifferentials (closed form for
the functional and order-unit gauges, LPs over descriptions otherwise).  The
universal quantifier over a domain can only be sampled, so
:func:`certify_dissipative` reports ``fails`` with a witness or an honest
``inconclusive`` pass; it never claims a proof.  It stacks its test points
and takes all their margins from one ``pairing_extrema`` call.  The POD
check, by contrast, is exact: for fixed boundary point the orthogonal
positive functionals form a face of the dual cone, so checking extreme ray
pairs suffices (a reduction the test-suite validates against a sampled
face-LP oracle).  The orthogonal pairs are the cone's incidence matrix and
their signs follow its sign rule (:mod:`~conesemi.cone`); ``is_metzler`` is
the exact sign test it reduces to on the orthant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import PolyCone
from .errors import (
    DimensionMismatch,
    MalformedProblem,
    OutsideDomain,
)
from .halfnorm import HalfNorm
from .numerics import (
    LpProblem,
    as_matrix,
    as_vector,
    solve_lp,
    vertex_table,
)
from .report import FAILS, HOLDS, INCONCLUSIVE, Report, Witness

POINT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PolyhedralSet:
    """Domain restriction ``{x : G x >= h, E x = d}``; either block optional."""

    ineq: tuple[np.ndarray, np.ndarray] | None = None
    eq: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        dims = set()
        for attr in ("ineq", "eq"):
            block = getattr(self, attr)
            if block is None:
                continue
            mat, rhs = as_matrix(block[0]), as_vector(block[1])
            if mat.shape[0] != rhs.size:
                raise MalformedProblem(f"{attr}: rows and right-hand sides differ")
            dims.add(mat.shape[1])
            object.__setattr__(self, attr, (mat, rhs))
        if len(dims) > 1:
            raise DimensionMismatch("domain blocks have inconsistent dimensions")
        if dims:
            dim = dims.pop()
            res = solve_lp(
                LpProblem(
                    objective=np.zeros(dim),
                    eq_constraints=self.eq,
                    ineq_constraints=self.ineq,
                )
            )
            if not res.optimal:
                raise MalformedProblem("domain is empty")

    @property
    def dim(self) -> int | None:
        for block in (self.ineq, self.eq):
            if block is not None:
                return block[0].shape[1]
        return None

    def contains(self, x) -> bool:
        """One row of :meth:`contains_rows`."""
        return bool(self.contains_rows(as_vector(x)[None, :])[0])

    def contains_rows(self, X) -> np.ndarray:
        """Membership of each row of ``X``, at ``POINT_TOL`` times ``1 + ||x||_inf``."""
        X = as_matrix(X)
        slack = POINT_TOL * (1.0 + np.max(np.abs(X), axis=1))
        inside = np.ones(X.shape[0], dtype=bool)
        if self.ineq is not None:
            G, h = self.ineq
            inside &= np.min(X @ G.T - h, axis=1) >= -slack
        if self.eq is not None:
            E, d = self.eq
            inside &= np.max(np.abs(X @ E.T - d), axis=1) <= slack
        return inside


@dataclass(frozen=True, eq=False)
class LinOp:
    """Square matrix plus an optional polyhedral domain restriction."""

    matrix: np.ndarray
    domain: PolyhedralSet | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True))
        self.matrix.flags.writeable = False
        if self.domain is not None and self.domain.dim not in (None, self.dim):
            raise DimensionMismatch("domain dimension differs from the matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def in_domain(self, x) -> bool:
        return self.domain is None or self.domain.contains(x)


def _dissipative_at(op: LinOp, halfnorm: HalfNorm, x, sense: str):
    x = as_vector(x, dim=op.dim)
    if not op.in_domain(x):
        raise OutsideDomain("dissipativity asked outside the operator domain")
    m, _ = halfnorm.pairing_extremum(x, op.matrix @ x, sense)
    return m <= POINT_TOL, m


def is_dissipative_at(op: LinOp, halfnorm: HalfNorm, x):
    """Best-case pairing: exists a subgradient with ``<Ax, u> <= 0``?

    Returns ``(verdict, margin)`` where the margin is the exact minimum of
    ``<Ax, u>`` over the subdifferential at ``x``.
    """
    return _dissipative_at(op, halfnorm, x, "min")


def is_strictly_dissipative_at(op: LinOp, halfnorm: HalfNorm, x):
    """Worst-case pairing: every subgradient must satisfy ``<Ax, u> <= 0``."""
    return _dissipative_at(op, halfnorm, x, "max")


def _domain_test_points(domain: PolyhedralSet | None, cone: PolyCone, n_samples: int, seed: int):
    """Structural points plus seeded samples, all inside the domain (the
    whole space when ``None``): their labels, and a matrix with one point
    per row.  The one sampler of the package.

    Structural: cone generators that lie in the domain, and the vertices of
    the domain clipped to the unit box (for conic domains these are exactly
    the normalized rays).  Random: Gaussian points for a free domain,
    convex combinations of the clipped vertices otherwise.  Above dimension
    10 the vertices are skipped (their count is not bounded there), and the
    samples are the first domain points of one batch of ``50 * n_samples``
    Gaussian draws, recorded in the returned notes.
    """
    if n_samples < 0 or seed < 0:
        raise MalformedProblem(f"n_samples and seed must be nonnegative, got {n_samples}, {seed}")
    rng = np.random.default_rng(seed)
    n = cone.dim
    notes: list[str] = []
    G = cone.generators
    inside = np.arange(G.shape[0])
    if domain is not None:
        inside = inside[domain.contains_rows(G)]
    labels = [f"generator[{i}]" for i in inside]
    blocks = [G[inside]]

    if domain is None or (domain.ineq is None and domain.eq is None):
        labels += [f"sample[{k}]" for k in range(n_samples)]
        blocks.append(rng.standard_normal((n_samples, n)))
        return labels, np.vstack(blocks), notes

    if n > 10:
        draws = rng.standard_normal((50 * max(n_samples, 1), n))
        samples = draws[domain.contains_rows(draws)][:n_samples]
        accepted = samples.shape[0]
        labels += [f"sample[{k}]" for k in range(accepted)]
        blocks.append(samples)
        notes.append(
            "domain vertices skipped above the dim-10 enumeration guard; "
            f"rejection sampling accepted {accepted} of {n_samples} requested points"
        )
        return labels, np.vstack(blocks), notes

    rows = [np.eye(n), -np.eye(n)]
    rhs = [-np.ones(n), -np.ones(n)]
    if domain.ineq is not None:
        rows.append(domain.ineq[0])
        rhs.append(domain.ineq[1])
    if domain.eq is not None:
        E, d = domain.eq
        rows.extend([E, -E])
        rhs.extend([d, -d])
    V = vertex_table((np.vstack(rows), np.concatenate(rhs)))
    labels += [f"domain_vertex[{i}]" for i in range(V.shape[0])]
    blocks.append(V)
    if V.shape[0]:
        for k in range(n_samples):
            weights = rng.dirichlet(np.ones(V.shape[0]))
            scale = rng.uniform(0.1, 3.0)
            labels.append(f"sample[{k}]")
            blocks.append(scale * (weights @ V))
    return labels, np.vstack(blocks), notes


def certify_dissipative(
    op: LinOp, halfnorm: HalfNorm, n_samples: int = 100, seed: int = 0
) -> Report:
    """Sampled certificate of dissipativity over the operator domain.

    Checks every structural point (cone generators in the domain, clipped
    domain vertices) plus ``n_samples`` seeded pseudo-random domain points,
    all in one batched ``pairing_extrema`` call.  A violation yields
    ``fails`` with the point, the minimizing functional, and the margin;
    otherwise the verdict is an inconclusive pass, since sampling cannot
    prove the universal claim.
    """
    labels, X, sampler_notes = _domain_test_points(op.domain, halfnorm.cone, n_samples, seed)
    witnesses = []
    if labels:
        margins, functionals = halfnorm.pairing_extrema(X, X @ op.matrix.T, "min")
        witnesses = [
            Witness(point=X[i], functional=functionals[i], margin=float(margins[i]),
                    label=labels[i])
            for i in np.flatnonzero(margins > POINT_TOL)
        ]
    verdict = FAILS if witnesses else INCONCLUSIVE
    if witnesses:
        notes = ["a witness point admits no subgradient pairing nonpositively"]
    else:
        notes = ["sampled check: a pass is evidence, not a proof of the universal claim"]
    return Report(
        name=f"dissipative[{halfnorm.variant}]",
        verdict=verdict,
        witnesses=witnesses,
        samples_used=len(labels),
        tolerance=POINT_TOL,
        notes=notes + sampler_notes,
    )


def _cone_inside_domain(domain: PolyhedralSet, cone: PolyCone) -> bool:
    """Conic containment: 0 in the domain and every ray direction admissible."""
    rays, inside = cone.generators.T, True
    if domain.ineq is not None:
        G, h = domain.ineq
        inside = np.max(h) <= POINT_TOL and np.min(G @ rays) >= -POINT_TOL
    if domain.eq is not None:
        E, d = domain.eq
        inside = inside and max(np.max(np.abs(d)), np.max(np.abs(E @ rays))) <= POINT_TOL
    return bool(inside)


def has_positive_off_diagonal(op: LinOp, cone: PolyCone) -> Report:
    """Exact POD check over extreme pairs.

    Enumerates the pairs (generator g of K, generator f of K') orthogonal by
    :attr:`PolyCone.incidence` and requires ``<A g, f> >= -POINT_TOL |f|ᵀ|A||g|``
    (:meth:`PolyCone._negative_pairs`), so no scale of K or ``A`` moves the
    verdict.  Sufficiency of the extreme-pair reduction is a property of
    polyhedral cones validated by a sampled LP oracle in the test-suite.
    When the domain does not contain the whole cone the check restricts to
    the rays inside: a witness there still refutes, but a pass covers only
    part of ``K`` in the domain, so it is ``inconclusive``.
    """
    A = op.matrix
    if A.shape[0] != cone.dim:
        raise DimensionMismatch("operator and cone dimensions differ")
    rows, notes = slice(None), ["exact extreme-pair check"]
    partial = op.domain is not None and not _cone_inside_domain(op.domain, cone)
    if partial:
        rows = np.flatnonzero(op.domain.contains_rows(cone.generators))
        notes = ["partial: domain does not contain the cone; restricted to "
                 f"{len(rows)} of {cone.generators.shape[0]} generators"]
    gens, facets = cone.generators[rows], cone.facets
    image, negative = (m.T[rows] for m in cone._negative_pairs(A, POINT_TOL, cone.incidence))
    witnesses = [
        Witness(
            point=gens[i].copy(),
            functional=facets[j].copy(),
            margin=float(image[i, j]),
            label=f"pair(g[{i}], f[{j}])",
        )
        for i, j in zip(*np.nonzero(negative))
    ]
    verdict = FAILS if witnesses else INCONCLUSIVE if partial else HOLDS
    return Report(
        name="positive_off_diagonal",
        verdict=verdict,
        witnesses=witnesses,
        samples_used=0,
        tolerance=POINT_TOL,
        notes=notes,
    )


def is_metzler(matrix) -> bool:
    """Exact off-diagonal sign test; agrees with the POD check on the orthant."""
    A = as_matrix(matrix, square=True)
    return bool(np.all((A >= 0.0) | np.eye(A.shape[0], dtype=bool)))
