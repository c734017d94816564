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
face-LP oracle).
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

    def contains(self, x, tol: float = POINT_TOL) -> bool:
        """One row of :meth:`contains_rows`."""
        return bool(self.contains_rows(as_vector(x)[None, :], tol)[0])

    def contains_rows(self, X, tol: float = POINT_TOL) -> np.ndarray:
        """Membership of each row of ``X``, at ``tol`` times ``1 + ||x||_inf``."""
        X = as_matrix(X)
        slack = tol * (1.0 + np.max(np.abs(X), axis=1))
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

    def apply(self, x) -> np.ndarray:
        return self.matrix @ as_vector(x, dim=self.dim)

    def in_domain(self, x, tol: float = POINT_TOL) -> bool:
        return self.domain is None or self.domain.contains(x, tol=tol)


def _margin(op: LinOp, halfnorm: HalfNorm, x: np.ndarray, sense: str):
    return halfnorm.pairing_extremum(x, op.matrix @ x, sense)


def is_dissipative_at(op: LinOp, halfnorm: HalfNorm, x, tol: float = POINT_TOL):
    """Best-case pairing: exists a subgradient with ``<Ax, u> <= 0``?

    Returns ``(verdict, margin)`` where the margin is the exact minimum of
    ``<Ax, u>`` over the subdifferential at ``x``.
    """
    x = as_vector(x, dim=op.dim)
    if not op.in_domain(x):
        raise OutsideDomain("dissipativity asked outside the operator domain")
    m, _ = _margin(op, halfnorm, x, "min")
    return m <= tol, m


def is_strictly_dissipative_at(op: LinOp, halfnorm: HalfNorm, x, tol: float = POINT_TOL):
    """Worst-case pairing: every subgradient must satisfy ``<Ax, u> <= 0``."""
    x = as_vector(x, dim=op.dim)
    if not op.in_domain(x):
        raise OutsideDomain("dissipativity asked outside the operator domain")
    m, _ = _margin(op, halfnorm, x, "max")
    return m <= tol, m


def _domain_test_points(op: LinOp, cone: PolyCone, n_samples: int, seed: int):
    """Structural points plus seeded samples, all inside the domain: their
    labels, and a matrix with one point per row.

    Structural: cone generators that lie in the domain, and the vertices of
    the domain clipped to the unit box (for conic domains these are exactly
    the normalized rays).  Random: Gaussian points for a free domain,
    convex combinations of the clipped vertices otherwise.  Above dimension
    10 the vertices are skipped (their count is not bounded there), and the
    samples are the first domain points of one batch of ``50 * n_samples``
    Gaussian draws, recorded in the returned notes.
    """
    rng = np.random.default_rng(seed)
    n = op.dim
    notes: list[str] = []
    G = cone.generators
    inside = np.arange(G.shape[0])
    if op.domain is not None:
        inside = inside[op.domain.contains_rows(G)]
    labels = [f"generator[{i}]" for i in inside]
    blocks = [G[inside]]

    if op.domain is None or (op.domain.ineq is None and op.domain.eq is None):
        labels += [f"sample[{k}]" for k in range(n_samples)]
        blocks.append(rng.standard_normal((n_samples, n)))
        return labels, np.vstack(blocks), notes

    if n > 10:
        draws = rng.standard_normal((50 * max(n_samples, 1), n))
        samples = draws[op.domain.contains_rows(draws)][:n_samples]
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
    if op.domain.ineq is not None:
        rows.append(op.domain.ineq[0])
        rhs.append(op.domain.ineq[1])
    if op.domain.eq is not None:
        E, d = op.domain.eq
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
    op: LinOp,
    halfnorm: HalfNorm,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = POINT_TOL,
) -> Report:
    """Sampled certificate of dissipativity over the operator domain.

    Checks every structural point (cone generators in the domain, clipped
    domain vertices) plus ``n_samples`` seeded pseudo-random domain points,
    all in one batched ``pairing_extrema`` call.  A violation yields
    ``fails`` with the point, the minimizing functional, and the margin;
    otherwise the verdict is an inconclusive pass, since sampling cannot
    prove the universal claim.
    """
    labels, X, sampler_notes = _domain_test_points(op, halfnorm.cone, n_samples, seed)
    witnesses = []
    if labels:
        margins, functionals = halfnorm.pairing_extrema(X, X @ op.matrix.T, "min")
        witnesses = [
            Witness(point=X[i], functional=functionals[i], margin=float(margins[i]),
                    label=labels[i])
            for i in np.flatnonzero(margins > tol)
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
        tolerance=tol,
        notes=notes + sampler_notes,
    )


def _cone_inside_domain(domain: PolyhedralSet, cone: PolyCone, tol: float = POINT_TOL) -> bool:
    """Conic containment: 0 in the domain and every ray direction admissible."""
    if domain.ineq is not None:
        G, h = domain.ineq
        if np.max(h) > tol:
            return False
        if np.min(G @ cone.generators.T) < -tol:
            return False
    if domain.eq is not None:
        E, d = domain.eq
        if np.max(np.abs(d)) > tol:
            return False
        if np.max(np.abs(E @ cone.generators.T)) > tol:
            return False
    return True


def has_positive_off_diagonal(
    op: LinOp, cone: PolyCone, tol: float = POINT_TOL, pair_tol: float = 1e-10
) -> Report:
    """Exact POD check over extreme pairs.

    Enumerates pairs (generator g of K, generator f of K') with
    ``<g, f> = 0`` and requires ``<A g, f> >= -tol``.  Sufficiency of the
    extreme-pair reduction is a property of polyhedral cones validated by a
    sampled LP oracle in the test-suite.  When the domain does not contain
    the whole cone the check restricts to the rays inside and says so.
    """
    A = op.matrix
    if A.shape[0] != cone.dim:
        raise DimensionMismatch("operator and cone dimensions differ")
    notes = []
    gens = cone.generators
    if op.domain is not None and not _cone_inside_domain(op.domain, cone):
        inside = np.flatnonzero(op.domain.contains_rows(gens))
        gens = gens[inside]
        notes.append(
            "partial: domain does not contain the cone; restricted to "
            f"{len(inside)} of {cone.generators.shape[0]} generators"
        )
    facets = cone.facets
    pairing = gens @ facets.T               # <g, f> for every pair
    image = (A @ gens.T).T @ facets.T       # <A g, f>
    witnesses = [
        Witness(
            point=gens[i].copy(),
            functional=facets[j].copy(),
            margin=float(image[i, j]),
            label=f"pair(g[{i}], f[{j}])",
        )
        for i, j in zip(*np.nonzero((pairing <= pair_tol) & (image < -tol)))
    ]
    verdict = FAILS if witnesses else HOLDS
    return Report(
        name="positive_off_diagonal",
        verdict=verdict,
        witnesses=witnesses,
        samples_used=0,
        tolerance=tol,
        notes=notes + ["exact extreme-pair check"],
    )


def is_metzler(matrix, tol: float = 1e-12) -> bool:
    """Off-diagonal sign test; agrees with the POD check on the orthant."""
    A = as_matrix(matrix, square=True)
    off = A - np.diag(np.diag(A))
    return bool(np.min(off) >= -tol)
