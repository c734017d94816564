"""Dense linear-algebra and linear-programming kernel.

Everything downstream (cones, half-norms, dissipativity certificates) reduces
to the operations in this module: the LP solver, the active-set enumeration
of vertices and facet normals, dense solves through one guarded inverse,
the O(n) tridiagonal solve of the Dirichlet stencil, and the matrix
exponential.  The LP solver is a two-phase dense simplex with Bland's
anti-cycling rule, started from the inequalities' surplus columns: phase 1
runs only for equality rows and rows ``G_i x >= h_i`` with ``h_i > 0``.
Problem sizes here are tiny, so a transparent, deterministic tableau beats
a sophisticated solver.

Tolerances: feasibility 1e-9, relative pivot threshold 1e-12 (its inverse
bounds the condition number of a dense solve).  Downstream modules inherit
these.  :func:`_active_set_vertices`, the one active-set loop, skips a set
``[G_S; E]`` whose determinant is 0 or whose unit rows
``G_S`` span a volume of at most 1e-10, and keeps a solution whose residual
is within ``1e-8 (1 + max |rhs|)`` and with ``G x >= h - 1e-9 (1 + ||x||_inf)``.
Every enumerated table keeps the rows that :func:`distinct_rows` keeps, in
the order of :func:`ordered_rows` (12-decimal keys): facet normals, largest
entry +-1, at 1e-10; unit ray directions at 1e-10; vertices, after a
collapse of 12-decimal repeats, at ``1e-9 (1 + ||x||_inf)``; the vertices of
a subdifferential at 1e-9.

Dense solves run on numpy alone.  Only the tridiagonal solver imports
``scipy.linalg``, on first use: it is most of the cost of importing the
package, and only a tridiagonal generator of size 3 or more needs it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedProblem,
    NormTooLarge,
    NumericalFailure,
    SingularMatrix,
)

FEAS_TOL = 1e-9
PIVOT_REL_TOL = 1e-12
# matrix_exp raises NormTooLarge above this ||tA||_inf
EXP_MAX_NORM = 1e5
# matrix_exp zeroes entries below this fraction of the largest magnitude
# before a squaring: the products of the rest, at least 2^-1022 max^2, stay
# normal
FLUSH_REL = 2.0**-511
# matrix_exp runs those scans only from this size up.  On the Dirichlet
# stencil at t = 0.1 (one BLAS thread, 2-core x86-64 VM) they cost 17% of a
# call at n = 63 and 2% at n = 127, and saved 11% at n = 168 and 28% at
# n = 255 (17.0 against 23.5 ms)
FLUSH_MIN_DIM = 160
# Active sets per stacked LAPACK call in _active_set_vertices, the one
# enumeration loop behind facets and vertices; bounds its memory
SUBSET_BLOCK = 2048

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size == 0:
        raise MalformedProblem(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise MalformedProblem("vector contains NaN or Inf entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise MalformedProblem(f"expected a nonempty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise MalformedProblem("matrix contains NaN or Inf entries")
    if square and m.shape[0] != m.shape[1]:
        raise MalformedProblem(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min/max ``objective @ x`` subject to ``A_eq x = b_eq`` and ``G x >= h``,
    over free variables."""

    objective: np.ndarray
    eq_constraints: tuple[np.ndarray, np.ndarray] | None = None
    ineq_constraints: tuple[np.ndarray, np.ndarray] | None = None
    sense: str = "min"

    def __post_init__(self):
        c = as_vector(self.objective)
        object.__setattr__(self, "objective", c)
        n = c.size
        for attr in ("eq_constraints", "ineq_constraints"):
            block = getattr(self, attr)
            if block is None:
                continue
            mat, rhs = block
            mat = as_matrix(mat)
            rhs = as_vector(rhs)
            if mat.shape[1] != n:
                raise MalformedProblem(
                    f"{attr}: constraint matrix has {mat.shape[1]} columns, "
                    f"objective has {n}"
                )
            if mat.shape[0] != rhs.size:
                raise MalformedProblem(
                    f"{attr}: {mat.shape[0]} rows but {rhs.size} right-hand sides"
                )
            object.__setattr__(self, attr, (mat, rhs))
        if self.sense not in ("min", "max"):
            raise MalformedProblem(f"sense must be 'min' or 'max', got {self.sense!r}")

    @property
    def dim(self) -> int:
        return self.objective.size


@dataclass(frozen=True, eq=False)
class LpResult:
    status: str
    value: float | None = None
    point: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _bland_iterate(T, basis, n_enter, tol, max_iter):
    """Run simplex pivots on tableau ``T`` until optimal or unbounded.

    Columns ``0..n_enter-1`` may enter; Bland's rule (lowest eligible index
    in, lowest basis label out) guarantees termination and makes the
    returned basis deterministic.
    """
    m = T.shape[0] - 1
    rhs = T[:m, -1]
    for _ in range(max_iter):
        eligible = T[m, :n_enter] < -tol
        if not eligible.any():
            return OPTIMAL
        col = int(np.argmax(eligible))
        column = T[:m, col]
        positive = column > tol
        if not positive.any():
            return UNBOUNDED
        ratios = np.where(positive, rhs / np.where(positive, column, 1.0), np.inf)
        best = ratios.min()
        ties = ratios <= best + tol * (1.0 + abs(best))
        row = int(np.argmin(np.where(ties, basis, np.iinfo(np.int64).max)))
        _pivot(T, basis, row, col)
    raise NumericalFailure("simplex iteration cap exceeded (degenerate pivoting)")


def _standard_form_simplex(A, b, c, slack, tol=FEAS_TOL):
    """min c@z s.t. A z = b, z >= 0 via two-phase tableau simplex.

    ``slack[i]`` is the column of row i's surplus variable, a -1 in that row
    and 0 elsewhere, or -1 for a row without one.  Every row with ``b <= 0``
    is negated, which turns its surplus into a +1 unit column at the value
    ``-b >= 0``: those columns are the initial basis.  Artificial variables,
    and phase 1, are added only for the rows left over (equality rows and
    rows with ``b > 0``), so an LP whose origin is feasible starts in phase 2.
    """
    m, n = A.shape
    max_iter = 2000 + 200 * (m + n)

    T0 = np.empty((m, n + 1))
    T0[:, :n] = A
    T0[:, n] = b
    flip = b <= 0
    T0[flip] *= -1.0
    basis = np.where(flip, slack, -1)
    free_rows = np.flatnonzero(basis < 0)

    if free_rows.size:
        n_art = free_rows.size
        T = np.zeros((m + 1, n + n_art + 1))
        T[:m, :n] = T0[:, :n]
        T[:m, -1] = T0[:, n]
        for k, i in enumerate(free_rows):
            T[i, n + k] = 1.0
            basis[i] = n + k
        # phase-1 reduced costs: artificials carry unit cost
        T[m, :n] = -T0[free_rows, :n].sum(axis=0)
        T[m, -1] = -T0[free_rows, n].sum()

        status = _bland_iterate(T, basis, n, tol, max_iter)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is bounded below
            raise NumericalFailure("phase 1 reported unbounded")
        if -T[m, -1] > tol:
            return INFEASIBLE, None, None

        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] < n:
                continue
            pivot_cols = np.abs(T[i, :n]) > tol
            if pivot_cols.any():
                _pivot(T, basis, i, int(np.argmax(pivot_cols)))
            else:
                keep[i] = False
        T = T[np.concatenate([keep, [True]])]
        basis = basis[keep]
        m = basis.size
        T2 = np.empty((m + 1, n + 1))
        T2[:m, :n] = T[:m, :n]
        T2[:m, -1] = T[:m, -1]
    else:
        T2 = np.empty((m + 1, n + 1))
        T2[:m] = T0

    c_basis = c[basis]
    T2[m, :n] = c - c_basis @ T2[:m, :n]
    T2[m, -1] = -(c_basis @ T2[:m, -1])

    status = _bland_iterate(T2, basis, n, tol, max_iter)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    z = np.zeros(n)
    z[basis] = T2[:m, -1]
    return OPTIMAL, float(c @ z), z


def solve_lp(problem: LpProblem) -> LpResult:
    """Solve a dense LP; deterministic for a fixed input.

    Free variables are split into positive and negative parts, inequalities
    (stacked below the equalities) get surplus variables, and the standard
    form is handed to the two-phase simplex, which starts from the surplus
    columns.  When the status is ``optimal`` the returned point is re-checked
    against every constraint at the feasibility tolerance.
    """
    n = problem.dim
    c = problem.objective if problem.sense == "min" else -problem.objective
    blocks = [blk for blk in (problem.eq_constraints, problem.ineq_constraints) if blk is not None]
    if not blocks:
        if np.any(np.abs(c) > 0):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, 0.0, np.zeros(n))

    M = np.vstack([mat for mat, _ in blocks])
    b = np.concatenate([rhs for _, rhs in blocks])
    n_ineq = 0 if problem.ineq_constraints is None else problem.ineq_constraints[0].shape[0]
    n_eq = M.shape[0] - n_ineq
    surplus = np.vstack([np.zeros((n_eq, n_ineq)), -np.eye(n_ineq)])
    A = np.hstack([M, -M, surplus])
    cost = np.concatenate([c, -c, np.zeros(n_ineq)])
    slack = np.concatenate([np.full(n_eq, -1), 2 * n + np.arange(n_ineq)])

    status, value, z = _standard_form_simplex(A, b, cost, slack)
    if status != OPTIMAL:
        return LpResult(status)

    x = z[:n] - z[n : 2 * n]
    _check_feasible(problem, x)
    signed = value if problem.sense == "min" else -value
    return LpResult(OPTIMAL, signed, x)


def _check_feasible(problem: LpProblem, x: np.ndarray, tol: float = 1e-7) -> None:
    """Defensive re-validation of an optimal point; failure means the tableau
    drifted, which callers must see rather than silently consume."""
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    if problem.eq_constraints is not None:
        A_eq, b_eq = problem.eq_constraints
        if np.max(np.abs(A_eq @ x - b_eq), initial=0.0) > tol * scale:
            raise NumericalFailure("simplex returned an infeasible point (equalities)")
    if problem.ineq_constraints is not None:
        G, h = problem.ineq_constraints
        if np.min(G @ x - h, initial=0.0) < -tol * scale:
            raise NumericalFailure("simplex returned an infeasible point (inequalities)")


def subset_blocks(m: int, r: int):
    """The r-subsets of ``range(m)`` in lexicographic order, as index arrays
    of at most ``SUBSET_BLOCK`` rows; the one subset loop of the package."""
    subsets = itertools.combinations(range(m), r)
    while (block := np.fromiter(itertools.islice(subsets, SUBSET_BLOCK), (np.intp, r))).size:
        yield block


def vertex_table(ineq: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """All vertices of ``{x : G x >= h}``, one per row: the candidates of
    :func:`_active_set_vertices` (callers bound ``C(m, n)``), repeats to 12
    decimals collapsed, then :func:`distinct_rows` and :func:`ordered_rows`.
    Unbounded polyhedra without a full active set yield fewer (possibly
    zero) rows."""
    G = as_matrix(ineq[0])
    h = as_vector(ineq[1], dim=G.shape[0])
    X = _active_set_vertices(G, h, np.empty((0, G.shape[1])), np.empty(0))
    # exact repeats (degenerate vertices) collapse on 12-decimal keys first
    _, first = np.unique(np.round(X, 12) + 0.0, axis=0, return_index=True)
    X = X[np.sort(first)]
    return ordered_rows(X[distinct_rows(X, 1e-9 * (1.0 + np.max(np.abs(X), axis=1)))])


def _active_set_vertices(G: np.ndarray, h: np.ndarray, E: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The vertices of ``{x : G x >= h, E x = d}``, in subset order with
    repeats: the solutions of ``M x = [h_S; d]``, ``M = [G_S; E]``, over the
    ``(n - r)``-subsets ``S`` of the rows of ``G`` that pass the module's
    rules.  The volume of ``G_S`` is ``|det M|`` times that of ``Y``, the
    last ``r`` columns of ``M^-1``."""
    (m, n), r = G.shape, E.shape[0]
    rows, rhs = np.vstack([G, E]), np.concatenate([h, d])
    norms = np.linalg.norm(G, axis=1)
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    found = [np.empty((0, n))]
    for subsets in subset_blocks(m, n - r):
        idx = np.hstack([subsets, np.broadcast_to(np.arange(m, m + r), (len(subsets), r))])
        M = rows[idx]
        det = np.abs(np.linalg.det(M))
        bound = 1e-10 * np.prod(norms[subsets], axis=1)
        regular = det > (0.0 if r else bound)
        M, det, bound, b = M[regular], det[regular], bound[regular], rhs[idx[regular]]
        X = np.linalg.solve(M, b[..., None])[..., 0].reshape(-1, n)
        ok = np.max(np.abs(np.einsum("kij,kj->ki", M, X) - b), axis=1, initial=0.0) <= 1e-8 * scale
        ok &= np.min(X @ G.T - h, axis=1) >= -FEAS_TOL * (1.0 + np.max(np.abs(X), axis=1))
        if r:  # the volume test, on the feasible sets only
            Y = np.linalg.solve(M[ok], np.broadcast_to(np.eye(n, r, r - n), (int(ok.sum()), n, r)))
            ok[ok] = det[ok] * np.sqrt(np.abs(np.linalg.det(Y.transpose(0, 2, 1) @ Y))) > bound[ok]
        found.append(X[ok])
    return np.concatenate(found)


def distinct_rows(X: np.ndarray, tol) -> np.ndarray:
    """Indices, ascending, of the rows of ``X`` more than ``tol`` (a scalar,
    or each row's own bound) in the max norm from every earlier kept row.

    One pairwise comparison, 256 rows at a time to bound memory, settles
    every row without an earlier near repeat, and a greedy pass in order the
    others: a chain of rows, each near the next, keeps every other row.
    """
    k = X.shape[0]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    kept = np.ones(k, dtype=bool)
    for start in range(0, k, 256):
        stop = min(start + 256, k)
        near = np.arange(stop) < np.arange(start, stop)[:, None]
        for col in X.T:
            near &= np.abs(col[start:stop, None] - col[None, :stop]) <= tol[start:stop, None]
        for i in np.flatnonzero(near.any(axis=1)):
            kept[start + i] = not np.any(near[i] & kept[:stop])
    return np.flatnonzero(kept)


def ordered_rows(X: np.ndarray) -> np.ndarray:
    """The rows of ``X`` sorted by their 12-decimal keys, ties in input order."""
    return X[np.lexsort(np.round(X, 12).T[::-1])]


def linear_solve(A, b) -> np.ndarray:
    """Solve ``A x = b`` as ``A^-1 b``, with the guard of :func:`_checked_inverse`."""
    A = as_matrix(A, square=True)
    return _checked_inverse(A) @ as_vector(b, dim=A.shape[0])


def factorized_solver(A):
    """One inverse, many solves; same guard as :func:`linear_solve`."""
    inverse = _checked_inverse(as_matrix(A, square=True))

    def solve(rhs):
        return inverse @ np.asarray(rhs, dtype=float)

    return solve


def _checked_inverse(M: np.ndarray) -> np.ndarray:
    """``M^-1`` by numpy (LAPACK), or :class:`SingularMatrix` when LAPACK finds
    ``M`` singular, the inverse is not finite, or ``||M||_1 ||M^-1||_1 > 1 /
    PIVOT_REL_TOL``: a condition number read off the inverse at no cost, which
    no scale of ``M`` moves (Higham, Accuracy and Stability, 2002)."""
    try:
        inverse = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("LAPACK reports a singular matrix") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.abs(M).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    if not cond <= 1.0 / PIVOT_REL_TOL:  # a NaN fails the test too
        raise SingularMatrix(f"condition number {cond:.3g} above {1.0 / PIVOT_REL_TOL:.0e}")
    return inverse


def tridiagonal_solve(sub, diag, sup, b) -> np.ndarray:
    """Solve ``T x = b`` for the tridiagonal ``T`` with the given sub-,
    main and superdiagonal, by LU with partial pivoting (LAPACK ``gtsv``)
    in O(n) work.

    ``b`` is a vector or an ``(n, k)`` matrix of right-hand sides; ``n`` must
    be at least 2.  Raises :class:`SingularMatrix` when a diagonal entry of
    ``U`` is at most 1e-12 relative to the largest entry of ``T``.
    """
    diag = as_vector(diag)
    n = diag.size
    if n < 2:
        raise MalformedProblem(f"tridiagonal_solve needs at least 2 unknowns, got {n}")
    sub = as_vector(sub, dim=n - 1)
    sup = as_vector(sup, dim=n - 1)
    b = as_vector(b) if np.ndim(b) == 1 else as_matrix(b)
    if b.shape[0] != n:
        raise DimensionMismatch(f"expected {n} rows of right-hand sides, got {b.shape[0]}")
    return _gtsv(sub, diag, sup, b)


def _gtsv(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`tridiagonal_solve` without its input checks: the solve and its
    pivot guard, which a NaN pivot fails too.  ``b`` is left as it is."""
    from scipy.linalg import lapack

    _, u, _, x, info = lapack.dgtsv(sub, diag, sup, b)
    scale = max(float(np.abs(np.concatenate([sub, diag, sup])).max()), sys.float_info.min)
    if info > 0 or not float(np.abs(u).min()) > PIVOT_REL_TOL * scale:
        raise SingularMatrix("pivot below 1e-12 relative threshold")
    return x


# Taylor coefficients 1/j! for j = 0..18 in matrix_exp's Paterson-Stockmeyer
# blocks: row i weighs I, C, C^2, C^3 for the degrees 4i..4i+3
_TAYLOR_BLOCKS = np.append([1.0 / math.factorial(j) for j in range(19)], 0.0).reshape(5, 4)


def matrix_exp(A, t: float = 1.0) -> np.ndarray:
    """Approximate ``exp(t A)`` by shifted scaling-and-squaring.

    The diagonal is shifted so the scaled matrix ``C`` is nonnegative
    whenever ``A`` has nonnegative off-diagonal entries.  Scaling targets
    ``||C||_inf <= 0.5``, where the degree-18 Taylor polynomial leaves a tail
    below 1e-22; it is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2,
    1973) in 7 matrix products: ``C^2, C^3, C^4``, then Horner in ``C^4``
    over blocks of ``I, C, C^2, C^3``.  Every coefficient ``1/j!`` is
    positive, and sums and products of nonnegative floats stay nonnegative,
    so entrywise positivity of the true exponential survives rounding
    exactly for such ``A``.  Relative accuracy is ~1e-12 for moderate norms
    and safely within 1e-9 across the guarded range.

    Before each squaring ``S = S @ S``, entries below ``FLUSH_REL`` times
    the largest magnitude of ``S`` are set to zero, so no product meets a
    subnormal number (the band edges of the Dirichlet stencil underflow
    there, and subnormal arithmetic made most of the time at N = 255).  The
    threshold is relative: an absolute one would wipe out every entry of an
    exponential that is tiny as a whole.  Zeroing keeps a nonnegative entry
    nonnegative.  The scans stop after the first that finds no entry to
    zero; an exact zero counts, so a banded ``S`` is scanned until its band
    fills.  Below ``FLUSH_MIN_DIM`` rows no scan runs: a squaring there
    costs less than the scan.  Raises :class:`NormTooLarge` when a squaring
    overflows.
    """
    S, k = _scaled_exp(A, t)
    flush = S.shape[0] >= FLUSH_MIN_DIM
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            if flush:
                tiny = max(float(S.max()), -float(S.min())) * FLUSH_REL
                small = S < tiny
                np.logical_and(small, S > -tiny, out=small)
                flush = bool(small.any())
                S[small] = 0.0
            S = S @ S
    return require_finite(S, f"exp({t:g} A)")


def _scaled_exp(A, t: float) -> tuple[np.ndarray, int]:
    """``exp(tA / 2^k)`` and ``k``: the guard, shift, scaling and Taylor
    phase of :func:`matrix_exp`, which squares the result ``k`` times."""
    A = as_matrix(A, square=True)
    if not 0 <= t < math.inf:
        raise MalformedProblem(f"matrix_exp requires a finite t >= 0, got {t}")
    B = t * A
    norm = float(np.max(np.abs(B).sum(axis=1), initial=0.0))
    if norm > EXP_MAX_NORM:
        raise NormTooLarge(f"||tA||_inf = {norm:.3g} exceeds guard {EXP_MAX_NORM:.3g}")

    shift = max(0.0, -float(np.min(np.diag(B))))
    P = B + shift * np.eye(B.shape[0])
    p_norm = float(np.max(np.abs(P).sum(axis=1), initial=0.0))
    k = max(0, math.ceil(math.log2(p_norm / 0.5))) if p_norm > 0.5 else 0
    C = P / 2.0**k

    n = B.shape[0]
    C2 = C @ C
    powers = np.stack([np.eye(n), C, C2, C2 @ C]).reshape(4, n * n)
    blocks = (_TAYLOR_BLOCKS @ powers).reshape(5, n, n)
    C4 = C2 @ C2
    S = blocks[4]
    for block in blocks[3::-1]:
        S = S @ C4 + block
    S *= math.exp(-shift / 2.0**k)
    return S, k


def require_finite(M: np.ndarray, what: str) -> np.ndarray:
    """``M`` itself when every entry is finite; :class:`NormTooLarge` naming
    ``what`` when a product overflowed on the way to it."""
    if not (math.isfinite(M.max()) and math.isfinite(M.min())):
        raise NormTooLarge(f"{what} overflows: an entry is not finite")
    return M
