"""Dense linear-algebra and linear-programming kernel.

Everything downstream (cones, half-norms, dissipativity certificates) reduces
to the operations in this module: the LP solver, the vertex enumeration,
dense LU solves, the O(n) tridiagonal solve of the Dirichlet stencil, and
the matrix exponential.  The LP solver is a two-phase dense simplex with
Bland's anti-cycling rule: problem sizes here are tiny (a few hundred
variables at most for the finest Dirichlet grid), so a transparent,
deterministic tableau beats a sophisticated solver.

Tolerances: feasibility 1e-9, relative pivot threshold 1e-12.  Downstream
modules inherit these.  Every enumerated table keeps the rows that
:func:`distinct_rows` keeps, in the order of :func:`ordered_rows` (12-decimal
keys): facet normals, largest entry +-1, at 1e-10; unit ray directions at
1e-10; vertices, after a collapse of 12-decimal repeats, at
``1e-9 (1 + ||x||_inf)``; the vertices of a subdifferential at 1e-9.

The LU and tridiagonal solvers import ``scipy.linalg`` on first use: it is
most of the cost of importing the package, and many runs never factor a
matrix.
"""

from __future__ import annotations

import itertools
import math
import warnings
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
# Subsets per stacked LAPACK call in the subset enumerations (facets,
# vertices); bounds their memory
SUBSET_BLOCK = 4096

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


def _standard_form_simplex(A, b, c, tol=FEAS_TOL):
    """min c@z s.t. A z = b, z >= 0 via two-phase tableau simplex.

    Unit columns (surplus variables after sign-flipping) seed the initial
    basis; artificial variables are added only for the rows left over, so
    phase 1 is skipped entirely whenever the geometry allows it.
    """
    m, n = A.shape
    max_iter = 2000 + 200 * (m + n)

    T0 = np.empty((m, n + 1))
    T0[:, :n] = A
    T0[:, n] = b
    flip = b < 0
    T0[flip] *= -1.0

    basis = np.full(m, -1, dtype=np.int64)
    col_nonzeros = np.count_nonzero(T0[:, :n], axis=0)
    for j in range(n):
        if col_nonzeros[j] != 1:
            continue
        i = int(np.argmax(np.abs(T0[:, j]) > 0))
        if basis[i] >= 0 or T0[i, j] <= 1e-12:
            continue
        T0[i] /= T0[i, j]
        basis[i] = j
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
    form is handed to the two-phase simplex.  When the status is ``optimal``
    the returned point is re-checked against every constraint at the
    feasibility tolerance.
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
    surplus = np.vstack([np.zeros((M.shape[0] - n_ineq, n_ineq)), -np.eye(n_ineq)])
    A = np.hstack([M, -M, surplus])
    cost = np.concatenate([c, -c, np.zeros(n_ineq)])

    status, value, z = _standard_form_simplex(A, b, cost)
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
    """All vertices of ``{x : G x >= h}``, one per row, from batched
    active-set solves.

    The ``C(m, n)`` active sets are solved ``SUBSET_BLOCK`` at a time, each
    block in one stacked LAPACK call, so memory stays bounded; callers bound
    ``C(m, n)`` themselves.  A set counts as singular when the determinant
    of its rows, scaled to unit length (a zero row stays zero), is at most
    1e-10.  Repeats to 12 decimals collapse, then :func:`distinct_rows`
    and :func:`ordered_rows` apply.  Unbounded polyhedra without a full
    active set yield fewer (possibly zero) rows.
    """
    G, h = ineq
    G = as_matrix(G)
    h = as_vector(h, dim=G.shape[0])
    m, n = G.shape
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    unit = np.divide(G, norms, out=np.zeros_like(G), where=norms > 0)
    scale = 1.0 + float(np.max(np.abs(h), initial=0.0))
    found = [np.empty((0, n))]
    for subsets in subset_blocks(m, n):
        idx = subsets[np.abs(np.linalg.det(unit[subsets])) > 1e-10]
        M, rhs = G[idx], h[idx]
        X = np.linalg.solve(M, rhs[..., None])[..., 0].reshape(-1, n)
        ok = np.max(np.abs(np.einsum("kij,kj->ki", M, X) - rhs), axis=1, initial=0.0) <= 1e-8 * scale
        ok &= np.min(X @ G.T - h, axis=1) >= -FEAS_TOL * (1.0 + np.max(np.abs(X), axis=1))
        found.append(X[ok])
    X = np.concatenate(found)
    # exact repeats (degenerate vertices) collapse on 12-decimal keys first
    _, first = np.unique(np.round(X, 12) + 0.0, axis=0, return_index=True)
    X = X[np.sort(first)]
    return ordered_rows(X[distinct_rows(X, 1e-9 * (1.0 + np.max(np.abs(X), axis=1)))])


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
    """Solve ``A x = b`` by LU with partial pivoting (scipy backend).

    Raises :class:`SingularMatrix` when the smallest pivot drops below
    1e-12 relative to the matrix scale.
    """
    import scipy.linalg

    A = as_matrix(A, square=True)
    b = as_vector(b, dim=A.shape[0])
    lu, piv = _lu_factor_checked(A)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def _lu_factor_checked(A: np.ndarray):
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    scale = max(float(np.max(np.abs(A))), np.finfo(float).tiny)
    if float(np.min(np.abs(np.diag(lu)))) <= PIVOT_REL_TOL * scale:
        raise SingularMatrix("pivot below 1e-12 relative threshold")
    return lu, piv


def factorized_solver(A):
    """One LU factorization, many solves; same pivot guard as linear_solve."""
    A = as_matrix(A, square=True)
    import scipy.linalg

    lu_piv = _lu_factor_checked(A)

    def solve(rhs):
        return scipy.linalg.lu_solve(lu_piv, np.asarray(rhs, dtype=float), check_finite=False)

    return solve


def tridiagonal_solve(sub, diag, sup, b) -> np.ndarray:
    """Solve ``T x = b`` for the tridiagonal ``T`` with the given sub-,
    main and superdiagonal, by LU with partial pivoting (LAPACK ``gtsv``)
    in O(n) work.

    ``b`` is a vector or an ``(n, k)`` matrix of right-hand sides; ``n`` must
    be at least 2.  Same pivot guard as :func:`linear_solve`: raises
    :class:`SingularMatrix` when a diagonal entry of ``U`` is at most 1e-12
    relative to the largest entry of ``T``.
    """
    from scipy.linalg import lapack

    diag = as_vector(diag)
    n = diag.size
    if n < 2:
        raise MalformedProblem(f"tridiagonal_solve needs at least 2 unknowns, got {n}")
    sub = as_vector(sub, dim=n - 1)
    sup = as_vector(sup, dim=n - 1)
    b = as_vector(b) if np.ndim(b) == 1 else as_matrix(b)
    if b.shape[0] != n:
        raise DimensionMismatch(f"expected {n} rows of right-hand sides, got {b.shape[0]}")
    _, u, _, x, info = lapack.dgtsv(sub, diag, sup, b)
    scale = max(float(np.max(np.abs(np.concatenate([sub, diag, sup])))), np.finfo(float).tiny)
    if info > 0 or float(np.min(np.abs(u))) <= PIVOT_REL_TOL * scale:
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
    fills.  Raises :class:`NormTooLarge` when a squaring overflows.
    """
    S, k = _scaled_exp(A, t)
    flush = True
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
