"""Independent oracles shared by the test modules.

``enumerate_vertices`` is the brute-force loop that ``numerics.vertex_table``
replaced in the package: one least-squares solve per active set, kept here
so the batched enumeration and everything built on it have a reference
that shares none of their code.  ``adaptive_taylor_exp`` is the term-by-term
Taylor loop that ``numerics.matrix_exp`` replaced by a fixed-degree
Paterson-Stockmeyer evaluation, and ``unflushed_exp`` its squaring loop from
before it zeroed sub-threshold entries.  ``max_principle_loop`` and
``positive_part_loop`` are the sampled Dirichlet checks that the package
replaced by exact tests on the entries and row sums of ``A`` and ``T(t)``,
and ``array_propagator_reports``, ``array_unit_gauge_report`` and
``per_grid_cross_check`` the array-at-a-time forms of those exact tests and
of the resolvent cross-check that the package replaced by reports decided
from two scalars and one evaluation of the refined grid.
``dirichlet_exp`` is the scipy-free exponential of the Dirichlet stencil,
from its closed-form eigenpairs.  ``lp_first_ray_on_a_line`` is the per-ray
LP loop that ``cone._check_pointed`` replaced by a test on the facets of the
cone within the rays' span, and ``highs_totality_optima`` the per-facet LP
that ``PolyCone.is_total`` replaced by a match on the incidence matrix, here
solved by scipy's HiGHS.  ``loop_distinct_rows`` is the one-row-at-a-time
greedy loop behind ``numerics.distinct_rows``, which de-duplicates every
enumerated table.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from conesemi import numerics
from conesemi.errors import DimensionTooLarge, MalformedProblem
from conesemi.numerics import FEAS_TOL, LpProblem, as_matrix, as_vector, solve_lp
from conesemi.report import FAILS, HOLDS, Report, Witness


def enumerate_vertices(
    ineq: tuple[np.ndarray, np.ndarray], tol: float = FEAS_TOL
) -> list[np.ndarray]:
    """All vertices of ``{x : G x >= h}`` by brute-force active-set enumeration.

    Intended as an independent oracle for :func:`solve_lp` and for the small
    polyhedra that appear in domain and subdifferential descriptions; guarded
    to dimension 10.  Unbounded polyhedra without a full active set simply
    yield fewer (possibly zero) vertices.
    """
    G, h = ineq
    G = as_matrix(G)
    h = as_vector(h)
    m, n = G.shape
    if h.size != m:
        raise MalformedProblem(f"{m} constraint rows but {h.size} right-hand sides")
    if n > 10:
        raise DimensionTooLarge(f"vertex enumeration guarded to dim <= 10, got {n}")

    scale = 1.0 + float(np.max(np.abs(h), initial=0.0))
    vertices: list[np.ndarray] = []
    for subset in itertools.combinations(range(m), n):
        M = G[list(subset)]
        if np.linalg.matrix_rank(M, tol=1e-10) < n:
            continue
        x = np.linalg.lstsq(M, h[list(subset)], rcond=None)[0]
        if np.max(np.abs(M @ x - h[list(subset)])) > 1e-8 * scale:
            continue
        if np.min(G @ x - h) < -tol * (1.0 + float(np.max(np.abs(x)))):
            continue
        if not any(np.max(np.abs(x - v)) <= 1e-9 * (1.0 + np.max(np.abs(v))) for v in vertices):
            vertices.append(x)
    vertices.sort(key=lambda v: tuple(np.round(v, 12)))
    return vertices


def loop_distinct_rows(X, tol) -> np.ndarray:
    """Greedy de-duplication one row at a time: the indices of the rows of
    ``X`` more than ``tol`` (a scalar, or one bound per row for comparing
    that row) in the max norm from every earlier kept row."""
    X = np.asarray(X, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (X.shape[0],))
    kept: list[int] = []
    for i in range(X.shape[0]):
        if not any(np.max(np.abs(X[i] - X[j])) <= tol[i] for j in kept):
            kept.append(i)
    return np.array(kept, dtype=np.intp)


def adaptive_taylor_exp(A, t: float = 1.0) -> np.ndarray:
    """``exp(t A)`` with the shift and scaling of ``matrix_exp``, summing
    Taylor terms one product at a time until a term drops below 1e-19 of the
    sum, then squaring back."""
    B = t * np.asarray(A, dtype=float)
    n = B.shape[0]
    shift = max(0.0, -float(np.min(np.diag(B))))
    P = B + shift * np.eye(n)
    p_norm = float(np.max(np.abs(P).sum(axis=1), initial=0.0))
    k = max(0, math.ceil(math.log2(p_norm / 0.5))) if p_norm > 0.5 else 0
    C = P / 2.0**k
    S = np.eye(n)
    term = np.eye(n)
    for j in range(1, 40):
        term = term @ C / j
        S = S + term
        if float(np.max(np.abs(term))) < 1e-19 * float(np.max(np.abs(S))):
            break
    S *= math.exp(-shift / 2.0**k)
    for _ in range(k):
        S = S @ S
    return S


def unflushed_exp(A, t: float = 1.0) -> np.ndarray:
    """``matrix_exp`` with its squarings as they were before the flush:
    ``exp(tA / 2^k)`` from the same Taylor phase, squared ``k`` times with
    every entry kept, subnormal or not."""
    S, k = numerics._scaled_exp(A, t)
    for _ in range(k):
        S = S @ S
    return S


def dirichlet_exp(n: int, t: float) -> np.ndarray:
    """``exp(tA)`` for the stencil ``(1/h^2) (1, -2, 1)`` on ``n`` interior
    nodes, ``h = 1/(n+1)``: ``S diag(e^{t lambda}) S`` with the eigenvalues
    ``lambda_j = -(4/h^2) sin^2(j pi h/2)`` and the orthogonal, symmetric
    sine basis ``S_ij = sqrt(2h) sin(i j pi h)``."""
    h = 1.0 / (n + 1)
    j = np.arange(1, n + 1)
    lam = -(4.0 / h**2) * np.sin(j * np.pi * h / 2.0) ** 2
    S = np.sqrt(2.0 * h) * np.sin(np.outer(j, j) * np.pi * h)
    return (S * np.exp(t * lam)) @ S


def max_principle_margin(A, x) -> tuple[int, float] | None:
    """The discrete maximum principle at one point: ``None`` when the
    maximum of ``x`` is negative, else the node ``j`` among those where
    ``x`` attains its maximum with the largest ``(A x)_j``, and that value.
    A violation is a margin above 1e-9."""
    top = np.max(x)
    if top < 0:
        return None
    nodes = np.flatnonzero(x == top)
    values = (A @ x)[nodes]
    k = int(np.argmax(values))
    return int(nodes[k]), float(values[k])


def max_principle_loop(A, n_samples: int, rng) -> tuple[int, list[Witness]]:
    """The discrete maximum principle sampled one point at a time: draw
    ``x``, skip it when its maximum is negative, else a witness when
    :func:`max_principle_margin` exceeds 1e-9.  Returns the number of
    points used and the witnesses."""
    witnesses = []
    used = 0
    for _ in range(n_samples):
        x = rng.standard_normal(A.shape[0])
        found = max_principle_margin(A, x)
        if found is None:
            continue
        used += 1
        j, margin = found
        if margin > 1e-9:
            witnesses.append(
                Witness(point=x, functional=None, margin=margin, label=f"max at node {j}")
            )
    return used, witnesses


def positive_part_growth(T, x) -> float:
    """``||(T x)^+||_inf - ||x^+||_inf``; a violation of contractivity for
    the positive-part sup-norm is a growth above 1e-8."""
    return float(np.max(np.maximum(T @ x, 0.0)) - np.max(np.maximum(x, 0.0)))


def positive_part_loop(T, n_samples: int, rng) -> list[Witness]:
    """Contractivity for the positive-part sup-norm sampled one point at a
    time: a witness at each drawn ``x`` whose :func:`positive_part_growth`
    exceeds 1e-8."""
    witnesses = []
    for i in range(n_samples):
        x = rng.standard_normal(T.shape[0])
        growth = positive_part_growth(T, x)
        if growth > 1e-8:
            witnesses.append(Witness(point=x, functional=None, margin=growth, label=f"sample[{i}]"))
    return witnesses


def lp_first_ray_on_a_line(R) -> int | None:
    """The first ray ``i`` whose negative is a conic combination of the rays,
    one feasibility LP per ray with ``w >= 0`` as identity rows; ``None``
    when the cone is pointed."""
    R = as_matrix(R)
    k = R.shape[0]
    for i in range(k):
        problem = LpProblem(objective=np.zeros(k), eq_constraints=(R.T, -R[i]),
                            ineq_constraints=(np.eye(k), np.zeros(k)))
        if solve_lp(problem).optimal:
            return i
    return None


def highs_totality_optima(Phi, facets) -> np.ndarray:
    """The totality LP per facet solved by scipy's HiGHS: ``min <x, f>`` over
    ``{Phi x >= 0, ||x||_inf <= 1}`` for each row ``f`` of ``facets``.  The
    family ``Phi`` of functionals positive on a cone is total exactly when no
    facet normal of the cone has a negative optimum; the box bound is lossless
    by homogeneity."""
    Phi = as_matrix(Phi)
    optima = []
    for f in as_matrix(facets):
        res = linprog(f, A_ub=-Phi, b_ub=np.zeros(Phi.shape[0]), bounds=(-1, 1), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.status == 0, res.message
        optima.append(res.fun)
    return np.array(optima)


def array_positivity_report(cone, worst, col_margins, negative, tol) -> Report:
    """The report of ``is_positive_operator`` from each generator's smallest
    margin, at facet ``worst[j]``, and the mask ``negative``, built whole."""
    witnesses = [
        Witness(point=cone.generators[j].copy(), functional=cone.facets[worst[j]].copy(),
                margin=float(col_margins[j]), label=f"T(generator[{j}]) violates facet[{worst[j]}]")
        for j in np.flatnonzero(negative)
    ]
    return Report(name="positive_operator", verdict=FAILS if witnesses else HOLDS,
                  witnesses=witnesses, tolerance=tol, notes=["exact generator/facet check"],
                  data={"worst_margin": float(np.min(col_margins))})


def array_unit_gauge_verdict(name, rows, mins, sums, bound, tol, exempt_diagonal) -> Report:
    """The ``||x^+||_inf`` report from the column minima and row sums, with
    every candidate's margin in one array and ``worst_margin`` its maximum."""
    n = mins.size
    top = int(sums.argmax())
    margins = np.append(-mins, sums[top] - bound)
    witnesses = [
        Witness(point=-np.eye(n)[j], functional=None, margin=float(margins[j]),
                label=f"x = -e[{j}]: entry ({rows[j]}, {j}) is negative")
        for j in (margins[:n] > tol).nonzero()[0]
    ]
    if margins[n] > tol:
        witnesses.append(Witness(point=np.ones(n), functional=None, margin=float(margins[n]),
                                 label=f"x = 1: row sum {top} exceeds {bound:g}"))
    sign = "off the diagonal" if exempt_diagonal else "entrywise"
    return Report(name=name, verdict=FAILS if witnesses else HOLDS, witnesses=witnesses,
                  tolerance=tol, notes=[f"exact: nonnegative {sign}, row sums at most {bound:g}"],
                  data={"worst_margin": float(margins.max())})


def array_unit_gauge_report(name, M, bound, tol, exempt_diagonal) -> Report:
    """:func:`array_unit_gauge_verdict` of the matrix ``M``."""
    n = M.shape[0]
    cols = np.where(np.eye(n, dtype=bool), np.inf, M) if exempt_diagonal else M
    rows = np.argmin(cols, axis=0)
    return array_unit_gauge_verdict(name, rows, cols[rows, np.arange(n)], M.sum(axis=1), bound,
                                    tol, exempt_diagonal)


def array_propagator_reports(T, orthant) -> tuple[Report, Report]:
    """Positivity on the standard ``orthant`` and ``||x^+||_inf``
    contractivity of ``T``, each from whole arrays of margins and masks."""
    rows = T.argmin(axis=0)
    mins = T[rows, np.arange(T.shape[0])]
    margins = mins + 0.0
    negative = margins < 0.0
    if negative.any():
        negative &= margins < -1e-12 * max(float(T.max()), -float(margins.min()))
    return (array_positivity_report(orthant, rows, margins, negative, 1e-12),
            array_unit_gauge_verdict("", rows, mins, T.sum(axis=1), 1.0, 1e-8, False))


def two_pass_closed_form(grid, y) -> np.ndarray:
    """The continuum resolvent of ``y`` on the nodes of ``grid``, each tail
    integral its own cumulative sum, ``e^s`` and ``e^-s`` from the grid's
    own nodes."""
    s = np.concatenate([[0.0], grid.nodes, [1.0]]).reshape((-1,) + (1,) * (y.ndim - 1))
    zero = np.zeros((1,) + y.shape[1:])
    vals = np.concatenate([zero, y, zero])
    grow, fall = np.exp(s), np.exp(-s)

    def tail(f):
        panels = 0.5 * np.diff(s, axis=0) * (f[:-1] + f[1:])
        out = np.zeros_like(f)
        out[:-1] = np.cumsum(panels[::-1], axis=0)[::-1]
        return out

    particular = 0.5 * (grow * tail(fall * vals) - fall * tail(grow * vals))
    e = math.e
    det = 1.0 / e - e
    a = (particular[-1] - particular[0] / e) / det
    b = (e * particular[0] - particular[-1]) / det
    return (particular + a * grow + b * fall)[1:-1]


def per_grid_cross_check(grid) -> Report:
    """The resolvent cross-check with each grid's nodes, right-hand sides and
    closed form evaluated on that grid alone."""
    from conesemi.dirichlet import RHS_CASES, Grid, fd_resolvent, order_witnesses

    grids = [grid, Grid(2 * grid.n_interior + 1)]
    errors = []
    for g in grids:
        y = np.column_stack([rhs(g.nodes) for rhs in RHS_CASES.values()])
        errors.append(np.max(np.abs(fd_resolvent(g, y) - two_pass_closed_form(g, y)), axis=0))
    data, witnesses = {}, []
    for label, (coarse, fine) in zip(RHS_CASES, np.transpose(errors)):
        coarse, fine = float(coarse), float(fine)
        ratio = coarse / fine if fine > 0 else None
        data[label] = {"sup_error": coarse, "refined_sup_error": fine, "ratio": ratio}
        rows = [{"n_interior": g.n_interior, "h": g.h, "sup_error": err, "ratio": r}
                for g, err, r in zip(grids, (coarse, fine), (None, ratio))]
        witnesses += order_witnesses(label, rows)
    return Report(name="resolvent_cross_check", verdict=FAILS if witnesses else HOLDS,
                  witnesses=witnesses, tolerance=0.0,
                  notes=["second-order agreement between stencil solve and closed form"],
                  data=data)
