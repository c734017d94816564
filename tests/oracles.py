"""Independent oracles shared by the test modules.

``enumerate_vertices`` is the brute-force loop that ``numerics.vertex_table``
replaced in the package: one least-squares solve per active set, kept here
so the batched enumeration and everything built on it have a reference
that shares none of their code.  ``adaptive_taylor_exp`` is the term-by-term
Taylor loop that ``numerics.matrix_exp`` replaced by a fixed-degree
Paterson-Stockmeyer evaluation, and ``unflushed_exp`` its squaring loop from
before it zeroed sub-threshold entries.  ``max_principle_loop`` and
``positive_part_loop`` are the sampled Dirichlet checks that the package
replaced by exact tests on the entries and row sums of ``A`` and ``T(t)``.
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
from conesemi.report import Witness


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
