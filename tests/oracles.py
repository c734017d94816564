"""Independent oracles shared by the test modules.

``enumerate_vertices`` is the brute-force loop that ``numerics.vertex_table``
replaced in the package: one least-squares solve per active set, kept here
so the batched enumeration and everything built on it have a reference
that shares none of their code.
"""

import itertools

import numpy as np

from conesemi.errors import DimensionTooLarge, MalformedProblem
from conesemi.numerics import FEAS_TOL, as_matrix, as_vector


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
