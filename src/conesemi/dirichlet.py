"""Second-derivative operator on [0,1] with zero boundary values, at grid
scale: the worked example that feeds every pipeline.

The interior-node discretization is the tridiagonal stencil
``(1/h^2) * (1, -2, 1)``; boundary values are implicitly zero.  Its
resolvent is solved as the tridiagonal system it is, in O(N) work with no
N x N matrix (the LAPACK ``gtsv`` of
:func:`~conesemi.numerics.tridiagonal_solve`).  The
continuum resolvent ``(I - A)^-1`` has a variation-of-parameters closed
form whose two integrals are evaluated by composite trapezoid quadrature --
second order, matching the stencil, so the finite-difference/closed-form
comparison displays a clean O(h^2) decay.  :data:`RHS_CASES` and
:func:`order_witnesses` define that comparison, and the witness of its
failure, for the checks here and for the ``dirichlet-demo`` command alike;
the cross-check evaluates the refined grid once, as every other refined node
is a coarse node, bit for bit.

:func:`run_dirichlet_checks` runs its per-propagator checks through
:func:`~conesemi.semigroup.grid_reports`, the one loop over
:func:`~conesemi.semigroup.propagators` that the semigroup pipelines use
too -- the backward-Euler step as a tridiagonal solve set up once per
grid, and every ``expm`` propagator of the grid from one exponential at its
smallest time, so the ``matrix_exp`` guard bounds only that step and
``T(5)`` is within reach at N = 255.  The positive-part sup-norm
``||x^+||_inf`` is the order-unit gauge of ``1`` on the orthant, so its two
checks are finite tests (Arendt, Chernoff and Kato, J. Operator Theory 8,
1982; for the Metzler case, the inf-logarithmic norm of Soderlind, BIT 46,
2006): ``T(t)`` contracts it exactly when ``T(t) >= 0`` and ``T(t)1 <= 1``,
and the maximum principle (``A`` dissipative for it) holds exactly when
``A`` is Metzler and ``A1 <= 0``.  Both read the column minima and row sums
of one matrix.  So does positivity on the orthant, whose margins are the
entries of ``T(t)``: :func:`_propagator_reports` makes one pass over each
propagator for its positivity (the report of
:func:`~conesemi.semigroup.is_positive_operator`, with generator/facet
witnesses) and its positive-part contractivity, both decided from the
smallest column minimum and the largest row sum.  Every check here is exact
and a pass says ``holds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import PolyCone
from .dissipativity import LinOp, has_positive_off_diagonal
from .errors import DimensionMismatch, MalformedProblem
from .numerics import _gtsv, as_matrix, as_vector
from .report import FAILS, HOLDS, Report, Witness
from .semigroup import SemigroupConfig, _positivity_report, grid_reports

# right-hand sides of the resolvent cross-check, evaluated at the nodes
RHS_CASES = {
    "constant": lambda t: np.ones_like(t),
    "sine": lambda t: np.sin(np.pi * t),
}


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on [0,1] with N interior nodes."""

    n_interior: int

    def __post_init__(self):
        n = self.n_interior  # the rule of SemigroupConfig.euler_steps: no bool, no float
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 2):
            raise MalformedProblem(f"need at least 2 interior nodes, an integer, got {n!r}")
        object.__setattr__(self, "n_interior", int(n))  # a numpy uint8 would wrap in 2 n + 1

    @property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_interior + 1)


def dirichlet_laplacian(grid: Grid) -> LinOp:
    """Tridiagonal stencil matrix; Metzler by construction."""
    n = grid.n_interior
    scale = 1.0 / grid.h**2
    A = np.zeros((n, n))
    np.fill_diagonal(A, -2.0 * scale)
    np.fill_diagonal(A[1:], scale)
    np.fill_diagonal(A[:, 1:], scale)
    return LinOp(A)


def fd_resolvent(grid: Grid, y) -> np.ndarray:
    """Finite-difference solve of ``(I - A) x = y`` on the interior nodes,
    as the tridiagonal system it is.  ``y`` is a vector or an ``(n, k)``
    block with one right-hand side per column."""
    return _fd_solve(grid, _rhs(grid, y))


def _fd_solve(grid: Grid, y: np.ndarray) -> np.ndarray:
    """:func:`fd_resolvent` of a checked ``y``."""
    n = grid.n_interior
    scale = 1.0 / grid.h**2
    off = np.full(n - 1, -scale)
    return _gtsv(off, np.full(n, 1.0 + 2.0 * scale), off, y)


def resolvent_closed_form(grid: Grid, y) -> np.ndarray:
    """Continuum solution of ``x - x'' = y`` with zero boundary values, for
    a vector ``y`` or for each column of an ``(n, k)`` block.

    Builds the particular solution from the two exponential-weighted tail
    integrals of ``y`` (extended by zero to the boundary, harmless because
    the subsequent boundary fit absorbs any homogeneous contamination),
    then fixes the two free coefficients from ``x(0) = x(1) = 0``.
    """
    y = _rhs(grid, y)
    return _closed_form(*_closed_form_terms(grid.nodes, y.reshape(y.shape[0], -1))).reshape(y.shape)


def _closed_form_terms(nodes: np.ndarray, y: np.ndarray) -> tuple:
    """The arguments of :func:`_closed_form` for the block ``y`` on ``nodes``: ``s``, the nodes
    padded with 0 and 1 as a column, ``e^s``, ``e^-s`` and ``[e^-s y | e^s y]``, 0 at the ends."""
    s = np.concatenate([[0.0], nodes, [1.0]])[:, None]
    zero = np.zeros((1, y.shape[1]))
    vals = np.concatenate([zero, y, zero])
    grow, fall = np.exp(s), np.exp(-s)
    return s, grow, fall, np.concatenate([fall * vals, grow * vals], axis=1)


def _closed_form(s, grow, fall, weighted) -> np.ndarray:
    """:func:`resolvent_closed_form` from :func:`_closed_form_terms`, with
    both tail integrals in one cumulative sum."""
    tails = _right_cumulative_trapezoid(s, weighted)
    k = weighted.shape[1] // 2
    particular = 0.5 * (grow * tails[:, :k] - fall * tails[:, k:])
    # x(0) = x(1) = 0 fixes a, b in a e^s + b e^-s: Cramer's rule on
    # [[1, 1], [e, 1/e]] (a, b) = -(particular[0], particular[-1])
    e = math.e
    det = 1.0 / e - e
    a = (particular[-1] - particular[0] / e) / det
    b = (e * particular[0] - particular[-1]) / det
    full = particular + a * grow + b * fall
    return full[1:-1]


def _rhs(grid: Grid, y) -> np.ndarray:
    """``y`` as a finite vector or ``(n, k)`` block on the interior nodes."""
    y = as_vector(y) if np.ndim(y) == 1 else as_matrix(y)
    if y.shape[0] != grid.n_interior:
        raise DimensionMismatch(f"expected {grid.n_interior} rows of right-hand sides, got {y.shape[0]}")
    return y


def _right_cumulative_trapezoid(s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """tail[j] = composite-trapezoid integral of f from s[j] to s[-1],
    along the first axis."""
    panels = 0.5 * (s[1:] - s[:-1]) * (f[:-1] + f[1:])
    tail = np.zeros_like(f)
    tail[:-1] = np.cumsum(panels[::-1], axis=0)[::-1]
    return tail


def _sup_errors(grid: Grid, y, terms: tuple | None = None) -> np.ndarray:
    """Sup-error of the FD solve against the closed form per column of the block ``y`` (a vector
    is one column); ``terms``, the :func:`_closed_form_terms` of a checked ``y``, skip the check."""
    if terms is None:
        y = _rhs(grid, y).reshape(grid.n_interior, -1)
        terms = _closed_form_terms(grid.nodes, y)
    return np.max(np.abs(_fd_solve(grid, y) - _closed_form(*terms)), axis=0)


def _convergence_rows(n_values, errors) -> list[dict]:
    """The rows of a convergence study from its sup-errors on the grids
    ``n_values``, each with the error ratio against the previous (coarser)
    grid."""
    rows = []
    prev = None
    for n, err in zip(n_values, errors):
        err = float(err)
        rows.append(
            {
                "n_interior": int(n),
                "h": Grid(n).h,
                "sup_error": err,
                "ratio": (prev / err) if (prev is not None and err > 0) else None,
            }
        )
        prev = err
    return rows


def convergence_study(n_values, rhs) -> list[dict]:
    """Sup-error of the FD resolvent against the closed form per grid.

    ``rhs`` is a callable evaluated at the interior nodes.  Rows carry the
    error ratio against the previous (coarser) grid; for doubled resolution
    a second-order method shows ratios near 4.
    """
    grids = [Grid(n) for n in n_values]
    return _convergence_rows(n_values, [_sup_errors(g, rhs(g.nodes)).item() for g in grids])


def format_convergence_table(rows: list[dict], label: str = "") -> str:
    lines = []
    if label:
        lines.append(f"convergence: {label}")
    lines.append(f"{'N':>5s} {'h':>10s} {'sup-error':>12s} {'ratio':>8s}")
    for r in rows:
        ratio = f"{r['ratio']:.2f}" if r["ratio"] is not None else "-"
        lines.append(
            f"{r['n_interior']:5d} {r['h']:10.6f} {r['sup_error']:12.3e} {ratio:>8s}"
        )
    return "\n".join(lines)


def run_dirichlet_checks(
    grid: Grid,
    cfg: SemigroupConfig | None = None,
    n_samples: int = 100,
    seed: int = 0,
) -> Report:
    """Full pipeline on one grid, every check decided exactly: POD, the
    discrete maximum principle, the resolvent cross-check (against the
    refined grid for the order estimate), then per propagator its
    positivity (``worst_margin`` is the smallest entry of ``T(t)``) and its
    contractivity for the positive-part sup-norm, both from one pass over
    ``T(t)`` (:func:`_propagator_reports`).

    ``n_samples`` and ``seed`` are ignored: nothing here is sampled.  They
    stay in the signature only because the benchmark workloads in
    ``perfbench/workloads.py`` still pass them.
    """
    cfg = cfg or SemigroupConfig(method="expm")
    op = dirichlet_laplacian(grid)
    orthant = PolyCone.standard_orthant(grid.n_interior)

    pod = has_positive_off_diagonal(op, orthant)
    pod.name = "pod"
    parts = [
        pod,
        _unit_gauge_report("discrete_maximum_principle", op.matrix, 0.0, 1e-9, True),
        _cross_check_report(grid),
        *grid_reports(op, cfg, ("positive", "positive_part_contractive"),
                      lambda T: _propagator_reports(T, orthant)),
    ]
    return Report(
        name=f"dirichlet_checks[N={grid.n_interior}]",
        verdict=FAILS if any(p.verdict == FAILS for p in parts) else HOLDS,
        tolerance=1e-8,
        notes=["every check is exact"],
        subreports=parts,
    )


def _propagator_reports(T: np.ndarray, orthant: PolyCone) -> tuple[Report, Report]:
    """Positivity of a propagator ``T`` on ``orthant``, the standard orthant,
    and its contractivity for ``||x^+||_inf``, from one pass over ``T``: its
    column minima and row sums.  Field for field, the reports of
    ``is_positive_operator(T, orthant, tol=1e-12)`` and
    ``_unit_gauge_report("", T, 1.0, 1e-8, False)``; ``T`` is finite, as
    :func:`~conesemi.semigroup.propagators` makes sure.

    On the orthant the margins of the positivity check are the entries of
    ``T`` (``-0.0`` read as ``0.0``, as :meth:`PolyCone.margins` reads it),
    and :meth:`PolyCone._negative_pairs` counts an entry of a computed ``T``
    negative below ``-1e-12`` times the largest ``|T_ij|``: a column is
    negative where its minimum is, and the largest ``|T_ij|`` is the larger
    of ``max T`` and ``-min T``."""
    rows = T.argmin(axis=0)
    mins = T[rows, np.arange(T.shape[0])]
    margins = mins + 0.0

    def negative():  # asked for only when some margin is negative
        return margins < -1e-12 * max(float(T.max()), -float(margins.min()))

    return (_positivity_report(orthant, rows, margins, negative, 1e-12),
            _unit_gauge_verdict("", rows, mins, T.sum(axis=1), 1.0, 1e-8, False))


def _unit_gauge_report(
    name: str, M: np.ndarray, bound: float, tol: float, exempt_diagonal: bool
) -> Report:
    """Decide ``M`` for ``p(x) = ||x^+||_inf``, the order-unit gauge of ``1``
    on the orthant, from the column minima and the row sums of ``M``.

    With ``bound = 1`` and every entry read, ``M`` is ``p``-contractive
    exactly when ``M >= 0`` and ``M1 <= 1``; with ``bound = 0`` and the
    diagonal exempt, ``M`` is ``p``-dissipative (the maximum principle: at a
    nonnegative maximum node ``i`` of ``x``, ``(Mx)_i <= 0``) exactly when
    ``M`` is Metzler and ``M1 <= 0``.  The candidates are ``-e_j`` at each
    column's smallest (off-diagonal) entry ``M_ij``, margin ``-M_ij``, and
    ``1`` at the largest row sum ``s_i``, margin ``s_i - bound``: the
    values the sampled check computes at those points.  The witnesses are
    the candidates whose margin exceeds ``tol``; ``worst_margin`` is the
    largest margin.
    """
    n = M.shape[0]
    cols = np.where(np.eye(n, dtype=bool), np.inf, M) if exempt_diagonal else M
    rows = np.argmin(cols, axis=0)
    return _unit_gauge_verdict(name, rows, cols[rows, np.arange(n)], M.sum(axis=1), bound, tol,
                               exempt_diagonal)


def _unit_gauge_verdict(
    name: str, rows: np.ndarray, mins: np.ndarray, sums: np.ndarray, bound: float, tol: float,
    exempt_diagonal: bool,
) -> Report:
    """The report of :func:`_unit_gauge_report` from the column minima
    ``mins``, found in ``rows``, and the row sums ``sums`` of ``M``."""
    n = mins.size
    top = int(sums.argmax())
    over = float(sums[top] - bound)
    worst = max(-float(mins.min()), over)
    if worst == 0.0:  # the sign of a tie of zeros is numpy's, and it varies with the length
        worst = float(np.append(-mins, over).max())
    witnesses = [] if worst <= tol else [
        Witness(point=-np.eye(n)[j], functional=None, margin=float(-mins[j]),
                label=f"x = -e[{j}]: entry ({rows[j]}, {j}) is negative")
        for j in (-mins > tol).nonzero()[0]
    ]
    if over > tol:
        witnesses.append(Witness(point=np.ones(n), functional=None, margin=over,
                                 label=f"x = 1: row sum {top} exceeds {bound:g}"))
    sign = "off the diagonal" if exempt_diagonal else "entrywise"
    return Report(
        name=name,
        verdict=FAILS if witnesses else HOLDS,
        witnesses=witnesses,
        tolerance=tol,
        notes=[f"exact: nonnegative {sign}, row sums at most {bound:g}"],
        data={"worst_margin": worst},
    )


def _cross_check_report(grid: Grid) -> Report:
    """FD vs closed form on this grid and the once-refined grid, with every
    case of :data:`RHS_CASES` in one block per grid."""
    fine = Grid(2 * grid.n_interior + 1)
    # refined node 2i is node i here, bit for bit: h/2 is exact, (h/2)(2i) rounds as h i does
    nodes = fine.nodes
    y = np.column_stack([rhs(nodes) for rhs in RHS_CASES.values()])
    terms = _closed_form_terms(nodes, y)
    errors = [_sup_errors(grid, y[1::2], [t[::2] for t in terms]), _sup_errors(fine, y, terms)]
    data = {}
    witnesses = []
    for label, case_errors in zip(RHS_CASES, np.transpose(errors)):
        rows = _convergence_rows([grid.n_interior, fine.n_interior], case_errors)
        data[label] = {
            "sup_error": rows[0]["sup_error"],
            "refined_sup_error": rows[1]["sup_error"],
            "ratio": rows[1]["ratio"],
        }
        witnesses += order_witnesses(label, rows)
    return Report(
        name="resolvent_cross_check",
        verdict=FAILS if witnesses else HOLDS,
        witnesses=witnesses,
        tolerance=0.0,
        notes=["second-order agreement between stencil solve and closed form"],
        data=data,
    )


def _order_gap(ratio: float | None, expected: float) -> float:
    """How far an error ratio lies outside ``[7/8, 9/8] * expected``, the
    window of a second-order scheme for ``expected = (h_prev / h)^2`` (``[3.5,
    4.5]`` when ``h`` halves): positive outside.  A missing ratio (no previous
    grid, or an exact current one) counts as 0."""
    return abs((0.0 if ratio is None else ratio) - expected) - expected / 8


def order_witnesses(case: str, rows: list[dict]) -> list[Witness]:
    """The witness of a convergence study that is not second order: the row
    whose ratio lies furthest outside its window, with :func:`_order_gap` as
    its margin.  Empty when every ratio after the first row is near 4 for a
    halved ``h``, and near ``(h_prev / h)^2`` in general."""
    expected = [(prev["h"] / row["h"]) ** 2 for prev, row in zip(rows, rows[1:])]
    gaps = [_order_gap(r["ratio"], e) for r, e in zip(rows[1:], expected)]
    if not gaps or max(gaps) <= 0.0:
        return []
    k = int(np.argmax(gaps))
    row = rows[k + 1]
    return [
        Witness(
            point=None,
            functional=None,
            margin=gaps[k],
            label=f"{case}: error ratio {row['ratio']} at N={row['n_interior']} "
                  f"is not near {expected[k]:g}",
        )
    ]
