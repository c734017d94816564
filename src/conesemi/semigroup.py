"""Matrix semigroups from generators: resolvents, backward-Euler powers,
and the contractivity/positivity pipelines.

The exponential formula is realized at finite ``n`` as ``(I - (t/n) A)^-n``.
:func:`_resolvent` is the one place that forms ``(I - lam A)^-1``: by a
tridiagonal solve for a tridiagonal ``A`` from 3 x 3 up (the Dirichlet
stencil), by a dense inverse otherwise, with the tridiagonal test and the
diagonals set up once for every ``lam``.
:func:`euler_power` applies it to a vector, :func:`euler_matrix` takes its
``n``-th power.  :func:`propagators` builds ``T(t)`` over a time grid, by
backward Euler with one such set-up per grid, or from one matrix exponential
per grid and the semigroup law ``T(s + t) = T(s) T(t)``, and
:func:`grid_reports` is the one loop over it: the pipelines here and the
Dirichlet checks all run their per-propagator checks through it.  Positivity
of a matrix against a cone is an exact generator/facet check, read straight
off the matrix on the orthant; contractivity is exact on a half-norm that
states its rows, sampled on the others.  Pipeline verdicts are three-valued
(holds / fails / vacuous), all decided by one rule in :func:`_compose`: the
dissipativity hypotheses can only be sampled, and the reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import DualVector, PolyCone
from .dissipativity import LinOp, _domain_test_points, certify_dissipative
from .errors import MalformedProblem, SingularMatrix
from .halfnorm import FunctionalGauge, HalfNorm
from .numerics import (_checked_inverse, _gtsv, as_count, as_matrix, as_nonnegative, as_vector,
                       matrix_exp, require_finite)
from .report import FAILS, HOLDS, INCONCLUSIVE, VACUOUS, Report, Witness

DEFAULT_T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
# Largest power of a near-identity step: of the base step in a time-grid
# chain, and of the resolvent in a backward-Euler power (its step count).  A
# power m of a near-identity T(d) carries about m ulps of rounding (6e-11
# measured at m = 1e6), so a time further out gets its own exponential.
CHAIN_MAX_POWER = 2**20
CONTRACTIVE_TOL = 1e-8


@dataclass(frozen=True)
class SemigroupConfig:
    """Time grid and construction method for T(t)."""

    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    euler_steps: int = 16
    method: str = "both"  # euler | expm | both

    def __post_init__(self):
        grid = tuple(as_nonnegative(t, "t_grid entries") for t in self.t_grid)
        if not grid:
            raise MalformedProblem("t_grid needs at least one finite, nonnegative time")
        if list(grid) != sorted(grid):
            raise MalformedProblem("t_grid must be sorted ascending")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "euler_steps", as_count(self.euler_steps, "euler_steps", 1,
                                                         CHAIN_MAX_POWER))
        if self.method not in ("euler", "expm", "both"):
            raise MalformedProblem(f"unknown method {self.method!r}")

    def methods(self) -> tuple[str, ...]:
        return ("euler", "expm") if self.method == "both" else (self.method,)


def _op_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, LinOp) else as_matrix(op, square=True)


def _resolvent(A: np.ndarray):
    """``(lam, context) -> (I - lam A)^-1``, set up once for every ``lam``: by
    a tridiagonal solve of the identity when ``A`` is tridiagonal, as the
    Dirichlet stencil is, from 3 x 3 up (every 2 x 2 is), and by the guarded
    dense inverse otherwise.  Each call returns a new matrix; ``context``
    names the step in the :class:`SingularMatrix` message.  The identity is
    made per call: held for a whole grid it raised the grid benchmark's peak
    memory by 0.5 MB and saved no measurable time."""
    n = A.shape[0]
    if n >= 3 and _is_tridiagonal(A):
        sub, diag, sup = (np.diagonal(A, k) for k in (-1, 0, 1))

        def inverse(lam):
            return _gtsv(-lam * sub, 1.0 - lam * diag, -lam * sup, np.eye(n))
    else:

        def inverse(lam):
            return _checked_inverse(np.eye(n) - lam * A)

    def solve(lam: float, context: str) -> np.ndarray:
        try:
            return inverse(lam)
        except SingularMatrix as exc:
            raise SingularMatrix(f"(I - {lam:g} A) is singular ({context})") from exc

    return solve


def _resolvent_matrix(op, lam: float) -> np.ndarray:
    if not 0 < lam < math.inf:
        raise MalformedProblem(f"resolvent parameter must be positive and finite, got {lam}")
    return _resolvent(_op_matrix(op))(lam, "resolvent")


def resolvent_apply(op, lam: float, y) -> np.ndarray:
    """Solve ``(I - lam A) x = y`` for ``lam > 0``."""
    A = _op_matrix(op)
    y = as_vector(y, dim=A.shape[0])
    return _resolvent_matrix(A, lam) @ y


def euler_power(op, t: float, n: int, x) -> np.ndarray:
    """Backward-Euler approximation ``(I - (t/n) A)^-n x``; t = 0 returns x."""
    A = _op_matrix(op)
    x = as_vector(x, dim=A.shape[0])
    t, n = as_nonnegative(t, "time"), as_count(n, "step count", 1, CHAIN_MAX_POWER)
    if t == 0:
        return x.copy()
    R = _resolvent(A)(t / n, f"euler step for t={t:g}, n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            x = R @ x
    return require_finite(x, f"euler power for t={t:g}, n={n}")


def euler_matrix(op, t: float, n: int) -> np.ndarray:
    """Matrix form of the backward-Euler approximation of T(t): the ``n``-th
    power of :func:`_resolvent` at ``t/n``."""
    A = _op_matrix(op)
    t, n = as_nonnegative(t, "time"), as_count(n, "step count", 1, CHAIN_MAX_POWER)
    return _euler_chain(A, n)(t)


def _euler_chain(A: np.ndarray, n: int):
    """``t -> (I - (t/n) A)^-n``, a new matrix for each ``t >= 0`` (``I`` at
    ``t = 0``), with :func:`_resolvent`'s set-up made once for every time.
    Raises :class:`~conesemi.errors.NormTooLarge` when the power overflows."""
    resolvent = _resolvent(A)

    def at(t: float) -> np.ndarray:
        if t == 0:
            return np.eye(A.shape[0])
        R = resolvent(t / n, f"euler step for t={t:g}, n={n}")
        with np.errstate(over="ignore", invalid="ignore"):
            return require_finite(np.linalg.matrix_power(R, n), f"euler matrix for t={t:g}, n={n}")

    return at


def _is_tridiagonal(A: np.ndarray) -> bool:
    """No nonzero entry off the sub-, main and superdiagonal."""
    band = sum(np.count_nonzero(np.diagonal(A, k)) for k in (-1, 0, 1))
    return band == np.count_nonzero(A)


def propagators(op, cfg: SemigroupConfig):
    """Yield ``(t, method, T(t))`` over the time grid of ``cfg``, t-major and
    method-minor: the matrix exponential for ``expm`` (see
    :func:`_exp_chain`), the backward-Euler power with ``cfg.euler_steps``
    steps for ``euler``.  Lazy: nothing is computed before it is asked for,
    so a ``NormTooLarge`` of the base step surfaces at the first ``expm``
    propagator.  The backward-Euler step is set up once per grid (see
    :func:`_euler_chain`), and every yielded matrix is new."""
    A = _op_matrix(op)
    chains = {method: _exp_chain(A, cfg.t_grid) if method == "expm"
              else _euler_chain(A, cfg.euler_steps) for method in cfg.methods()}
    for t in cfg.t_grid:
        for method in cfg.methods():
            yield t, method, chains[method](t)


def grid_reports(op, cfg: SemigroupConfig, labels: tuple[str, ...], check) -> list[Report]:
    """For each propagator ``(t, method, T)`` of :func:`propagators`, in that
    order, the reports of ``check(T)``, one per label of ``labels``, each
    named ``label[t=...,method]`` with ``t`` and ``method`` in its data."""
    reports = []
    for t, method, T in propagators(op, cfg):
        for label, rep in zip(labels, check(T), strict=True):
            rep.name = f"{label}[t={t:g},{method}]"
            rep.data.update({"t": t, "method": method})
            reports.append(rep)
    return reports


def _exp_chain(A: np.ndarray, t_grid: tuple[float, ...]):
    """``t -> exp(tA)`` for the times of ``t_grid``, from one
    :func:`~conesemi.numerics.matrix_exp` at the smallest positive time ``d``
    and the semigroup law: ``T(t) = T(d)^m T(r)`` with ``m = floor(t/d)``
    (rounded up when ``t`` is within ``1e-12 t`` of ``(m+1) d``) and
    ``r = t - m d``.  The power multiplies cached squares ``T(2^j d)``;
    ``T(r)`` is one more ``matrix_exp``, taken only when ``r > 1e-12 t``
    and no remainder within ``1e-12 t`` of ``r`` has been taken before.
    ``t = 0`` gives ``I``, and a ``t`` beyond ``CHAIN_MAX_POWER`` steps its
    own ``matrix_exp(A, t)``.  Every factor of a Metzler ``A`` is
    nonnegative, and so is every product of them.  The guard of
    ``matrix_exp`` applies to ``d`` and ``r``, not to ``t``; a product that
    overflows raises :class:`~conesemi.errors.NormTooLarge`."""
    d = min((t for t in t_grid if t > 0), default=0.0)
    squares: list[np.ndarray] = []  # squares[j] = T(2^j d), built on demand
    remainders: list[tuple[float, np.ndarray]] = []  # (r, T(r)) taken so far

    def at(t: float) -> np.ndarray:
        if t == 0:
            return np.eye(A.shape[0])
        if t / d > CHAIN_MAX_POWER:
            return matrix_exp(A, t)
        m = math.floor(t / d)
        if (m + 1) * d - t <= 1e-12 * t:
            m += 1
        r = t - m * d
        T = None
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m.bit_length()):
                if j == len(squares):
                    squares.append(squares[-1] @ squares[-1] if squares else matrix_exp(A, d))
                if (m >> j) & 1:
                    T = squares[j] if T is None else T @ squares[j]
            if r > 1e-12 * t:
                R = next((R for s, R in remainders if abs(s - r) <= 1e-12 * t), None)
                if R is None:
                    R = matrix_exp(A, r)
                    remainders.append((r, R))
                T = T @ R
        require_finite(T, f"T({t:g})")
        return T.copy() if any(T is S for S in squares) else T

    return at


def is_positive_operator(T, cone: PolyCone, tol: float = 1e-9) -> Report:
    """Exact positivity: T must map every generator into the cone.

    Linearity plus conic generation make the generator test complete, so a
    ``fails`` verdict always carries a generator/facet witness.  ``T`` is
    computed, so a pair is negative below ``-tol`` times the largest
    ``|f|ᵀ|T||g|`` (:func:`_positivity_report`), which covers rounding
    where an exact entry is 0, at every common scale.
    """
    T = as_matrix(T, square=True)
    if T.shape[0] != cone.dim:
        raise MalformedProblem("operator and cone dimensions differ")
    tol = as_nonnegative(tol, "tol")
    margins = cone.margins(T)  # facet x generator
    worst = np.argmin(margins, axis=0)  # a column with a negative pair has its minimum there
    return _positivity_report(cone, T, worst, margins[worst, np.arange(worst.size)], tol)


def _positivity_report(
    cone: PolyCone, T: np.ndarray, worst: np.ndarray, col_margins: np.ndarray, tol: float
) -> Report:
    """The report of :func:`is_positive_operator` from each generator's
    smallest margin ``col_margins[j]`` of ``T``, at facet ``worst[j]``.  The
    one sign rule of a computed ``T``: a margin is negative below ``-tol``
    times the largest :meth:`PolyCone._pair_sizes` of ``T``, read only when
    some margin is negative."""
    lo = float(col_margins.min())
    witnesses = [] if lo >= 0.0 else [
        Witness(
            point=cone.generators[j].copy(),
            functional=cone.facets[worst[j]].copy(),
            margin=float(col_margins[j]),
            label=f"T(generator[{j}]) violates facet[{worst[j]}]",
        )
        for j in np.flatnonzero(col_margins < -tol * cone._pair_sizes(T).max())
    ]
    return Report(
        name="positive_operator",
        verdict=FAILS if witnesses else HOLDS,
        witnesses=witnesses,
        tolerance=tol,
        notes=["exact generator/facet check"],
        data={"worst_margin": lo},
    )


def is_contractive(T, halfnorm: HalfNorm, n_samples: int = 100, seed: int = 0) -> Report:
    """``p(Tx) <= p(x) + tol``, one :meth:`HalfNorm.values` batch per side.
    With rows ``g`` (``S = {u : G u >= h}`` in the coordinates of ``x``),
    ``T`` is contractive exactly when ``p(-Tg) <= -h`` on each row, and as
    ``p(-g) <= -h`` the points ``-g`` decide it (Blanchini, Automatica 35,
    1999; ``n_samples`` and ``seed`` are ignored).  As ``p`` scales with
    ``phi`` or ``u``, ``tol`` is then ``CONTRACTIVE_TOL ||g||_inf`` times the
    widest ``(p(g) + p(-g)) / ||g||_inf``.  Otherwise the points are
    :func:`certify_dissipative`'s on the whole space and the negated
    generators, ``tol = CONTRACTIVE_TOL``, and a pass is ``inconclusive``."""
    T = as_matrix(T, square=True)
    if T.shape[0] != halfnorm.dim:
        raise MalformedProblem("operator and half-norm dimensions differ")
    rows = halfnorm._rows
    exact = rows is not None
    if exact:
        labels, X, size = [f"-row[{i}]" for i in range(len(rows))], -rows, np.max(np.abs(rows), 1)
        at_x, at_minus_x = halfnorm.values(np.vstack([X, rows])).reshape(2, -1)
        tol = CONTRACTIVE_TOL * np.max((at_x + at_minus_x) / size) * size
    else:
        labels, X, _ = _domain_test_points(None, halfnorm.cone, n_samples, seed)
        labels += [f"-generator[{i}]" for i in range(halfnorm.cone.generators.shape[0])]
        X = np.vstack([X, -halfnorm.cone.generators])
        at_x, tol = halfnorm.values(X), CONTRACTIVE_TOL
    margins = halfnorm.values(X @ T.T) - at_x
    witnesses = [Witness(point=X[i].copy(), functional=None, margin=float(margins[i]),
                         label=labels[i]) for i in np.flatnonzero(margins > tol)]
    return Report(
        name=f"contractive[{halfnorm.variant}]",
        verdict=FAILS if witnesses else HOLDS if exact else INCONCLUSIVE,
        witnesses=witnesses, samples_used=0 if exact else X.shape[0],
        tolerance=CONTRACTIVE_TOL,
        notes=["exact row test" if exact else "sampled check: a pass is evidence, not a proof"],
        data={"worst_margin": float(np.max(margins))},
    )


def _compose(
    name: str, hypotheses: list[Report], conclusions: list[Report], tolerance: float,
    notes: dict[str, str],
) -> Report:
    """The composite report of an implication.  Tags each part's
    ``data.role``; the verdict is ``vacuous`` when a hypothesis fails (the
    conclusion is then not asserted), else ``fails`` when a conclusion
    fails, else ``holds``, with ``notes[verdict]`` as its note."""
    for role, group in (("hypothesis", hypotheses), ("conclusion", conclusions)):
        for part in group:
            part.data["role"] = role
    verdict = (VACUOUS if any(p.verdict == FAILS for p in hypotheses)
               else FAILS if any(p.verdict == FAILS for p in conclusions) else HOLDS)
    parts = [*hypotheses, *conclusions]
    return Report(name=name, verdict=verdict, samples_used=sum(p.samples_used for p in parts),
                  tolerance=tolerance, notes=[notes[verdict]], subreports=parts)


def _dissipativity_hypothesis(
    op: LinOp, gauge: HalfNorm, n_samples: int, seed: int, name: str | None = None
) -> Report:
    """Sampled dissipativity certificate, named as a hypothesis."""
    rep = certify_dissipative(op, gauge, n_samples=n_samples, seed=seed)
    rep.name = "hypothesis:" + (name or rep.name)
    return rep


def check_resolvent_contractivity(
    op: LinOp,
    cone: PolyCone,
    phi: DualVector,
    lam: float,
    n_samples: int = 100,
    seed: int = 0,
) -> Report:
    """Pipeline: certify dissipativity for the functional gauge, then test
    that the resolvent ``(I - lam A)^-1`` is contractive for it.

    A hypothesis failure makes the conclusion unasserted: the composite
    verdict is then ``vacuous`` regardless of what the contractivity test
    finds.
    """
    gauge = FunctionalGauge(cone, phi)
    hypothesis = _dissipativity_hypothesis(op, gauge, n_samples, seed)
    conclusion = is_contractive(_resolvent_matrix(op, lam), gauge)
    conclusion.name = f"conclusion:contractive[lam={lam:g}]"
    conclusion.data["lambda"] = float(lam)
    return _compose(f"resolvent_contractivity[lam={lam:g}]", [hypothesis], [conclusion],
                    conclusion.tolerance, {
        VACUOUS: "hypothesis (dissipativity) failed on a sample; conclusion not asserted",
        FAILS: "resolvent not contractive; a sampled hypothesis does not contradict the theorem",
        HOLDS: "hypothesis sampled-pass; resolvent contractive (exact)",
    })


def check_semigroup_contractivity(
    op: LinOp,
    cone: PolyCone,
    phi: DualVector,
    cfg: SemigroupConfig | None = None,
    n_samples: int = 100,
    seed: int = 0,
) -> Report:
    """Pipeline: dissipativity hypothesis, then exact contractivity of
    T(t) built by the configured methods on the whole time grid."""
    cfg = cfg or SemigroupConfig()
    gauge = FunctionalGauge(cone, phi)
    hypothesis = _dissipativity_hypothesis(op, gauge, n_samples, seed)
    conclusions = grid_reports(op, cfg, ("contractive",), lambda T: (is_contractive(T, gauge),))
    return _compose("semigroup_contractivity", [hypothesis], conclusions, CONTRACTIVE_TOL, {
        VACUOUS: "dissipativity hypothesis failed on a sample",
        FAILS: "T(t) not contractive; a sampled hypothesis does not contradict the theorem",
        HOLDS: "hypothesis sampled-pass; T(t) contractive at every grid time (exact)",
    })


def check_semigroup_positivity(
    op: LinOp,
    phi_set: list[DualVector],
    cone: PolyCone,
    cfg: SemigroupConfig | None = None,
    n_samples: int = 100,
    seed: int = 0,
) -> Report:
    """Pipeline: total set + per-functional dissipativity, then exact
    positivity of T(t) built by the configured methods on the time grid."""
    cfg = cfg or SemigroupConfig()
    totality = cone.is_total(phi_set)
    totality.name = "hypothesis:" + totality.name
    if totality.verdict != HOLDS:
        return _compose("semigroup_positivity", [totality], [], 0.0, {
            VACUOUS: "the functional family is not total; "
                     "the positivity implication is not asserted",
        })
    hypotheses = [_dissipativity_hypothesis(op, FunctionalGauge(cone, phi), n_samples, seed + i,
                                            name=f"dissipative[phi[{i}]]")
                  for i, phi in enumerate(phi_set)]
    conclusions = grid_reports(op, cfg, ("positive",), lambda T: (is_positive_operator(T, cone),))
    return _compose("semigroup_positivity", [totality, *hypotheses], conclusions, 1e-9, {
        VACUOUS: "a dissipativity hypothesis failed; positivity results are informational",
        FAILS: "T(t) left the cone on the grid despite sampled hypotheses",
        HOLDS: "total set exact, dissipativity sampled, positivity exact per grid point",
    })
