"""Matrix semigroups from generators: resolvents, backward-Euler powers,
and the contractivity/positivity pipelines.

The exponential formula is realized at finite ``n`` as ``(I - (t/n) A)^-n``.
:func:`_resolvent` is the one place that forms ``(I - lam A)^-1``: by a
tridiagonal solve for a tridiagonal ``A`` such as the Dirichlet stencil, by
a dense LU otherwise.  :func:`euler_power` applies it ``n`` times to a
vector, :func:`euler_matrix` takes its ``n``-th power.  :func:`propagators`
builds ``T(t)`` over a time grid, by backward Euler or from one matrix
exponential per grid and the semigroup law ``T(s + t) = T(s) T(t)``, and
:func:`grid_reports` is the one loop over it: the pipelines here and the
Dirichlet checks all run their per-propagator checks through it.  Positivity
of a matrix against a cone is an exact generator/facet check, read straight
off the matrix on the orthant; contractivity against a half-norm is sampled.
Pipeline verdicts are three-valued (holds / fails / vacuous), all decided by
one rule in :func:`_compose`: the hypotheses themselves can only be sampled,
and the reports keep that asymmetry explicit rather than claiming proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import DualVector, PolyCone
from .dissipativity import LinOp, certify_dissipative
from .errors import MalformedProblem, SingularMatrix
from .halfnorm import FunctionalGauge, HalfNorm
from .numerics import (as_matrix, as_vector, factorized_solver, matrix_exp, require_finite,
                       tridiagonal_solve)
from .report import FAILS, HOLDS, INCONCLUSIVE, VACUOUS, Report, Witness

DEFAULT_T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
# Largest power of the base step that a time-grid chain takes.  A power m of
# a near-identity T(d) carries about m ulps of rounding (6e-11 measured at
# m = 1e6), so a time further out gets its own exponential.
CHAIN_MAX_POWER = 2**20


@dataclass(frozen=True)
class SemigroupConfig:
    """Time grid and construction method for T(t)."""

    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    euler_steps: int = 16
    method: str = "both"  # euler | expm | both

    def __post_init__(self):
        grid = tuple(float(t) for t in self.t_grid)
        if not all(0 <= t < math.inf for t in grid):
            raise MalformedProblem("t_grid entries must be finite and nonnegative")
        if list(grid) != sorted(grid):
            raise MalformedProblem("t_grid must be sorted ascending")
        object.__setattr__(self, "t_grid", grid)
        if self.euler_steps < 1:
            raise MalformedProblem("euler_steps must be >= 1")
        if self.method not in ("euler", "expm", "both"):
            raise MalformedProblem(f"unknown method {self.method!r}")

    def methods(self) -> tuple[str, ...]:
        return ("euler", "expm") if self.method == "both" else (self.method,)


def _op_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, LinOp) else as_matrix(op, square=True)


def _resolvent(A: np.ndarray, lam: float, context: str) -> np.ndarray:
    """``(I - lam A)^-1``: from :func:`~conesemi.numerics.tridiagonal_solve`
    when ``A`` has no nonzero entry off its three central diagonals, as the
    Dirichlet stencil has none, and from a dense LU otherwise.  ``context``
    names the step in the :class:`SingularMatrix` message."""
    dim = A.shape[0]
    eye = np.eye(dim)
    try:
        if dim >= 2 and _is_tridiagonal(A):
            return tridiagonal_solve(-lam * np.diagonal(A, -1), 1.0 - lam * np.diagonal(A),
                                     -lam * np.diagonal(A, 1), eye)
        return factorized_solver(eye - lam * A)(eye)
    except SingularMatrix as exc:
        raise SingularMatrix(f"(I - {lam:g} A) is singular ({context})") from exc


def _resolvent_matrix(op, lam: float) -> np.ndarray:
    if lam <= 0:
        raise MalformedProblem(f"resolvent parameter must be positive, got {lam}")
    return _resolvent(_op_matrix(op), lam, "resolvent")


def resolvent_apply(op, lam: float, y) -> np.ndarray:
    """Solve ``(I - lam A) x = y`` for ``lam > 0``."""
    A = _op_matrix(op)
    y = as_vector(y, dim=A.shape[0])
    return _resolvent_matrix(A, lam) @ y


def euler_power(op, t: float, n: int, x) -> np.ndarray:
    """Backward-Euler approximation ``(I - (t/n) A)^-n x``; t = 0 returns x."""
    A = _op_matrix(op)
    x = as_vector(x, dim=A.shape[0])
    if t < 0:
        raise MalformedProblem(f"time must be nonnegative, got {t}")
    if n < 1:
        raise MalformedProblem(f"step count must be >= 1, got {n}")
    if t == 0:
        return x.copy()
    R = _resolvent(A, t / n, f"euler step for t={t:g}, n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            x = R @ x
    return require_finite(x, f"euler power for t={t:g}, n={n}")


def euler_matrix(op, t: float, n: int) -> np.ndarray:
    """Matrix form of the backward-Euler approximation of T(t): the ``n``-th
    power of :func:`_resolvent` at ``t/n``."""
    A = _op_matrix(op)
    if t < 0:
        raise MalformedProblem(f"time must be nonnegative, got {t}")
    if n < 1:
        raise MalformedProblem(f"step count must be >= 1, got {n}")
    if t == 0:
        return np.eye(A.shape[0])
    R = _resolvent(A, t / n, f"euler step for t={t:g}, n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(np.linalg.matrix_power(R, n), f"euler matrix for t={t:g}, n={n}")


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
    propagator."""
    A = _op_matrix(op)
    expm = _exp_chain(A, cfg.t_grid)
    for t in cfg.t_grid:
        for method in cfg.methods():
            if method == "expm":
                yield t, method, expm(t)
            else:
                yield t, method, euler_matrix(A, t, cfg.euler_steps)


def grid_reports(op, cfg: SemigroupConfig, checks) -> list[Report]:
    """For each propagator ``(t, method, T)`` of :func:`propagators` and each
    ``(label, check)`` of ``checks``, in that order, the report ``check(T)``
    named ``label[t=...,method]`` with ``t`` and ``method`` in its data."""
    reports = []
    for t, method, T in propagators(op, cfg):
        for label, check in checks:
            rep = check(T)
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
    ``fails`` verdict always carries a generator/facet witness.  On the
    orthant the margins are the entries of ``T`` themselves.
    """
    T = as_matrix(T, square=True)
    if T.shape[0] != cone.dim:
        raise MalformedProblem("operator and cone dimensions differ")
    if cone.is_orthant:
        margins = T + 0.0  # I @ T @ I, entry for entry
    else:
        margins = cone.facets @ (T @ cone.generators.T)  # facet x generator
    worst = np.argmin(margins, axis=0)
    worst_margins = margins[worst, np.arange(margins.shape[1])]
    witnesses = [
        Witness(
            point=cone.generators[j].copy(),
            functional=cone.facets[worst[j]].copy(),
            margin=float(worst_margins[j]),
            label=f"T(generator[{j}]) violates facet[{worst[j]}]",
        )
        for j in np.nonzero(worst_margins < -tol)[0]
    ]
    return Report(
        name="positive_operator",
        verdict=FAILS if witnesses else HOLDS,
        witnesses=witnesses,
        tolerance=tol,
        notes=["exact generator/facet check"],
        data={"worst_margin": float(np.min(margins))},
    )


def is_contractive(
    T, halfnorm: HalfNorm, n_samples: int = 100, seed: int = 0, tol: float = 1e-8
) -> Report:
    """Sampled contractivity: ``p(Tx) <= p(x) + tol`` on generators, their
    negatives, and seeded Gaussian points, all evaluated through one
    :meth:`HalfNorm.values` batch per side."""
    T = as_matrix(T, square=True)
    n = halfnorm.dim
    if T.shape[0] != n:
        raise MalformedProblem("operator and half-norm dimensions differ")
    G = halfnorm.cone.generators.astype(float)
    k = G.shape[0]
    rng = np.random.default_rng(seed)
    X = np.vstack([G, -G, rng.standard_normal((n_samples, n))])
    margins = halfnorm.values(X @ T.T) - halfnorm.values(X)
    worst = float(np.max(margins))
    witnesses = [
        Witness(point=X[i].copy(), functional=None, margin=float(margins[i]),
                label=_point_label(i, k))
        for i in np.nonzero(margins > tol)[0]
    ]
    return Report(
        name=f"contractive[{halfnorm.variant}]",
        verdict=FAILS if witnesses else INCONCLUSIVE,
        witnesses=witnesses,
        samples_used=X.shape[0],
        tolerance=tol,
        notes=["sampled check: a pass is evidence, not a proof"],
        data={"worst_margin": worst},
    )


def _point_label(i: int, k: int) -> str:
    """Label of row ``i`` of the points of :func:`is_contractive`: ``k``
    generators, then their negatives, then the samples."""
    if i < k:
        return f"generator[{i}]"
    if i < 2 * k:
        return f"-generator[{i - k}]"
    return f"sample[{i - 2 * k}]"


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
    verdict is then ``vacuous`` regardless of what the contractivity
    sampling finds.
    """
    gauge = FunctionalGauge(cone, phi)
    hypothesis = _dissipativity_hypothesis(op, gauge, n_samples, seed)
    conclusion = is_contractive(_resolvent_matrix(op, lam), gauge, n_samples=n_samples, seed=seed)
    conclusion.name = f"conclusion:contractive[lam={lam:g}]"
    conclusion.data["lambda"] = float(lam)
    return _compose(f"resolvent_contractivity[lam={lam:g}]", [hypothesis], [conclusion],
                    conclusion.tolerance, {
        VACUOUS: "hypothesis (dissipativity) failed on a sample; conclusion not asserted",
        FAILS: "resolvent contractivity violated despite sampled dissipativity",
        HOLDS: "hypothesis sampled-pass; resolvent contractive on all test points",
    })


def check_semigroup_contractivity(
    op: LinOp,
    cone: PolyCone,
    phi: DualVector,
    cfg: SemigroupConfig | None = None,
    n_samples: int = 100,
    seed: int = 0,
) -> Report:
    """Pipeline: dissipativity hypothesis, then sampled contractivity of
    T(t) built by the configured methods on the whole time grid."""
    cfg = cfg or SemigroupConfig()
    gauge = FunctionalGauge(cone, phi)
    hypothesis = _dissipativity_hypothesis(op, gauge, n_samples, seed)
    conclusions = grid_reports(op, cfg, [
        ("contractive", lambda T: is_contractive(T, gauge, n_samples=n_samples, seed=seed)),
    ])
    return _compose("semigroup_contractivity", [hypothesis], conclusions, 1e-8, {
        VACUOUS: "dissipativity hypothesis failed on a sample",
        FAILS: "T(t) contractivity violated despite sampled hypothesis",
        HOLDS: "hypothesis sampled-pass; T(t) contractive on all test points",
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
    hypotheses = [
        _dissipativity_hypothesis(
            op, FunctionalGauge(cone, phi), n_samples, seed + i, name=f"dissipative[phi[{i}]]"
        )
        for i, phi in enumerate(phi_set)
    ]
    conclusions = grid_reports(op, cfg, [("positive", lambda T: is_positive_operator(T, cone))])
    return _compose("semigroup_positivity", [totality, *hypotheses], conclusions, 1e-9, {
        VACUOUS: "a dissipativity hypothesis failed; positivity results are informational",
        FAILS: "T(t) left the cone on the grid despite sampled hypotheses",
        HOLDS: "total set exact, dissipativity sampled, positivity exact per grid point",
    })
