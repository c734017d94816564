"""Seeded workloads for the conesemi benchmark: ``certify``, ``grid`` and ``cones``.

A workload is a deck of rounds built from the seed.  Every round holds the
same fixed multiset of item kinds and sizes; the seed only changes the random
content.  So every seed gives the same mix.  The number of rounds follows
from the run length alone, never from a clock, so a seed and a run length
always give the same items.

An item is one or more calls into the public API of ``conesemi``.  Its
``call`` is what gets timed.  Its ``check`` runs afterwards, untimed, and
compares the outcome with an expectation fixed when the inputs were built,
never read back from the code under test.  The comparison is pass versus
fail: a pass is ``holds`` or ``inconclusive``, so a later change that turns a
sampled ``inconclusive`` into an exact ``holds`` is not a mismatch.

The calls look functions up on the ``conesemi`` package at call time
(``cs.solve_lp``, not a name bound at import), so the traced run sees every
call through its wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

import conesemi as cs

PASS, FAIL = "pass", "fail"


class WrongOutcome(Exception):
    """An item finished but its outcome contradicts the construction."""


class SpuriousVerdict(Exception):
    """An item finished with a verdict whose own witness refutes it.

    The program is at fault, not the construction: such an item counts as a
    failure, labelled like a raised one, and does not invalidate the run.
    """


@dataclass
class Item:
    ident: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, float | None]]


def _expect(report, expected: str) -> str:
    got = PASS if report.verdict in (cs.HOLDS, cs.INCONCLUSIVE) else FAIL
    if got != expected:
        raise WrongOutcome(f"{report.name}: expected {expected}, got {report.verdict}")
    return report.verdict


def _max_margin(reports) -> float | None:
    margins = [r.data["worst_margin"] for r in reports if "worst_margin" in r.data]
    margins += [w.margin for r in reports for w in r.witnesses]
    return max(margins) if margins else None


# -- certify -----------------------------------------------------------------

CERTIFY_ORTHANTS = tuple(range(2, 9))
CERTIFY_PYRAMIDS = ((3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8))
METZLER_DIMS = (2, 3, 4, 5)
CERTIFY_SAMPLES = 32
CERTIFY_T_GRID = (0.1, 1.0)
LAMBDAS = (0.1, 0.5, 1.0)


def _pyramid(rng, n: int, k: int):
    """k rays (1, z) with z on the unit sphere of R^(n-1): all of them extreme,
    so the cone is a non-simplicial pyramid over a polygon or polytope."""
    z = rng.standard_normal((k, n - 1))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return cs.PolyCone.from_generators(np.hstack([np.ones((k, 1)), z]))


def _positive_instance(rng, cone):
    """Generator ``A = B - cI`` with B mapping the cone into itself.

    ``B = G^T W F`` sends x to a nonnegative combination of generators with
    weights ``<f, x>`` (W >= 0), so B is positive.  With phi interior to the
    dual cone and u interior to the cone, c exceeds both
    ``max_g <Bg, phi>/<g, phi>`` and ``max_f <f, Bu>/<f, u>``; then
    ``B^T phi <= c phi`` in K' and ``Bu <= cu`` in K.  The semigroup
    ``e^{-ct} e^{tB}`` and every resolvent are positive and contractive for
    both the functional gauge of phi and the order-unit gauge of u, and A is
    dissipative for both: every check on this instance must pass.
    """
    G, F = cone.generators, cone.facets
    phi = rng.uniform(0.5, 1.5, F.shape[0]) @ F
    unit = rng.uniform(0.5, 1.5, G.shape[0]) @ G
    W = rng.uniform(0.0, 1.0, (G.shape[0], F.shape[0]))
    W *= rng.random(W.shape) < 0.5
    B = G.T @ W @ F
    ratio_phi = float(np.max((G @ B.T @ phi) / (G @ phi)))
    ratio_unit = float(np.max((F @ B @ unit) / (F @ unit)))
    c = max(ratio_phi, ratio_unit, 0.0) * rng.uniform(1.2, 2.0) + rng.uniform(0.1, 1.0)
    return B - c * np.eye(cone.dim), phi, unit


def _weighted_dominant_metzler(rng, n: int):
    """The criterion 3-4 family: Metzler, diagonal dominating the
    phi-weighted column sums, so ``A^T phi <= 0`` and A is dissipative for
    the functional gauge of phi on the orthant."""
    off = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    phi = rng.uniform(0.2, 2.0, size=n)
    A = off.copy()
    for j in range(n):
        A[j, j] = -(phi @ off[:, j]) / phi[j] - rng.uniform(0.1, 1.0)
    return A, phi


def _resolvent(A, lam: float):
    eye = np.eye(A.shape[0])
    return np.linalg.solve(eye - lam * A, eye)


def _passes(report):
    return _expect(report, PASS), _max_margin([report, *report.subreports])


def _certify_cone_items(tag: str, cone, rng) -> list[Item]:
    A, phi, unit = _positive_instance(rng, cone)
    op = cs.LinOp(A)
    fgauge = cs.FunctionalGauge(cone, phi)
    ugauge = cs.OrderUnitGauge(cone, unit)
    lam = float(rng.choice(LAMBDAS))
    resolvent = _resolvent(A, lam)
    seed = int(rng.integers(2**31))
    cfg = cs.SemigroupConfig(t_grid=CERTIFY_T_GRID, method="both")
    n = CERTIFY_SAMPLES
    return [
        Item(f"{tag}/certify_dissipative[functional]",
             lambda: cs.certify_dissipative(op, fgauge, n_samples=n, seed=seed), _passes),
        Item(f"{tag}/certify_dissipative[order_unit]",
             lambda: cs.certify_dissipative(op, ugauge, n_samples=n, seed=seed), _passes),
        Item(f"{tag}/is_contractive[functional]",
             lambda: cs.is_contractive(resolvent, fgauge, n_samples=n, seed=seed), _passes),
        Item(f"{tag}/is_contractive[order_unit]",
             lambda: cs.is_contractive(resolvent, ugauge, n_samples=n, seed=seed), _passes),
        Item(f"{tag}/check_resolvent_contractivity",
             lambda: cs.check_resolvent_contractivity(
                 op, cone, fgauge.functional, lam, n_samples=n, seed=seed), _passes),
        Item(f"{tag}/check_semigroup_contractivity",
             lambda: cs.check_semigroup_contractivity(
                 op, cone, fgauge.functional, cfg, n_samples=n, seed=seed), _passes),
    ]


def _metzler_items(tag: str, n: int, rng) -> list[Item]:
    A, phi = _weighted_dominant_metzler(rng, n)
    orthant = cs.PolyCone.standard_orthant(n)
    gauge = cs.FunctionalGauge(orthant, phi)
    lam = float(rng.choice(LAMBDAS))
    resolvent = _resolvent(A, lam)
    seed = int(rng.integers(2**31))
    return [
        Item(f"{tag}/is_contractive[criterion3]",
             lambda: cs.is_contractive(resolvent, gauge, n_samples=CERTIFY_SAMPLES, seed=seed),
             _passes),
        Item(f"{tag}/is_positive_operator[criterion4]",
             lambda: cs.is_positive_operator(cs.matrix_exp(A, 1.0), orthant), _passes),
    ]


def _mutant_items(tag: str, n: int, rng) -> list[Item]:
    """Criterion 4's mutant: one off-diagonal entry flipped negative.

    Each item must fail, and its witness is re-derived here from the
    construction: the sign pair for POD, ``scipy.linalg.expm`` for
    positivity, and the explicit point ``x = e_0 - s e_1`` with
    ``(Mx)_0 > 0`` for dissipativity of the gauge of e_0, whose only
    subgradient at x is e_0.
    """
    A, _ = _weighted_dominant_metzler(rng, n)
    M = A.copy()
    M[0, 1] = -(M[0, 1] + 1.0)
    orthant = cs.PolyCone.standard_orthant(n)
    gauge = cs.FunctionalGauge(orthant, np.eye(n)[0])
    x = np.zeros(n)
    x[0], x[1] = 1.0, -(2.0 * abs(M[0, 0]) / abs(M[0, 1]) + 1.0)
    expected_margin = float((M @ x)[0])
    tol = 1e-9
    oracle = scipy.linalg.expm(0.01 * M)

    def check_point(result):
        dissipative, margin = result
        if dissipative or margin <= tol:
            raise WrongOutcome(f"mutant: dissipative at the witness point (margin {margin})")
        if abs(margin - expected_margin) > 1e-9 * max(1.0, abs(expected_margin)):
            raise WrongOutcome(f"mutant: margin {margin} != {expected_margin} at the witness")
        return FAIL, float(margin)

    def check_pod(report):
        _expect(report, FAIL)
        if not report.witnesses:
            raise WrongOutcome("mutant POD failed without a witness")
        for w in report.witnesses:
            if abs(w.point @ w.functional) > 1e-10 or (M @ w.point) @ w.functional >= -tol:
                raise WrongOutcome(f"mutant POD witness {w.label} is not a violated pair")
        return report.verdict, _max_margin([report])

    def check_positive(report):
        _expect(report, FAIL)
        if not report.witnesses:
            raise WrongOutcome("mutant positivity failed without a witness")
        for w in report.witnesses:
            if w.functional @ oracle @ w.point >= -tol:
                raise WrongOutcome(f"mutant positivity witness {w.label} holds under expm")
        return report.verdict, _max_margin([report])

    return [
        Item(f"{tag}/mutant/is_dissipative_at",
             lambda: cs.is_dissipative_at(cs.LinOp(M), gauge, x), check_point),
        Item(f"{tag}/mutant/has_positive_off_diagonal",
             lambda: cs.has_positive_off_diagonal(cs.LinOp(M), orthant), check_pod),
        Item(f"{tag}/mutant/is_positive_operator",
             lambda: cs.is_positive_operator(cs.matrix_exp(M, 0.01), orthant, tol=tol),
             check_positive),
    ]


def certify_round(rng, r: int) -> list[Item]:
    items: list[Item] = []
    for n in CERTIFY_ORTHANTS:
        items += _certify_cone_items(f"r{r}/orthant{n}", cs.PolyCone.standard_orthant(n), rng)
    for n, k in CERTIFY_PYRAMIDS:
        items += _certify_cone_items(f"r{r}/pyramid{n}x{k}", _pyramid(rng, n, k), rng)
    for n in METZLER_DIMS:
        items += _metzler_items(f"r{r}/metzler{n}", n, rng)
    n = METZLER_DIMS[r % len(METZLER_DIMS)]
    items += _mutant_items(f"r{r}/metzler{n}", n, rng)
    return items


# -- grid --------------------------------------------------------------------

GRID_SMALL = (15, 31, 63)  # the CLI default
GRID_LARGE = (127, 255)
GRID_SMALL_REPEATS = 5
GRID_METHODS = ("expm", "euler", "both")
CONVERGENCE_SIZES = GRID_SMALL + GRID_LARGE
CONVERGENCE_ITEMS = 4


def _dirichlet_item(tag: str, n: int, method: str, seed: int) -> Item:
    """Positivity, positive-part contractivity, POD, the maximum principle
    and the second-order cross-check all hold for the stencil."""
    grid = cs.Grid(n)
    cfg = cs.SemigroupConfig(method=method)
    return Item(f"{tag}/run_dirichlet_checks[N={n},{method}]",
                lambda: cs.run_dirichlet_checks(grid, cfg, n_samples=100, seed=seed), _passes)


def _convergence_item(tag: str, rng) -> Item:
    """Smooth right-hand side ``b + sum_k a_k sin(k pi t)``: the stencil is
    second order on it, so every error ratio under halving h is near 4."""
    b = float(rng.uniform(0.0, 1.0))
    a = rng.uniform(0.2, 1.0, 3)

    def rhs(t):
        return b + sum(a[k] * np.sin((k + 1) * np.pi * t) for k in range(3))

    def check(rows):
        ratios = [row["ratio"] for row in rows[1:]]
        if len(rows) != len(CONVERGENCE_SIZES) or not all(3.5 <= q <= 4.5 for q in ratios):
            raise WrongOutcome(f"convergence ratios {ratios} are not second order")
        return PASS, max(row["sup_error"] for row in rows)

    return Item(f"{tag}/convergence_study", lambda: cs.convergence_study(CONVERGENCE_SIZES, rhs),
                check)


def grid_round(rng, r: int) -> list[Item]:
    items = []
    for n in GRID_SMALL:
        for method in GRID_METHODS:
            for i in range(GRID_SMALL_REPEATS):
                items.append(_dirichlet_item(f"r{r}/{i}", n, method, int(rng.integers(2**31))))
    for n in GRID_LARGE:
        for method in GRID_METHODS:
            items.append(_dirichlet_item(f"r{r}", n, method, int(rng.integers(2**31))))
    items += [_convergence_item(f"r{r}/{i}", rng) for i in range(CONVERGENCE_ITEMS)]
    return items


# -- cones -------------------------------------------------------------------

# (dimension, rays, items per round).  Each percentile lands inside one
# large class, so the seed and the number of failing items barely move it:
# p50 among the ten 16-ray items in R^3, p90 among the four 32-ray ones.
CONE_CLASSES = (
    (3, 16, 10), (3, 20, 2), (3, 24, 2), (3, 32, 4), (3, 48, 1),
    (4, 8, 3), (4, 12, 3),
    (5, 8, 3), (5, 10, 2),
    (6, 8, 3), (6, 16, 1),
    (7, 8, 3),
    (8, 8, 3),
)
CONE_FUNCTIONALS = 2


def _cone_item(tag: str, n: int, k: int, rng) -> Item:
    """Rays ``(1, rho z_i)`` with z_i on the unit sphere and one radius
    rho <= 1: every ray is extreme, and every ``(1, y)`` with ``|y| <= 1`` is
    a positive functional.  That gives, without building the cone:

    - the extreme-ray count k;
    - ``B = sum_i w_i r_i h_i^T`` with h_i such functionals, a positive map,
      so ``B - cI`` has the positive off-diagonal property;
    - positive functionals phi and an order unit u (the sum of the rays),
      whose representing measure must have mass ``phi(u)``.
    """
    z = rng.standard_normal((k, n - 1))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    rays = np.hstack([np.ones((k, 1)), z * rng.uniform(0.5, 1.0)])

    def dual_rays(count):
        y = rng.standard_normal((count, n - 1))
        y *= rng.uniform(0.0, 1.0, (count, 1)) / np.linalg.norm(y, axis=1, keepdims=True)
        return np.hstack([np.ones((count, 1)), y])

    B = (rays.T * rng.uniform(0.0, 1.0, k)) @ dual_rays(k)
    op = cs.LinOp(B - rng.uniform(0.5, 2.0) * np.eye(n))
    phis = [rng.uniform(0.1, 1.0, 3) @ dual_rays(3) for _ in range(CONE_FUNCTIONALS)]
    unit = rays.sum(axis=0)

    def call():
        cone = cs.PolyCone.from_generators(rays)
        total = cone.is_total([cone.certify_functional(f) for f in cone.facets])
        space = cs.build_state_space(cone, unit)
        measures = [cs.represent_functional(space, cone.certify_functional(phi)) for phi in phis]
        pod = cs.has_positive_off_diagonal(op, cone)
        return cone, total, space, measures, pod

    def check(result):
        cone, total, space, measures, pod = result
        if cone.generators.shape[0] != k:
            raise WrongOutcome(f"{cone!r}: expected {k} extreme rays")
        if total.verdict == cs.FAILS:
            # the family is the cone's own facets, so each witness point is
            # negative on a member of the family it claims to satisfy
            raise SpuriousVerdict("cone.is_total:spurious-witness")
        _expect(total, PASS)
        _expect(pod, PASS)
        worst = 0.0
        for phi, measure in zip(phis, measures):
            mass = float(phi @ unit)
            err = abs(measure.total_mass - mass)
            residual = float(np.max(np.abs(space.states.T @ measure.weights - phi)))
            scale = max(1.0, float(np.max(np.abs(phi))))
            if err > 1e-7 * max(1.0, mass) or residual > 1e-7 * scale:
                raise WrongOutcome(f"representation mass {measure.total_mass} != phi(u) = {mass}")
            worst = max(worst, err)
        return total.verdict, worst

    return Item(f"{tag}/cone{n}x{k}", call, check)


def cones_round(rng, r: int) -> list[Item]:
    items = []
    for n, k, count in CONE_CLASSES:
        items += [_cone_item(f"r{r}/{i}", n, k, rng) for i in range(count)]
    return items


# -- decks -------------------------------------------------------------------


MIN_ITEMS = 100  # so that p90 has at least ten items beyond it


@dataclass(frozen=True)
class Workload:
    build_round: Callable[[np.random.Generator, int], list[Item]]
    # nominal seconds per round, measured at baseline on a 2-core x86-64 VM
    # with BLAS on one thread; it turns a run length into a number of rounds
    round_s: float
    trace_rounds: int  # rounds the traced run measures, from the start of the deck


WORKLOADS = {
    "certify": Workload(certify_round, round_s=4.0, trace_rounds=1),
    "grid": Workload(grid_round, round_s=0.8, trace_rounds=4),
    "cones": Workload(cones_round, round_s=5.0, trace_rounds=1),
}


def build_deck(name: str, seed: int, seconds: float) -> list[list[Item]]:
    """The rounds of a run of about ``seconds`` at the nominal round time,
    and of at least ``MIN_ITEMS`` items; round r draws from its own stream of
    the seed, so a longer run extends a shorter one."""
    workload = WORKLOADS[name]
    target = max(1, round(seconds / workload.round_s))
    deck: list[list[Item]] = []
    while len(deck) < target or sum(map(len, deck)) < MIN_ITEMS:
        r = len(deck)
        deck.append(workload.build_round(np.random.default_rng([seed, r]), r))
    return deck
