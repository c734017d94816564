"""Scale covariance of the exact checks, totality against HiGHS, and
contractivity against its closed forms.

Scaling the rays of a cone, or a matrix, by ``2^k`` is exact in floating
point, so every exact verdict must come out the same at every such scale:
the facets, the incidence matrix, the POD verdict and its witness pairs,
the positivity verdict, the totality verdict with its witnesses, and the
half-norm values and contractivity reports.  The
pyramid probe is fixed (``default_rng(0)``); hypothesis adds pyramids with
POD operators by construction, ``GᵀWF - cI`` with ``W >= 0``, whose pairs
all sit on the verdict boundary or above it, and functional families on
cones in R^2..R^8 whose totality scipy's HiGHS decides facet by facet.
The row test of ``is_contractive`` is held to the closed forms of the
functional and order-unit gauges, to Hille–Yosida on the resolvents of POD
generators with a known growth bound, to a brute-force vertex oracle at
sampled points and at its witnesses, and to the Dirichlet module's
column-and-row-sum rule for the positive-part sup-norm.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi.cone import PolyCone
from conesemi.dirichlet import Grid, _unit_gauge_report, dirichlet_laplacian
from conesemi.dissipativity import LinOp, has_positive_off_diagonal
from conesemi.halfnorm import (CanonicalHalfNorm, FunctionalGauge, OrderUnitGauge,
                               RegularizedGauge, WeightedNorm)
from conesemi.numerics import matrix_exp
from conesemi.semigroup import (CONTRACTIVE_TOL, SemigroupConfig, is_contractive,
                                is_positive_operator, propagators)
from oracles import enumerate_vertices, highs_totality_optima

SCALES = (-60, -40, -30, -20, -10, 10, 20, 30, 40, 60)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def pyramid_rays(rng) -> np.ndarray:
    """4-7 rays ``(1, z)`` with ``|z| = 1`` in R^3: every ray is extreme."""
    k = int(rng.integers(4, 8))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    return np.column_stack([np.ones(k), np.cos(angles), np.sin(angles)])


@functools.cache
def probe() -> list[tuple[np.ndarray, np.ndarray]]:
    """100 pyramids, each with a Gaussian 3x3 operator."""
    rng = np.random.default_rng(0)
    return [(pyramid_rays(rng), rng.standard_normal((3, 3))) for _ in range(100)]


def pod_outcome(A, K):
    rep = has_positive_off_diagonal(LinOp(A), K)
    return rep.verdict, [w.label for w in rep.witnesses]


class TestPodAtEveryScale:
    def test_scaled_rays_change_no_verdict(self):
        for R, A in probe():
            K = PolyCone.from_generators(R)
            want = pod_outcome(A, K)
            for k in SCALES:
                scaled = PolyCone.from_generators(np.ldexp(R, k))
                assert np.array_equal(scaled.facets, K.facets)
                assert np.array_equal(scaled.incidence, K.incidence)
                assert np.array_equal(scaled.generators, np.ldexp(K.generators, k))
                assert pod_outcome(A, scaled) == want

    def test_scaled_matrix_changes_no_verdict(self):
        verdicts = set()
        for R, A in probe():
            K = PolyCone.from_generators(R)
            want = pod_outcome(A, K)
            verdicts.add(want[0])
            for j in SCALES:
                assert pod_outcome(np.ldexp(A, j), K) == want
        assert verdicts == {"holds", "fails"}

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SCALES), st.sampled_from(SCALES))
    def test_pod_by_construction_holds_at_every_scale(self, seed, k, j):
        rng = np.random.default_rng(seed)
        K = PolyCone.from_generators(pyramid_rays(rng))
        G, F = K.generators, K.facets
        W = rng.uniform(0.0, 1.0, (G.shape[0], F.shape[0])) * (rng.random((G.shape[0], F.shape[0])) < 0.5)
        A = G.T @ W @ F - rng.uniform(0.0, 3.0) * np.eye(3)
        scaled = PolyCone.from_generators(np.ldexp(G, k))
        assert pod_outcome(A, K) == ("holds", [])
        assert pod_outcome(np.ldexp(A, j), scaled) == ("holds", [])
        # a positive operator by construction: positive at every scale too
        T = G.T @ W @ F
        assert is_positive_operator(T, K).verdict == "holds"
        assert is_positive_operator(np.ldexp(T, j), scaled).verdict == "holds"


class TestPositivityAtEveryScale:
    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_negated_exponential_is_never_positive(self, seed, n):
        # e^A has a positive diagonal entry (its trace is a sum of e^λ > 0),
        # so -s e^A maps that generator out of the orthant at every s > 0
        A = np.random.default_rng(seed).standard_normal((n, n))
        E = matrix_exp(A, 1.0)
        for s in (1.0, 1e-12, 2.0**-60):
            rep = is_positive_operator(-s * E, PolyCone.standard_orthant(n))
            assert rep.verdict == "fails" and rep.witnesses

    @pytest.mark.parametrize("k", SCALES)
    def test_scaled_rays_change_no_witness(self, k):
        rng = np.random.default_rng(1)
        for R, _ in probe()[:20]:
            K = PolyCone.from_generators(R)
            scaled = PolyCone.from_generators(np.ldexp(R, k))
            T = matrix_exp(rng.standard_normal((3, 3)), 0.1)
            want, got = is_positive_operator(T, K), is_positive_operator(T, scaled)
            assert got.verdict == want.verdict
            assert [w.label for w in got.witnesses] == [w.label for w in want.witnesses]


def sphere_cone(rng, n: int) -> PolyCone:
    """n to n + 3 rays ``(1, rho z)``, ``z`` on the unit sphere of R^(n-1),
    redrawn until they span R^n; every ray is extreme."""
    k = n + int(rng.integers(0, 4))
    while True:
        z = rng.standard_normal((k, n - 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rays = np.hstack([np.ones((k, 1)), z * rng.uniform(0.5, 1.0)])
        if np.linalg.matrix_rank(rays) == n:
            return PolyCone.from_generators(rays)


def functional_family(rng, K: PolyCone, kind: str, move: float) -> np.ndarray:
    """Members of K': the facets scaled, with two interior mixes; one facet
    dropped; half the facets with two interior mixes; or every facet, one of
    them moved into the interior of K' by ``move`` in the l1 norm."""
    F = K.facets
    m = F.shape[0]
    mixes = rng.uniform(0.0, 1.0, (2, m)) @ F
    if kind == "scaled":
        return np.vstack([F * rng.uniform(0.1, 10.0, (m, 1)), mixes])[rng.permutation(m + 2)]
    if kind == "dropped":
        return np.delete(F, rng.integers(m), axis=0)
    if kind == "half":
        return np.vstack([F[rng.permutation(m)[: max(1, m // 2)]], mixes])
    inward = F.sum(axis=0) / np.sum(np.abs(F.sum(axis=0)))
    moved = F.copy()
    moved[rng.integers(m)] += move * inward
    return moved


class TestTotalityAgainstHighs:
    @settings(PROPERTY_SETTINGS, max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8),
           st.sampled_from(["scaled", "dropped", "half", "moved"]), st.floats(0.0, 6.0),
           st.integers(-40, 40), st.integers(-40, 40))
    def test_verdict_witnesses_and_scale(self, seed, n, kind, decades, k, j):
        rng = np.random.default_rng(seed)
        K = sphere_cone(rng, n)
        Phi = functional_family(rng, K, kind, 1e-9 * 10.0**decades)
        report = K.is_total([K.certify_functional(p) for p in Phi])
        # the verdict is HiGHS's over every facet, and the witnesses name
        # exactly the facets with a negative optimum
        refuted = highs_totality_optima(Phi, K.facets) < -1e-12
        assert report.verdict == ("fails" if refuted.any() else "holds")
        assert [w.functional.tobytes() for w in report.witnesses] == [
            f.tobytes() for f in K.facets[refuted]]
        for w in report.witnesses:
            assert np.min(Phi @ w.point) >= 0.0 and w.functional @ w.point < 0.0
        # rays and members scaled by powers of two: the same bits
        scaled = PolyCone.from_generators(np.ldexp(K.generators, k))
        again = scaled.is_total([scaled.certify_functional(p) for p in np.ldexp(Phi, j)])
        assert again.verdict == report.verdict
        assert [(w.functional.tobytes(), w.point.tobytes()) for w in again.witnesses] == [
            (w.functional.tobytes(), w.point.tobytes()) for w in report.witnesses]


def contractivity_cone(rng) -> PolyCone:
    """An orthant in R^2..R^5, or a pyramid of 5-8 rays ``(1, rho z)`` in
    R^3 or R^4 (``z`` on the unit sphere, ``rho`` in [0.5, 1])."""
    if rng.random() < 0.4:
        return PolyCone.standard_orthant(int(rng.integers(2, 6)))
    n, k = int(rng.integers(3, 5)), int(rng.integers(5, 9))
    while True:
        z = rng.standard_normal((k, n - 1))
        z *= rng.uniform(0.5, 1.0, (k, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
        rays = np.hstack([np.ones((k, 1)), z])
        if np.linalg.matrix_rank(rays) == n:
            return PolyCone.from_generators(rays)


def positive_map(rng, K: PolyCone) -> np.ndarray:
    """``GᵀWF`` with ``W >= 0`` half dense: it maps every ray into K."""
    G, F = K.generators, K.facets
    W = rng.uniform(0.0, 1.0, (G.shape[0], F.shape[0])) * (rng.random((G.shape[0], F.shape[0])) < 0.5)
    W[0, 0] += 0.5  # never the zero map
    return G.T @ W @ F


def gauge_and_growth(rng, K: PolyCone, kind: str):
    """An interior functional or order-unit gauge, and ``B -> ω`` for a
    positive ``B``: the largest ``<Bg, φ>/<g, φ>`` over the generators, or
    ``<f, Bu>/<f, u>`` over the facets, its closed-form growth bound."""
    G, F = K.generators, K.facets
    if kind == "functional":
        phi = rng.uniform(0.5, 2.0, F.shape[0]) @ F
        return FunctionalGauge(K, phi), lambda B: float(np.max((G @ B.T @ phi) / (G @ phi)))
    u = rng.uniform(0.5, 2.0, G.shape[0]) @ G
    return OrderUnitGauge(K, u), lambda B: float(np.max((F @ B @ u) / (F @ u)))


def brute_gauge(gauge):
    """``x -> max(0, max <x, v>)`` over the brute-force vertices ``v`` of
    ``S``, stated on the caller's rays: ``{0 <= G u <= G φ}`` or
    ``{G u >= 0, <u, unit> <= 1}``."""
    G = gauge.cone.generators
    if isinstance(gauge, FunctionalGauge):
        polar = (np.vstack([G, -G]), np.concatenate([np.zeros(len(G)), -(G @ gauge.phi)]))
    else:
        polar = (np.vstack([G, -gauge.unit]), np.concatenate([np.zeros(len(G)), [-1.0]]))
    V = np.vstack(enumerate_vertices(polar))
    return lambda X: np.maximum(np.max(X @ V.T, axis=1), 0.0)


class TestContractivityByRows:
    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["functional", "order_unit"]))
    def test_closed_forms_and_the_vertex_oracle(self, seed, kind):
        # T >=_K 0 and Tᵀφ <=_K' φ (functional), or T >=_K 0 and Tu <=_K u
        # (order unit); a positive map scaled 1/s past its growth bound, and
        # on half the draws a Gaussian perturbation that breaks positivity
        rng = np.random.default_rng(seed)
        K = contractivity_cone(rng)
        gauge, growth = gauge_and_growth(rng, K, kind)
        G, F, n = K.generators, K.facets, K.dim
        p = brute_gauge(gauge)
        verdicts = set()
        for _ in range(6):
            B = positive_map(rng, K)
            T = B / (growth(B) * rng.choice([rng.uniform(0.5, 0.9), rng.uniform(1.1, 2.0)]))
            if rng.random() < 0.5:
                T = T + 0.2 * np.max(np.abs(T)) * rng.standard_normal((n, n))
            pairs = F @ T @ G.T / np.max(np.abs(F) @ np.abs(T) @ np.abs(G).T)
            if kind == "functional":
                phi = gauge.phi
                excess = (G @ T.T @ phi - G @ phi) / (G @ phi)
            else:
                excess = (F @ T @ gauge.unit - F @ gauge.unit) / (F @ gauge.unit)
            if -1e-6 < pairs.min() < -1e-12 or -1e-6 < excess.max() < 1e-6:
                continue  # within reach of the tolerances: the closed form is not decisive
            want = "holds" if pairs.min() >= -1e-12 and excess.max() < 0 else "fails"
            rep = is_contractive(T, gauge)
            assert rep.verdict == want and rep.samples_used == 0
            verdicts.add(want)
            for w in rep.witnesses:
                x = w.point[None, :]
                assert p(x @ T.T)[0] - p(x)[0] > CONTRACTIVE_TOL
            if want == "holds":
                X = rng.standard_normal((300, n))
                assert np.max(p(X @ T.T) - p(X)) <= 1e-12 * max(1.0, np.max(p(X)))
        assert verdicts

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["functional", "order_unit"]))
    def test_hille_yosida_on_resolvents(self, seed, kind):
        # a POD generator A = B - cI with growth bound ω: (I - λA)^-1 is
        # contractive at every λ > 0 when ω <= 0, and not for small λ when ω > 0
        rng = np.random.default_rng(seed)
        K = contractivity_cone(rng)
        gauge, growth = gauge_and_growth(rng, K, kind)
        eye = np.eye(K.dim)
        for omega in (-rng.uniform(1e-6, 2.0), rng.uniform(1e-3, 2.0)):
            B = positive_map(rng, K)
            A = B - (growth(B) - omega) * eye
            verdicts = {lam: is_contractive(np.linalg.inv(eye - lam * A), gauge).verdict
                        for lam in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)}
            if omega < 0:
                assert set(verdicts.values()) == {"holds"}, (omega, verdicts)
            else:
                assert "fails" in {verdicts[lam] for lam in (1e-4, 1e-3, 1e-2)}, (omega, verdicts)

    @settings(PROPERTY_SETTINGS, max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.integers(-40, 40))
    def test_scaled_rays_change_no_bit(self, seed, k):
        # 2^k on the rays moves no bit; 2^k on phi or the l1 weights scales
        # p, so every margin by exactly 2^k, and 2^|k| on u scales p by
        # 2^-|k| off the u row (is_order_unit still reads MEMBER_TOL on the
        # caller's scale, so u only grows): no verdict, label or point moves
        rng = np.random.default_rng(seed)
        R = pyramid_rays(rng) if seed % 2 else np.eye(3) * rng.uniform(0.5, 4.0, (3, 1))
        K, scaled = PolyCone.from_generators(R), PolyCone.from_generators(np.ldexp(R, k))
        phi = rng.uniform(0.5, 2.0, K.facets.shape[0]) @ K.facets
        u = rng.uniform(0.5, 2.0, K.generators.shape[0]) @ K.generators
        w = rng.uniform(0.5, 2.0, 3)
        X = 10.0 ** rng.uniform(-3, 3, (40, 1)) * rng.standard_normal((40, 3))
        T = rng.standard_normal((3, 3)) if k % 2 else positive_map(rng, K) / 4.0
        for make, margin_exponent in (
                (lambda C, j: FunctionalGauge(C, np.ldexp(phi, j)), k),
                (lambda C, j: OrderUnitGauge(C, np.ldexp(u, abs(j))), None),
                (lambda C, j: CanonicalHalfNorm(C, WeightedNorm("l1", np.ldexp(w, j))), k)):
            want, got = make(K, 0), make(scaled, 0)
            assert np.array_equal(got.values(X), want.values(X))
            a, b, c = is_contractive(T, want), is_contractive(T, got), is_contractive(T, make(K, k))
            assert (b.verdict, b.samples_used, b.data["worst_margin"]) == (
                a.verdict, 0, a.data["worst_margin"])
            assert [(w.label, w.point.tobytes(), w.margin) for w in b.witnesses] == [
                (w.label, w.point.tobytes(), w.margin) for w in a.witnesses]
            assert (c.verdict, c.samples_used) == (a.verdict, 0)
            assert [w.label for w in c.witnesses] == [w.label for w in a.witnesses]
            if margin_exponent is not None:
                assert [(w.point.tobytes(), w.margin) for w in c.witnesses] == [
                    (w.point.tobytes(), np.ldexp(w.margin, k)) for w in a.witnesses]
        for make in (lambda C: CanonicalHalfNorm(C, WeightedNorm("linf", w)),
                     lambda C: RegularizedGauge(C, WeightedNorm("l1", w))):
            assert np.array_equal(make(scaled).values(X), make(K).values(X))

    @pytest.mark.parametrize("make", [
        lambda K: OrderUnitGauge(K, [1e9, 1e9]), lambda K: FunctionalGauge(K, [1e-12, 1e-12]),
        lambda K: OrderUnitGauge(K, [1.0, 1.0]), lambda K: FunctionalGauge(K, [1.0, 1.0])])
    def test_a_violation_fails_at_every_gauge_scale(self, make):
        # x = -e_1 gives p(Tx) = p((1/2, -1/2)) > 0 = p(x), whatever the
        # size of u or phi; the tolerance follows that size
        gauge = make(PolyCone.standard_orthant(2))
        rep = is_contractive([[1.0, -0.5], [0.0, 0.5]], gauge)
        assert rep.verdict == "fails" and rep.samples_used == 0
        assert [w.label for w in rep.witnesses] == ["-row[1]"]
        assert rep.witnesses[0].margin == gauge.value([0.5, -0.5])

    def test_the_dirichlet_unit_gauge_rule_is_the_row_test(self):
        # _unit_gauge_report reads the rows of ||x^+||_inf off column minima
        # and row sums: the same verdict and witness points as the row test
        rng = np.random.default_rng(39)
        cases = [T for N in (15, 31) for _, _, T in propagators(
            dirichlet_laplacian(Grid(N)), SemigroupConfig(method="both"))]
        for _ in range(40):
            n = int(rng.integers(2, 7))
            T = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
            T /= T.sum(axis=1).max() * rng.uniform(0.8, 1.25)
            if rng.random() < 0.5:
                T[rng.integers(n), rng.integers(n)] -= rng.uniform(1e-3, 1.0)
            cases.append(T)
        verdicts = []
        for T in cases:
            n = T.shape[0]
            rows = is_contractive(T, OrderUnitGauge(PolyCone.standard_orthant(n), np.ones(n)))
            rule = _unit_gauge_report("", T, 1.0, 1e-8, False)
            assert rows.verdict == rule.verdict
            assert {tuple(w.point) for w in rows.witnesses} == {tuple(w.point) for w in rule.witnesses}
            verdicts.append(rule.verdict)
        assert verdicts.count("holds") >= 10 and verdicts.count("fails") >= 10
