"""Scale covariance of the exact pair checks, and totality against HiGHS.

Scaling the rays of a cone, or a matrix, by ``2^k`` is exact in floating
point, so every exact verdict must come out the same at every such scale:
the facets, the incidence matrix, the POD verdict and its witness pairs,
the positivity verdict, and the totality verdict with its witnesses.  The
pyramid probe is fixed (``default_rng(0)``); hypothesis adds pyramids with
POD operators by construction, ``GᵀWF - cI`` with ``W >= 0``, whose pairs
all sit on the verdict boundary or above it, and functional families on
cones in R^2..R^8 whose totality scipy's HiGHS decides facet by facet.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi.cone import PolyCone
from conesemi.dissipativity import LinOp, has_positive_off_diagonal
from conesemi.numerics import matrix_exp
from conesemi.semigroup import is_positive_operator
from oracles import highs_totality_optima

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
