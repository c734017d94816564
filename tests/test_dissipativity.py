"""Dissipativity margins, sampled certificates, and the POD check.

The two operator fixtures of the 2-d example are pinned exactly; the
extreme-pair reduction behind the POD check is validated against a sampled
face-LP oracle before the equivalence tests rely on it.
"""

import numpy as np
import pytest

from conesemi.cone import PolyCone
from conesemi.dissipativity import (
    LinOp,
    PolyhedralSet,
    certify_dissipative,
    has_positive_off_diagonal,
    is_dissipative_at,
    is_metzler,
    is_strictly_dissipative_at,
)
from conesemi.errors import MalformedProblem, OutsideDomain
from conesemi.halfnorm import EuclideanNorm, FunctionalGauge
from conesemi.numerics import LpProblem, solve_lp
from conesemi.report import Witness


@pytest.fixture
def orthant2():
    return PolyCone.standard_orthant(2)


@pytest.fixture
def matrix_one():
    # POD holds, Euclidean dissipativity fails
    return LinOp([[1.0, 1.0], [1.0, 1.0]])


@pytest.fixture
def matrix_two_restricted():
    # dissipative on its half-line domain, POD fails at matrix level
    domain = PolyhedralSet(
        ineq=(np.array([[1.0, 0.0]]), np.array([0.0])),
        eq=(np.array([[0.0, 1.0]]), np.array([0.0])),
    )
    return LinOp([[-1.0, -1.0], [1.0, 1.0]], domain=domain)


class TestPointwise:
    def test_fixture_one_not_dissipative(self, matrix_one, orthant2):
        ok, margin = is_dissipative_at(matrix_one, EuclideanNorm(orthant2), [1, 0])
        assert not ok
        assert margin == pytest.approx(1.0, abs=1e-9)

    def test_fixture_two_dissipative_on_domain(self, matrix_two_restricted, orthant2):
        ok, margin = is_dissipative_at(
            matrix_two_restricted, EuclideanNorm(orthant2), [2, 0]
        )
        assert ok
        assert margin == pytest.approx(-2.0, abs=1e-9)

    def test_negative_identity(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        ok, margin = is_dissipative_at(LinOp(-np.eye(2)), p, [1, 1])
        assert ok
        assert margin == pytest.approx(-2.0, abs=1e-9)  # -<x, phi>

    def test_outside_domain_rejected(self, matrix_two_restricted, orthant2):
        with pytest.raises(OutsideDomain):
            is_dissipative_at(matrix_two_restricted, EuclideanNorm(orthant2), [0, 1])

    def test_origin_is_always_dissipative(self, matrix_one, orthant2):
        ok, margin = is_dissipative_at(matrix_one, EuclideanNorm(orthant2), [0, 0])
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)


class TestStrictPointwise:
    def test_negative_identity_strict(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        ok, _ = is_strictly_dissipative_at(LinOp(-np.eye(2)), p, [1, 1])
        assert ok

    def test_fixture_one_strict_fails(self, matrix_one, orthant2):
        ok, _ = is_strictly_dissipative_at(matrix_one, EuclideanNorm(orthant2), [1, 0])
        assert not ok

    def test_nilpotent_with_singleton_subdiff(self, orthant2):
        # dp at (1,-2) is the single point (1,0); image is (-2, 0)
        p = FunctionalGauge(orthant2, [1, 1])
        op = LinOp([[0.0, 1.0], [0.0, 0.0]])
        ok, margin = is_strictly_dissipative_at(op, p, [1, -2])
        assert ok
        assert margin == pytest.approx(-2.0, abs=1e-9)


class TestCertify:
    def test_negative_identity_passes(self, orthant2):
        rep = certify_dissipative(
            LinOp(-np.eye(2)), FunctionalGauge(orthant2, [1, 1]), n_samples=100, seed=0
        )
        assert rep.verdict == "inconclusive"
        assert not rep.witnesses
        assert any("not a proof" in n for n in rep.notes)

    def test_fixture_one_fails_with_generator_witness(self, matrix_one, orthant2):
        rep = certify_dissipative(matrix_one, EuclideanNorm(orthant2), 100, 0)
        assert rep.verdict == "fails"
        first = rep.witnesses[0]
        assert first.point == pytest.approx([1, 0])
        assert first.margin == pytest.approx(1.0, abs=1e-9)

    def test_fixture_two_passes_on_domain(self, matrix_two_restricted, orthant2):
        rep = certify_dissipative(matrix_two_restricted, EuclideanNorm(orthant2), 100, 0)
        assert rep.verdict == "inconclusive"
        assert not rep.witnesses

    def test_deterministic_for_fixed_seed(self, matrix_one, orthant2):
        a = certify_dissipative(matrix_one, EuclideanNorm(orthant2), 50, 7)
        b = certify_dissipative(matrix_one, EuclideanNorm(orthant2), 50, 7)
        assert len(a.witnesses) == len(b.witnesses)
        for wa, wb in zip(a.witnesses, b.witnesses):
            assert np.array_equal(wa.point, wb.point)
            assert wa.margin == wb.margin

    def test_maximizing_node_domain_mirrors_grid_argument(self):
        # second-difference matrix restricted to {x : x_j >= x_k for all k}:
        # where the maximum sits at j, the point evaluation pairs nonpositively
        n, j = 5, 2
        scale = (n + 1) ** 2
        A = scale * (-2 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
        rows = []
        for k in range(n):
            if k == j:
                continue
            row = np.zeros(n)
            row[j] = 1.0
            row[k] = -1.0
            rows.append(row)
        op = LinOp(A, domain=PolyhedralSet(ineq=(np.vstack(rows), np.zeros(n - 1))))
        gauge = FunctionalGauge(PolyCone.standard_orthant(n), np.eye(n)[j])
        rep = certify_dissipative(op, gauge, n_samples=100, seed=3)
        assert rep.verdict == "inconclusive"
        assert not rep.witnesses

    def test_high_dimensional_domain_falls_back_to_rejection(self):
        # above the vertex-enumeration guard the sampler filters Gaussians
        n, j = 15, 7
        scale = (n + 1) ** 2
        A = scale * (-2 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
        rows = []
        for k in range(n):
            if k == j:
                continue
            row = np.zeros(n)
            row[j] = 1.0
            row[k] = -1.0
            rows.append(row)
        op = LinOp(A, domain=PolyhedralSet(ineq=(np.vstack(rows), np.zeros(n - 1))))
        gauge = FunctionalGauge(PolyCone.standard_orthant(n), np.eye(n)[j])
        rep = certify_dissipative(op, gauge, n_samples=30, seed=3)
        assert rep.verdict == "inconclusive"
        assert not rep.witnesses
        assert any("rejection sampling" in note for note in rep.notes)


def sampled_pod_oracle(A, cone, rng, n_boundary=60, tol=1e-9):
    """Sample boundary points of the cone and minimize <Ax, phi> over the
    face of orthogonal positive functionals by LP; POD fails iff some
    optimum is negative.  Independent of the extreme-pair reduction."""
    R = cone.generators
    F = cone.facets
    for _ in range(n_boundary):
        # random point on a random facet: conic combination of the rays
        # active at that facet
        f = F[rng.integers(0, F.shape[0])]
        active = R[np.abs(R @ f) <= 1e-10]
        if active.shape[0] == 0:
            continue
        x = active.T @ rng.uniform(0.0, 2.0, active.shape[0])
        # minimize <Ax, phi> over {phi in K', <x, phi> = 0, normalized},
        # with phi written as a nonnegative mix of the dual rays
        res = solve_lp(
            LpProblem(
                objective=F @ (A @ x),
                eq_constraints=(
                    np.vstack([F @ x, (F @ R.T).sum(axis=1)]),
                    np.array([0.0, 1.0]),
                ),
                nonneg=True,
            )
        )
        if res.optimal and res.value < -tol:
            return False
    return True


class TestPod:
    def test_fixture_one_holds(self, matrix_one, orthant2):
        assert has_positive_off_diagonal(matrix_one, orthant2).verdict == "holds"

    def test_fixture_two_fails_with_exact_witness(self, orthant2):
        rep = has_positive_off_diagonal(LinOp([[-1.0, -1.0], [1.0, 1.0]]), orthant2)
        assert rep.verdict == "fails"
        w = rep.witnesses[0]
        assert w.point == pytest.approx([0, 1])
        assert w.functional == pytest.approx([1, 0])
        assert w.margin == pytest.approx(-1.0, abs=1e-9)

    def test_metzler_matrix_holds(self, orthant2):
        rep = has_positive_off_diagonal(LinOp([[-5.0, 2.0], [3.0, -1.0]]), orthant2)
        assert rep.verdict == "holds"

    def test_restricted_domain_marks_partial(self, matrix_two_restricted, orthant2):
        rep = has_positive_off_diagonal(matrix_two_restricted, orthant2)
        assert any("partial" in n for n in rep.notes)

    def test_witnesses_match_the_pair_loop(self):
        """Same witnesses, in the same order, as the generator-major pair loop
        the check used to run, on random failing operators."""
        rng = np.random.default_rng(115)
        cones = [
            PolyCone.standard_orthant(3),
            PolyCone.standard_orthant(6),
            PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]),
            PolyCone.from_generators(np.hstack([np.ones((7, 1)), rng.standard_normal((7, 3))])),
        ]
        failing = 0
        for K in cones:
            for _ in range(8):
                A = rng.standard_normal((K.dim, K.dim))
                rep = has_positive_off_diagonal(LinOp(A), K)
                expected = pod_pair_loop(A, K.generators, K.facets, 1e-9, 1e-10)
                assert [w.label for w in rep.witnesses] == [w.label for w in expected]
                for got, want in zip(rep.witnesses, expected):
                    assert np.array_equal(got.point, want.point)
                    assert np.array_equal(got.functional, want.functional)
                    assert got.margin == want.margin
                assert rep.verdict == ("fails" if expected else "holds")
                failing += bool(expected)
        assert failing >= 24

    def test_extreme_pair_reduction_against_sampled_oracle(self):
        """Validates the reduction the POD check rests on (dims <= 4)."""
        rng = np.random.default_rng(114)
        cones = [
            PolyCone.standard_orthant(2),
            PolyCone.from_generators([[1, 1], [1, -1]]),
            PolyCone.standard_orthant(3),
            PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]),
            PolyCone.standard_orthant(4),
        ]
        agreements = 0
        for K in cones:
            for _ in range(12):
                A = rng.standard_normal((K.dim, K.dim))
                pair_verdict = has_positive_off_diagonal(LinOp(A), K).verdict == "holds"
                oracle_verdict = sampled_pod_oracle(A, K, rng)
                # the reduction is exact, the oracle is sampled: a sampled
                # failure must imply a pair failure; a pair pass must never
                # contradict a sampled failure
                if not oracle_verdict:
                    assert not pair_verdict
                if pair_verdict:
                    assert oracle_verdict
                agreements += pair_verdict == oracle_verdict
        assert agreements >= 50  # sampling may miss a thin failing face


def pod_pair_loop(A, gens, facets, tol, pair_tol):
    """The per-pair loop the POD check replaced, kept as its witness oracle."""
    pairing = gens @ facets.T
    image = (A @ gens.T).T @ facets.T
    witnesses = []
    for i in range(gens.shape[0]):
        for j in range(facets.shape[0]):
            if pairing[i, j] <= pair_tol and image[i, j] < -tol:
                witnesses.append(
                    Witness(
                        point=gens[i].copy(),
                        functional=facets[j].copy(),
                        margin=float(image[i, j]),
                        label=f"pair(g[{i}], f[{j}])",
                    )
                )
    return witnesses


class TestMetzlerCharacterization:
    def test_examples(self):
        assert is_metzler([[1, 1], [1, 1]])
        assert not is_metzler([[-1, -1], [1, 1]])
        assert is_metzler(np.diag([-7.0, -3.0]))

    def test_matches_pod_on_orthant(self):
        rng = np.random.default_rng(115)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            if rng.uniform() < 0.5:
                A = np.abs(A) - np.diag(rng.uniform(0, 3, n))  # force Metzler often
            K = PolyCone.standard_orthant(n)
            assert is_metzler(A) == (
                has_positive_off_diagonal(LinOp(A), K).verdict == "holds"
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(116)
        K = PolyCone.from_generators([[1, 1], [1, -1]])
        for _ in range(40):
            A = rng.standard_normal((2, 2))
            c = float(rng.uniform(-10, 10))
            base = has_positive_off_diagonal(LinOp(A), K).verdict
            shifted = has_positive_off_diagonal(LinOp(A + c * np.eye(2)), K).verdict
            assert base == shifted


class TestExampleIndependence:
    def test_pod_and_dissipativity_are_independent(
        self, matrix_one, matrix_two_restricted, orthant2
    ):
        euclid = EuclideanNorm(orthant2)
        # first fixture: POD yes, dissipative no
        assert has_positive_off_diagonal(matrix_one, orthant2).verdict == "holds"
        assert certify_dissipative(matrix_one, euclid, 50, 0).verdict == "fails"
        # second fixture: dissipative on its domain yes, POD no
        assert certify_dissipative(matrix_two_restricted, euclid, 50, 0).passed
        bare = LinOp(matrix_two_restricted.matrix)
        assert has_positive_off_diagonal(bare, orthant2).verdict == "fails"


class TestDomainValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(MalformedProblem):
            PolyhedralSet(ineq=(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])))

    def test_domain_dimension_checked(self):
        domain = PolyhedralSet(ineq=(np.array([[1.0, 0.0]]), np.array([0.0])))
        with pytest.raises(Exception):
            LinOp(np.eye(3), domain=domain)
