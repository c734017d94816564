"""Dissipativity margins, sampled certificates, and the POD check.

The two operator fixtures of the 2-d example are pinned exactly; the
extreme-pair reduction behind the POD check is validated against a sampled
face-LP oracle before the equivalence tests rely on it.  The batched
certificate is checked against the per-point loop it replaced, kept here as
an oracle, sampler included.
"""

import numpy as np
import pytest

from conesemi.cone import PolyCone
from conesemi.dissipativity import (
    POINT_TOL,
    LinOp,
    PolyhedralSet,
    _domain_test_points,
    certify_dissipative,
    has_positive_off_diagonal,
    is_dissipative_at,
    is_metzler,
    is_strictly_dissipative_at,
)
from conesemi.errors import MalformedProblem, OutsideDomain
from conesemi.halfnorm import EuclideanNorm, FunctionalGauge, OrderUnitGauge
from conesemi.numerics import LpProblem, solve_lp
from conesemi.report import Witness
from oracles import enumerate_vertices


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


def in_domain_loop(op, x, tol=POINT_TOL):
    """Oracle: the per-point domain membership test."""
    if op.domain is None:
        return True
    scale = tol * (1.0 + float(np.max(np.abs(x))))
    if op.domain.ineq is not None:
        G, h = op.domain.ineq
        if np.min(G @ x - h) < -scale:
            return False
    if op.domain.eq is not None:
        E, d = op.domain.eq
        if np.max(np.abs(E @ x - d)) > scale:
            return False
    return True


def domain_points_loop(op, cone, n_samples, seed):
    """Oracle: the sampler's per-point loop, ``(label, point)`` pairs."""
    rng = np.random.default_rng(seed)
    n = op.dim
    points = []
    for i, g in enumerate(cone.generators):
        if in_domain_loop(op, g):
            points.append((f"generator[{i}]", np.asarray(g, dtype=float)))
    if op.domain is None or (op.domain.ineq is None and op.domain.eq is None):
        for k in range(n_samples):
            points.append((f"sample[{k}]", rng.standard_normal(n)))
        return points
    if n > 10:
        accepted = 0
        for _ in range(50 * max(n_samples, 1)):
            if accepted >= n_samples:
                break
            x = rng.standard_normal(n)
            if in_domain_loop(op, x):
                points.append((f"sample[{accepted}]", x))
                accepted += 1
        return points
    rows = [np.eye(n), -np.eye(n)]
    rhs = [-np.ones(n), -np.ones(n)]
    if op.domain.ineq is not None:
        rows.append(op.domain.ineq[0])
        rhs.append(op.domain.ineq[1])
    if op.domain.eq is not None:
        E, d = op.domain.eq
        rows.extend([E, -E])
        rhs.extend([d, -d])
    verts = enumerate_vertices((np.vstack(rows), np.concatenate(rhs)))
    for i, v in enumerate(verts):
        points.append((f"domain_vertex[{i}]", v))
    if verts:
        V = np.vstack(verts)
        for k in range(n_samples):
            weights = rng.dirichlet(np.ones(V.shape[0]))
            scale = rng.uniform(0.1, 3.0)
            points.append((f"sample[{k}]", scale * (weights @ V)))
    return points


def certify_loop(op, halfnorm, n_samples, seed, tol=POINT_TOL):
    """Oracle: one ``pairing_extremum`` per test point, in sampler order."""
    witnesses = []
    for label, x in domain_points_loop(op, halfnorm.cone, n_samples, seed):
        m, u = halfnorm.pairing_extremum(x, op.matrix @ x, "min")
        if m > tol:
            witnesses.append(Witness(point=x, functional=u, margin=float(m), label=label))
    return witnesses


def half_line_domain(n):
    """``{x : x_0 >= 0, x_1 = .. = x_{n-1} = 0}`` plus the slab ``x_0 <= 5``."""
    E = np.eye(n)[1:]
    G = np.vstack([np.eye(n)[:1], -np.eye(n)[:1]])
    return PolyhedralSet(ineq=(G, np.array([0.0, -5.0])), eq=(E, np.zeros(n - 1)))


def perturbed_pyramid_setups(rng, count):
    """Pyramids with 5-8 rays in R^3/R^4, generators that leave the cone
    invariant shifted by Gaussian noise (many are not dissipative), and the
    functional and order-unit gauges of interior phi and u."""
    setups = []
    for n, k in [(3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 8)] * count:
        z = rng.standard_normal((k, n - 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        K = PolyCone.from_generators(np.hstack([np.ones((k, 1)), z]))
        G, F = K.generators, K.facets
        phi = rng.uniform(0.5, 1.5, F.shape[0]) @ F
        unit = rng.uniform(0.5, 1.5, G.shape[0]) @ G
        W = rng.uniform(0.0, 1.0, (G.shape[0], F.shape[0]))
        B = G.T @ (W * (rng.random(W.shape) < 0.5)) @ F
        c = float(np.max((G @ B.T @ phi) / (G @ phi))) * rng.uniform(1.0, 1.5)
        A = B - c * np.eye(n) + 0.3 * c * rng.standard_normal((n, n))
        setups.append((LinOp(A), FunctionalGauge(K, phi)))
        setups.append((LinOp(A), OrderUnitGauge(K, unit)))
    return setups


def assert_same_witnesses(got, expected):
    """Same labels, points and order; the same functional unless another one
    ties with it; margins within 1e-12 of the size of their terms."""
    assert [w.label for w in got] == [w.label for w in expected]
    for g, e in zip(got, expected):
        assert np.array_equal(g.point, e.point)
        size = max(1.0, float(np.max(np.abs(e.functional)))) * float(np.max(np.abs(e.point)))
        assert g.margin == pytest.approx(e.margin, rel=1e-12, abs=1e-15 * size)
        if not np.array_equal(g.functional, e.functional):
            assert float(g.point @ g.functional) == pytest.approx(
                float(g.point @ e.functional), abs=1e-9 * size
            )


class TestBatchedCertificate:
    """``certify_dissipative`` against the per-point loop it replaced."""

    def test_sampler_matches_the_loop(self, matrix_one, matrix_two_restricted, orthant2):
        rng = np.random.default_rng(125)
        cases = [
            (matrix_one, orthant2, 100, 0),
            (matrix_two_restricted, orthant2, 40, 3),
            (LinOp(-np.eye(3), domain=half_line_domain(3)), PolyCone.standard_orthant(3), 25, 4),
            (LinOp(-np.eye(3), domain=PolyhedralSet()), PolyCone.standard_orthant(3), 10, 5),
            (LinOp(rng.standard_normal((4, 4))), PolyCone.from_generators(
                np.hstack([np.ones((6, 1)), rng.standard_normal((6, 3))])), 32, 6),
            (LinOp(np.zeros((12, 12)), domain=half_line_domain(12)),
             PolyCone.standard_orthant(12), 20, 7),
            (LinOp(np.zeros((3, 3)), domain=PolyhedralSet(ineq=(-np.eye(3), np.zeros(3)))),
             PolyCone.standard_orthant(3), 0, 8),
        ]
        for op, K, n_samples, seed in cases:
            labels, X, _ = _domain_test_points(op.domain, K, n_samples, seed)
            expected = domain_points_loop(op, K, n_samples, seed)
            assert labels == [label for label, _ in expected]
            assert X.shape == (len(expected), op.dim)
            for row, (_, x) in zip(X, expected):
                assert np.array_equal(row, x)

    def test_rejection_sampler_matches_the_loop(self):
        # above dimension 10 the sampler filters one batch of draws; domains
        # that accept 1/8 of them (every request met) and 1/64 (short), and
        # a request for no samples
        n = 12
        K = PolyCone.standard_orthant(n)
        short = []
        for k, n_samples, seed in ((3, 20, 9), (6, 20, 10), (6, 0, 11)):
            op = LinOp(np.zeros((n, n)), domain=PolyhedralSet(ineq=(np.eye(n)[:k], np.zeros(k))))
            labels, X, notes = _domain_test_points(op.domain, K, n_samples, seed)
            expected = domain_points_loop(op, K, n_samples, seed)
            assert labels == [label for label, _ in expected]
            assert X.shape == (len(expected), n)
            for row, (_, x) in zip(X, expected):
                assert np.array_equal(row, x)
            accepted = sum(label.startswith("sample") for label, _ in expected)
            assert notes == [
                "domain vertices skipped above the dim-10 enumeration guard; "
                f"rejection sampling accepted {accepted} of {n_samples} requested points"
            ]
            short.append(accepted < n_samples)
        assert short == [False, True, False]

    def test_euclidean_fixture_and_restricted_domain(
        self, matrix_one, matrix_two_restricted, orthant2
    ):
        gauge = EuclideanNorm(orthant2)
        half_line = LinOp(matrix_one.matrix, domain=half_line_domain(2))
        for op in (matrix_one, matrix_two_restricted, half_line):
            for seed in (0, 7):
                rep = certify_dissipative(op, gauge, 50, seed)
                expected = certify_loop(op, gauge, 50, seed)
                assert_same_witnesses(rep.witnesses, expected)
                assert rep.verdict == ("fails" if expected else "inconclusive")
        assert certify_dissipative(matrix_one, gauge, 50, 0).witnesses

    def test_perturbed_pyramids(self):
        rng = np.random.default_rng(126)
        failing = 0
        for op, gauge in perturbed_pyramid_setups(rng, 3):
            rep = certify_dissipative(op, gauge, 32, 11)
            expected = certify_loop(op, gauge, 32, 11)
            assert_same_witnesses(rep.witnesses, expected)
            assert rep.verdict == ("fails" if expected else "inconclusive")
            assert rep.samples_used == len(domain_points_loop(op, gauge.cone, 32, 11))
            failing += bool(expected)
        assert 5 <= failing <= 37

    def test_no_test_points(self):
        # above the enumeration guard, no generator in the domain and no
        # samples asked for: nothing to check
        n = 11
        op = LinOp(np.eye(n), domain=PolyhedralSet(ineq=(-np.eye(n)[:1], np.array([1.0]))))
        gauge = FunctionalGauge(PolyCone.standard_orthant(n), np.ones(n))
        assert domain_points_loop(op, gauge.cone, 0, 0) == []
        rep = certify_dissipative(op, gauge, 0, 0)
        assert rep.verdict == "inconclusive"
        assert rep.samples_used == 0 and not rep.witnesses


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
                ineq_constraints=(np.eye(F.shape[0]), np.zeros(F.shape[0])),
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
        assert rep.verdict == "inconclusive" and rep.passed

    def test_partial_pass_is_not_a_proof(self):
        # x1 >= x2 keeps e1 and e3 of the orthant in R^3, and every pair of
        # those passes; yet x = e1 + e2 lies in D and K, f = e3 vanishes on
        # it, and <Ax, f> = -1
        A = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, -2.0, -1.0]])
        op = LinOp(A, domain=PolyhedralSet(ineq=([[1.0, -1.0, 0.0]], [0.0])))
        K = PolyCone.standard_orthant(3)
        x, f = np.array([1.0, 1.0, 0.0]), np.eye(3)[2]
        assert op.in_domain(x) and K.contains(x) and x @ f == 0.0 and f @ A @ x == -1.0
        rep = has_positive_off_diagonal(op, K)
        assert rep.verdict == "inconclusive" and not rep.witnesses
        assert rep.notes == ["partial: domain does not contain the cone; "
                             "restricted to 2 of 3 generators"]
        # the same check without the domain finds the pair (e2, e3)
        full = has_positive_off_diagonal(LinOp(A), K)
        assert full.verdict == "fails" and full.witnesses[0].margin == -2.0

    def test_domain_containing_the_cone_is_exact(self, orthant2):
        # x1 + x2 >= 0 and x1 >= -1 contain the orthant: the full check runs
        domain = PolyhedralSet(ineq=([[1.0, 1.0], [1.0, 0.0]], [0.0, -1.0]))
        for A, verdict in (([[-5.0, 2.0], [3.0, -1.0]], "holds"),
                           ([[-1.0, -1.0], [1.0, 1.0]], "fails")):
            rep = has_positive_off_diagonal(LinOp(A, domain=domain), orthant2)
            bare = has_positive_off_diagonal(LinOp(A), orthant2)
            assert rep.verdict == bare.verdict == verdict
            assert rep.notes == bare.notes == ["exact extreme-pair check"]
            assert [w.to_dict() for w in rep.witnesses] == [w.to_dict() for w in bare.witnesses]

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

    def test_one_tiny_negative_entry_is_not_metzler(self):
        # the sign is exact: no absolute threshold lets -1e-13 pass
        A = np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, -1e-13], [0.0, 1.0, -1.0]])
        assert not is_metzler(A)
        rep = has_positive_off_diagonal(LinOp(A), PolyCone.standard_orthant(3))
        assert rep.verdict == "fails"
        assert [(w.label, w.margin) for w in rep.witnesses] == [("pair(g[2], f[1])", -1e-13)]

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

    @pytest.mark.parametrize("n_samples, seed", [(-1, 0), (10, -1)])
    def test_negative_sample_count_or_seed_rejected(self, orthant2, n_samples, seed):
        gauge = FunctionalGauge(orthant2, [1.0, 1.0])
        with pytest.raises(MalformedProblem, match="nonnegative"):
            certify_dissipative(LinOp(-np.eye(2)), gauge, n_samples, seed)

    def test_domain_dimension_checked(self):
        domain = PolyhedralSet(ineq=(np.array([[1.0, 0.0]]), np.array([0.0])))
        with pytest.raises(Exception):
            LinOp(np.eye(3), domain=domain)
