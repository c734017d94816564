"""Acceptance suite: one test per criterion, each printing a verdict line
and enforcing its runtime budget.

The random-instance family used by criteria 3 and 4 is Metzler with the
diagonal dominating the phi-weighted column sums, which makes the operator
provably dissipative for the gauge of phi: for any point, splitting
coordinates by sign bounds the best subgradient pairing by the weighted
column sums.  The mutation in criterion 4 flips one off-diagonal entry
negative, breaking both the sign structure and the semigroup's positivity
at short times.
"""

import time

import numpy as np
import pytest

from conesemi.cone import PolyCone
from conesemi.dirichlet import Grid, convergence_study, dirichlet_laplacian
from conesemi.dissipativity import (
    LinOp,
    PolyhedralSet,
    certify_dissipative,
    has_positive_off_diagonal,
    is_metzler,
)
from conesemi.halfnorm import (
    CanonicalHalfNorm,
    EuclideanNorm,
    FunctionalGauge,
    OrderUnitGauge,
    PositivePartNorm,
    RegularizedGauge,
    WeightedNorm,
    regularized_norm,
)
from conesemi.numerics import matrix_exp
from conesemi.semigroup import euler_matrix, is_contractive, is_positive_operator
from oracles import enumerate_vertices


class budget:
    """Context manager asserting the criterion's runtime limit and printing
    the one-line verdict the suite is required to emit."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.label}: {status} ({elapsed:.2f}s / limit {self.seconds:g}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its runtime budget: {elapsed:.2f}s"
            )
        return False


def weighted_dominant_metzler(n, rng):
    off = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    phi = rng.uniform(0.2, 2.0, size=n)
    A = off.copy()
    for j in range(n):
        A[j, j] = -(phi @ off[:, j]) / phi[j] - rng.uniform(0.1, 1.0)
    return A, phi


def dissipative_suite_instances(count=50, seed=4242):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        out.append(weighted_dominant_metzler(n, rng))
    return out


def test_criterion_1_example_fixtures():
    with budget("1 (worked 2-d example fixtures)", 1.0):
        orthant = PolyCone.standard_orthant(2)
        euclid = EuclideanNorm(orthant)

        first = LinOp([[1.0, 1.0], [1.0, 1.0]])
        assert has_positive_off_diagonal(first, orthant).verdict == "holds"
        rep = certify_dissipative(first, euclid, n_samples=100, seed=0)
        assert rep.verdict == "fails"
        witness = next(w for w in rep.witnesses if np.allclose(w.point, [1, 0]))
        assert witness.margin == pytest.approx(1.0, abs=1e-9)

        domain = PolyhedralSet(
            ineq=(np.array([[1.0, 0.0]]), np.array([0.0])),
            eq=(np.array([[0.0, 1.0]]), np.array([0.0])),
        )
        second = LinOp([[-1.0, -1.0], [1.0, 1.0]], domain=domain)
        rep = certify_dissipative(second, euclid, n_samples=100, seed=0)
        assert rep.verdict == "inconclusive" and not rep.witnesses

        pod = has_positive_off_diagonal(LinOp(second.matrix), orthant)
        assert pod.verdict == "fails"
        assert pod.witnesses[0].margin == pytest.approx(-1.0, abs=1e-9)


def test_criterion_2_metzler_equivalence():
    with budget("2 (off-diagonal sign equivalence, 200 matrices)", 5.0):
        rng = np.random.default_rng(1001)
        agreements = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            if rng.uniform() < 0.5:
                A = np.abs(A) - np.diag(rng.uniform(0, 3, n))
            cone = PolyCone.standard_orthant(n)
            pod = has_positive_off_diagonal(LinOp(A), cone).verdict == "holds"
            agreements += pod == is_metzler(A)
        assert agreements == 200


def test_criterion_3_resolvent_contractivity_suite():
    with budget("3 (resolvent contractivity, 50 dissipative instances)", 10.0):
        for k, (A, phi) in enumerate(dissipative_suite_instances()):
            n = A.shape[0]
            cone = PolyCone.standard_orthant(n)
            gauge = FunctionalGauge(cone, phi)
            eye = np.eye(n)
            for lam in (0.1, 0.5, 1.0):
                resolvent = np.linalg.solve(eye - lam * A, eye)
                rep = is_contractive(resolvent, gauge, n_samples=100, seed=k, tol=1e-8)
                assert rep.verdict != "fails", (k, lam, rep.witnesses[0].margin)


def test_criterion_4_semigroup_positivity_suite():
    with budget("4 (semigroup positivity, same instances + mutant)", 10.0):
        instances = dissipative_suite_instances()
        for A, _ in instances:
            n = A.shape[0]
            cone = PolyCone.standard_orthant(n)
            phis = [cone.certify_functional(f) for f in cone.facets]
            assert cone.is_total(phis).verdict == "holds"
            for t in (0.1, 1.0, 5.0):
                rep = is_positive_operator(matrix_exp(A, t), cone, tol=1e-9)
                assert rep.verdict == "holds", (t, rep.witnesses)

        # mutate one instance: flip one off-diagonal entry negative
        A, _ = instances[0]
        mutant = A.copy()
        mutant[0, 1] = -(mutant[0, 1] + 1.0)
        n = mutant.shape[0]
        cone = PolyCone.standard_orthant(n)
        gauge = FunctionalGauge(cone, np.eye(n)[0])
        hyp = certify_dissipative(LinOp(mutant), gauge, n_samples=100, seed=0)
        assert hyp.verdict == "fails"
        pos = is_positive_operator(matrix_exp(mutant, 0.01), cone, tol=1e-9)
        assert pos.verdict == "fails"


def test_criterion_5_exponential_formula():
    with budget("5 (backward-Euler error halves from n=16 to n=32)", 5.0):
        rng = np.random.default_rng(1005)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            A -= (1 + np.max(np.abs(np.linalg.eigvals(A)))) * np.eye(n)
            target = matrix_exp(A, 1.0)
            e16 = np.max(np.abs(euler_matrix(LinOp(A), 1.0, 16) - target))
            e32 = np.max(np.abs(euler_matrix(LinOp(A), 1.0, 32) - target))
            assert 1.7 <= e16 / e32 <= 2.3


def test_criterion_6_dirichlet_grid_example():
    with budget("6 (grid example: convergence, positivity, contractivity)", 30.0):
        for rhs in (lambda t: np.ones_like(t), lambda t: np.sin(np.pi * t)):
            rows = convergence_study([15, 31, 63], rhs)
            for row in rows[1:]:
                assert 3.5 <= row["ratio"] <= 4.5
        const_rows = convergence_study([31], lambda t: np.ones_like(t))
        assert const_rows[0]["sup_error"] <= 5e-4

        rng = np.random.default_rng(1006)
        for n in (15, 31, 63):
            A = dirichlet_laplacian(Grid(n)).matrix
            for t in (0.1, 1.0):
                T = matrix_exp(A, t)
                assert np.min(T) >= -1e-12
                samples = rng.standard_normal((200, n))
                before = np.max(np.maximum(samples, 0.0), axis=1)
                after = np.max(np.maximum(samples @ T.T, 0.0), axis=1)
                assert np.max(after - before) <= 1e-8


def test_criterion_7_half_norm_identities():
    with budget("7 (sublinear-function identities)", 10.0):
        rng = np.random.default_rng(1007)
        orthant = PolyCone.standard_orthant(2)
        diamond = PolyCone.from_generators([[1, 1], [1, -1]])

        # boundary values: exact on the cone and its negative
        for cone in (orthant, diamond):
            phi_vec = cone.dual_cone().generators.T @ np.array([0.8, 1.1])
            gauge = FunctionalGauge(cone, phi_vec)
            rays = cone.generators
            for _ in range(500):
                x = rays.T @ rng.uniform(0, 2, 2)
                assert gauge.value(x) == max(0.0, float(phi_vec @ x))
                assert gauge.value(-x) == 0.0

        # positive-part invariance of the gauge on lattice cones
        for cone in (orthant, diamond):
            phi_vec = cone.dual_cone().generators.sum(axis=0)
            gauge = FunctionalGauge(cone, phi_vec)
            for _ in range(500):
                x = rng.standard_normal(2) * 2
                assert gauge.value(cone.positive_part(x)) == pytest.approx(
                    gauge.value(x), abs=1e-10
                )

        # strictness chain of the regularized gauge
        norm = WeightedNorm.sup(2)
        for cone in (orthant, diamond):
            p = RegularizedGauge(cone, norm)
            for _ in range(250):
                x = rng.standard_normal(2) * 2
                assert p.value(x) + p.value(-x) >= regularized_norm(cone, norm, x) - 1e-9

        # positive-part norm equals the canonical half-norm on lattice cones
        setups = [
            (orthant, WeightedNorm("linf", np.array([1.0, 2.0]))),
            (orthant, WeightedNorm("l1", np.array([0.5, 1.5]))),
            (diamond, WeightedNorm.sup(2)),
            (diamond, WeightedNorm.one(2)),
        ]
        for cone, nrm in setups:
            canon = CanonicalHalfNorm(cone, nrm)
            npos = PositivePartNorm(cone, nrm)
            for _ in range(125):
                x = rng.standard_normal(2) * 2
                assert npos.value(x) == pytest.approx(canon.value(x), abs=1e-9)


def test_criterion_8_representation():
    with budget("8 (measure representation of positive functionals)", 5.0):
        from conesemi.representation import build_state_space, represent_functional

        rng = np.random.default_rng(1008)
        cones = [
            (PolyCone.standard_orthant(2), [1, 1]),
            (PolyCone.from_generators([[1, 1], [1, -1]]), [1, 0]),
            (PolyCone.standard_orthant(3), [1, 1, 1]),
            (
                PolyCone.from_generators(
                    [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]
                ),
                [0, 0, 1],
            ),
            (PolyCone.standard_orthant(4), [1, 2, 1, 1]),
        ]
        for cone, unit in cones:
            space = build_state_space(cone, unit)
            for _ in range(100):
                coeff = rng.uniform(0, 2, cone.facets.shape[0])
                phi_vec = cone.facets.T @ coeff
                mu = represent_functional(space, cone.certify_functional(phi_vec))
                assert np.min(mu.weights) >= 0.0
                assert np.max(np.abs(space.states.T @ mu.weights - phi_vec)) <= 1e-9
                assert mu.total_mass == pytest.approx(
                    float(phi_vec @ space.unit), abs=1e-9
                )

        orthant = PolyCone.standard_orthant(2)
        space = build_state_space(orthant, [1, 1])
        mu = represent_functional(space, orthant.certify_functional([2, 3]))
        lookup = {tuple(np.round(s, 9)): w for s, w in zip(space.states, mu.weights)}
        assert abs(lookup[(1, 0)] - 2.0) <= 1e-12
        assert abs(lookup[(0, 1)] - 3.0) <= 1e-12

        diamond = PolyCone.from_generators([[1, 1], [1, -1]])
        space = build_state_space(diamond, [1, 0])
        mu = represent_functional(space, diamond.certify_functional([3, 1]))
        lookup = {tuple(np.round(s, 9)): w for s, w in zip(space.states, mu.weights)}
        assert abs(lookup[(1, 1)] - 2.0) <= 1e-12
        assert abs(lookup[(1, -1)] - 1.0) <= 1e-12


def _brute_force_functional(cone, phi, x):
    F = cone.facets
    G = np.vstack([F, F])
    h = np.concatenate([np.zeros(F.shape[0]), F @ x])
    verts = enumerate_vertices((G, h))
    return max(0.0, min(float(np.dot(v, phi)) for v in verts))


def _brute_force_canonical(cone, norm, x):
    F = cone.facets
    nf, n = F.shape
    w = norm.weights
    if norm.kind == "linf":
        G = np.zeros((nf + 2 * n, n + 1))
        G[:nf, :n] = F
        h = np.concatenate([F @ x, np.zeros(2 * n)])
        for i in range(n):
            G[nf + 2 * i, i], G[nf + 2 * i, n] = -w[i], 1.0
            G[nf + 2 * i + 1, i], G[nf + 2 * i + 1, n] = w[i], 1.0
        return max(0.0, min(float(v[n]) for v in enumerate_vertices((G, h))))
    G = np.zeros((nf + 2 * n, 2 * n))
    G[:nf, :n] = F
    h = np.concatenate([F @ x, np.zeros(2 * n)])
    for i in range(n):
        G[nf + 2 * i, i], G[nf + 2 * i, n + i] = -1.0, 1.0
        G[nf + 2 * i + 1, i], G[nf + 2 * i + 1, n + i] = 1.0, 1.0
    return max(0.0, min(float(w @ v[n:]) for v in enumerate_vertices((G, h))))


def test_criterion_9_oracle_equivalence():
    with budget("9 (LP evaluations vs brute-force enumeration)", 10.0):
        rng = np.random.default_rng(1009)
        cones = [
            PolyCone.standard_orthant(2),
            PolyCone.from_generators([[1, 1], [1, -1]]),
            PolyCone.standard_orthant(3),
        ]
        checked = 0

        for i in range(150):  # functional gauges
            cone = cones[i % 3]
            phi = cone.dual_cone().generators.T @ rng.uniform(
                0.2, 1.5, cone.facets.shape[0]
            )
            x = rng.standard_normal(cone.dim) * 2
            got = FunctionalGauge(cone, phi).value(x)
            assert got == pytest.approx(_brute_force_functional(cone, phi, x), abs=1e-8)
            checked += 1

        for i in range(80):  # canonical half-norms
            cone = cones[i % 3]
            kind = "linf" if i % 2 == 0 else "l1"
            norm = WeightedNorm(kind, rng.uniform(0.5, 2.0, cone.dim))
            x = rng.standard_normal(cone.dim) * 2
            got = CanonicalHalfNorm(cone, norm).value(x)
            assert got == pytest.approx(_brute_force_canonical(cone, norm, x), abs=1e-8)
            checked += 1

        for i in range(40):  # order-unit gauges, one-variable enumeration
            cone = cones[i % 3]
            unit = cone.generators.sum(axis=0)
            x = rng.standard_normal(cone.dim) * 2
            F = cone.facets
            expected = max(0.0, float(np.max((F @ x) / (F @ unit))))
            assert OrderUnitGauge(cone, unit).value(x) == pytest.approx(expected, abs=1e-8)
            checked += 1

        for i in range(30):  # regularized gauges, dim 2 epigraph enumeration
            cone = cones[i % 2]
            norm = WeightedNorm.sup(2)
            x = rng.standard_normal(2) * 2
            F = cone.facets
            nf, n = F.shape
            zero = np.zeros((nf, n))
            pad = np.zeros((nf, 1))
            rows = [
                np.hstack([F, zero, pad]),
                np.hstack([F, zero, pad]),
                np.hstack([-F, F, pad]),
                np.hstack([F, F, pad]),
            ]
            rhs = [np.zeros(nf), F @ x, np.zeros(nf), np.zeros(nf)]
            eps = np.zeros((2 * n, 2 * n + 1))
            for j in range(n):
                eps[2 * j, n + j], eps[2 * j, 2 * n] = -1.0, 1.0
                eps[2 * j + 1, n + j], eps[2 * j + 1, 2 * n] = 1.0, 1.0
            rows.append(eps)
            rhs.append(np.zeros(2 * n))
            verts = enumerate_vertices((np.vstack(rows), np.concatenate(rhs)))
            expected = max(0.0, min(float(v[-1]) for v in verts))
            got = RegularizedGauge(cone, norm).value(x)
            assert got == pytest.approx(expected, abs=1e-8)
            checked += 1

        assert checked == 300

        # dual characterization of the gauge subdifferential vs the sampled
        # universal definition, compared on vertex sets
        for cone in cones:
            phi = cone.dual_cone().generators.T @ rng.uniform(
                0.4, 1.6, cone.facets.shape[0]
            )
            p = FunctionalGauge(cone, phi)
            probes = [g for g in cone.generators] + [-g for g in cone.generators]
            probes += [rng.standard_normal(cone.dim) * 2 for _ in range(40)]
            sampled = enumerate_vertices(
                (
                    np.vstack([-np.asarray(y) for y in probes]),
                    np.array([-p.value(y) for y in probes]),
                )
            )
            R = cone.generators
            direct = enumerate_vertices(
                (
                    np.vstack([R, -R]),
                    np.concatenate([np.zeros(R.shape[0]), -(R @ phi)]),
                )
            )
            assert len(sampled) == len(direct)
            for v in direct:
                assert any(np.max(np.abs(v - w)) <= 1e-8 for w in sampled)
