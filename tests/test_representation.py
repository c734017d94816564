"""State spaces, embeddings, and nonnegative representations of functionals.

``represent_functional``'s face walk is checked against scipy's HiGHS for
the representable / not-representable outcome, on simplicial cones against
the unique weighting that an LP with identity rows for ``w >= 0`` finds, and
for exact covariance under scaling by powers of two.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from conesemi import numerics, representation
from conesemi.cone import DualVector, PolyCone
from conesemi.errors import NotOrderUnit, NotPositiveFunctional, NotRepresentable
from conesemi.numerics import LpProblem, solve_lp
from conesemi.representation import (
    StateSpace,
    build_state_space,
    embed,
    represent_functional,
)


@pytest.fixture
def orthant2():
    return PolyCone.standard_orthant(2)


@pytest.fixture
def diamond():
    return PolyCone.from_generators([[1, 1], [1, -1]])


def state_set(space):
    return {tuple(np.round(s, 9)) for s in space.states}


class TestBuildStates:
    def test_orthant_states(self, orthant2):
        space = build_state_space(orthant2, [1, 1])
        assert state_set(space) == {(1, 0), (0, 1)}

    def test_diamond_states(self, diamond):
        space = build_state_space(diamond, [1, 0])
        assert state_set(space) == {(1, 1), (1, -1)}

    def test_rescaled_orthant(self):
        K = PolyCone.standard_orthant(3)
        space = build_state_space(K, [2, 1, 1])
        assert state_set(space) == {(0.5, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_unit_must_be_interior(self, orthant2):
        with pytest.raises(NotOrderUnit):
            build_state_space(orthant2, [1, 0])

    def test_generators_are_the_cones(self, diamond):
        space = build_state_space(diamond, [1, 0])
        assert space.generators is diamond.generators
        with pytest.raises(ValueError):
            space.generators[0, 0] = 5.0

    def test_incidence_is_derived_from_the_tables(self):
        # the three-field constructor stays; incidence follows from its tables
        rng = np.random.default_rng(7)
        for K, unit in ((PolyCone.standard_orthant(3), np.ones(3)),
                        sphere_cone(rng, 3, 6), sphere_cone(rng, 4, 9)):
            space = build_state_space(K, unit)
            assert np.array_equal(space.incidence, K.incidence.T)
            built = StateSpace(space.states.copy(), space.unit.copy(), K.generators.copy())
            assert np.array_equal(built.incidence, K.incidence.T)
            assert "incidence" not in repr(built)
            with pytest.raises(ValueError):
                built.incidence[0, 0] = True

    def test_states_evaluate_one_on_unit(self, diamond):
        space = build_state_space(diamond, [1.5, 0.2])
        assert space.states @ space.unit == pytest.approx(np.ones(space.size), abs=1e-10)


class TestEmbed:
    def test_unit_maps_to_ones(self, diamond):
        space = build_state_space(diamond, [1, 0])
        assert embed(space, [1, 0]) == pytest.approx([1, 1])

    def test_orthant_embedding_is_identity(self, orthant2):
        space = build_state_space(orthant2, [1, 1])
        got = sorted(embed(space, [1, -2]).tolist())
        assert got == [-2.0, 1.0]

    def test_mixed_signs_certify_non_membership(self, diamond):
        space = build_state_space(diamond, [1, 0])
        values = embed(space, [0, 1])
        assert np.min(values) < 0 < np.max(values)

    def test_bipositivity(self, orthant2, diamond):
        rng = np.random.default_rng(130)
        for K, unit in ((orthant2, [1, 1]), (diamond, [1, 0])):
            space = build_state_space(K, unit)
            for _ in range(250):
                x = rng.standard_normal(2) * 2
                assert K.contains(x) == (float(np.min(embed(space, x))) >= -1e-10)


class TestRepresent:
    def test_orthant_unique_weights(self, orthant2):
        space = build_state_space(orthant2, [1, 1])
        mu = represent_functional(space, orthant2.certify_functional([2, 3]))
        weights = {tuple(np.round(s, 9)): w for s, w in zip(space.states, mu.weights)}
        assert weights[(1, 0)] == pytest.approx(2.0, abs=1e-12)
        assert weights[(0, 1)] == pytest.approx(3.0, abs=1e-12)

    def test_diamond_two_by_two(self, diamond):
        space = build_state_space(diamond, [1, 0])
        mu = represent_functional(space, diamond.certify_functional([3, 1]))
        weights = {tuple(np.round(s, 9)): w for s, w in zip(space.states, mu.weights)}
        assert weights[(1, 1)] == pytest.approx(2.0, abs=1e-12)
        assert weights[(1, -1)] == pytest.approx(1.0, abs=1e-12)

    def test_zero_functional(self, orthant2):
        space = build_state_space(orthant2, [1, 1])
        mu = represent_functional(space, orthant2.certify_functional([0, 0]))
        assert mu.weights == pytest.approx([0, 0], abs=1e-12)

    def test_uncertified_rejected(self, orthant2):
        space = build_state_space(orthant2, [1, 1])
        with pytest.raises(NotPositiveFunctional):
            represent_functional(space, DualVector(np.array([1.0, 1.0])))

    def test_reproduction_and_mass(self):
        rng = np.random.default_rng(131)
        cones = [
            (PolyCone.standard_orthant(2), [1, 1]),
            (PolyCone.from_generators([[1, 1], [1, -1]]), [1, 0]),
            (PolyCone.standard_orthant(3), [1, 2, 1]),
            (
                PolyCone.from_generators(
                    [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]
                ),
                [0, 0, 1],
            ),
            (PolyCone.standard_orthant(4), [1, 1, 1, 1]),
        ]
        for K, unit in cones:
            space = build_state_space(K, unit)
            dual_rays = K.facets
            for _ in range(40):
                coeff = rng.uniform(0, 2, dual_rays.shape[0])
                phi_vec = dual_rays.T @ coeff
                phi = K.certify_functional(phi_vec)
                mu = represent_functional(space, phi)
                # reproduction on the standard basis
                recon = space.states.T @ mu.weights
                assert np.max(np.abs(recon - phi_vec)) <= 1e-9
                # weights stay nonnegative and total mass evaluates the unit
                assert np.min(mu.weights) >= 0.0
                assert mu.total_mass == pytest.approx(float(phi_vec @ space.unit), abs=1e-9)

    def test_minimal_mass_among_representations(self):
        # non-simplicial dual: the returned weighting minimizes total mass
        K = PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]])
        space = build_state_space(K, [0, 0, 1])
        phi_vec = K.facets.T @ np.array([1.0, 1.0, 1.0, 1.0])
        mu = represent_functional(space, K.certify_functional(phi_vec))
        # brute-force alternative weightings on a coarse simplex grid
        states = space.states
        best = mu.total_mass
        rng = np.random.default_rng(132)
        for _ in range(2000):
            w = rng.uniform(0, 3, states.shape[0])
            if np.max(np.abs(states.T @ w - phi_vec)) <= 1e-6:
                assert best <= np.sum(w) + 1e-6


def sphere_cone(rng, n, k):
    """The cones workload's construction: rays ``(1, rho z_i)`` with z_i on
    the unit sphere of R^(n-1), every one extreme; the unit is their sum.
    With more rays than dimensions the cone is not simplicial."""
    while True:
        z = rng.standard_normal((k, n - 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rays = np.hstack([np.ones((k, 1)), z * rng.uniform(0.5, 1.0)])
        if np.linalg.matrix_rank(rays) == n:  # in R^2 both rays can fall on one side
            return PolyCone.from_generators(rays), rays.sum(axis=0)


def identity_row_weights(space, phi_vec):
    """The replaced LP: minimal total mass with ``w >= 0`` as identity rows."""
    k = space.size
    res = solve_lp(
        LpProblem(
            objective=np.ones(k),
            eq_constraints=(space.states.T, phi_vec),
            ineq_constraints=(np.eye(k), np.zeros(k)),
        )
    )
    return np.maximum(res.point, 0.0)


def highs_representable(space, phi_vec):
    res = linprog(
        np.zeros(space.size),
        A_eq=space.states.T,
        b_eq=phi_vec,
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


WORKLOAD_SHAPES = ((3, 8), (3, 16), (3, 32), (3, 48), (4, 8), (4, 12), (5, 10), (6, 8),
                   (6, 16), (7, 8), (8, 10))


class TestRepresentDifferential:
    def test_workload_cones(self):
        rng = np.random.default_rng(133)
        for n, k in WORKLOAD_SHAPES:
            K, unit = sphere_cone(rng, n, k)
            assert K.generators.shape[0] == k and K.facets.shape[0] > n
            space = build_state_space(K, unit)
            for _ in range(6):
                phi_vec = K.facets.T @ (rng.uniform(0, 1, K.facets.shape[0])
                                        * (rng.uniform(size=K.facets.shape[0]) < 0.5))
                mu = represent_functional(space, K.certify_functional(phi_vec))
                mass = float(phi_vec @ unit)
                assert np.min(mu.weights) >= 0.0
                assert np.max(np.abs(space.states.T @ mu.weights - phi_vec)) <= 1e-9
                assert abs(mu.total_mass - mass) <= 1e-9 * max(1.0, mass)

    def test_outcome_matches_highs(self):
        rng = np.random.default_rng(134)
        outcomes = set()
        for n, k in WORKLOAD_SHAPES:
            K, unit = sphere_cone(rng, n, k)
            space = build_state_space(K, unit)
            for _ in range(8):
                # (1, y) is positive for |y| <= 1; past 1 it may leave the dual
                y = rng.standard_normal(n - 1)
                phi_vec = np.concatenate([[1.0], y * rng.uniform(0.0, 2.5) / np.linalg.norm(y)])
                margin = float(np.min(K.generators @ phi_vec))
                if abs(margin) < 1e-6:
                    continue
                expected = highs_representable(space, phi_vec)
                assert expected == (margin > 0)
                # a certificate that may be false reaches the solve unchecked
                phi = DualVector(phi_vec, certified_positive=True)
                try:
                    represent_functional(space, phi)
                    got = True
                except NotRepresentable:
                    got = False
                assert got == expected
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_simplicial_weights_equal_the_identity_row_lp(self):
        rng = np.random.default_rng(135)
        for n in range(2, 9):
            for _ in range(4):
                K, unit = sphere_cone(rng, n, n)
                assert K.is_lattice()
                space = build_state_space(K, unit)
                phi_vec = K.facets.T @ rng.uniform(0, 2, n)
                got = represent_functional(space, K.certify_functional(phi_vec)).weights
                want = identity_row_weights(space, phi_vec)
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(want)))

    def test_simplicial_false_certificate_not_representable(self):
        K = PolyCone.from_generators([[1, 1], [1, -1]])
        space = build_state_space(K, [1, 0])
        with pytest.raises(NotRepresentable):
            represent_functional(space, DualVector(np.array([1.0, 2.0]), certified_positive=True))
        # a 5e-10 violation on a generator: with the state (0, 1e-6) it is
        # the weight -5e-4, which clamping at 0 would hide from the residual
        K = PolyCone.standard_orthant(2)
        space = build_state_space(K, [1, 1e6])
        with pytest.raises(NotRepresentable):
            represent_functional(space, DualVector(np.array([1.0, -5e-10]), certified_positive=True))

    def test_every_weighting_has_the_same_mass(self):
        # two different nonnegative weightings of one phi: both weigh phi(u)
        K = PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]])
        space = build_state_space(K, [0.2, -0.1, 1])
        spread = np.array([0.5, 1.0, 1.5, 2.0])
        phi_vec = space.states.T @ spread
        mu = represent_functional(space, K.certify_functional(phi_vec))
        assert np.max(np.abs(mu.weights - spread)) > 0.1
        assert np.max(np.abs(space.states.T @ mu.weights - phi_vec)) <= 1e-9
        assert mu.total_mass == pytest.approx(float(np.sum(spread)), abs=1e-12)
        assert mu.total_mass == pytest.approx(float(phi_vec @ space.unit), abs=1e-12)


def refuse_lp_and_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the face walk runs no LP and no LU solve")

    for name in ("solve_lp", "linear_solve"):
        monkeypatch.setattr(numerics, name, refuse)
        monkeypatch.setattr(representation, name, refuse, raising=False)


def workload_functionals(rng, K, count):
    """Nonnegative mixes of the dual rays, about half of them on a face."""
    m = K.facets.shape[0]
    return [K.facets.T @ (rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.5))
            for _ in range(count)]


class TestFaceWalk:
    def test_power_of_two_scaling_is_exact(self):
        # the certificate is attached directly: certify_functional's
        # absolute tolerance is not what this checks
        rng = np.random.default_rng(137)
        for n, k in WORKLOAD_SHAPES:
            K, unit = sphere_cone(rng, n, k)
            space = build_state_space(K, unit)
            for phi_vec in workload_functionals(rng, K, 2):
                base = represent_functional(space, DualVector(phi_vec, True)).weights
                for e in range(-40, 41):
                    phi = DualVector(np.ldexp(phi_vec, e), certified_positive=True)
                    got = represent_functional(space, phi).weights
                    assert np.array_equal(got, np.ldexp(base, e)), (n, k, e)

    def test_at_most_dim_states_carry_weight(self):
        rng = np.random.default_rng(138)
        for n, k in WORKLOAD_SHAPES:
            K, unit = sphere_cone(rng, n, k)
            space = build_state_space(K, unit)
            for phi_vec in workload_functionals(rng, K, 6) + [K.facets.sum(axis=0)]:
                mu = represent_functional(space, K.certify_functional(phi_vec))
                assert np.count_nonzero(mu.weights) <= n
                assert np.max(np.abs(space.states.T @ mu.weights - phi_vec)) <= 1e-9

    def test_no_lp_and_no_lu(self, monkeypatch):
        rng = np.random.default_rng(139)
        cones = [sphere_cone(rng, n, k) for n, k in WORKLOAD_SHAPES]
        cones.append((PolyCone.standard_orthant(3), np.ones(3)))
        refuse_lp_and_lu(monkeypatch)
        for K, unit in cones:
            space = build_state_space(K, unit)
            for phi_vec in workload_functionals(rng, K, 3):
                represent_functional(space, K.certify_functional(phi_vec))
            with pytest.raises(NotRepresentable):
                represent_functional(space, DualVector(-K.facets[0], certified_positive=True))
