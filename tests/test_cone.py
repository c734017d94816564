"""Cone algebra: dual descriptions, order queries, positive parts, totality.

The batched facet enumeration is checked bit for bit against the loop it
replaced, kept here as the oracle.  ``is_total`` is checked against its own
per-facet LP run on every facet, and against scipy's HiGHS where that LP
gives up.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from conesemi import cone as cone_module
from conesemi import numerics
from conesemi.cone import (
    PolyCone,
    _check_pointed,
    _dedup_directions,
    _enumerate_facets,
    _facet_lp_witnesses,
)
from conesemi.errors import (
    DimensionMismatch,
    EmptyPhi,
    MalformedProblem,
    NotGenerating,
    NotLattice,
    NotPointed,
    NotPositiveFunctional,
    NumericalFailure,
)
from conesemi.numerics import LpProblem, solve_lp
from conesemi.report import FAILS, HOLDS
from oracles import loop_distinct_rows, lp_first_ray_on_a_line

TOTALITY_TOL = 1e-9


@pytest.fixture
def orthant2():
    return PolyCone.standard_orthant(2)


@pytest.fixture
def diamond():
    # x_1 >= |x_2|
    return PolyCone.from_generators([[1, 1], [1, -1]])


@pytest.fixture
def pyramid():
    # four extreme rays over a square base: not simplicial
    return PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]])


def sphere_rays(rng, n, k):
    """The benchmark's cone construction: rays ``(1, rho z_i)``, z_i on the
    unit sphere of R^(n-1) and one radius rho, so every ray is extreme."""
    z = rng.standard_normal((k, n - 1))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.hstack([np.ones((k, 1)), z * rng.uniform(0.5, 1.0)])


def random_cone(rng, n, k):
    """A cone from ``sphere_rays``, redrawn until the rays span R^n (in R^2
    all k rays can fall on one side)."""
    while True:
        rays = sphere_rays(rng, n, k)
        if np.linalg.matrix_rank(rays) == n:
            return PolyCone.from_generators(rays)


def hyperplane_normal(M):
    """Generalized cross product: signed minors of the (n-1) x n matrix."""
    n = M.shape[1]
    cols = np.arange(n)
    normal = np.empty(n)
    for i in range(n):
        minor = M[:, cols != i]
        normal[i] = (-1.0) ** i * (np.linalg.det(minor) if minor.size else 1.0)
    return normal


def loop_enumerate_facets(R):
    """Facet enumeration one subset at a time: the oracle for the batched
    ``_enumerate_facets``."""
    k, n = R.shape
    found = []
    seen = set()
    scale = max(1.0, float(np.max(np.abs(R)))) ** max(n - 1, 1)
    for subset in itertools.combinations(range(k), n - 1):
        M = R[list(subset)]
        normal = hyperplane_normal(M)
        peak = float(np.max(np.abs(normal)))
        if peak <= 1e-10 * scale:
            continue  # subset spans less than a hyperplane
        normal = normal / normal[int(np.argmax(np.abs(normal)))]
        for cand in (normal, -normal):
            if np.min(R @ cand) >= -1e-10:
                key = tuple(np.round(cand + 0.0, 10))
                if key not in seen:
                    seen.add(key)
                    found.append(cand + 0.0)
    if not found:
        raise NotGenerating("no facet found; rays do not describe a solid cone")
    return np.vstack(sorted(found, key=lambda f: tuple(np.round(f, 12))))


def seen_set_enumerate_facets(R):
    """The batched enumeration with a per-candidate ``seen`` set in place of
    ``np.unique``: the oracle for its de-duplication."""
    k, n = R.shape
    found = []
    seen = set()
    scale = max(1.0, float(np.max(np.abs(R)))) ** max(n - 1, 1)
    cols = np.arange(n)
    signs = (-1.0) ** cols
    subsets = itertools.combinations(range(k), n - 1)
    while (block := np.fromiter(itertools.islice(subsets, 4096), (np.intp, n - 1))).size:
        M = R[block]
        normals = np.stack([np.linalg.det(M[:, :, cols != i]) for i in range(n)], axis=1) * signs
        normals = normals[np.max(np.abs(normals), axis=1) > 1e-10 * scale]
        pivots = normals[np.arange(normals.shape[0]), np.argmax(np.abs(normals), axis=1)]
        normals = normals / pivots[:, None]
        P = normals @ R.T
        ok = np.stack([np.min(P, axis=1) >= -1e-10, np.max(P, axis=1) <= 1e-10], axis=1)
        cands = np.stack([normals, -normals], axis=1)[ok] + 0.0
        for cand, key in zip(cands, map(tuple, np.round(cands, 10))):
            if key not in seen:
                seen.add(key)
                found.append(cand)
    return np.vstack(sorted(found, key=lambda f: tuple(np.round(f, 12))))


def loop_extreme_rays(R, facets):
    """One rank call per ray: the oracle for the stacked ``_extreme_rays``."""
    n = R.shape[1]
    keep = []
    for i, g in enumerate(R):
        active = facets[np.abs(facets @ g) <= 1e-9 * (1.0 + np.max(np.abs(g)))]
        if active.shape[0] >= n - 1 and np.linalg.matrix_rank(active, tol=1e-10) == n - 1:
            keep.append(i)
    return R[keep]


def loop_dedup_directions(R):
    """Greedy de-duplication one ray at a time: the oracle for the pairwise
    ``_dedup_directions``."""
    return R[loop_distinct_rows(R / np.linalg.norm(R, axis=1, keepdims=True), 1e-10)]


def count_lp_calls(monkeypatch):
    calls = []

    def counted(problem):
        calls.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(cone_module, "solve_lp", counted)
    return calls


def directions(rows):
    out = set()
    for r in np.atleast_2d(rows):
        r = np.asarray(r, dtype=float)
        r = r / np.max(np.abs(r))
        out.add(tuple(np.round(r + 0.0, 9)))
    return out


class TestConstruction:
    def test_orthant_self_dual(self, orthant2):
        assert directions(orthant2.facets) == {(1, 0), (0, 1)}
        assert directions(orthant2.generators) == {(1, 0), (0, 1)}

    def test_diamond_facets(self, diamond):
        assert directions(diamond.facets) == {(1, 1), (1, -1)}

    def test_diamond_descriptions_agree_on_sign_grid(self, diamond):
        # both descriptions must carve out x1 >= |x2|
        for a in np.linspace(-2, 2, 10):
            for b in np.linspace(-2, 2, 10):
                expected = a >= abs(b) - 1e-12
                assert diamond.contains([a, b]) == expected

    def test_line_not_pointed(self):
        with pytest.raises(NotPointed):
            PolyCone.from_generators([[1, 0], [-1, 0]])

    def test_hidden_line_not_pointed(self):
        with pytest.raises(NotPointed):
            PolyCone.from_generators([[1, 1], [1, -1], [-1, 0]])

    def test_low_dimensional_rejected(self):
        with pytest.raises(NotGenerating):
            PolyCone.from_generators([[1, 1]])

    def test_whole_space_not_pointed(self):
        # no facet at all: every ray lies on a line
        with pytest.raises(NotPointed):
            PolyCone.from_generators(np.vstack([np.eye(3), -np.eye(3)]))

    def test_half_space_not_pointed(self):
        # one facet, e_3, whose normals cannot span R^3
        with pytest.raises(NotPointed):
            PolyCone.from_generators([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]])

    def test_pointed_cones_build_without_lps(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        rng = np.random.default_rng(35)
        for n, k in ((2, 2), (3, 9), (4, 7), (6, 10), (8, 9)):
            assert random_cone(rng, n, k).generators.shape[0] == k
        assert calls == []

    def test_enumeration_guard(self):
        from conesemi.errors import DimensionTooLarge

        with pytest.raises(DimensionTooLarge):
            PolyCone.from_generators(np.eye(11))
        # the direct constructor skips enumeration and has no guard
        assert PolyCone.standard_orthant(31).dim == 31

    def test_zero_ray_rejected(self):
        with pytest.raises(MalformedProblem):
            PolyCone.from_generators([[1, 0], [0, 0]])

    def test_redundant_ray_dropped(self):
        K = PolyCone.from_generators([[1, 0], [0, 1], [1, 1]])
        assert directions(K.generators) == {(1, 0), (0, 1)}

    def test_duplicate_rays_merged(self):
        K = PolyCone.from_generators([[1, 0], [2, 0], [0, 1]])
        assert K.generators.shape[0] == 2

    def test_dual_swaps_descriptions(self, diamond):
        dual = diamond.dual_cone()
        assert directions(dual.generators) == directions(diamond.facets)
        assert directions(dual.facets) == directions(diamond.generators)

    def test_pyramid_has_four_facets(self, pyramid):
        assert pyramid.facets.shape[0] == 4
        assert pyramid.generators.shape[0] == 4


REJECTED_RAY_SETS = [
    ([[1, 0], [-1, 0]], NotPointed, 0),
    ([[1, 1], [1, -1], [-1, 0]], NotPointed, 0),
    ([[1, 1]], NotGenerating, None),
    ([[1, 0, 0], [0, 1, 0]], NotGenerating, None),
    ([[1, 1, 0], [1, -1, 0], [0, 1, 0], [-1, 0, 0]], NotPointed, 0),
    ([[2, 1, 0], [0, 0, 1], [-4, -2, 0]], NotPointed, 0),
    ([[1], [-1]], NotPointed, 0),
    (np.vstack([np.eye(3), -np.eye(3)]), NotPointed, 0),
    ([[0, 0, 1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], NotPointed, 1),
]


class TestPointedness:
    @pytest.mark.parametrize("rays, error, ray", REJECTED_RAY_SETS)
    def test_rejections_run_no_lp_and_no_lu(self, rays, error, ray, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pointedness is read off the facets: no LP, no LU")

        for name in ("solve_lp", "linear_solve"):
            monkeypatch.setattr(numerics, name, refuse)
            monkeypatch.setattr(cone_module, name, refuse)
        match = None if ray is None else f"ray {ray} and its negative"
        with pytest.raises(error, match=match):
            PolyCone.from_generators(rays)

    @staticmethod
    def ray_sets(rng, n):
        """Rays spanning a random r-dimensional subspace of R^n, r = 1..n:
        with a line (a ray and its negative), a hidden plane (three rays
        that positively span it) or neither, among random rays in the span,
        shuffled and rescaled."""
        r = int(rng.integers(1, n + 1))
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
        kind = rng.choice(["line", "plane", "pointed"] if r > 1 else ["line", "pointed"])
        if kind == "pointed":
            axis = rng.standard_normal(r)
            C = rng.standard_normal((int(rng.integers(1, 8)), r))
            C *= np.sign(C @ axis)[:, None]
        else:
            C = rng.standard_normal((int(rng.integers(0, 6)), r))
            if kind == "line":
                v = rng.standard_normal(r)
                C = np.vstack([C, v, -rng.uniform(0.5, 2.0) * v])
            else:
                a, b = rng.standard_normal((2, r))
                C = np.vstack([C, a, b, -(rng.uniform(0.5, 2.0) * a + rng.uniform(0.5, 2.0) * b)])
        C = C[rng.permutation(C.shape[0])] * np.ldexp(1.0, rng.integers(-3, 4, (C.shape[0], 1)))
        return kind, C @ basis.T

    def test_same_ray_as_the_lp_loop(self):
        rng = np.random.default_rng(37)
        kinds = set()
        for n in range(1, 7):
            for _ in range(40):
                kind, R = self.ray_sets(rng, n)
                kinds.add((kind, int(np.linalg.matrix_rank(R)), n))
                want = lp_first_ray_on_a_line(R)
                assert (want is None) == (kind == "pointed")
                if want is None:
                    _check_pointed(R)
                    continue
                with pytest.raises(NotPointed, match=f"ray {want} and its negative"):
                    _check_pointed(R)
        # every kind in a full and in a rank-deficient span, and 1-D spans in R^n, n > 1
        seen = {(k, r < n, r == 1 < n) for k, r, n in kinds}
        assert {("line", False, False), ("plane", False, False), ("pointed", False, False),
                ("line", True, False), ("plane", True, False), ("pointed", True, False),
                ("line", True, True), ("pointed", True, True)} <= seen


class TestFacetEnumeration:
    @staticmethod
    def ray_sets():
        """Random cones in R^2..R^8: extreme rays only, extra non-extreme rays,
        repeated directions, and small-integer rays with coplanar subsets."""
        rng = np.random.default_rng(36)
        sets = []
        for n in range(2, 9):
            for k in (n, n + 3):
                rays = sphere_rays(rng, n, k)
                sets.append(rays)
                inner = rng.uniform(0.0, 1.0, (3, k)) @ rays
                sets.append(np.vstack([rays, inner])[rng.permutation(k + 3)])
                sets.append(np.vstack([rays, 2.5 * rays[:2], rays[:1]]))
                grid = rng.integers(-2, 3, (k + 2, n - 1))
                sets.append(np.hstack([np.ones((k + 2, 1)), grid]).astype(float))
        square = [[1.0, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1], [0, 1, 1], [1, 0, 1]]
        sets.append(np.array(square))
        return sets

    def test_batched_equals_loop_bit_for_bit(self, monkeypatch):
        for R in self.ray_sets():
            expected = loop_enumerate_facets(R)
            for block in (7, numerics.SUBSET_BLOCK):
                monkeypatch.setattr(numerics, "SUBSET_BLOCK", block)
                got = _enumerate_facets(R)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_no_facet_is_an_empty_table(self):
        assert _enumerate_facets(np.vstack([np.eye(3), -np.eye(3)])).shape == (0, 3)

    def test_rotated_cube_cone_has_six_facets(self):
        # rays (1, v) over a rotated, rescaled cube, each ray rescaled: two
        # candidate normals of one facet differ by 2.8e-16 yet fell on the
        # two sides of a 10-decimal rounding edge, which made a 7th facet
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        rng = np.random.default_rng(5)
        for _ in range(1180):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            V = cube @ Q.T * rng.uniform(0.2, 0.9)
            R = np.hstack([np.ones((8, 1)), V]) * rng.uniform(0.5, 2.0, (8, 1))
        K = PolyCone.from_generators(R)
        assert K.facets.shape == (6, 4)
        assert K.generators.shape == (8, 4)


class TestBuildOracle:
    @staticmethod
    def ray_sets():
        """Random pointed cones in R^3..R^8 with up to 48 rays: extreme rays
        only, with convex combinations of them, with repeated and scaled
        copies, and small-integer rays with coplanar subsets; and one cone
        with nearly coplanar facets."""
        rng = np.random.default_rng(38)
        sets = []
        for n, k in ((3, 8), (3, 24), (3, 40), (4, 8), (4, 16), (5, 8), (5, 12),
                     (6, 8), (6, 12), (7, 8), (8, 9)):
            for _ in range(3):
                rays = sphere_rays(rng, n, k)
                sets.append(rays)
                inner = rng.uniform(0.0, 1.0, (4, k)) @ rays
                sets.append(np.vstack([rays, inner])[rng.permutation(k + 4)])
                sets.append(np.vstack([rays, 2.5 * rays[:2], rays[:1]]))
                grid = rng.integers(-2, 3, (k + 2, n - 1))
                sets.append(np.hstack([np.ones((k + 2, 1)), grid]).astype(float))
        sets.append(sphere_rays(rng, 3, 48))
        # a ray 1e-8 off the square's edge: two facets equal to 7 decimals
        sets.append(np.array([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1],
                              [0.5 + 1e-8, 0.5 + 1e-8, 1]]))
        return [R for R in sets if np.linalg.matrix_rank(R) == R.shape[1]]

    def test_stacked_build_equals_the_loops_bit_for_bit(self):
        for R in self.ray_sets():
            K = PolyCone.from_generators(R)
            kept = _dedup_directions(R)
            facets = seen_set_enumerate_facets(kept)
            assert K.facets.tobytes() == facets.tobytes()
            assert K.generators.tobytes() == loop_extreme_rays(kept, facets).tobytes()


class TestDedupDirections:
    def test_matches_the_greedy_loop(self):
        rng = np.random.default_rng(37)
        sets = []
        for n in (2, 3, 6):
            rays = sphere_rays(rng, n, 3 * n)
            picks = rng.integers(0, 3 * n, 2 * n)
            sets.append(np.vstack([rays, rays[picks]])[rng.permutation(5 * n)])
            sets.append(np.vstack([rays, rays[picks] * rng.uniform(0.5, 3.0, (2 * n, 1))]))
            sets.append(np.vstack([rays, rays[picks] + 1e-12 * rng.standard_normal((2 * n, n))]))
        for R in sets:
            assert _dedup_directions(R).tobytes() == loop_dedup_directions(R).tobytes()

    def test_chain_of_near_duplicates(self):
        # each ray within the tolerance of the next, every second one apart:
        # the greedy pass keeps rays 0, 2 and 4, and e1 repeats ray 0
        chain = [np.array([1.0, j * 0.6e-10, 0.0]) for j in range(5)]
        R = np.vstack([*chain, np.eye(3)])
        got = _dedup_directions(R)
        assert got.tobytes() == loop_dedup_directions(R).tobytes()
        assert got.tobytes() == R[[0, 2, 4, 6, 7]].tobytes()


class TestMembershipAndOrder:
    def test_contains_examples(self, orthant2, diamond):
        assert orthant2.contains([1, 2])
        assert not orthant2.contains([1, -0.001])
        assert diamond.contains([1, 0.5])
        assert not diamond.contains([0.5, 1])

    def test_leq_examples(self, orthant2, diamond):
        assert orthant2.leq([0, 0], [1, 1])
        assert not orthant2.leq([1, 0], [0, 1])
        assert diamond.leq([0, 0], [1, 0.5])

    def test_dimension_mismatch(self, orthant2):
        with pytest.raises(DimensionMismatch):
            orthant2.contains([1.0, 2.0, 3.0])

    def test_facet_membership_matches_generator_lp(self):
        # generator/facet duality on random points, low dimensions
        rng = np.random.default_rng(31)
        cones = [
            PolyCone.standard_orthant(2),
            PolyCone.from_generators([[1, 1], [1, -1]]),
            PolyCone.from_generators([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]),
            PolyCone.standard_orthant(4),
        ]
        for K in cones:
            R = K.generators
            for _ in range(40):
                x = rng.standard_normal(K.dim)
                via_facets = K.contains(x, tol=1e-9)
                k = R.shape[0]
                res = solve_lp(
                    LpProblem(
                        objective=np.zeros(k),
                        eq_constraints=(R.T, x),
                        ineq_constraints=(np.eye(k), np.zeros(k)),
                    )
                )
                assert via_facets == res.optimal

    def test_pointedness_property(self, diamond, pyramid):
        rng = np.random.default_rng(32)
        for K in (diamond, pyramid):
            for _ in range(200):
                x = rng.standard_normal(K.dim)
                if K.contains(x) and K.contains(-x):
                    assert np.max(np.abs(x)) <= 1e-9


class TestLatticeStructure:
    def test_orthant_is_lattice(self):
        for n in (2, 3, 5):
            assert PolyCone.standard_orthant(n).is_lattice()

    def test_diamond_is_lattice(self, diamond):
        assert diamond.is_lattice()

    def test_pyramid_is_not(self, pyramid):
        assert not pyramid.is_lattice()

    def test_positive_part_componentwise(self, orthant2):
        assert orthant2.positive_part([1, -2]) == pytest.approx([1, 0])
        assert orthant2.positive_part([-1, -2]) == pytest.approx([0, 0])

    def test_positive_part_diamond(self, diamond):
        assert diamond.positive_part([0, 1]) == pytest.approx([0.5, 0.5])

    def test_positive_part_minimality_via_lp(self, diamond):
        # the least upper bound simultaneously minimizes every positive functional
        x = np.array([0.0, 1.0])
        pp = diamond.positive_part(x)
        F = diamond.facets
        dual = diamond.dual_cone()
        for c in ([1.0, 0.0], [1.0, 0.5], [2.0, -1.0]):
            c = np.asarray(c)
            assert dual.contains(c)  # minimality argument needs a positive functional
            res = solve_lp(
                LpProblem(
                    objective=c,
                    ineq_constraints=(np.vstack([F, F]), np.concatenate([np.zeros(2), F @ x])),
                )
            )
            assert res.optimal
            assert float(c @ pp) <= res.value + 1e-9

    def test_positive_part_identity_regions(self, diamond):
        rng = np.random.default_rng(33)
        for _ in range(100):
            x = rng.standard_normal(2)
            if diamond.contains(x):
                assert diamond.positive_part(x) == pytest.approx(x, abs=1e-10)
            if diamond.contains(-x):
                assert diamond.positive_part(x) == pytest.approx([0, 0], abs=1e-10)

    def test_positive_part_needs_lattice(self, pyramid):
        with pytest.raises(NotLattice):
            pyramid.positive_part([0.0, 0.0, 1.0])


class TestOrderUnit:
    def test_examples(self, orthant2, diamond):
        assert orthant2.is_order_unit([1, 1])
        assert not orthant2.is_order_unit([1, 0])
        assert diamond.is_order_unit([1, 0])


class TestFunctionalCertification:
    def test_certify(self, diamond):
        phi = diamond.certify_functional([1, 0.5])
        assert phi.certified_positive

    def test_reject(self, diamond):
        with pytest.raises(NotPositiveFunctional):
            diamond.certify_functional([0, 1])


class TestTotality:
    def test_facets_are_total(self, orthant2, diamond, pyramid):
        for K in (orthant2, diamond, pyramid):
            phis = [K.certify_functional(f) for f in K.facets]
            assert K.is_total(phis).verdict == "holds"

    def test_single_functional_not_total(self, orthant2):
        report = orthant2.is_total([orthant2.certify_functional([1, 1])])
        assert report.verdict == "fails"
        witness = report.witnesses[0]
        # the witness is nonnegative against phi yet outside the cone
        assert witness.point @ np.array([1.0, 1.0]) >= -1e-9
        assert not orthant2.contains(witness.point, tol=1e-9)

    def test_empty_family_rejected(self, orthant2):
        with pytest.raises(EmptyPhi):
            orthant2.is_total([])

    def test_uncertified_rejected(self, orthant2):
        from conesemi.cone import DualVector

        with pytest.raises(NotPositiveFunctional):
            orthant2.is_total([DualVector(np.array([1.0, 0.0]))])

    def test_strict_subfamily_of_pyramid_facets_not_total(self, pyramid):
        phis = [pyramid.certify_functional(f) for f in pyramid.facets[:2]]
        assert pyramid.is_total(phis).verdict == "fails"

    @staticmethod
    def assert_valid_witness(Phi, witness, K=None):
        x = witness.point
        assert np.min(Phi @ x) >= -TOTALITY_TOL * (1.0 + np.max(np.abs(x)))
        assert witness.functional @ x < -TOTALITY_TOL
        if K is not None:
            assert not K.contains(x, tol=TOTALITY_TOL)

    @staticmethod
    def highs_verdict(Phi, facets):
        """Independent oracle: the per-facet totality LP solved by HiGHS."""
        worst = np.inf
        for f in facets:
            res = linprog(
                f,
                A_ub=-Phi,
                b_ub=np.zeros(Phi.shape[0]),
                bounds=(-1, 1),
                method="highs",
                options={
                    "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10,
                },
            )
            assert res.status == 0
            worst = min(worst, res.fun)
        return FAILS if worst < -TOTALITY_TOL else HOLDS

    def test_matches_facet_lp_oracle(self):
        """Families on random cones in R^2..R^8: the facets shuffled, scaled
        and mixed with other positive functionals; strict subfamilies; one
        facet moved into the interior of K' by ||delta||_1 just below and
        well above the tolerance.  Where the per-facet LP over every facet
        returns, the report equals its own; where the simplex gives up, the
        report either gives up on the same LP or agrees with HiGHS."""
        rng = np.random.default_rng(37)
        compared = total = 0
        for n in range(2, 9):
            for _ in range(2):
                K = random_cone(rng, n, n + int(rng.integers(0, 3)))
                F = K.facets
                m = F.shape[0]
                scaled = F * rng.uniform(0.1, 10.0, (m, 1))
                full = np.vstack([scaled, rng.uniform(0.0, 1.0, (3, m)) @ F])
                families = [
                    full[rng.permutation(full.shape[0])],
                    np.delete(F, rng.integers(m), axis=0),
                    F[rng.permutation(m)[: max(1, m // 2)]],
                ]
                inward = F.sum(axis=0) / np.sum(np.abs(F.sum(axis=0)))
                for size in (0.9 * TOTALITY_TOL, 100 * TOTALITY_TOL):
                    moved = F.copy()
                    moved[rng.integers(m)] += size * inward
                    families.append(moved)
                for Phi in families:
                    phis = [K.certify_functional(p) for p in Phi]
                    try:
                        expected = _facet_lp_witnesses(Phi, F, TOTALITY_TOL)
                    except NumericalFailure:
                        expected = None  # the simplex gave up on some facet
                    try:
                        report = K.is_total(phis)
                    except NumericalFailure:
                        assert expected is None  # only on an LP the oracle cannot solve
                        continue
                    total += 1
                    if expected is None:
                        assert report.verdict == self.highs_verdict(Phi, F)
                    else:
                        compared += 1
                        assert report.verdict == (FAILS if expected else HOLDS)
                        assert [w.point.tobytes() for w in report.witnesses] == [
                            w.point.tobytes() for w in expected
                        ]
                        assert [w.margin for w in report.witnesses] == [w.margin for w in expected]
                    for w in report.witnesses:
                        self.assert_valid_witness(Phi, w, K)
        assert compared >= total // 2

    def test_lp_path_returns_no_refuted_witness(self):
        """The per-facet LP run directly on a cone's own facets: each one is
        in the family, so a returned witness must still satisfy it.  The
        48-ray cone is one on which the LP's point violates a facet by
        3e-9; that must raise rather than report ``fails``."""
        rng = np.random.default_rng(38)
        cones = [PolyCone.from_generators(sphere_rays(np.random.default_rng(18), 3, 48))]
        cones += [random_cone(rng, n, n + 2) for n in range(3, 7)]
        for K in cones:
            F = K.facets
            try:
                witnesses = _facet_lp_witnesses(F, F, TOTALITY_TOL)
            except NumericalFailure:
                continue
            for w in witnesses:
                self.assert_valid_witness(F, w)
        with pytest.raises(NumericalFailure):
            _facet_lp_witnesses(cones[0].facets, cones[0].facets, TOTALITY_TOL)

    @pytest.mark.parametrize("n, k, seed", [(6, 16, 0), (3, 48, 18)])
    def test_benchmark_cones_total_without_lps(self, n, k, seed, monkeypatch):
        """Cones on which the all-facet LP check raised ``NumericalFailure``
        (16 rays in R^6) or returned a self-refuting ``fails`` (48 rays in
        R^3): their own facets are total, decided with no LP at all."""
        calls = count_lp_calls(monkeypatch)
        K = PolyCone.from_generators(sphere_rays(np.random.default_rng(seed), n, k))
        report = K.is_total([K.certify_functional(f) for f in K.facets])
        assert report.verdict == HOLDS
        assert report.notes == ["exact facet-LP check"]
        assert calls == []


class TestImmutability:
    def test_arrays_frozen(self, diamond):
        with pytest.raises(ValueError):
            diamond.generators[0, 0] = 5.0
        with pytest.raises(ValueError):
            diamond.facets[0, 0] = 5.0
