"""Half-norm values, subdifferentials, and their independent oracles.

The brute-force oracle reassembles each variant's feasible region from
scratch and minimizes over enumerated vertices, so it shares no code path
with the closed forms or the simplex-backed evaluation it checks.  The dual
characterization of the functional-gauge subdifferential is validated
against the sampled universal definition before anything else relies on it.
The closed-form functional and order-unit gauges are checked against the
functional gauge's primal LP (an oracle kept here), the subdifferential
descriptions, and (above the vertex-table guard) scipy's HiGHS; hypothesis
drives the sublinearity properties of every half-norm across input scales
1e-12 to 1e12.  The batched pairing path is checked against the per-row
closed forms it replaced, kept here as oracles.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conesemi.cone import PolyCone
from conesemi.errors import (
    EmptySubdifferential,
    NotOrderUnit,
    NotPositiveFunctional,
    VariantPreconditionFailed,
)
from conesemi.halfnorm import (
    CanonicalHalfNorm,
    EuclideanNorm,
    FunctionalGauge,
    OrderUnitGauge,
    PositivePartNorm,
    RegularizedGauge,
    WeightedNorm,
    _support,
    regularized_norm,
)
from conesemi.numerics import LpProblem, solve_lp, vertex_table
from oracles import enumerate_vertices

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.fixture
def orthant2():
    return PolyCone.standard_orthant(2)


@pytest.fixture
def diamond():
    return PolyCone.from_generators([[1, 1], [1, -1]])


def brute_force_functional_gauge(cone, phi, x):
    """min <y, phi> over majorants, via vertex enumeration in y-space."""
    F = cone.facets
    G = np.vstack([F, F])
    h = np.concatenate([np.zeros(F.shape[0]), F @ x])
    verts = enumerate_vertices((G, h))
    assert verts, "majorant region must have a vertex"
    return min(float(np.dot(v, phi)) for v in verts)


def lp_functional_gauge(cone, phi, x):
    """min <y, phi> over majorants y = R^T a, a >= 0, with y - x in K: the
    primal LP in ray coordinates, independent of the description of S."""
    R, F = cone.generators, cone.facets
    res = solve_lp(LpProblem(objective=R @ phi, ineq_constraints=(F @ R.T, F @ x), nonneg=True))
    assert res.optimal
    return max(0.0, res.value)


def unit_row(x):
    """``x`` times the power of two that brings ``||x||_inf`` into [1/2, 1)."""
    return np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])


def face_extremum(V, x, c, sense):
    """Per-row oracle: extremum of <c, v> over the rows v of V that attain
    max <x, v> (x at unit scale), the first such row on a tie."""
    scores = V @ x
    face = V[scores >= np.max(scores) - 1e-9 * np.max(np.abs(V))]
    pairing = face @ c
    k = int(np.argmin(pairing) if sense == "min" else np.argmax(pairing))
    return float(pairing[k]), face[k].copy()


def simplicial_pairing(F, weights, x, c, sense):
    """Per-row oracle on a simplicial cone, S = {F^T b : 0 <= b <= weights}
    (x at unit scale): b_i = weights_i where <f_i, x> > 0, 0 where it is
    negative, and the extreme end for <f_i, c> on a tie."""
    fx, fc = F @ x, F @ c
    tie = np.abs(fx) <= 1e-9 * np.max(np.abs(F), axis=1)
    top = fc < 0 if sense == "min" else fc > 0
    b = np.where(np.where(tie, top, fx > 0), weights, 0.0)
    return float(fc @ b), F.T @ b


def per_row_pairing(p, x, c, sense):
    """The per-row oracle of each closed form: the coordinatewise formula of
    a functional gauge on a simplicial cone, the table of the order-unit
    gauge and of a functional gauge elsewhere below the guard; otherwise
    one optimization over the subdifferential's description."""
    if isinstance(p, FunctionalGauge) and p._simplicial is not None:
        return simplicial_pairing(p.cone.facets, p._simplicial, unit_row(x), c, sense)
    if isinstance(p, (FunctionalGauge, OrderUnitGauge)) and p._table is not None:
        return face_extremum(p._table, unit_row(x), c, sense)
    return p.subdifferential(unit_row(x)).optimize(c, sense)


def assert_batch_matches_oracle(p, X, C, sense):
    """Extrema within 1e-12 of the size of their terms, and the oracle's
    attaining functional unless another one ties with it."""
    extrema, functionals = p.pairing_extrema(X, C, sense)
    assert extrema.shape == (X.shape[0],) and functionals.shape == X.shape
    for x, c, got, u in zip(X, C, extrema, functionals):
        expected, u_expected = per_row_pairing(p, x, c, sense)
        size = np.abs(c).sum() * max(np.max(np.abs(u_expected)), 1.0)
        assert got == pytest.approx(expected, rel=0, abs=1e-12 * size)
        assert float(c @ u) == pytest.approx(got, rel=0, abs=1e-12 * size)
        if not np.array_equal(u, u_expected):
            assert float(c @ u) == pytest.approx(expected, rel=0, abs=1e-12 * size)
            tie = 1e-9 * np.max(np.abs(x))
            assert float(x @ u) == pytest.approx(float(x @ u_expected), abs=tie)
        single, _ = p.pairing_extremum(x, c, sense)
        assert single == pytest.approx(got, rel=0, abs=1e-12 * size)


def brute_force_canonical(cone, norm, x):
    """min ||y|| over y >= x via the epigraph polyhedron's vertices."""
    F = cone.facets
    nf, n = F.shape
    w = norm.weights
    if norm.kind == "linf":
        G = np.zeros((nf + 2 * n, n + 1))
        G[:nf, :n] = F
        h = np.concatenate([F @ x, np.zeros(2 * n)])
        for i in range(n):
            G[nf + 2 * i, i] = -w[i]
            G[nf + 2 * i, n] = 1.0
            G[nf + 2 * i + 1, i] = w[i]
            G[nf + 2 * i + 1, n] = 1.0
        verts = enumerate_vertices((G, h))
        assert verts
        return min(float(v[n]) for v in verts)
    G = np.zeros((nf + 2 * n, 2 * n))
    G[:nf, :n] = F
    h = np.concatenate([F @ x, np.zeros(2 * n)])
    for i in range(n):
        G[nf + 2 * i, i] = -1.0
        G[nf + 2 * i, n + i] = 1.0
        G[nf + 2 * i + 1, i] = 1.0
        G[nf + 2 * i + 1, n + i] = 1.0
    verts = enumerate_vertices((G, h))
    assert verts
    return min(float(w @ v[n:]) for v in verts)


def brute_force_order_unit(cone, unit, x):
    """min lam >= 0 with lam*u - x in the cone: a one-variable enumeration."""
    F = cone.facets
    lam_min = max(0.0, float(np.max((F @ x) / (F @ unit))))
    return lam_min


def pyramid(rng, n, k):
    """k extreme rays (1, z) with z on the unit sphere of R^(n-1)."""
    z = rng.standard_normal((k, n - 1))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return PolyCone.from_generators(np.hstack([np.ones((k, 1)), z]))


def random_simplicial(rng, n):
    return PolyCone.from_generators(np.eye(n) + 0.3 * rng.standard_normal((n, n)))


@functools.cache
def differential_cones():
    """Orthants, the diamond, random simplicial cones, and 5-8-ray pyramids."""
    rng = np.random.default_rng(114)
    cones = [PolyCone.standard_orthant(n) for n in (2, 3, 5)]
    cones.append(PolyCone.from_generators([[1, 1], [1, -1]]))
    cones += [random_simplicial(rng, n) for n in (2, 3, 4)]
    cones += [pyramid(rng, n, k) for n, k in ((3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 8))]
    return cones


def closed_form_gauges(K, rng):
    phi = rng.uniform(0.3, 1.5, K.facets.shape[0]) @ K.facets
    unit = rng.uniform(0.5, 1.5, K.generators.shape[0]) @ K.generators
    return FunctionalGauge(K, phi), OrderUnitGauge(K, unit)


def lp_gauges(K, rng):
    """The canonical (l1 and linf) and regularized gauges, random weights."""
    w = rng.uniform(0.5, 2.0, (3, K.dim))
    return (
        CanonicalHalfNorm(K, WeightedNorm("l1", w[0])),
        CanonicalHalfNorm(K, WeightedNorm("linf", w[1])),
        RegularizedGauge(K, WeightedNorm("linf", w[2])),
    )


def probe_points(K, rng, count):
    """Zero, then per round: a random point, a point of K and its negative
    (on a face when a drawn coefficient is 0), and a point on a facet's
    hyperplane outside both K and -K (a tie for the pairing)."""
    G = K.generators
    points = [np.zeros(K.dim)]
    for _ in range(count):
        points.append(rng.standard_normal(K.dim) * 2)
        a = rng.uniform(0.0, 1.0, G.shape[0]) * (rng.random(G.shape[0]) < 0.6)
        points += [G.T @ a, -(G.T @ a)]
        f = K.facets[rng.integers(K.facets.shape[0])]
        on_facet = G[np.abs(G @ f) <= 1e-9]
        if on_facet.shape[0] >= 2:
            i, j = rng.choice(on_facet.shape[0], 2, replace=False)
            points.append(on_facet[i] - rng.uniform(0.2, 2.0) * on_facet[j])
    return points


class TestWeightedNorm:
    def test_values(self):
        norm = WeightedNorm("l1", [2.0, 1.0])
        assert norm.value([1, -3]) == pytest.approx(5.0)
        assert WeightedNorm("linf", [2.0, 1.0]).value([1, -3]) == pytest.approx(3.0)

    def test_weights_must_be_positive(self):
        from conesemi.errors import MalformedProblem

        with pytest.raises(MalformedProblem):
            WeightedNorm("l1", [1.0, 0.0])
        with pytest.raises(MalformedProblem):
            WeightedNorm("l2", [1.0, 1.0])

    def test_dual_value_pairs_with_primal(self):
        rng = np.random.default_rng(99)
        for kind in ("l1", "linf"):
            norm = WeightedNorm(kind, rng.uniform(0.5, 2.0, 3))
            for _ in range(50):
                x = rng.standard_normal(3)
                u = rng.standard_normal(3)
                assert abs(float(x @ u)) <= norm.value(x) * norm.dual_value(u) + 1e-12


class TestFunctionalGaugeValues:
    def test_on_cone_equals_pairing(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        assert p.value([2, 3]) == 5.0

    def test_on_negative_cone_vanishes(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        assert p.value([-1, -2]) == 0.0

    def test_mixed_point(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        assert p.value([1, -2]) == pytest.approx(1.0, abs=1e-9)

    def test_diamond_mixed_point(self, diamond):
        p = FunctionalGauge(diamond, [1, 0])
        assert p.value([0, 1]) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_nonpositive_functional(self, orthant2):
        with pytest.raises(NotPositiveFunctional):
            FunctionalGauge(orthant2, [1, -1])

    def test_against_brute_force(self, orthant2, diamond):
        rng = np.random.default_rng(101)
        cones = [orthant2, diamond, PolyCone.standard_orthant(3)]
        for K in cones:
            phi = K.dual_cone().generators.T @ rng.uniform(0.2, 1.5, K.facets.shape[0])
            p = FunctionalGauge(K, phi)
            for _ in range(30):
                x = rng.standard_normal(K.dim) * 2
                expected = brute_force_functional_gauge(K, phi, x)
                assert p.value(x) == pytest.approx(max(0.0, expected), abs=1e-8)


class TestClosedFormValues:
    def test_paths_follow_the_cone(self):
        gauges = [FunctionalGauge(K, K.facets.sum(axis=0)) for K in differential_cones()]
        assert [p._simplicial is not None for p in gauges] == [True] * 7 + [False] * 7
        assert all(p._table is not None for p in gauges)
        # on simplicial cones the closed-form corners are the vertices of S
        for p in gauges[:7]:
            V = vertex_table(p._polar)
            assert p._table.shape == V.shape
            for v in V:
                assert np.min(np.max(np.abs(p._table - v), axis=1)) <= 1e-12 * np.max(np.abs(V))

    def test_against_lp_path_and_brute_force(self):
        rng = np.random.default_rng(116)
        for K in differential_cones():
            p, q = closed_form_gauges(K, rng)
            X = np.vstack(probe_points(K, rng, 6))
            vals = p.values(X)
            unit_vals = q.values(X)
            for x, val, unit_val in zip(X, vals, unit_vals):
                assert p.value(x) == pytest.approx(val, abs=1e-12)
                assert val == pytest.approx(lp_functional_gauge(K, p.phi, x), abs=1e-9)
                assert q.value(x) == pytest.approx(unit_val, abs=1e-12)
                assert unit_val == pytest.approx(brute_force_order_unit(K, q.unit, x), abs=1e-12)
            if K.dim <= 3:
                for x, val in zip(X[:6], vals):
                    expected = brute_force_functional_gauge(K, p.phi, x)
                    assert val == pytest.approx(max(0.0, expected), abs=1e-8)

    def test_default_values_loop(self, diamond):
        p = CanonicalHalfNorm(diamond, WeightedNorm.sup(2))
        X = np.array([[1.0, -2.0], [0.5, 0.25], [-1.0, 0.0]])
        assert p.values(X) == pytest.approx([p.value(x) for x in X], abs=0)

    def test_seven_ray_cone_at_every_scale(self):
        # with absolute membership short-cuts, an LP at the raw scale is
        # wrong at ||x|| ~ 1e-8 and infeasible at 1e6 on this setup
        rng = np.random.default_rng(117)
        K = pyramid(rng, 3, 7)
        p, q = closed_form_gauges(K, rng)
        X = rng.standard_normal((100, 3))
        canonical_l1, canonical_linf, regularized = lp_gauges(K, rng)
        # one LP per value: the LP gauges take every third scale
        for gauge, step in ((p, 2), (q, 2), (canonical_l1, 6), (canonical_linf, 6), (regularized, 6)):
            base = gauge.values(X)
            for exponent in range(-12, 13, step):
                scale = 10.0**exponent
                assert gauge.values(scale * X) == pytest.approx(scale * base, rel=1e-12)
                assert gauge.value(scale * X[0]) == pytest.approx(scale * base[0], rel=1e-12)
        lp = np.array([lp_functional_gauge(K, p.phi, x) for x in X])
        assert p.values(X) == pytest.approx(lp, abs=1e-9)
        # the subdifferential, and so the pairing, is scale-invariant: ties
        # on faces must be judged the same at every scale (the canonical
        # gauges' pairing is three LPs, exact to their tolerance, and takes
        # the extreme scales only)
        closed, extreme = (-12, -6, 6, 12), (-12, 12)
        for x in probe_points(K, rng, 10):
            c = rng.standard_normal(3)
            for gauge, tol, exponents in (
                (p, 1e-12, closed), (q, 1e-12, closed),
                (canonical_l1, 1e-8, extreme), (canonical_linf, 1e-8, extreme),
            ):
                for sense in ("min", "max"):
                    expected, _ = gauge.pairing_extremum(x, c, sense)
                    for exponent in exponents:
                        got, _ = gauge.pairing_extremum(10.0**exponent * x, c, sense)
                        assert got == pytest.approx(expected, abs=tol)

    def test_exactly_zero_on_faces_of_minus_k(self):
        for K in differential_cones():
            G = K.generators
            faces = [G[np.abs(G @ f) <= 1e-9].sum(axis=0) for f in K.facets]
            X = -np.vstack([*G, *faces])
            for p in closed_form_gauges(K, np.random.default_rng(119)):
                assert np.all(p.values(X) == 0.0)
                assert all(p.value(x) == 0.0 for x in X)

    @PROPERTY_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(-12, 12),
        st.integers(0, len(differential_cones()) - 1),
        st.floats(0.01, 100.0),
    )
    def test_sublinear_at_every_scale(self, seed, exponent, which, t):
        rng = np.random.default_rng(seed)
        K = differential_cones()[which]
        scale = 10.0**exponent
        x, y = rng.standard_normal((2, K.dim)) * scale
        a = rng.uniform(0.0, 1.0, K.generators.shape[0]) * (rng.random(K.generators.shape[0]) < 0.7)
        minus = -scale * (K.generators.T @ a)
        gauges = [*closed_form_gauges(K, rng), *lp_gauges(K, rng)]
        if K.is_lattice():
            gauges.append(PositivePartNorm(K, WeightedNorm("linf", rng.uniform(0.5, 2.0, K.dim))))
        for p in gauges:
            bound = max(p.values(np.vstack([np.eye(K.dim), -np.eye(K.dim)])))
            size = (np.abs(x).sum() + np.abs(y).sum()) * bound
            px, py, pxy, pt = p.values(np.vstack([x, y, x + y, t * x]))
            assert p.value(x) == pytest.approx(px, abs=1e-12 * size)
            assert min(px, py, pxy, pt) >= 0.0
            assert pt == pytest.approx(t * px, abs=1e-12 * t * size)
            assert p.value(t * x) == pytest.approx(t * p.value(x), abs=1e-12 * t * size)
            # ||x^+|| is subadditive where the norm is monotone for the
            # order: on the orthants and the diamond (the first four cones),
            # not on the random simplicial cones
            if not isinstance(p, PositivePartNorm) or which < 4:
                assert pxy <= px + py + 1e-12 * size
                assert p.value(x + y) <= p.value(x) + p.value(y) + 1e-12 * size
            assert p.value(minus) == 0.0
            assert np.all(p.values(np.vstack([minus, 2.0 * minus])) == 0.0)


class TestLpFallback:
    """A cone above the vertex-table guard keeps the LP path."""

    @pytest.fixture(scope="class")
    def large(self):
        rng = np.random.default_rng(118)
        K = pyramid(rng, 6, 16)
        phi = rng.uniform(0.5, 1.5, K.facets.shape[0]) @ K.facets
        return K, FunctionalGauge(K, phi), rng

    def test_takes_the_lp_path(self, large):
        K, p, _ = large
        assert K.generators.shape == (16, 6)
        assert p._simplicial is None and p._table is None

    def test_values_against_highs(self, large):
        K, p, rng = large
        G = K.generators
        X = rng.standard_normal((8, 6))
        vals = p.values(X)
        for x, val in zip(X, vals):
            # the support function of S = {u : 0 <= G u <= G phi}, independently
            res = linprog(
                -x,
                A_ub=np.vstack([-G, G]),
                b_ub=np.concatenate([np.zeros(G.shape[0]), G @ p.phi]),
                bounds=[(None, None)] * K.dim,
                method="highs",
            )
            assert res.status == 0
            assert val == pytest.approx(-res.fun, rel=1e-9, abs=1e-9)
            assert p.value(1e6 * x) == pytest.approx(1e6 * val, rel=1e-9)

    def test_pairing_batch_against_highs(self, large):
        K, p, rng = large
        G = K.generators
        X = np.vstack([rng.standard_normal((2, 6)), 1e-9 * G[0], -G[1], 1e9 * (G[2] - 2.0 * G[3])])
        C = rng.standard_normal(X.shape)
        for sense, sign in (("min", 1.0), ("max", -1.0)):
            assert_batch_matches_oracle(p, X, C, sense)
            extrema, functionals = p.pairing_extrema(X, C, sense)
            for x, c, got, u in zip(X, C, extrema, functionals):
                # over the face of S = {u : 0 <= G u <= G phi} where <x, u> = p(x)
                res = linprog(
                    sign * c,
                    A_ub=np.vstack([-G, G]),
                    b_ub=np.concatenate([np.zeros(G.shape[0]), G @ p.phi]),
                    A_eq=unit_row(x)[None, :],
                    b_eq=[p.value(unit_row(x))],
                    bounds=[(None, None)] * K.dim,
                    method="highs",
                )
                assert res.status == 0
                assert got == pytest.approx(sign * res.fun, abs=1e-8)
                assert float(c @ u) == pytest.approx(got, abs=1e-12 * np.abs(c).sum())

    def test_pairing_against_description(self, large):
        K, p, rng = large
        for x in (rng.standard_normal(6), K.generators[0], -K.generators[1]):
            c = rng.standard_normal(6)
            for sense in ("min", "max"):
                fast, _ = p.pairing_extremum(x, c, sense)
                slow, _ = p.subdifferential(x).optimize(c, sense)
                assert fast == pytest.approx(slow, abs=1e-8)


def table_gauges(K, rng):
    """The canonical and regularized gauges, l1 and linf, random weights."""
    w = rng.uniform(0.5, 2.0, (4, K.dim))
    return [
        CanonicalHalfNorm(K, WeightedNorm("l1", w[0])),
        CanonicalHalfNorm(K, WeightedNorm("linf", w[1])),
        RegularizedGauge(K, WeightedNorm("l1", w[2])),
        RegularizedGauge(K, WeightedNorm("linf", w[3])),
    ]


def highs_face_extremum(polar, x, c, sense):
    """``max <x, u>`` over ``S = {w : G w >= h}`` (first coordinates), then
    the extremum of ``<c, u>`` over the face where it is attained, both by
    scipy's HiGHS."""
    G, h = polar
    width = G.shape[1]
    pad = lambda v: np.concatenate([v, np.zeros(width - v.size)])  # noqa: E731
    free = [(None, None)] * width
    top = linprog(-pad(x), A_ub=-G, b_ub=-h, bounds=free, method="highs")
    assert top.status == 0
    sign = 1.0 if sense == "min" else -1.0
    face = linprog(sign * pad(c), A_ub=-G, b_ub=-h, A_eq=pad(x)[None, :], b_eq=[-top.fun],
                   bounds=free, method="highs")
    assert face.status == 0
    return -top.fun, sign * face.fun


class TestTablePath:
    """The canonical and regularized gauges below the guard answer from the
    vertex table of their lifted S: values against the support LP over S
    and HiGHS, pairings against HiGHS over the lifted face, at every scale."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(129)
        cases = []
        for K in differential_cones():
            X = np.vstack(probe_points(K, rng, 1))
            C = rng.standard_normal(X.shape)
            cases += [(p, X, C) for p in table_gauges(K, rng) if p._table is not None]
        return cases

    def test_every_variant_has_tables(self, cases):
        kinds = {(p.variant, p.norm.kind) for p, _, _ in cases}
        assert len(kinds) == 4
        assert len(cases) == 41

    def test_values_against_lps(self, cases):
        for p, X, _ in cases:
            lp = np.array([max(0.0, _support(p._polar, x, "oracle")) for x in X])
            highs = np.array([max(0.0, highs_face_extremum(p._polar, x, x, "max")[0]) for x in X])
            assert lp == pytest.approx(highs, rel=1e-9, abs=1e-9)
            for scale in (1e-12, 1.0, 1e12):
                assert p.values(scale * X) == pytest.approx(scale * lp, rel=0, abs=1e-9 * scale)

    def test_pairings_against_highs(self, cases):
        for p, X, C in cases:
            for sense in ("min", "max"):
                expected = np.array([highs_face_extremum(p._polar, x, c, sense)[1]
                                     for x, c in zip(X, C)])
                for scale in (1e-12, 1.0, 1e12):
                    extrema, functionals = p.pairing_extrema(scale * X, C, sense)
                    assert extrema == pytest.approx(expected, rel=0, abs=1e-8)
                    paired = np.einsum("ij,ij->i", C, functionals)
                    assert paired == pytest.approx(extrema, rel=0, abs=1e-12 * np.abs(C).sum())
                    assert np.einsum("ij,ij->i", X, functionals) == pytest.approx(
                        p.values(X), rel=0, abs=1e-9)


class TestCanonicalValues:
    def test_sup_norm_example(self, orthant2):
        p = CanonicalHalfNorm(orthant2, WeightedNorm.sup(2))
        assert p.value([1, -2]) == pytest.approx(1.0, abs=1e-9)

    def test_against_brute_force(self, orthant2, diamond):
        rng = np.random.default_rng(102)
        for K in (orthant2, diamond, pyramid(np.random.default_rng(104), 3, 6)):
            for kind in ("linf", "l1"):
                w = rng.uniform(0.5, 2.0, K.dim)
                norm = WeightedNorm(kind, w)
                p = CanonicalHalfNorm(K, norm)
                for _ in range(20):
                    x = rng.standard_normal(K.dim) * 2
                    expected = brute_force_canonical(K, norm, x)
                    assert p.value(x) == pytest.approx(max(0.0, expected), abs=1e-8)


class TestOrderUnitValues:
    def test_example(self, orthant2):
        p = OrderUnitGauge(orthant2, [1, 1])
        assert p.value([2, -1]) == pytest.approx(2.0, abs=1e-12)

    def test_needs_interior_unit(self, orthant2):
        with pytest.raises(NotOrderUnit):
            OrderUnitGauge(orthant2, [1, 0])

    def test_gauge_inequality_definition(self, diamond):
        # smallest lam with x <= lam*u, checked directly
        p = OrderUnitGauge(diamond, [1, 0])
        rng = np.random.default_rng(103)
        for _ in range(50):
            x = rng.standard_normal(2) * 2
            lam = p.value(x)
            assert diamond.leq(x, (lam + 1e-9) * np.array([1.0, 0.0]))
            if lam > 1e-9:
                assert not diamond.leq(x, (lam - 1e-6) * np.array([1.0, 0.0]))


class TestPositivePartValues:
    def test_example(self, orthant2):
        p = PositivePartNorm(orthant2, WeightedNorm.sup(2))
        assert p.value([1, -2]) == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_per_row_oracle(self):
        rng = np.random.default_rng(120)
        for K in differential_cones()[:7]:
            a = rng.uniform(0.0, 1.0, (10, K.dim))
            X = np.vstack([rng.standard_normal((30, K.dim)), a @ K.generators, -(a @ K.generators)])
            for kind in ("l1", "linf"):
                norm = WeightedNorm(kind, rng.uniform(0.5, 2.0, K.dim))
                p = PositivePartNorm(K, norm)
                for scale in (1e-12, 1.0, 1e12):
                    expected = [norm.value(K.positive_part(x)) for x in scale * X]
                    assert p.values(scale * X) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_needs_lattice(self):
        pyramid = PolyCone.from_generators(
            [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]
        )
        with pytest.raises(VariantPreconditionFailed):
            PositivePartNorm(pyramid, WeightedNorm.sup(3))

    def test_matches_canonical_on_lattice_cones(self, orthant2, diamond):
        # the classical lattice identity, for monotone norms
        rng = np.random.default_rng(104)
        setups = [
            (orthant2, WeightedNorm("linf", rng.uniform(0.5, 2.0, 2))),
            (orthant2, WeightedNorm("l1", rng.uniform(0.5, 2.0, 2))),
            (diamond, WeightedNorm.sup(2)),
            (diamond, WeightedNorm.one(2)),
        ]
        for K, norm in setups:
            canonical = CanonicalHalfNorm(K, norm)
            npos = PositivePartNorm(K, norm)
            for _ in range(125):
                x = rng.standard_normal(2) * 2
                assert npos.value(x) == pytest.approx(canonical.value(x), abs=1e-9)


class TestRegularizedGauge:
    def test_zero_on_negative_cone(self, orthant2):
        p = RegularizedGauge(orthant2, WeightedNorm.sup(2))
        assert p.value([-1, -3]) == 0.0

    def test_strictness_chain(self, orthant2, diamond):
        # p(x) + p(-x) >= ||x||_r on random points
        rng = np.random.default_rng(105)
        for K in (orthant2, diamond):
            for kind in ("linf", "l1"):
                norm = WeightedNorm(kind, rng.uniform(0.5, 2.0, K.dim))
                p = RegularizedGauge(K, norm)
                for _ in range(60):
                    x = rng.standard_normal(K.dim) * 2
                    chain = p.value(x) + p.value(-x)
                    assert chain >= regularized_norm(K, norm, x) - 1e-9

    def test_agrees_with_canonical_on_claimed_region(self, orthant2, diamond):
        # equality is asserted on K and -K only; monotone-norm setups
        rng = np.random.default_rng(106)
        setups = [
            (orthant2, WeightedNorm("linf", rng.uniform(0.5, 2.0, 2))),
            (orthant2, WeightedNorm("l1", rng.uniform(0.5, 2.0, 2))),
            (diamond, WeightedNorm.sup(2)),
        ]
        for K, norm in setups:
            gauge = RegularizedGauge(K, norm)
            psi = CanonicalHalfNorm(K, norm)
            R = K.generators
            for _ in range(40):
                x = R.T @ rng.uniform(0, 2, K.dim)  # x in K
                assert gauge.value(x) == pytest.approx(psi.value(x), abs=1e-8)
                assert gauge.value(-x) == pytest.approx(psi.value(-x), abs=1e-12)

    def test_pairings_above_the_guard_match_the_table(self):
        # above the guard each pairing is one LP over the lifted face
        # description; the vertex table of the same S, built here past the
        # guard, is the oracle
        rng = np.random.default_rng(127)
        K = pyramid(rng, 3, 5)
        p = RegularizedGauge(K, WeightedNorm("linf", rng.uniform(0.5, 2.0, 3)))
        assert p._table is None
        V = vertex_table(p._polar)[:, :3]
        X = np.vstack(probe_points(K, rng, 3))
        C = rng.standard_normal(X.shape)
        for sense in ("min", "max"):
            extrema, functionals = p.pairing_extrema(X, C, sense)
            for x, c, got, u in zip(X, C, extrema, functionals):
                expected, _ = face_extremum(V, unit_row(x), c, sense)
                assert got == pytest.approx(expected, abs=1e-8)
                assert float(c @ u) == pytest.approx(got, abs=1e-12 * np.abs(c).sum())
                top = float(np.max(V @ unit_row(x)))
                assert float(unit_row(x) @ u) == pytest.approx(top, abs=1e-9)

    def test_against_brute_force_dim2(self, orthant2):
        rng = np.random.default_rng(107)
        norm = WeightedNorm.sup(2)
        p = RegularizedGauge(orthant2, norm)
        F = orthant2.facets
        nf, n = F.shape
        for _ in range(10):
            x = rng.standard_normal(2) * 2
            # variables (y, z, s): assemble the epigraph region independently
            rows = []
            rhs = []
            zero = np.zeros((nf, n))
            rows += [np.hstack([F, zero, np.zeros((nf, 1))])]
            rhs += [np.zeros(nf)]
            rows += [np.hstack([F, zero, np.zeros((nf, 1))])]
            rhs += [F @ x]
            rows += [np.hstack([-F, F, np.zeros((nf, 1))])]
            rhs += [np.zeros(nf)]
            rows += [np.hstack([F, F, np.zeros((nf, 1))])]
            rhs += [np.zeros(nf)]
            eps = np.zeros((2 * n, 2 * n + 1))
            for i in range(n):
                eps[2 * i, n + i] = -1.0
                eps[2 * i, 2 * n] = 1.0
                eps[2 * i + 1, n + i] = 1.0
                eps[2 * i + 1, 2 * n] = 1.0
            rows += [eps]
            rhs += [np.zeros(2 * n)]
            verts = enumerate_vertices((np.vstack(rows), np.concatenate(rhs)))
            assert verts
            expected = min(float(v[-1]) for v in verts)
            assert p.value(x) == pytest.approx(max(0.0, expected), abs=1e-8)


class TestSublinearity:
    def test_subadditive_and_homogeneous(self, orthant2, diamond):
        # 500 random pairs per cone, split over four gauge variants
        rng = np.random.default_rng(108)
        variants = []
        for K in (orthant2, diamond):
            phi = K.dual_cone().generators.sum(axis=0)
            variants += [
                FunctionalGauge(K, phi),
                CanonicalHalfNorm(K, WeightedNorm.sup(2)),
                OrderUnitGauge(K, K.generators.sum(axis=0)),
                PositivePartNorm(K, WeightedNorm.sup(2)),
            ]
        for p in variants:
            for _ in range(125):
                x = rng.standard_normal(2) * 2
                y = rng.standard_normal(2) * 2
                lam = float(rng.uniform(0, 3))
                assert p.value(x + y) <= p.value(x) + p.value(y) + 1e-9
                assert p.value(lam * x) == pytest.approx(
                    lam * p.value(x), abs=1e-9 * (1 + lam)
                )

    def test_boundary_values(self, orthant2, diamond):
        # on the cone the gauge is the pairing; on its negative it vanishes
        rng = np.random.default_rng(109)
        for K in (orthant2, diamond):
            phi = K.dual_cone().generators.sum(axis=0)
            p = FunctionalGauge(K, phi)
            psi = CanonicalHalfNorm(K, WeightedNorm.sup(2))
            R = K.generators
            for _ in range(125):
                x = R.T @ rng.uniform(0, 2, K.dim)
                assert p.value(x) == pytest.approx(float(phi @ x), abs=1e-12)
                assert p.value(-x) == 0.0
                assert psi.value(-x) == 0.0

    def test_positive_part_invariance(self, orthant2, diamond):
        # the gauge never sees the negative part on lattice cones
        rng = np.random.default_rng(110)
        for K in (orthant2, diamond):
            phi = K.dual_cone().generators.T @ np.array([0.7, 1.3])
            p = FunctionalGauge(K, phi)
            for _ in range(250):
                x = rng.standard_normal(2) * 2
                assert p.value(K.positive_part(x)) == pytest.approx(
                    p.value(x), abs=1e-10
                )


class TestSubdifferentials:
    def test_functional_gauge_singleton(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        desc = p.subdifferential([1, -2])
        verts = desc.vertices()
        assert len(verts) == 1
        assert verts[0] == pytest.approx([1, 0], abs=1e-9)

    def test_functional_gauge_at_zero_is_order_interval(self, orthant2):
        p = FunctionalGauge(orthant2, [1, 1])
        verts = {tuple(np.round(v, 9)) for v in p.subdifferential([0, 0]).vertices()}
        assert verts == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_euclidean_singleton(self, orthant2):
        desc = EuclideanNorm(orthant2).subdifferential([1, 0])
        assert desc.kind == "singleton"
        assert desc.point == pytest.approx([1, 0])

    def test_euclidean_ball_at_zero(self, orthant2):
        desc = EuclideanNorm(orthant2).subdifferential([0, 0])
        assert desc.kind == "ball"
        val, point = desc.optimize([3, 4], "max")
        assert val == pytest.approx(5.0)
        assert point == pytest.approx([0.6, 0.8])

    def test_soundness(self, orthant2, diamond):
        # every vertex is dominated by the half-norm and exact at x
        rng = np.random.default_rng(111)
        for K in (orthant2, diamond):
            phi = K.dual_cone().generators.T @ np.array([1.0, 0.5])
            variants = [
                FunctionalGauge(K, phi),
                CanonicalHalfNorm(K, WeightedNorm.sup(2)),
                CanonicalHalfNorm(K, WeightedNorm.one(2)),
                OrderUnitGauge(K, K.generators.sum(axis=0)),
                PositivePartNorm(K, WeightedNorm.sup(2)),
            ]
            ys = rng.standard_normal((200, 2)) * 2
            for p in variants:
                for x in ([1.5, -0.5], [0.3, 0.1], [-1.0, 2.0]):
                    x = np.asarray(x, dtype=float)
                    val = p.value(x)
                    p_of_y = [p.value(y) for y in ys]
                    for u in p.subdifferential(x).vertices():
                        assert float(x @ u) == pytest.approx(val, abs=1e-9)
                        for y, py in zip(ys, p_of_y):
                            assert float(y @ u) <= py + 1e-9

    def test_dual_characterization_against_sampled_oracle(self, orthant2, diamond):
        """{u in K': phi - u in K'} must equal the sampled universal set.

        The sampled set uses only the definition: functionals dominated by
        the gauge at every probe direction.  Probes include the rays and
        their negatives plus random points; vertex sets must then agree.
        """
        rng = np.random.default_rng(112)
        cones = [orthant2, diamond, PolyCone.standard_orthant(3)]
        for K in cones:
            phi = K.dual_cone().generators.T @ rng.uniform(0.4, 1.6, K.facets.shape[0])
            p = FunctionalGauge(K, phi)
            probes = [g for g in K.generators] + [-g for g in K.generators]
            probes += [rng.standard_normal(K.dim) * 2 for _ in range(40)]
            G_rows = np.vstack([-np.asarray(y) for y in probes])
            h_rows = np.array([-p.value(y) for y in probes])
            sampled = enumerate_vertices((G_rows, h_rows))

            R = K.generators
            direct = enumerate_vertices(
                (
                    np.vstack([R, -R]),
                    np.concatenate([np.zeros(R.shape[0]), -(R @ phi)]),
                )
            )
            assert len(sampled) == len(direct)
            for v in direct:
                assert any(np.max(np.abs(v - w)) <= 1e-8 for w in sampled)


class TestOptimizeOverSubdiff:
    def test_singleton(self, orthant2):
        desc = EuclideanNorm(orthant2).subdifferential([1, 0])
        val, _ = desc.optimize([2, 2], "min")
        assert val == pytest.approx(2.0)

    def test_box_corner(self, orthant2):
        desc = FunctionalGauge(orthant2, [1, 1]).subdifferential([0, 0])
        val, point = desc.optimize([1, 1], "max")
        assert val == pytest.approx(2.0, abs=1e-9)
        assert point == pytest.approx([1, 1], abs=1e-9)

    def test_pairing_example(self, orthant2):
        desc = FunctionalGauge(orthant2, [1, 1]).subdifferential([1, -2])
        val, _ = desc.optimize([-1, -1], "min")
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_fast_pairing_agrees_with_description(self):
        # both closed-form gauges on every path below the guard, at random
        # points, points of K and -K, and facet ties
        rng = np.random.default_rng(113)
        for K in differential_cones():
            for p in closed_form_gauges(K, rng):
                for x in probe_points(K, rng, 5):
                    c = rng.standard_normal(K.dim)
                    desc = p.subdifferential(x)
                    for sense in ("min", "max"):
                        fast, u = p.pairing_extremum(x, c, sense)
                        slow, _ = desc.optimize(c, sense)
                        assert fast == pytest.approx(slow, abs=1e-8)
                        assert float(c @ u) == pytest.approx(fast, abs=1e-12)
                        assert float(x @ u) == pytest.approx(p.value(x), abs=1e-9)

    def test_pairing_rejects_unknown_sense(self, orthant2, diamond):
        from conesemi.errors import MalformedProblem

        for K in (orthant2, diamond):
            for p in closed_form_gauges(K, np.random.default_rng(0)):
                with pytest.raises(MalformedProblem):
                    p.pairing_extremum([1.0, 0.0], [1.0, 1.0], "sup")
                with pytest.raises(MalformedProblem):
                    p.pairing_extrema(np.eye(2), np.eye(2), "sup")


def description_is_feasible(desc):
    """Oracle: the feasibility LP that a polyhedral description once ran
    when it was built."""
    res = solve_lp(LpProblem(objective=np.zeros(desc.n_vars), eq_constraints=desc.eq,
                             ineq_constraints=desc.ineq))
    return res.optimal


class TestDescriptionLps:
    """A description pairing solves the value LP (if any) and the face LP,
    nothing more; an empty face shows when it is optimized."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        import conesemi.halfnorm as halfnorm

        calls = []

        def counted(problem):
            calls.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(halfnorm, "solve_lp", counted)
        return calls

    def test_lps_per_pairing(self, lp_calls):
        rng = np.random.default_rng(130)
        K = pyramid(rng, 6, 16)
        canonical = CanonicalHalfNorm(K, WeightedNorm.sup(6))
        assert canonical._table is None
        npos = PositivePartNorm(PolyCone.standard_orthant(6), WeightedNorm.one(6))
        for x, c in zip(rng.standard_normal((4, 6)), rng.standard_normal((4, 6))):
            x[0] = abs(x[0]) + 0.1  # K lies in x_0 >= 0, so x is not in -K
            for p, lps in ((canonical, 2), (npos, 1)):
                lp_calls.clear()
                p.pairing_extremum(x, c, "min")
                assert len(lp_calls) == lps

    def test_positive_part_emptiness_matches_the_feasibility_lp(self):
        # off monotone cones the face of S at level ||x^+|| may be empty; the
        # pairing raises exactly where the oracle finds the description empty
        rng = np.random.default_rng(131)
        raised = 0
        for _ in range(20):
            K = random_simplicial(rng, int(rng.integers(2, 5)))
            kind = ("l1", "linf")[int(rng.integers(2))]
            p = PositivePartNorm(K, WeightedNorm(kind, rng.uniform(0.5, 2.0, K.dim)))
            for x, c in zip(rng.standard_normal((10, K.dim)), rng.standard_normal((10, K.dim))):
                if description_is_feasible(p.subdifferential(unit_row(x))):
                    value, u = p.pairing_extremum(x, c, "min")
                    assert float(c @ u) == pytest.approx(value, abs=1e-12 * np.abs(c).sum())
                else:
                    raised += 1
                    with pytest.raises(EmptySubdifferential):
                        p.pairing_extremum(x, c, "min")
        assert 0 < raised < 200


class TestPairingBatch:
    """``pairing_extrema`` against the per-row oracles, row for row."""

    @PROPERTY_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(-12, 12),
        st.integers(0, len(differential_cones()) - 1),
    )
    def test_closed_forms_at_every_scale(self, seed, exponent, which):
        # facet ties from the probe points, vertex ties from x = 0 (the face
        # is all of S), c = 0 and small integer directions
        rng = np.random.default_rng(seed)
        K = differential_cones()[which]
        X = 10.0**exponent * np.vstack(probe_points(K, rng, 3))
        C = rng.standard_normal(X.shape)
        C[1::2] = rng.integers(-2, 3, C[1::2].shape)
        C[-1] = 0.0
        for p in closed_form_gauges(K, rng):
            for sense in ("min", "max"):
                assert_batch_matches_oracle(p, X, C, sense)

    def test_closed_forms_pick_the_first_tied_vertex(self):
        # at x = 0 with c = 0 every vertex of S ties: the first in table order wins
        rng = np.random.default_rng(122)
        for K in differential_cones()[7:]:
            p, q = closed_form_gauges(K, rng)
            for gauge, table in ((p, p._table), (q, q._table)):
                for sense in ("min", "max"):
                    zeros = np.zeros((2, K.dim))
                    extrema, functionals = gauge.pairing_extrema(zeros, zeros, sense)
                    assert np.all(extrema == 0.0)
                    assert np.array_equal(functionals, table[[0, 0]])

    def test_other_variants_row_by_row(self):
        rng = np.random.default_rng(121)
        orthant3, diamond, six_rays = (differential_cones()[i] for i in (1, 3, 8))
        for K in (orthant3, diamond, six_rays):
            gauges = [*lp_gauges(K, rng)[:2], EuclideanNorm(K)]
            if K is not six_rays:
                # the sup norm is monotone for both orders, so S is this norm's own
                gauges.append(PositivePartNorm(K, WeightedNorm.sup(K.dim)))
            X = np.vstack(probe_points(K, rng, 1))
            C = rng.standard_normal(X.shape)
            for p in gauges:
                for scale, sense in ((1e-12, "min"), (1.0, "max"), (1e12, "min"), (1e12, "max")):
                    assert_batch_matches_oracle(p, scale * X, C, sense)

    def test_rows_must_pair_up(self, orthant2):
        from conesemi.errors import DimensionMismatch

        p = FunctionalGauge(orthant2, [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            p.pairing_extrema(np.eye(2), np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            p.pairing_extrema(np.eye(2), np.ones((2, 3)))


class TestClosedFormMemo:
    """A half-norm's vertex table lives in a one-slot memo on its cone."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import conesemi.halfnorm as halfnorm

        calls = []

        def counted(ineq):
            calls.append(1)
            return vertex_table(ineq)

        monkeypatch.setattr(halfnorm, "vertex_table", counted)
        return calls

    def test_same_cone_and_functional_build_once(self, builds):
        rng = np.random.default_rng(123)
        K = pyramid(rng, 3, 6)
        phi = K.facets.sum(axis=0)
        first, second = FunctionalGauge(K, phi), FunctionalGauge(K, phi.copy())
        X = rng.standard_normal((5, 3))
        assert np.array_equal(first.values(X), second.values(X))
        assert len(builds) == 1
        assert second._table is first._table

    def test_same_cone_and_norm_build_once(self, builds):
        rng = np.random.default_rng(128)
        K = pyramid(rng, 3, 6)
        w = rng.uniform(0.5, 2.0, 3)
        first = CanonicalHalfNorm(K, WeightedNorm("linf", w))
        second = CanonicalHalfNorm(K, WeightedNorm("linf", w.copy()))
        X = rng.standard_normal((5, 3))
        assert np.array_equal(first.values(X), second.values(X))
        assert len(builds) == 1
        assert second._table is first._table
        assert not second._table.flags.writeable

    def test_another_functional_rebuilds(self, builds):
        rng = np.random.default_rng(124)
        K = pyramid(rng, 3, 6)
        phi = K.facets.sum(axis=0)
        x = rng.standard_normal(3)
        a = FunctionalGauge(K, phi)
        a.value(x)
        b = FunctionalGauge(K, 2.0 * phi)
        b.value(x)
        assert len(builds) == 2
        # the slot now holds 2 phi; a gauge keeps the table it already has
        a.value(x)
        assert len(builds) == 2
        FunctionalGauge(K, phi).value(x)
        assert len(builds) == 3
        # another cone has its own slot
        FunctionalGauge(PolyCone(K.generators, K.facets), phi).value(x)
        assert len(builds) == 4
