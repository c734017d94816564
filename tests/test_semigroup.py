"""Resolvents, backward-Euler powers, positivity/contractivity reports,
and the two implication pipelines as seeded property suites."""

import re

import numpy as np
import pytest
import scipy.linalg

import conesemi.semigroup as semigroup
from conesemi.cone import PolyCone
from conesemi.dirichlet import Grid, dirichlet_laplacian, run_dirichlet_checks
from conesemi.dissipativity import LinOp, PolyhedralSet, has_positive_off_diagonal, is_metzler
from conesemi.errors import DimensionMismatch, MalformedProblem, NormTooLarge, SingularMatrix
from conesemi.halfnorm import (CanonicalHalfNorm, EuclideanNorm, FunctionalGauge,
                               OrderUnitGauge, RegularizedGauge, WeightedNorm)
from conesemi.numerics import factorized_solver, matrix_exp, tridiagonal_solve
from conesemi.semigroup import (
    DEFAULT_T_GRID,
    SemigroupConfig,
    check_resolvent_contractivity,
    check_semigroup_contractivity,
    check_semigroup_positivity,
    euler_matrix,
    euler_power,
    is_contractive,
    is_positive_operator,
    propagators,
    resolvent_apply,
)
from conesemi.report import Report, Witness
from oracles import dirichlet_exp


def weighted_dominant_metzler(n, rng):
    """Random Metzler matrix whose diagonal dominates the phi-weighted column
    sums; provably dissipative for the functional gauge of that phi."""
    off = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    phi = rng.uniform(0.2, 2.0, size=n)
    A = off.copy()
    for j in range(n):
        A[j, j] = -(phi @ off[:, j]) / phi[j] - rng.uniform(0.1, 1.0)
    return A, phi


@pytest.fixture
def orthant2():
    return PolyCone.standard_orthant(2)


class TestResolvent:
    def test_negative_identity(self):
        assert resolvent_apply(LinOp(-np.eye(2)), 1.0, [2, 4]) == pytest.approx([1, 2])

    def test_zero_operator(self):
        y = np.array([1.0, -2.0, 3.0])
        assert resolvent_apply(LinOp(np.zeros((3, 3))), 0.7, y) == pytest.approx(y)

    def test_nilpotent_back_substitution(self):
        got = resolvent_apply(LinOp([[0.0, 1.0], [0.0, 0.0]]), 1.0, [1, 1])
        assert got == pytest.approx([2, 1])

    def test_lambda_must_be_positive(self):
        with pytest.raises(MalformedProblem):
            resolvent_apply(LinOp(np.eye(2)), 0.0, [1, 1])

    def test_singular_detected(self):
        with pytest.raises(SingularMatrix):
            resolvent_apply(LinOp(np.eye(2)), 1.0, [1, 1])  # I - I = 0

    def test_resolvent_identity(self):
        # R(lam) - R(mu) = (lam - mu) A R(lam) R(mu) for R(lam) = (I-lam A)^-1
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            A -= (1 + np.max(np.abs(np.linalg.eigvals(A)))) * np.eye(n)  # stable
            lam, mu = rng.uniform(0.05, 1.0, size=2)
            eye = np.eye(n)
            R_lam = np.linalg.inv(eye - lam * A)
            R_mu = np.linalg.inv(eye - mu * A)
            left = R_lam - R_mu
            right = (lam - mu) * A @ R_lam @ R_mu
            assert np.max(np.abs(left - right)) <= 1e-8 * (1 + np.max(np.abs(left)))


class TestEulerPower:
    def test_time_zero_is_identity(self):
        x = np.array([3.0, -1.0])
        assert euler_power(LinOp(np.eye(2)), 0.0, 4, x) == pytest.approx(x)

    def test_single_step_negative_identity(self):
        got = euler_power(LinOp(-np.eye(2)), 1.0, 1, [1, 0])
        assert got == pytest.approx([0.5, 0.0])

    def test_first_order_convergence(self):
        # error vs the exponential halves when the step count doubles
        A = -np.eye(2)
        x = np.array([1.0, 0.0])
        target = np.exp(-1.0) * x
        errors = []
        for n in (8, 16, 32):
            approx = euler_power(LinOp(A), 1.0, n, x)
            errors.append(np.max(np.abs(approx - target)))
        assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.3)
        assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.3)

    def test_exponential_formula_ratio_random_stable(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            A -= (1 + np.max(np.abs(np.linalg.eigvals(A)))) * np.eye(n)
            x = rng.standard_normal(n)
            target = scipy.linalg.expm(A) @ x
            e16 = np.max(np.abs(euler_power(LinOp(A), 1.0, 16, x) - target))
            e32 = np.max(np.abs(euler_power(LinOp(A), 1.0, 32, x) - target))
            assert 1.7 <= e16 / e32 <= 2.3

    def test_matrix_form_matches_vector_form(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((3, 3)) - 3 * np.eye(3)
        T = euler_matrix(LinOp(A), 0.8, 16)
        for _ in range(5):
            x = rng.standard_normal(3)
            assert T @ x == pytest.approx(euler_power(LinOp(A), 0.8, 16, x), abs=1e-10)

    def test_matrix_form_rejects_what_vector_form_rejects(self):
        # negative time and a zero step count, before the t = 0 shortcut
        for t, n in ((-1.0, 4), (0.0, 0), (1.0, 0)):
            with pytest.raises(MalformedProblem):
                euler_power(LinOp(-np.eye(2)), t, n, [1.0, 0.0])
            with pytest.raises(MalformedProblem):
                euler_matrix(LinOp(-np.eye(2)), t, n)

    def test_overflow_raises_norm_too_large(self):
        # (1 - 800/10^4)^-10^4 is about e^834: a named NormTooLarge, not an
        # inf with a raw numpy warning (which the test settings make an error)
        with pytest.raises(NormTooLarge, match="euler matrix for t=1, n=10000 overflows"):
            euler_matrix([[800.0]], 1.0, 10000)
        with pytest.raises(NormTooLarge, match="euler power for t=1, n=10000 overflows"):
            euler_power([[800.0]], 1.0, 10000, [1.0])
        # just inside the float range, both stay finite
        assert np.isfinite(euler_matrix([[800.0]], 0.5, 10000)).all()
        assert np.isfinite(euler_power([[800.0]], 0.5, 10000, [1.0])).all()


def loop_is_positive_operator(T, cone, tol):
    """The per-generator loop :func:`is_positive_operator` replaced, kept as
    the oracle for its witnesses."""
    margins = cone.facets @ (T @ cone.generators.T)
    witnesses = []
    for j in range(cone.generators.shape[0]):
        worst = int(np.argmin(margins[:, j]))
        if margins[worst, j] < -tol:
            witnesses.append(
                Witness(
                    point=cone.generators[j].copy(),
                    functional=cone.facets[worst].copy(),
                    margin=float(margins[worst, j]),
                    label=f"T(generator[{j}]) violates facet[{worst}]",
                )
            )
    return witnesses


def loop_is_contractive(T, halfnorm, n_samples, seed, tol):
    """The labelled point list and per-point witness loop that
    :func:`is_contractive` replaced, kept as the oracle for its witnesses."""
    rng = np.random.default_rng(seed)
    points = [(f"generator[{i}]", g.astype(float)) for i, g in enumerate(halfnorm.cone.generators)]
    points += [(f"-generator[{i}]", -g) for i, (_, g) in enumerate(points)]
    points += [(f"sample[{k}]", rng.standard_normal(halfnorm.dim)) for k in range(n_samples)]
    X = np.vstack([x for _, x in points])
    margins = halfnorm.values(X @ T.T) - halfnorm.values(X)
    return [
        Witness(point=x, functional=None, margin=float(margin), label=label)
        for (label, x), margin in zip(points, margins)
        if margin > tol
    ], len(points)


def assert_same_witnesses(got, expected):
    assert [w.label for w in got] == [w.label for w in expected]
    for g, e in zip(got, expected):
        assert np.array_equal(g.point, e.point)
        if e.functional is None:
            assert g.functional is None
        else:
            assert np.array_equal(g.functional, e.functional)
        assert g.margin == e.margin


def oracle_cones(rng):
    pyramid = np.hstack([np.ones((6, 1)), rng.standard_normal((6, 2))])
    return [
        PolyCone.standard_orthant(2),
        PolyCone.standard_orthant(5),
        PolyCone.from_generators([[1, 1], [1, -1]]),
        PolyCone.from_generators(pyramid),
    ]


class TestConfig:
    @pytest.mark.parametrize("grid", [(np.nan,), (0.1, np.nan), (1.0, np.inf), ()])
    def test_non_finite_times_rejected(self, grid):
        with pytest.raises(MalformedProblem, match="finite"):
            SemigroupConfig(t_grid=grid)


class TestPropagators:
    def test_t_major_method_minor_with_the_library_matrices(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((4, 4)) - 3 * np.eye(4)
        cfg = SemigroupConfig(t_grid=(0.0, 0.3, 1.0), euler_steps=5, method="both")
        got = list(propagators(LinOp(A), cfg))
        assert [(t, m) for t, m, _ in got] == [
            (0.0, "euler"), (0.0, "expm"),
            (0.3, "euler"), (0.3, "expm"),
            (1.0, "euler"), (1.0, "expm"),
        ]
        for t, method, T in got:
            if method == "expm":
                expected = matrix_exp(A, t)
                assert np.max(np.abs(T - expected)) <= 1e-12 * np.max(np.abs(expected))
            else:
                assert np.array_equal(T, euler_matrix(LinOp(A), t, 5))

    def test_single_method_and_plain_matrix(self):
        A = np.array([[-2.0, 1.0], [1.0, -2.0]])
        for method in ("euler", "expm"):
            cfg = SemigroupConfig(t_grid=(0.5, 2.0), method=method)
            got = list(propagators(A, cfg))
            assert [(t, m) for t, m, _ in got] == [(0.5, method), (2.0, method)]


def stencil(n):
    return dirichlet_laplacian(Grid(n)).matrix


def record_matrix_exp(monkeypatch):
    """The times of every ``matrix_exp`` call the semigroup module makes."""
    calls = []

    def recording(A, t=1.0, **kwargs):
        calls.append(t)
        return matrix_exp(A, t, **kwargs)

    monkeypatch.setattr(semigroup, "matrix_exp", recording)
    return calls


def refuse(*args, **kwargs):
    raise AssertionError("this solve path must not run")


class TestChainedExponential:
    """The ``expm`` propagators of a grid come from one exponential at its
    smallest positive time, its cached squares and, off the multiples, one
    exponential of the remainder."""

    @pytest.mark.parametrize("n", [15, 31, 63, 127, 255])
    def test_stencil_matches_the_eigenpair_oracle(self, n):
        got = list(propagators(stencil(n), SemigroupConfig(method="expm")))
        assert [t for t, _, _ in got] == list(DEFAULT_T_GRID)
        for t, _, T in got:
            expected = dirichlet_exp(n, t)
            assert np.max(np.abs(T - expected)) <= 1e-9 * np.max(expected), (n, t)
            assert np.min(T) >= 0.0

    def test_one_exponential_per_grid(self, monkeypatch):
        calls = record_matrix_exp(monkeypatch)
        list(propagators(stencil(63), SemigroupConfig(method="both")))
        assert calls == [0.1]
        # 0.3 / 0.1 and 0.7 / 0.1 fall just short of 3 and 7: rounded up
        list(propagators(stencil(63), SemigroupConfig(t_grid=(0.1, 0.3, 0.7), method="expm")))
        assert calls == [0.1, 0.1]

    def test_random_dense_against_scipy(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            for t, _, T in propagators(A, SemigroupConfig(method="expm")):
                expected = scipy.linalg.expm(t * A)
                assert np.max(np.abs(T - expected)) <= 1e-11 * np.max(np.abs(expected))

    def test_remainder_path(self, monkeypatch):
        calls = record_matrix_exp(monkeypatch)
        rng = np.random.default_rng(28)
        A = rng.standard_normal((5, 5)) - 2.0 * np.eye(5)
        got = list(propagators(A, SemigroupConfig(t_grid=(0.3, 0.7, 1.0), method="expm")))
        # 0.7 = 2 (0.3) + 0.1 and 1.0 = 3 (0.3) + 0.1: the two remainders
        # differ by ulps, so T(0.1) is taken once
        assert calls[0] == 0.3
        assert calls[1:] == pytest.approx([0.1], rel=1e-12)
        for t, _, T in got:
            expected = scipy.linalg.expm(t * A)
            assert np.max(np.abs(T - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_distinct_remainders_get_their_own_exponentials(self, monkeypatch):
        calls = record_matrix_exp(monkeypatch)
        A = np.random.default_rng(29).standard_normal((4, 4))
        got = list(propagators(A, SemigroupConfig(t_grid=(0.3, 0.7, 0.8, 1.0), method="expm")))
        # remainders 0.1, 0.2 and 0.1 again
        assert calls[0] == 0.3
        assert calls[1:] == pytest.approx([0.1, 0.2], rel=1e-12)
        for t, _, T in got:
            expected = scipy.linalg.expm(t * A)
            assert np.max(np.abs(T - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_a_time_beyond_the_largest_power_gets_its_own_exponential(self, monkeypatch):
        # (1e-8, 1): T(1e-8)^(1e8) is off by 2.3e-8 of the largest entry
        calls = record_matrix_exp(monkeypatch)
        A = np.random.default_rng(5).standard_normal((4, 4))
        for tiny in (1e-8, 1e-320):
            cfg = SemigroupConfig(t_grid=(tiny, 1.0), method="expm")
            (_, _, base), (_, _, T) = propagators(A, cfg)
            expected = scipy.linalg.expm(A)
            assert np.max(np.abs(T - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert np.array_equal(base, matrix_exp(A, tiny))
        assert calls == [1e-8, 1.0, 1e-320, 1.0]
        # 2^20 steps is the largest power the chain takes
        calls.clear()
        list(propagators(-np.eye(2), SemigroupConfig(t_grid=(2.0**-20, 1.0), method="expm")))
        assert calls == [2.0**-20]

    def test_time_zero_is_the_identity(self, monkeypatch):
        calls = record_matrix_exp(monkeypatch)
        A = stencil(15)
        got = list(propagators(A, SemigroupConfig(t_grid=(0.0, 0.5), method="expm")))
        assert np.array_equal(got[0][2], np.eye(15))
        assert calls == [0.5]
        (_, _, T), = propagators(A, SemigroupConfig(t_grid=(0.0,), method="expm"))
        assert np.array_equal(T, np.eye(15))
        assert calls == [0.5]

    def test_base_step_above_the_guard_raises_at_the_first_expm(self):
        # ||0.5 A||_inf = 2 * 256^2 exceeds the 1e5 guard of matrix_exp
        it = propagators(stencil(255), SemigroupConfig(t_grid=(0.5, 1.0), method="both"))
        t, method, _ = next(it)
        assert (t, method) == (0.5, "euler")
        with pytest.raises(NormTooLarge):
            next(it)

    def test_yielded_matrices_are_independent(self):
        # writing into one propagator leaves the cached squares intact
        cfg = SemigroupConfig(t_grid=(0.5, 1.0, 2.0), method="expm")
        expected = [T.copy() for _, _, T in propagators(stencil(15), cfg)]
        for (_, _, T), E in zip(propagators(stencil(15), cfg), expected):
            assert np.array_equal(T, E)
            T[:] = -1.0


def dense_lu_euler(A, t, n):
    """Backward Euler through one dense LU, the path of every generator that
    is not tridiagonal."""
    eye = np.eye(A.shape[0])
    return np.linalg.matrix_power(factorized_solver(eye - (t / n) * A)(eye), n)


class TestTridiagonalEuler:
    @pytest.mark.parametrize("n", [3, 15, 255])
    def test_stencil_matches_dense_lu(self, n, monkeypatch):
        A = stencil(n)
        expected = [dense_lu_euler(A, t, 16) for t in DEFAULT_T_GRID]
        monkeypatch.setattr(semigroup, "_checked_inverse", refuse)
        for t, E in zip(DEFAULT_T_GRID, expected):
            T = euler_matrix(LinOp(A), t, 16)
            assert np.max(np.abs(T - E)) <= 1e-12 * np.max(np.abs(E)), (n, t)

    def test_random_nonsymmetric_tridiagonal(self, monkeypatch):
        rng = np.random.default_rng(29)
        cases = []
        for _ in range(20):
            n = int(rng.integers(2, 40))
            A = (np.diag(rng.uniform(-3.0, -1.0, n))
                 + np.diag(rng.standard_normal(n - 1), 1)
                 + np.diag(rng.standard_normal(n - 1), -1))
            cases.append((A, dense_lu_euler(A, 1.0, 8)))
        monkeypatch.setattr(semigroup, "_checked_inverse", refuse)
        for A, E in cases:
            T = euler_matrix(LinOp(A), 1.0, 8)
            assert np.max(np.abs(T - E)) <= 1e-12 * np.max(np.abs(E))

    @pytest.mark.parametrize("A", [np.eye(4), np.ones((3, 3)) / 3.0], ids=["tridiagonal", "dense"])
    def test_singular_step_has_the_euler_message(self, A):
        # (I - 1 A) is singular for both; both paths name the step the same way
        message = "(I - 1 A) is singular (euler step for t=2, n=2)"
        with pytest.raises(SingularMatrix, match=re.escape(message)):
            euler_matrix(LinOp(A), 2.0, 2)

    def test_an_entry_off_the_band_keeps_the_lu_path(self, monkeypatch):
        A = stencil(15).copy()
        A[0, 5] = 1.0
        monkeypatch.setattr(semigroup, "_gtsv", refuse)
        assert np.array_equal(euler_matrix(LinOp(A), 1.0, 16), dense_lu_euler(A, 1.0, 16))


class TestEulerSetUpPerGrid:
    """``propagators`` sets the backward-Euler step up once per grid; each
    time pays one solve, the power and the finiteness check."""

    @staticmethod
    def reference(A, t, n, tridiagonal):
        """``(I - (t/n) A)^-n`` from a fresh public solve of each step."""
        eye, lam = np.eye(A.shape[0]), t / n
        if tridiagonal:
            R = tridiagonal_solve(-lam * np.diagonal(A, -1), 1.0 - lam * np.diagonal(A),
                                  -lam * np.diagonal(A, 1), eye)
        else:
            R = np.linalg.inv(eye - lam * A)
        return np.linalg.matrix_power(R, n)

    @pytest.mark.parametrize("tridiagonal", [True, False], ids=["tridiagonal", "dense"])
    def test_bit_identical_to_euler_matrix(self, tridiagonal):
        A = stencil(15) if tridiagonal else (
            np.random.default_rng(44).uniform(0.0, 1.0, (6, 6)) - 4.0 * np.eye(6))
        cfg = SemigroupConfig(t_grid=(0.0, 0.1, 0.5, 1.0, 2.0, 5.0), method="euler")
        got = list(propagators(A, cfg))
        assert [t for t, _, _ in got] == list(cfg.t_grid)
        for t, _, T in got:
            assert np.array_equal(T, euler_matrix(A, t, cfg.euler_steps)), t
        for t, _, T in got[1:]:
            assert np.array_equal(T, self.reference(A, t, cfg.euler_steps, tridiagonal)), t

    def test_one_band_test_per_grid(self, monkeypatch):
        calls = []
        band = semigroup._is_tridiagonal
        monkeypatch.setattr(semigroup, "_is_tridiagonal", lambda A: calls.append(1) or band(A))
        list(propagators(stencil(15), SemigroupConfig(method="both")))
        assert len(calls) == 1
        list(propagators(stencil(15), SemigroupConfig(method="expm")))
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["euler", "expm"])
    def test_time_zero_is_a_fresh_writable_identity(self, method):
        A = stencil(15)
        cfg = SemigroupConfig(t_grid=(0.0, 0.0, 1.0), method=method)
        (_, _, first), (_, _, second), (_, _, T) = propagators(A, cfg)
        assert first is not second
        for I in (first, second):
            assert np.array_equal(I, np.eye(15)) and I.flags.writeable
        first[:] = 7.0
        assert np.array_equal(second, np.eye(15))
        (_, _, E), = propagators(A, SemigroupConfig(t_grid=(1.0,), method=method))
        assert np.array_equal(T, E)

    def test_written_propagators_leave_the_next_step_alone(self):
        A = stencil(15)
        cfg = SemigroupConfig(t_grid=(0.0, 0.5, 1.0), method="euler")
        for t, _, T in propagators(A, cfg):
            assert np.array_equal(T, euler_matrix(A, t, cfg.euler_steps))
            T[:] = -1.0

    @pytest.mark.parametrize("A", [np.eye(4), np.ones((3, 3)) / 3.0], ids=["tridiagonal", "dense"])
    def test_singular_step_has_the_euler_message(self, A):
        cfg = SemigroupConfig(t_grid=(0.5, 2.0), euler_steps=2, method="euler")
        it = propagators(A, cfg)
        next(it)
        message = "(I - 1 A) is singular (euler step for t=2, n=2)"
        with pytest.raises(SingularMatrix, match=re.escape(message)):
            next(it)


def dense_lu_resolvent(A, lam):
    eye = np.eye(A.shape[0])
    return factorized_solver(eye - lam * A)(eye)


def assert_close(got, expected):
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def resolvent_users(A, monkeypatch):
    """What each user of the resolvent gives for ``A``: ``resolvent_apply``
    at lam = 0.3, ``euler_power`` and ``euler_matrix`` at t = 1 in 16
    steps, and the matrix ``check_resolvent_contractivity`` tests at 0.3."""
    n = A.shape[0]
    x = np.linspace(1.0, 2.0, n)
    seen = []
    contractive = semigroup.is_contractive
    monkeypatch.setattr(semigroup, "is_contractive",
                        lambda T, *args, **kwargs: seen.append(T) or contractive(T, *args, **kwargs))
    cone = PolyCone.standard_orthant(n)
    check_resolvent_contractivity(LinOp(A), cone, cone.certify_functional(np.ones(n)), 0.3, 10, 0)
    return {
        "resolvent_apply": resolvent_apply(LinOp(A), 0.3, x),
        "euler_power": euler_power(LinOp(A), 1.0, 16, x),
        "euler_matrix": euler_matrix(LinOp(A), 1.0, 16),
        "check_resolvent_contractivity": seen[0],
    }


def dense_lu_users(A):
    x = np.linspace(1.0, 2.0, A.shape[0])
    E = np.linalg.matrix_power(dense_lu_resolvent(A, 1.0 / 16), 16)
    R = dense_lu_resolvent(A, 0.3)
    return {"resolvent_apply": R @ x, "euler_power": E @ x, "euler_matrix": E,
            "check_resolvent_contractivity": R}


class TestOneResolvent:
    """Every user of ``(I - lam A)^-1`` takes the tridiagonal solve for a
    tridiagonal ``A`` from 3 x 3 up and the dense inverse otherwise."""

    @pytest.mark.parametrize("n", [3, 15])
    def test_tridiagonal_generator_skips_the_lu(self, n, monkeypatch):
        A = stencil(n)
        expected = dense_lu_users(A)
        monkeypatch.setattr(semigroup, "_checked_inverse", refuse)
        got = resolvent_users(A, monkeypatch)
        for name, value in got.items():
            assert_close(value, expected[name])

    def test_two_by_two_generator_takes_the_dense_path(self, monkeypatch):
        # every 2 x 2 matrix is tridiagonal: the band says nothing there
        A = stencil(2)
        expected = dense_lu_users(A)
        monkeypatch.setattr(semigroup, "_gtsv", refuse)
        got = resolvent_users(A, monkeypatch)
        for name, value in got.items():
            assert_close(value, expected[name])

    def test_an_entry_off_the_band_keeps_the_lu_path(self, monkeypatch):
        A = stencil(15).copy()
        A[0, 5] = 1.0
        expected = dense_lu_users(A)
        monkeypatch.setattr(semigroup, "_gtsv", refuse)
        got = resolvent_users(A, monkeypatch)
        for name, value in got.items():
            assert_close(value, expected[name])


def count_propagators(monkeypatch):
    """Patch ``semigroup.propagators`` with a wrapper that records, per
    call, the ``(t, method)`` of every propagator it yields."""
    calls = []
    original = semigroup.propagators

    def counted(op, cfg):
        order = []
        calls.append(order)
        for t, method, T in original(op, cfg):
            order.append((t, method))
            yield t, method, T

    monkeypatch.setattr(semigroup, "propagators", counted)
    return calls


def grid_pipelines():
    """The pipelines that loop over the time grid, on the Metzler instance
    of the orthant in R^2, and the Dirichlet checks at N = 7."""
    cone = PolyCone.standard_orthant(2)
    op = LinOp(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    phi = cone.certify_functional([1, 1])
    phis = [cone.certify_functional(f) for f in cone.facets]
    cfg = SemigroupConfig(t_grid=(0.0, 0.5, 1.0), euler_steps=8, method="both")
    return {
        "semigroup_contractivity": lambda: check_semigroup_contractivity(op, cone, phi, cfg, 20, 0),
        "semigroup_positivity": lambda: check_semigroup_positivity(op, phis, cone, cfg, 20, 0),
        "dirichlet_checks": lambda: run_dirichlet_checks(Grid(7), cfg),
    }


class TestOneGridLoop:
    @pytest.mark.parametrize("name", list(grid_pipelines()))
    def test_one_call_in_propagator_order(self, name, monkeypatch):
        calls = count_propagators(monkeypatch)
        rep = grid_pipelines()[name]()
        assert len(calls) == 1
        per_propagator = [(s.data["t"], s.data["method"]) for s in rep.subreports if "t" in s.data]
        checks = 2 if name == "dirichlet_checks" else 1
        assert per_propagator == [key for key in calls[0] for _ in range(checks)]

    def test_resolvent_pipeline_builds_no_propagator(self, orthant2, monkeypatch):
        calls = count_propagators(monkeypatch)
        phi = orthant2.certify_functional([1, 1])
        check_resolvent_contractivity(LinOp(-np.eye(2)), orthant2, phi, 0.5, 10, 0)
        assert calls == []


def semigroup_pipelines():
    """The three semigroup pipelines on the orthant in R^2, with positivity
    also on a family that is not total, and contractivity also on a
    generator that is not dissipative."""
    cone = PolyCone.standard_orthant(2)
    op = LinOp(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    phi = cone.certify_functional([1, 1])
    phis = [cone.certify_functional(f) for f in cone.facets]
    cfg = SemigroupConfig(t_grid=(0.5, 1.0), euler_steps=8, method="both")
    return {
        "resolvent": lambda: check_resolvent_contractivity(op, cone, phi, 0.5, 20, 0),
        "contractivity": lambda: check_semigroup_contractivity(op, cone, phi, cfg, 20, 0),
        "positivity": lambda: check_semigroup_positivity(op, phis, cone, cfg, 20, 0),
        "positivity, not total": lambda: check_semigroup_positivity(op, [phi], cone, cfg, 20, 0),
        "vacuous": lambda: check_semigroup_contractivity(
            LinOp(np.ones((2, 2))), cone, phi, cfg, 20, 0),
    }


class TestOneVerdictRule:
    @pytest.mark.parametrize("name", list(semigroup_pipelines()))
    def test_every_subreport_has_a_role(self, name):
        rep = semigroup_pipelines()[name]()
        assert rep.subreports
        for sub in rep.subreports:
            assert sub.data["role"] in ("hypothesis", "conclusion"), sub.name
        roles = [sub.data["role"] for sub in rep.subreports]
        assert roles == sorted(roles, reverse=True)  # hypotheses first

    def test_not_total_family_is_one_tagged_hypothesis(self):
        rep = semigroup_pipelines()["positivity, not total"]()
        assert [s.data["role"] for s in rep.subreports] == ["hypothesis"]
        assert rep.tolerance == 0.0 and rep.samples_used == 0

    def test_every_conclusion_is_read(self):
        # a failed conclusion fails the implication wherever it stands in the list
        notes = {"vacuous": "v", "fails": "f", "holds": "h"}
        for verdicts in (["fails", "holds"], ["holds", "fails"]):
            rep = semigroup._compose("x", [Report(name="hypothesis", verdict="holds")],
                                     [Report(name=v, verdict=v) for v in verdicts], 0.0, notes)
            assert rep.verdict == "fails" and rep.notes == ["f"], verdicts


def generic_twin(cone):
    """The same cone with the orthant shortcut off, so that every check
    forms its generator and facet products."""
    twin = PolyCone(cone.generators, cone.facets)
    assert "_orthant" in vars(twin)  # the flag PolyCone.margins reads
    twin._orthant = False
    return twin


def assert_same_report(got, expected):
    assert got.verdict == expected.verdict
    assert_same_witnesses(got.witnesses, expected.witnesses)
    assert got.data == expected.data
    assert got.notes == expected.notes


def orthant_inputs(n, rng):
    """A dissipative Metzler generator, its criterion 4 mutant, and their
    exponentials, one of them with a negative entry."""
    A, _ = weighted_dominant_metzler(n, rng)
    mutant = A.copy()
    mutant[0, 1] = -(mutant[0, 1] + 1.0)
    one_negative = matrix_exp(A, 0.5)
    one_negative[n - 1, 0] = -1e-6
    return A, mutant, [matrix_exp(A, 0.5), matrix_exp(mutant, 0.01), one_negative]


class TestOrthantShortcut:
    def test_the_flag(self):
        assert PolyCone.standard_orthant(3)._orthant
        assert PolyCone.standard_orthant(3).dual_cone()._orthant
        assert not PolyCone.from_generators([[1, 1], [1, -1]])._orthant
        # the orthant with its facets in another order takes the generic path
        assert not PolyCone(np.eye(3), np.eye(3)[::-1])._orthant

    def test_margins_are_the_products(self):
        rng = np.random.default_rng(29)
        cones = [PolyCone.standard_orthant(3), PolyCone(np.eye(3), np.eye(3)[::-1]),
                 PolyCone.from_generators([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]])]
        M = rng.standard_normal((3, 3))
        for cone in cones:
            F, G = cone.facets, cone.generators
            np.testing.assert_allclose(cone.margins(M), F @ M @ G.T, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(cone.margins(), F @ G.T)
        np.testing.assert_array_equal(cones[0].margins(M), M)
        with pytest.raises(DimensionMismatch):
            cones[0].margins(np.eye(2))

    def test_positivity_matches_the_generic_products(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 5, 8):
            _, _, (positive, mutant_exp, one_negative) = orthant_inputs(n, rng)
            inputs = [positive, mutant_exp, one_negative,
                      rng.standard_normal((n, n)), rng.integers(-2, 3, (n, n))]
            for cone in (PolyCone.standard_orthant(n), PolyCone.from_generators(np.eye(n))):
                twin = generic_twin(cone)
                for T in inputs:
                    for tol in (1e-9, 1e-12):
                        got = is_positive_operator(T, cone, tol)
                        assert_same_report(got, is_positive_operator(T, twin, tol))
                assert is_positive_operator(positive, cone).verdict == "holds"
                assert is_positive_operator(mutant_exp, cone).verdict == "fails"
                assert is_positive_operator(one_negative, cone).verdict == "fails"

    def test_pod_matches_the_generic_products(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5, 8):
            A, mutant, _ = orthant_inputs(n, rng)
            # x_0 <= 0.5 leaves e_0 outside: the check restricts to the rest
            half = PolyhedralSet(ineq=(-np.eye(n)[:1], [-0.5]))
            ops = [LinOp(A), LinOp(mutant), LinOp(rng.standard_normal((n, n))),
                   LinOp(mutant, domain=half), LinOp(mutant.T, domain=half)]
            for cone in (PolyCone.standard_orthant(n), PolyCone.from_generators(np.eye(n))):
                twin = generic_twin(cone)
                for op in ops:
                    assert_same_report(has_positive_off_diagonal(op, cone),
                                       has_positive_off_diagonal(op, twin))
                assert has_positive_off_diagonal(ops[0], cone).verdict == "holds"
                assert has_positive_off_diagonal(ops[1], cone).verdict == "fails"
            assert "partial" in has_positive_off_diagonal(ops[3], cone).notes[0]


class TestPositiveOperator:
    def test_identity(self, orthant2):
        assert is_positive_operator(np.eye(2), orthant2).verdict == "holds"

    def test_permutation(self, orthant2):
        assert is_positive_operator([[0, 1], [1, 0]], orthant2).verdict == "holds"

    def test_metzler_exponential(self, orthant2):
        E = matrix_exp(np.array([[-2.0, 1.0], [1.0, -2.0]]), 1.0)
        rep = is_positive_operator(E, orthant2, tol=1e-12)
        assert rep.verdict == "holds"

    def test_failure_carries_generator_witness(self, orthant2):
        rep = is_positive_operator([[1.0, 0.0], [0.0, -1.0]], orthant2)
        assert rep.verdict == "fails"
        w = rep.witnesses[0]
        assert w.point == pytest.approx([0, 1])
        assert w.functional == pytest.approx([0, 1])
        assert w.margin == pytest.approx(-1.0)

    def test_exact_on_diamond(self):
        diamond = PolyCone.from_generators([[1, 1], [1, -1]])
        rot = np.array([[np.cos(0.2), -np.sin(0.2)], [np.sin(0.2), np.cos(0.2)]])
        # a slight rotation pushes one ray out of the diamond
        assert is_positive_operator(rot, diamond).verdict == "fails"
        assert is_positive_operator(np.eye(2) * 0.5, diamond).verdict == "holds"

    @pytest.mark.parametrize("tol", [-1e-9, np.nan, np.inf])
    def test_tolerance_outside_zero_to_infinity_rejected(self, orthant2, tol):
        # nan and inf would pass this matrix, which fails at the default tol
        with pytest.raises(MalformedProblem, match="tol"):
            is_positive_operator([[1.0, -1.0], [0.0, 1.0]], orthant2, tol=tol)

    def test_witnesses_match_the_loop_oracle(self):
        rng = np.random.default_rng(25)
        failing = 0
        for cone in oracle_cones(rng):
            for k in range(10):
                # integer entries make facet ties, which must break to the first facet
                shape = (cone.dim, cone.dim)
                T = rng.integers(-2, 3, shape) if k % 2 else rng.standard_normal(shape)
                rep = is_positive_operator(T, cone, tol=1e-9)
                expected = loop_is_positive_operator(T, cone, 1e-9)
                assert_same_witnesses(rep.witnesses, expected)
                assert rep.verdict == ("fails" if expected else "holds")
                failing += bool(expected)
        assert failing >= 30


class TestContractive:
    def test_identity_margins_zero(self, orthant2):
        # the functional gauge states its rows: the verdict is exact, from no sample
        rep = is_contractive(np.eye(2), FunctionalGauge(orthant2, [1, 1]), 50, 0)
        assert rep.verdict == "holds" and rep.samples_used == 0
        assert rep.data["worst_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_half_identity(self, orthant2):
        rep = is_contractive(0.5 * np.eye(2), FunctionalGauge(orthant2, [1, 1]), 50, 0)
        assert rep.passed

    @pytest.mark.parametrize("gauge", [FunctionalGauge, OrderUnitGauge])
    def test_a_margin_just_above_the_tolerance_fails(self, gauge):
        # on the rows of the R^3 orthant with phi or u = 1 the tolerance is CONTRACTIVE_TOL
        g = gauge(PolyCone.standard_orthant(3), np.ones(3))
        for scale, verdict in ((1 + 2 * semigroup.CONTRACTIVE_TOL, "fails"),
                               (1 + semigroup.CONTRACTIVE_TOL / 2, "holds")):
            assert is_contractive(scale * np.eye(3), g).verdict == verdict, scale

    def test_expansion_fails_with_witness(self, orthant2):
        rep = is_contractive(2.0 * np.eye(2), FunctionalGauge(orthant2, [1, 1]), 50, 0)
        assert rep.verdict == "fails"
        assert rep.witnesses

    def test_witnesses_match_the_loop_oracle(self):
        # the gauges with no rows are sampled: the same points, labels and
        # margins as the loop, which puts the negated generators before the
        # samples, so the witnesses compare as sets keyed by label
        rng = np.random.default_rng(26)
        kinds = set()
        for cone in oracle_cones(rng):
            norm = WeightedNorm(rng.choice(["l1", "linf"]), rng.uniform(0.5, 2.0, cone.dim))
            gauges = [RegularizedGauge(cone, norm), EuclideanNorm(cone),
                      CanonicalHalfNorm(cone, WeightedNorm("linf", norm.weights))]
            for seed, gauge in enumerate(gauges):
                T = 2.0 * rng.standard_normal((cone.dim, cone.dim))
                rep = is_contractive(T, gauge, n_samples=30, seed=seed)
                expected, n_points = loop_is_contractive(T, gauge, 30, seed, 1e-8)
                assert expected and rep.verdict == "fails"
                key = {w.label: w for w in expected}
                assert {(w.label, w.point.tobytes()) for w in rep.witnesses} == {
                    (w.label, w.point.tobytes()) for w in expected}
                for w in rep.witnesses:
                    assert w.margin == key[w.label].margin
                assert rep.samples_used == n_points
                kinds.update(w.label.split("[")[0] for w in expected)
        assert kinds == {"generator", "-generator", "sample"}

    def test_regular_contractive_positive_operator(self, orthant2):
        # positive operator contractive for the ambient norm stays
        # contractive for the regularized majorant gauge
        rng = np.random.default_rng(23)
        norm = WeightedNorm.sup(2)
        gauge = RegularizedGauge(orthant2, norm)
        for _ in range(10):
            T = rng.uniform(0, 0.5, size=(2, 2))  # row sums < 1, entrywise >= 0
            rep = is_contractive(T, gauge, n_samples=40, seed=1)
            assert rep.passed, rep.witnesses


class TestResolventContractivityPipeline:
    def test_negative_identity(self, orthant2):
        phi = orthant2.certify_functional([1, 1])
        rep = check_resolvent_contractivity(LinOp(-np.eye(2)), orthant2, phi, 1.0, 50, 0)
        assert rep.verdict == "holds"

    def test_metzler_instance(self, orthant2):
        phi = orthant2.certify_functional([1, 1])
        op = LinOp(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        rep = check_resolvent_contractivity(op, orthant2, phi, 0.5, 100, 1)
        assert rep.verdict == "holds"
        names = [s.name for s in rep.subreports]
        assert any(n.startswith("hypothesis") for n in names)
        assert any(n.startswith("conclusion") for n in names)

    def test_non_dissipative_reports_vacuous(self, orthant2):
        phi = orthant2.certify_functional([1, 1])
        op = LinOp(np.array([[1.0, 1.0], [1.0, 1.0]]))
        rep = check_resolvent_contractivity(op, orthant2, phi, 0.1, 100, 0)
        assert rep.verdict == "vacuous"
        hyp = next(s for s in rep.subreports if s.name.startswith("hypothesis"))
        assert hyp.verdict == "fails"

    def test_resolvent_suite_50_instances(self):
        """Seeded dissipative instances: no contractivity witness may exist."""
        rng = np.random.default_rng(4242)
        for k in range(50):
            n = int(rng.integers(2, 6))
            A, phi = weighted_dominant_metzler(n, rng)
            cone = PolyCone.standard_orthant(n)
            gauge = FunctionalGauge(cone, phi)
            for lam in (0.1, 0.5, 1.0):
                eye = np.eye(n)
                R = np.linalg.solve(eye - lam * A, eye)
                rep = is_contractive(R, gauge, n_samples=20, seed=k)
                assert rep.verdict != "fails", (k, lam, rep.witnesses[0].margin)


class TestSemigroupPositivityPipeline:
    def test_zero_operator_identity_semigroup(self, orthant2):
        phis = [orthant2.certify_functional(f) for f in orthant2.facets]
        cfg = SemigroupConfig(t_grid=(0.0, 1.0), method="both")
        rep = check_semigroup_positivity(LinOp(np.zeros((2, 2))), phis, orthant2, cfg, 20, 0)
        conclusions = [s for s in rep.subreports if s.data.get("role") == "conclusion"]
        assert conclusions and all(s.verdict == "holds" for s in conclusions)

    def test_dense_euler_rounding_is_not_a_counterexample(self):
        # trial 261 of this draw: pivoted LU leaves -2.2e-17 in the Euler
        # matrix where the exact entry of the Metzler resolvent is 0
        rng = np.random.default_rng(0)
        for _ in range(262):
            n = int(rng.integers(3, 7))
            A = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.4)
            A -= np.diag(A.sum(axis=1) + rng.uniform(0, 2, n))
        assert n == 5 and is_metzler(A)
        K = PolyCone.standard_orthant(n)
        assert is_positive_operator(euler_matrix(A, 1.0, 1), K).verdict == "holds"
        phis = [K.certify_functional(f) for f in K.facets]
        cfg = SemigroupConfig(t_grid=(0.5, 1.0), euler_steps=1, method="euler")
        rep = check_semigroup_positivity(LinOp(A), phis, K, cfg, 20, 0)
        conclusions = [s for s in rep.subreports if s.data.get("role") == "conclusion"]
        assert len(conclusions) == 2 and all(s.verdict == "holds" for s in conclusions)
        assert rep.verdict != "fails"

    def test_metzler_all_positive(self, orthant2):
        phis = [orthant2.certify_functional(f) for f in orthant2.facets]
        cfg = SemigroupConfig(t_grid=(0.1, 1.0, 5.0), method="both")
        op = LinOp(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        rep = check_semigroup_positivity(op, phis, orthant2, cfg, 30, 0)
        conclusions = [s for s in rep.subreports if s.data.get("role") == "conclusion"]
        assert len(conclusions) == 6
        assert all(s.verdict == "holds" for s in conclusions)

    def test_negative_offdiagonal_fails_early(self, orthant2):
        phis = [orthant2.certify_functional(f) for f in orthant2.facets]
        cfg = SemigroupConfig(t_grid=(0.01,), method="expm")
        op = LinOp(np.array([[-2.0, -0.5], [1.0, -2.0]]))
        rep = check_semigroup_positivity(op, phis, orthant2, cfg, 30, 0)
        conclusions = [s for s in rep.subreports if s.data.get("role") == "conclusion"]
        assert any(s.verdict == "fails" for s in conclusions)
        hyps = [s for s in rep.subreports if "dissipative" in s.name]
        assert any(s.verdict == "fails" for s in hyps)

    def test_non_total_family_is_vacuous(self, orthant2):
        phis = [orthant2.certify_functional([1, 1])]
        rep = check_semigroup_positivity(
            LinOp(-np.eye(2)), phis, orthant2, SemigroupConfig(t_grid=(1.0,)), 10, 0
        )
        assert rep.verdict == "vacuous"


class TestSemigroupContractivityPipeline:
    def test_contractivity_along_time_grid(self):
        """Euler-built T(t) stays contractive for dissipative instances."""
        rng = np.random.default_rng(77)
        for k in range(10):
            n = int(rng.integers(2, 5))
            A, phi = weighted_dominant_metzler(n, rng)
            cone = PolyCone.standard_orthant(n)
            cfg = SemigroupConfig(t_grid=(0.5, 1.0), euler_steps=16, method="both")
            rep = check_semigroup_contractivity(LinOp(A), cone, phi_dual(cone, phi), cfg, 25, k)
            assert rep.verdict == "holds", rep.notes
            for sub in rep.subreports:
                if sub.data.get("role") == "conclusion":
                    assert sub.data["worst_margin"] <= 1e-6


def phi_dual(cone, phi):
    return cone.certify_functional(phi)


class TestConfigValidation:
    def test_unsorted_grid_rejected(self):
        with pytest.raises(MalformedProblem):
            SemigroupConfig(t_grid=(1.0, 0.5))

    def test_negative_time_rejected(self):
        with pytest.raises(MalformedProblem):
            SemigroupConfig(t_grid=(-1.0,))

    @pytest.mark.parametrize("steps", [0, 2**20 + 1, 2.5, True])
    def test_euler_steps_must_be_an_integer_in_range(self, steps):
        with pytest.raises(MalformedProblem, match="euler_steps"):
            SemigroupConfig(euler_steps=steps)

    def test_numpy_integer_steps_accepted(self):
        assert SemigroupConfig(euler_steps=np.int64(4)).euler_steps == 4

    def test_bad_method_rejected(self):
        with pytest.raises(MalformedProblem):
            SemigroupConfig(method="magic")
