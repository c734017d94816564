"""Kernel tests: simplex vs brute-force vertex enumeration, LU, tridiagonal
solves, expm."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conesemi import numerics
from conesemi.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    MalformedProblem,
    NormTooLarge,
    SingularMatrix,
)
from conesemi.numerics import (
    LpProblem,
    distinct_rows,
    factorized_solver,
    linear_solve,
    matrix_exp,
    ordered_rows,
    solve_lp,
    subset_blocks,
    tridiagonal_solve,
    vertex_table,
)
from conesemi.semigroup import DEFAULT_T_GRID, SemigroupConfig, propagators
from oracles import adaptive_taylor_exp, enumerate_vertices, loop_distinct_rows, unflushed_exp


def lp(c, G=None, h=None, A=None, b=None, sense="min"):
    return LpProblem(
        objective=c,
        eq_constraints=(np.atleast_2d(A), b) if A is not None else None,
        ineq_constraints=(np.atleast_2d(G), h) if G is not None else None,
        sense=sense,
    )


class TestSolveLp:
    def test_single_bound(self):
        res = solve_lp(lp([1.0], G=[[1.0]], h=[3.0]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.point == pytest.approx([3.0], abs=1e-9)

    def test_origin_optimal(self):
        res = solve_lp(lp([1.0, 1.0], G=[[1, 0], [0, 1], [1, 1]], h=[0, 0, 0]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.point == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_contradictory_bounds_infeasible(self):
        # x <= -1 and x >= 0
        res = solve_lp(lp([1.0], G=[[-1.0], [1.0]], h=[1.0, 0.0]))
        assert res.status == "infeasible"
        assert res.point is None

    def test_unbounded(self):
        res = solve_lp(lp([-1.0], G=[[1.0]], h=[0.0]))
        assert res.status == "unbounded"

    def test_maximize(self):
        res = solve_lp(lp([1.0, 0.0], G=[[-1, 0], [1, 0], [0, 1], [0, -1]],
                          h=[-2, 0, 0, -1], sense="max"))
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_equality_constraints(self):
        res = solve_lp(lp([1.0, 1.0], A=[[1.0, 1.0]], b=[2.0],
                          G=[[1, 0], [0, 1]], h=[0, 0]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MalformedProblem):
            lp([1.0, 2.0], G=[[1.0]], h=[0.0])
        with pytest.raises(MalformedProblem):
            lp([1.0], G=[[1.0], [2.0]], h=[0.0])

    def test_nan_rejected(self):
        with pytest.raises(MalformedProblem):
            lp([np.nan], G=[[1.0]], h=[0.0])

    def test_deterministic(self):
        problem = lp([1.0, 1.0, 0.0], G=np.vstack([np.eye(3), -np.eye(3)]),
                     h=np.concatenate([np.zeros(3), -np.ones(3)]))
        first = solve_lp(problem)
        second = solve_lp(problem)
        assert first.value == second.value
        assert np.array_equal(first.point, second.point)


class TestEnumerateVertices:
    def test_unit_square(self):
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.array([0.0, 0.0, -1.0, -1.0])
        verts = enumerate_vertices((G, h))
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_standard_simplex_dim3(self):
        G = np.vstack([np.eye(3), -np.ones((1, 3))])
        h = np.array([0.0, 0.0, 0.0, -1.0])
        verts = enumerate_vertices((G, h))
        assert len(verts) == 4

    def test_halfspace_has_no_vertex(self):
        # one constraint in dim 2: no complete active set exists
        assert enumerate_vertices((np.array([[1.0, 0.0]]), np.array([0.0]))) == []

    def test_guard(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_vertices((np.eye(11), np.zeros(11)))

    def test_degenerate_vertex_deduplicated(self):
        # three constraints active at the origin in dim 2
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        h = np.zeros(3)
        verts = enumerate_vertices((G, h))
        assert len(verts) == 1
        assert verts[0] == pytest.approx([0.0, 0.0], abs=1e-12)


class TestVertexTable:
    """The batched enumeration against the loop oracle."""

    def test_random_small_polytopes(self):
        rng = np.random.default_rng(2025)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            G = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
            h = -rng.uniform(0.1, 2.0, G.shape[0])
            expected = enumerate_vertices((G, h))
            table = vertex_table((G, h))
            assert table.shape == (len(expected), n)
            for v in expected:  # same set; the order may differ on rounding ties
                assert np.min(np.max(np.abs(table - v), axis=1)) <= 1e-9

    def test_degenerate_vertex_deduplicated(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        h = np.array([0.0, 0.0, 0.0, -1.0])
        table = vertex_table((G, h))
        assert table == pytest.approx(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), abs=1e-12)

    def test_halfspace_has_no_vertex(self):
        assert vertex_table((np.array([[1.0, 0.0]]), np.array([0.0]))).shape == (0, 2)

    def test_blocks_do_not_change_the_table(self, monkeypatch):
        # C(40, 3) = 9880 and C(24, 4) = 10626 active sets: at least three
        # blocks at the default size, and over a thousand at 7
        rng = np.random.default_rng(2026)
        for n, m in ((3, 40), (4, 24)):
            G = np.vstack([rng.normal(size=(m - 2 * n, n)), np.eye(n), -np.eye(n)])
            h = -rng.uniform(0.1, 2.0, m)
            assert math.comb(m, n) > 2 * numerics.SUBSET_BLOCK
            tables = []
            for block in (7, numerics.SUBSET_BLOCK):
                monkeypatch.setattr(numerics, "SUBSET_BLOCK", block)
                tables.append(vertex_table((G, h)))
            assert tables[0].tobytes() == tables[1].tobytes()
            expected = enumerate_vertices((G, h))
            assert tables[0].shape == (len(expected), n)
            for v in expected:
                assert np.min(np.max(np.abs(tables[0] - v), axis=1)) <= 1e-9

    def test_zero_rows_are_never_active(self):
        # a zero row (the equality <0, u> = 0 of a description at x = 0) makes
        # every active set that holds it singular, without a division by zero
        G = np.vstack([np.eye(3), -np.eye(3), np.zeros((2, 3))])
        h = np.concatenate([np.zeros(3), -np.ones(3), np.zeros(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = vertex_table((G, h))
        expected = enumerate_vertices((G, h))
        assert table.shape == (8, 3) and len(expected) == 8
        for v, w in zip(table, expected):
            assert np.max(np.abs(v - w)) <= 1e-12

    def test_near_repeat_chain_is_compared_with_kept_rows(self):
        # the polytope [0.6e-9, 1.2e-9] with the redundant x >= 0: its three
        # candidates 0, 0.6e-9 and 1.2e-9 are feasible within the tolerance
        # and form a chain, each within 1e-9 of the next; 0.6e-9 repeats 0,
        # and 1.2e-9 is compared with the kept 0 only, so it stays
        G = np.array([[1.0], [1.0], [-1.0]])
        h = np.array([0.0, 0.6e-9, -1.2e-9])
        table = vertex_table((G, h))
        assert table.tobytes() == np.array([[0.0], [1.2e-9]]).tobytes()
        assert len(enumerate_vertices((G, h))) == 2

    def test_held_equality_rows_match_the_oracle(self, monkeypatch):
        # the kernel holds E x = d active in every set; the oracle takes it
        # as the two inequality blocks E x >= d and -E x >= -d
        rng = np.random.default_rng(2027)
        for trial in range(40):
            n = int(rng.integers(2, 5))
            r = int(rng.integers(1, n))
            m = int(rng.integers(1, 6))
            G = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
            h = -rng.uniform(0.1, 2.0, G.shape[0])
            E = rng.normal(size=(r, n))
            d = 0.3 * rng.normal(size=r)
            monkeypatch.setattr(numerics, "SUBSET_BLOCK", 7 if trial % 2 else 2048)
            X = numerics._active_set_vertices(G, h, E, d)
            got = ordered_rows(X[distinct_rows(X, 1e-9 * (1.0 + np.max(np.abs(X), axis=1)))])
            expected = enumerate_vertices((np.vstack([G, E, -E]), np.concatenate([h, d, -d])))
            assert got.shape == (len(expected), n)
            for v in expected:
                assert np.min(np.max(np.abs(got - v), axis=1)) <= 1e-9

    def test_subset_blocks_are_lexicographic(self, monkeypatch):
        monkeypatch.setattr(numerics, "SUBSET_BLOCK", 4)
        blocks = list(subset_blocks(6, 3))
        assert [b.shape for b in blocks] == [(4, 3)] * 5
        assert [tuple(r) for b in blocks for r in b] == list(itertools.combinations(range(6), 3))
        assert list(subset_blocks(2, 3)) == []


class TestDistinctRows:
    """The blocked pairwise de-duplication against the greedy loop."""

    def test_matches_the_greedy_loop(self):
        rng = np.random.default_rng(2027)
        for k, n in ((1, 3), (7, 2), (40, 3), (300, 4), (600, 2)):
            base = rng.standard_normal((k, n))
            picks = rng.integers(0, k, k // 2 + 1)
            jitter = 1e-11 * rng.standard_normal((picks.size, n))
            X = np.vstack([base, base[picks], base[picks] + jitter])
            X = X[rng.permutation(X.shape[0])]
            per_row = 1e-10 * (1.0 + np.max(np.abs(X), axis=1))
            for tol in (1e-10, per_row, 0.5):
                got = distinct_rows(X, tol)
                assert np.array_equal(got, loop_distinct_rows(X, tol))
                assert got.dtype == np.intp and np.all(np.diff(got) > 0)

    def test_exact_repeats_keep_the_first(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert distinct_rows(X, 0.0).tolist() == [0, 1, 4]

    def test_chain_keeps_every_other_row(self):
        # each row within the tolerance of the next, rows two apart are not;
        # a chain longer than one block of 256 rows crosses a block edge
        X = np.arange(601.0)[:, None] * np.array([[0.6, 0.0]])
        got = distinct_rows(X, 1.0)
        assert got.tolist() == list(range(0, 601, 2))
        assert np.array_equal(got, loop_distinct_rows(X, 1.0))

    def test_per_row_tolerance_is_the_later_row_s(self):
        # row 1 is within its own bound of row 0, row 2 is not within its own
        X = np.array([[0.0], [1.0], [2.5]])
        assert distinct_rows(X, np.array([0.0, 1.0, 1.0])).tolist() == [0, 2]
        assert distinct_rows(X, np.array([0.0, 0.5, 2.0])).tolist() == [0, 1]

    def test_empty_input(self):
        assert distinct_rows(np.empty((0, 3)), 1e-9).shape == (0,)
        assert ordered_rows(np.empty((0, 3))).shape == (0, 3)

    def test_ordered_rows_sorts_by_12_decimal_keys_ties_in_input_order(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, -1.0], [0.0, 2.0 + 1e-14], [0.0, 1.0]])
        got = ordered_rows(X)
        assert got.tobytes() == X[[4, 1, 3, 2, 0]].tobytes()


class TestLpAgainstVertexOracle:
    def test_random_bounded_lps(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 9 - n))
            G = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
            h = np.concatenate([rng.normal(size=m) - 1.0, -3 * np.ones(2 * n)])
            c = rng.normal(size=n)
            res = solve_lp(lp(c, G=G, h=h))
            verts = enumerate_vertices((G, h))
            if res.status != "optimal":
                assert not verts
                continue
            best = min(float(c @ v) for v in verts)
            assert res.value == pytest.approx(best, abs=1e-8)
            checked += 1
        assert checked > 150


class TestLinearSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert linear_solve(np.eye(3), b) == pytest.approx(b, abs=1e-14)

    def test_diagonal(self):
        assert linear_solve([[2, 0], [0, 4]], [2, 4]) == pytest.approx([1, 1])

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        b = rng.normal(size=5)
        x = linear_solve(A, b)
        assert np.max(np.abs(A @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))

    def test_multiply_back_property(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = linear_solve(A, b)
            assert np.max(np.abs(A @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linear_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_not_square_rejected(self):
        with pytest.raises(MalformedProblem):
            linear_solve(np.ones((2, 3)), [1.0, 2.0])

    def test_import_leaves_scipy_out(self):
        # dense solves run on numpy; only the tridiagonal solve loads scipy.linalg
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import sys, numpy as np, conesemi\n"
            "from conesemi.numerics import factorized_solver, tridiagonal_solve\n"
            "assert conesemi.linear_solve([[2.0]], [4.0])[0] == 2.0\n"
            "assert np.allclose(factorized_solver([[2.0, 1.0], [1.0, 3.0]])([3.0, 4.0]), 1.0)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
            "assert np.allclose(tridiagonal_solve([1.0], [2.0, 3.0], [1.0], [3.0, 4.0]), 1.0)\n"
            "assert 'scipy.linalg' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


# (M, whether the guard refuses it): exactly singular; a condition number of
# 4e14 and of 1e13, above the 1e12 bound; one of 4e11, below it; a subnormal
# pivot whose inverse holds inf and NaN; and two well-conditioned matrices
GUARD_CASES = [
    (np.ones((2, 2)), True),
    (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), True),
    (np.diag([1e-13, 1.0]), True),
    (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]), False),
    (np.diag([2.0**-1070, 1.0]), True),
    (np.array([[2.0, 1.0], [1.0, 3.0]]), False),
    (np.random.default_rng(37).standard_normal((5, 5)) + 5.0 * np.eye(5), False),
]


class TestInverseGuard:
    """``SingularMatrix`` exactly when LAPACK finds ``M`` singular, its
    inverse is not finite, or ``||M||_1 ||M^-1||_1 > 1e12``; no ``2^k``
    scale of ``M`` changes the verdict."""

    @pytest.mark.parametrize("M, refused", GUARD_CASES)
    def test_verdict_is_the_same_at_every_scale(self, M, refused):
        for k in range(-60, 61):
            try:
                linear_solve(np.ldexp(M, k), np.ones(M.shape[0]))
            except SingularMatrix:
                assert refused, k
            else:
                assert not refused, k

    def test_each_reason_is_reached(self):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(GUARD_CASES[0][0])
        for M in (GUARD_CASES[1][0], GUARD_CASES[2][0]):
            inverse = np.linalg.inv(M)
            assert np.all(np.isfinite(inverse))
            assert np.abs(M).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max() > 1e12
        inverse = np.linalg.inv(GUARD_CASES[4][0])
        assert np.isinf(inverse).any() and np.isnan(inverse).any()
        with pytest.raises(SingularMatrix):
            factorized_solver(GUARD_CASES[4][0])


def dense_tridiagonal(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


class TestTridiagonalSolve:
    def test_random_systems_against_dense_solve(self):
        # small diagonals next to large off-diagonals force row swaps
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 7, 16, 511):
            sub, sup = rng.normal(size=(2, n - 1))
            diag = rng.normal(size=n) * 1e-3
            dense = dense_tridiagonal(sub, diag, sup)
            for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                x = tridiagonal_solve(sub, diag, sup, b)
                assert x.shape == b.shape
                columns = b.reshape(n, -1).T
                expected = np.column_stack([linear_solve(dense, col) for col in columns])
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(x.reshape(n, -1) - expected)) <= 1e-10 * scale

    def test_row_swaps_happen(self):
        # a zero leading pivot needs the swap that gtsv makes
        x = tridiagonal_solve([1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0], [1.0, 2.0, 3.0])
        dense = dense_tridiagonal([1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0])
        assert x == pytest.approx(linear_solve(dense, [1.0, 2.0, 3.0]), rel=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            tridiagonal_solve([1.0], [1.0, 1.0], [1.0], [1.0, 2.0])
        # a pivot of 1e-14, nonzero but below the relative guard
        with pytest.raises(SingularMatrix):
            tridiagonal_solve([1.0, 1.0], [1.0, 1.0 + 1e-14, 1.0], [1.0, 0.0], np.ones((3, 2)))

    def test_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            tridiagonal_solve([1.0], [2.0, 2.0, 2.0], [1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            tridiagonal_solve([1.0], [2.0, 2.0], [1.0], np.ones((3, 1)))
        with pytest.raises(MalformedProblem):
            tridiagonal_solve([], [2.0], [], [1.0])
        with pytest.raises(MalformedProblem):
            tridiagonal_solve([1.0], [2.0, np.nan], [1.0], [1.0, 1.0])


class TestMatrixExp:
    def test_zero_matrix(self):
        assert matrix_exp(np.zeros((3, 3))) == pytest.approx(np.eye(3), abs=1e-15)

    def test_scalar_decay(self):
        E = matrix_exp(np.array([[-1.0]]), 1.0)
        assert E[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_quarter_turn(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])  # cos/sin block at pi/2
        E = matrix_exp(A, np.pi / 2)
        assert np.max(np.abs(E - expected)) <= 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(MalformedProblem):
            matrix_exp(np.eye(2), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(MalformedProblem):
            matrix_exp(np.eye(2), t)

    def test_norm_guard(self):
        with pytest.raises(NormTooLarge):
            matrix_exp(np.eye(2) * 1e6, 1.0)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n))
            t = float(rng.uniform(0.1, 3.0))
            ours = matrix_exp(A, t)
            ref = scipy.linalg.expm(t * A)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(ours - ref)) <= 1e-9 * scale

    def test_large_norm_against_scipy(self):
        # stiff symmetric case, the regime the grid example lives in
        n = 20
        A = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        A *= (n + 1) ** 2
        ours = matrix_exp(A, 1.0)
        ref = scipy.linalg.expm(A)
        assert np.max(np.abs(ours - ref)) <= 1e-9 * max(1.0, float(np.max(np.abs(ref))))

    def test_semigroup_law(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            A /= max(1.0, np.max(np.abs(A).sum(axis=1)))  # ||A||_inf <= 1
            s, t = rng.uniform(0.2, 5.0, size=2)
            total = s + t
            if total * np.max(np.abs(A).sum(axis=1)) > 20:
                continue
            left = matrix_exp(A, s + t)
            right = matrix_exp(A, s) @ matrix_exp(A, t)
            assert np.max(np.abs(left - right)) <= 1e-8

    def test_against_adaptive_taylor_oracle(self):
        # same shift, scaling and squarings; only the Taylor phase differs
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            A = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
            if rng.random() < 0.5:
                A = np.abs(A)
                np.fill_diagonal(A, -rng.uniform(0, 50, size=n))
            t = float(rng.uniform(0.0, 3.0))
            ref = adaptive_taylor_exp(A, t)
            assert np.max(np.abs(matrix_exp(A, t) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dirichlet_laplacian_against_scipy(self):
        # every default time inside the guard, up to ||tA||_inf = 6.6e4
        checked = 0
        for n in (15, 63, 127):
            A = (n + 1) ** 2 * (-2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
            for t in DEFAULT_T_GRID:
                if t * 4 * (n + 1) ** 2 > 1e5:
                    continue
                ref = scipy.linalg.expm(t * A)
                assert np.max(np.abs(matrix_exp(A, t) - ref)) <= 1e-10 * np.max(np.abs(ref))
                checked += 1
        assert checked == 13

    @pytest.mark.parametrize("n", [15, 31, 63, 127, 255])
    def test_stencil_bit_identical_to_the_unflushed_squarings(self, n, monkeypatch):
        # the flush only removes entries whose products vanish in every sum;
        # it runs at every size here, not only where it pays
        monkeypatch.setattr(numerics, "FLUSH_MIN_DIM", 0)
        A = (n + 1) ** 2 * (-2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
        for t in (0.01, 0.3, *DEFAULT_T_GRID):
            if t * 4 * (n + 1) ** 2 > numerics.EXP_MAX_NORM:
                continue
            E = matrix_exp(A, t)
            assert np.array_equal(E, unflushed_exp(A, t)), (n, t)
            assert np.min(E) >= 0.0

    def test_random_bit_identical_to_the_unflushed_squarings(self, monkeypatch):
        monkeypatch.setattr(numerics, "FLUSH_MIN_DIM", 0)
        rng = np.random.default_rng(17)
        for i in range(300):
            n = int(rng.integers(2, 40))
            A = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
            if i % 2:
                A = np.abs(A)
                np.fill_diagonal(A, -rng.uniform(0, 200, size=n))
            t = float(rng.uniform(0.0, 3.0))
            assert np.array_equal(matrix_exp(A, t), unflushed_exp(A, t)), i

    def test_tiny_exponential_keeps_its_relative_accuracy(self, monkeypatch):
        # every entry of exp(A) is below 2e-306: a flush threshold of 2^-511
        # taken absolutely, not relative to the largest entry, zeroes factors
        # that carry half of the result
        monkeypatch.setattr(numerics, "FLUSH_MIN_DIM", 0)
        A = -np.diag(np.linspace(712.0, 716.0, 10))
        A += np.triu(np.random.default_rng(1).uniform(0.0, 10.0, (10, 10)), 1)
        ref = math.exp(-712.0) * scipy.linalg.expm(A + 712.0 * np.eye(10))
        assert 1e-306 < np.max(ref) < 2e-306
        assert np.max(np.abs(matrix_exp(A, 1.0) - ref)) <= 1e-12 * np.max(ref)

    def test_flushed_metzler_exponential_stays_nonnegative(self, monkeypatch):
        # strong decay on a sparse pattern drives entries through the flush
        monkeypatch.setattr(numerics, "FLUSH_MIN_DIM", 0)
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            A = rng.uniform(0, 5, size=(n, n)) * (rng.random((n, n)) < 0.2)
            np.fill_diagonal(A, -rng.uniform(0, 2000, size=n))
            E = matrix_exp(A, float(rng.uniform(0.1, 40.0)))
            assert np.min(E) >= 0.0

    @pytest.mark.parametrize("A", [[[800.0]], [[800.0, 0.0], [0.0, -800.0]]])
    def test_overflow_raises_norm_too_large(self, A):
        # ||A||_inf = 800 is inside the guard, but e^800 is not a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormTooLarge, match="overflow"):
                matrix_exp(A, 1.0)

    def test_overflowing_chain_raises_norm_too_large(self):
        # T(0.1) = e is finite; T(100) = T(0.1)^1000 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormTooLarge, match="overflow"):
                list(propagators([[10.0]], SemigroupConfig(t_grid=(0.1, 100.0), method="expm")))

    def test_metzler_exponential_exactly_nonnegative(self):
        # diagonal shift keeps every float operation nonnegative
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = rng.uniform(0, 2, size=(n, n))
            np.fill_diagonal(A, -rng.uniform(0, 50, size=n))
            E = matrix_exp(A, float(rng.uniform(0.1, 5.0)))
            assert np.min(E) >= 0.0
