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
    linear_solve,
    matrix_exp,
    solve_lp,
    subset_blocks,
    tridiagonal_solve,
    vertex_table,
)
from conesemi.semigroup import DEFAULT_T_GRID
from oracles import adaptive_taylor_exp, enumerate_vertices


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

    def test_subset_blocks_are_lexicographic(self, monkeypatch):
        monkeypatch.setattr(numerics, "SUBSET_BLOCK", 4)
        blocks = list(subset_blocks(6, 3))
        assert [b.shape for b in blocks] == [(4, 3)] * 5
        assert [tuple(r) for b in blocks for r in b] == list(itertools.combinations(range(6), 3))
        assert list(subset_blocks(2, 3)) == []


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
        # scipy.linalg is loaded by the first LU factorization, not by the import
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import sys, conesemi\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
            "assert conesemi.linear_solve([[2.0]], [4.0])[0] == 2.0\n"
            "assert 'scipy.linalg' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


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

    def test_metzler_exponential_exactly_nonnegative(self):
        # diagonal shift keeps every float operation nonnegative
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = rng.uniform(0, 2, size=(n, n))
            np.fill_diagonal(A, -rng.uniform(0, 50, size=n))
            E = matrix_exp(A, float(rng.uniform(0.1, 5.0)))
            assert np.min(E) >= 0.0
