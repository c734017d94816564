"""Grid example: stencil, closed-form resolvent, convergence, pipelines."""

import numpy as np
import pytest

from conesemi.dirichlet import (
    Grid,
    _max_principle_report,
    convergence_study,
    dirichlet_laplacian,
    fd_resolvent,
    format_convergence_table,
    resolvent_closed_form,
    run_dirichlet_checks,
)
from conesemi.dissipativity import LinOp, is_metzler
from conesemi.errors import MalformedProblem
from conesemi.numerics import linear_solve, matrix_exp
from conesemi.semigroup import SemigroupConfig, propagators
from oracles import max_principle_loop


class TestGrid:
    def test_spacing(self):
        g = Grid(3)
        assert g.h == pytest.approx(0.25)
        assert g.nodes == pytest.approx([0.25, 0.5, 0.75])

    def test_too_small_rejected(self):
        with pytest.raises(MalformedProblem):
            Grid(1)


class TestLaplacian:
    def test_stencil_n3(self):
        A = dirichlet_laplacian(Grid(3)).matrix
        expected = 16.0 * np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float)
        assert A == pytest.approx(expected)

    def test_metzler(self):
        assert is_metzler(dirichlet_laplacian(Grid(15)).matrix)

    def test_row_sums(self):
        g = Grid(8)
        A = dirichlet_laplacian(g).matrix
        sums = A.sum(axis=1)
        inv_h2 = 1.0 / g.h**2
        assert sums[0] == pytest.approx(-inv_h2)
        assert sums[-1] == pytest.approx(-inv_h2)
        assert sums[1:-1] == pytest.approx(np.zeros(6), abs=1e-9)


class TestClosedFormResolvent:
    def test_zero_rhs_gives_zero(self):
        g = Grid(15)
        assert resolvent_closed_form(g, np.zeros(15)) == pytest.approx(np.zeros(15))

    def test_constant_rhs_midpoint_value(self):
        # x - x'' = 1 with zero boundary: x(t) = 1 - (e^t + e^(1-t))/(1+e)
        g = Grid(31)
        x = resolvent_closed_form(g, np.ones(31))
        t = g.nodes
        analytic = 1.0 - (np.exp(t) + np.exp(1 - t)) / (1 + np.e)
        assert x[15] == pytest.approx(0.1131816, abs=2e-5)
        assert np.max(np.abs(x - analytic)) <= 1e-4  # trapezoid is O(h^2)

    def test_sine_rhs_eigenfunction(self):
        g = Grid(31)
        y = np.sin(np.pi * g.nodes)
        x = resolvent_closed_form(g, y)
        analytic = y / (1 + np.pi**2)
        # quadrature is second order: ~1e-4 at h = 1/32
        assert x[15] == pytest.approx(1 / (1 + np.pi**2), abs=2e-4)
        assert np.max(np.abs(x - analytic)) <= 3e-4

    def test_quadrature_error_shrinks_second_order(self):
        values = []
        for n in (15, 31, 63):
            g = Grid(n)
            x = resolvent_closed_form(g, np.ones(n))
            t = g.nodes
            analytic = 1.0 - (np.exp(t) + np.exp(1 - t)) / (1 + np.e)
            values.append(np.max(np.abs(x - analytic)))
        assert 3.0 <= values[0] / values[1] <= 5.0
        assert 3.0 <= values[1] / values[2] <= 5.0


class TestFdResolvent:
    def test_matches_direct_solve(self):
        # down to the smallest grid and up to the refined grid of N = 255
        for n in (2, 15, 255, 511):
            g = Grid(n)
            A = dirichlet_laplacian(g).matrix
            for y in (np.ones(n), np.sin(np.pi * g.nodes), g.nodes * (1.0 - g.nodes)):
                expected = linear_solve(np.eye(n) - A, y)
                got = fd_resolvent(g, y)
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_invertibility_across_sizes(self):
        for n in (7, 15, 31, 63):
            g = Grid(n)
            fd_resolvent(g, np.ones(n))  # LU must succeed


class TestConvergence:
    def test_ratios_near_four_constant(self):
        rows = convergence_study([15, 31, 63], lambda t: np.ones_like(t))
        assert rows[0]["sup_error"] <= 5e-4
        for row in rows[1:]:
            assert 3.5 <= row["ratio"] <= 4.5

    def test_ratios_near_four_sine(self):
        rows = convergence_study([15, 31, 63], lambda t: np.sin(np.pi * t))
        for row in rows[1:]:
            assert 3.5 <= row["ratio"] <= 4.5

    def test_table_renders(self):
        rows = convergence_study([7, 15], lambda t: np.ones_like(t))
        text = format_convergence_table(rows, label="demo")
        assert "sup-error" in text and "demo" in text


class TestMaximumPrinciple:
    def test_exact_stencil_argument(self):
        # nonnegative interior maximum forces a nonpositive stencil output
        rng = np.random.default_rng(140)
        g = Grid(15)
        A = dirichlet_laplacian(g).matrix
        checked = 0
        for _ in range(300):
            x = rng.standard_normal(15)
            j = int(np.argmax(x))
            if x[j] < 0:
                continue
            assert (A @ x)[j] <= 1e-9
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("n", [2, 31])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_batched_report_matches_the_loop(self, sign, n):
        # the stencil never fails; its negative fails on every sample it
        # uses; on 2 nodes about a quarter of the samples have a negative
        # maximum and are skipped
        A = sign * dirichlet_laplacian(Grid(n)).matrix
        rng_batch, rng_loop = np.random.default_rng(142), np.random.default_rng(142)
        rep = _max_principle_report(LinOp(A), 200, rng_batch)
        used, witnesses = max_principle_loop(A, 200, rng_loop)
        assert rep.samples_used == used > 100
        assert used < 200 if n == 2 else used == 200
        assert len(rep.witnesses) == len(witnesses) == (0 if sign > 0 else used)
        assert rep.verdict == ("inconclusive" if sign > 0 else "fails")
        for got, want in zip(rep.witnesses, witnesses):
            assert got.label == want.label
            assert np.array_equal(got.point, want.point)
            assert got.margin == pytest.approx(want.margin, rel=1e-12)
        # one draw of all samples leaves the generator where the loop does
        assert rng_batch.standard_normal() == rng_loop.standard_normal()

    def test_hat_function_strictly_negative(self):
        g = Grid(15)
        A = dirichlet_laplacian(g).matrix
        hat = np.zeros(15)
        hat[7] = 1.0
        assert (A @ hat)[7] == pytest.approx(-2.0 / g.h**2)


class TestSemigroupPositivity:
    def test_entrywise_nonnegative(self):
        g = Grid(15)
        A = dirichlet_laplacian(g).matrix
        for t in (0.1, 1.0):
            E = matrix_exp(A, t)
            assert np.min(E) >= -1e-12

    def test_positive_part_contractivity(self):
        g = Grid(15)
        A = dirichlet_laplacian(g).matrix
        T = matrix_exp(A, 0.5)
        rng = np.random.default_rng(141)
        for _ in range(100):
            x = rng.standard_normal(15)
            before = np.max(np.maximum(x, 0.0))
            after = np.max(np.maximum(T @ x, 0.0))
            assert after <= before + 1e-8


class TestPipeline:
    def test_full_checks_pass(self):
        cfg = SemigroupConfig(t_grid=(0.1, 1.0), method="expm")
        rep = run_dirichlet_checks(Grid(15), cfg, n_samples=60, seed=0)
        assert rep.passed
        names = {s.name for s in rep.subreports}
        assert "pod" in names
        assert "discrete_maximum_principle" in names
        assert "resolvent_cross_check" in names

    def test_cross_check_data_has_ratio(self):
        rep = run_dirichlet_checks(Grid(15), SemigroupConfig(t_grid=(0.1,), method="expm"),
                                   n_samples=30, seed=0)
        cross = next(s for s in rep.subreports if s.name == "resolvent_cross_check")
        for label in ("constant", "sine"):
            assert 3.5 <= cross.data[label]["ratio"] <= 4.5

    def test_positivity_margin_is_the_smallest_entry(self):
        grid = Grid(15)
        A = dirichlet_laplacian(grid)
        cfg = SemigroupConfig(t_grid=(0.1, 1.0), euler_steps=8, method="both")
        rep = run_dirichlet_checks(grid, cfg, n_samples=20, seed=3)
        positivity = [s for s in rep.subreports if s.name.startswith("positive[")]
        assert [s.name for s in positivity] == [
            "positive[t=0.1,euler]", "positive[t=0.1,expm]",
            "positive[t=1,euler]", "positive[t=1,expm]",
        ]
        for sub, (t, method, T) in zip(positivity, propagators(A, cfg)):
            assert (sub.data["t"], sub.data["method"]) == (t, method)
            assert sub.verdict == "holds"
            assert sub.tolerance == 1e-12
            assert sub.data["worst_margin"] == np.min(T)

    def test_positivity_failure_carries_witnesses(self, monkeypatch):
        """A propagator with a negative entry fails with a generator/facet
        witness at that entry."""
        import conesemi.dirichlet as dirichlet

        bad = np.eye(7)
        bad[2, 5] = -1e-6
        monkeypatch.setattr(dirichlet, "propagators", lambda op, cfg: iter([(0.1, "expm", bad)]))
        rep = run_dirichlet_checks(Grid(7), SemigroupConfig(t_grid=(0.1,)), n_samples=10)
        pos = next(s for s in rep.subreports if s.name == "positive[t=0.1,expm]")
        assert rep.verdict == "fails" and pos.verdict == "fails"
        assert [w.label for w in pos.witnesses] == ["T(generator[5]) violates facet[2]"]
        assert pos.witnesses[0].margin == -1e-6

    def test_every_failure_carries_witnesses(self, monkeypatch):
        """A propagator that grows positive parts and a refined grid whose
        error ratio is 2: each failing check names its witnesses."""
        import conesemi.dirichlet as dirichlet

        study = dirichlet.convergence_study
        monkeypatch.setattr(
            dirichlet, "convergence_study",
            lambda n_values, rhs: [r if r["ratio"] is None else {**r, "ratio": 2.0}
                                   for r in study(n_values, rhs)],
        )
        monkeypatch.setattr(dirichlet, "propagators",
                            lambda op, cfg: iter([(0.1, "expm", 1.5 * np.eye(7))]))
        rep = run_dirichlet_checks(Grid(7), SemigroupConfig(t_grid=(0.1,)), n_samples=10)
        failing = {s.name: s for s in rep.subreports if s.verdict == "fails"}
        assert rep.verdict == "fails"
        assert sorted(failing) == ["positive_part_contractive[t=0.1,expm]", "resolvent_cross_check"]
        for sub in failing.values():
            assert sub.witnesses
            assert all(np.isfinite(w.margin) and w.margin > sub.tolerance for w in sub.witnesses)
        growth = failing["positive_part_contractive[t=0.1,expm]"]
        for w in growth.witnesses:
            assert w.margin == pytest.approx(0.5 * np.max(np.maximum(w.point, 0.0)), rel=1e-12)
        assert [w.margin for w in failing["resolvent_cross_check"].witnesses] == [1.5, 1.5]

    def test_euler_method_also_positive(self):
        cfg = SemigroupConfig(t_grid=(0.5,), euler_steps=8, method="euler")
        rep = run_dirichlet_checks(Grid(7), cfg, n_samples=30, seed=2)
        assert rep.passed
