"""Grid example: stencil, closed-form resolvent, convergence, pipelines."""

import numpy as np
import pytest

import conesemi.semigroup as semigroup
from conesemi.cone import PolyCone
from conesemi.dirichlet import (
    RHS_CASES,
    Grid,
    _unit_gauge_report,
    convergence_study,
    dirichlet_laplacian,
    fd_resolvent,
    format_convergence_table,
    order_witnesses,
    resolvent_closed_form,
    run_dirichlet_checks,
)
from conesemi.dissipativity import LinOp, has_positive_off_diagonal, is_metzler
from conesemi.errors import DimensionMismatch, MalformedProblem
from conesemi.numerics import linear_solve, matrix_exp
from conesemi.semigroup import SemigroupConfig, propagators
from oracles import (
    max_principle_loop,
    max_principle_margin,
    positive_part_growth,
    positive_part_loop,
)


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

    @pytest.mark.parametrize("n", [15, 63, 255])
    def test_peclet_stencil_is_pod_exactly_up_to_one(self, n):
        # central differences for u'' - beta u' have off-diagonal entries
        # (1/h^2)(1 +- Pe): Metzler, so POD on the orthant, exactly when Pe <= 1
        inv_h2 = 1.0 / Grid(n).h ** 2
        orthant = PolyCone.standard_orthant(n)
        for pe, verdict in ((1.0, "holds"), (1.0 + 1e-12, "fails")):
            A = (np.diag(np.full(n - 1, inv_h2 * (1.0 + pe)), -1) - 2.0 * inv_h2 * np.eye(n)
                 + np.diag(np.full(n - 1, inv_h2 * (1.0 - pe)), 1))
            rep = has_positive_off_diagonal(LinOp(A), orthant)
            assert rep.verdict == verdict and is_metzler(A) == (verdict == "holds")
            assert [w.label for w in rep.witnesses] == (
                [f"pair(g[{i + 1}], f[{i}])" for i in range(n - 1)] if verdict == "fails" else [])

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


class TestBlockedCrossCheck:
    """The cross-check solves every case of ``RHS_CASES`` in one block per
    grid, with the same arithmetic per column as one solve per case."""

    @pytest.mark.parametrize("n", [7, 15, 255])
    def test_bit_identical_to_the_per_case_loop(self, n):
        import conesemi.dirichlet as dirichlet

        rep = dirichlet._cross_check_report(Grid(n))
        for label, rhs in RHS_CASES.items():
            rows = convergence_study([n, 2 * n + 1], rhs)
            assert rep.data[label] == {"sup_error": rows[0]["sup_error"],
                                       "refined_sup_error": rows[1]["sup_error"],
                                       "ratio": rows[1]["ratio"]}
        assert rep.verdict == "holds" and not rep.witnesses

    @pytest.mark.parametrize("n", [2, 7, 15, 255])
    def test_block_columns_equal_single_solves(self, n):
        g = Grid(n)
        cases = [np.ones(n), np.sin(np.pi * g.nodes), g.nodes * (1.0 - g.nodes)]
        Y = np.column_stack(cases)
        fd, closed = fd_resolvent(g, Y), resolvent_closed_form(g, Y)
        assert fd.shape == closed.shape == (n, 3)
        for j, y in enumerate(cases):
            assert np.array_equal(fd[:, j], fd_resolvent(g, y))
            assert np.array_equal(closed[:, j], resolvent_closed_form(g, y))

    def test_block_of_the_wrong_height_rejected(self):
        for solve in (fd_resolvent, resolvent_closed_form):
            with pytest.raises(DimensionMismatch):
                solve(Grid(7), np.ones((8, 2)))


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

    def test_window_follows_the_grids_spacing(self):
        # a second-order error ratio is (h_prev/h)^2: 16 from N = 15 to 63,
        # 1/16 back, each judged in its own window [7/8, 9/8] times that
        for sizes, expected in (([15, 63], 16.0), ([63, 15], 1 / 16)):
            rows = convergence_study(sizes, lambda t: np.ones_like(t))
            assert abs(rows[1]["ratio"] - expected) <= expected / 16
            assert order_witnesses("constant", rows) == []
            rows[1]["ratio"] = 4.0
            (w,) = order_witnesses("constant", rows)
            assert w.margin == pytest.approx(abs(4.0 - expected) - expected / 8)
            assert w.label == (f"constant: error ratio 4.0 at N={sizes[1]} "
                               f"is not near {expected:g}")

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
        # the exact check against the sampled loop: the stencil holds and no
        # sample violates it; its negative fails, and so does every sample
        # the loop uses (on 2 nodes about a quarter have a negative maximum)
        A = sign * dirichlet_laplacian(Grid(n)).matrix
        used, sampled = max_principle_loop(A, 200, np.random.default_rng(142))
        rep = _unit_gauge_report("max", A, 0.0, 1e-9, exempt_diagonal=True)
        assert used < 200 if n == 2 else used == 200
        assert len(sampled) == (0 if sign > 0 else used)
        assert rep.verdict == ("holds" if sign > 0 else "fails")
        assert bool(rep.witnesses) == bool(sampled) == (rep.data["worst_margin"] > 1e-9)

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
        rep = run_dirichlet_checks(Grid(15), cfg)
        assert rep.passed
        names = {s.name for s in rep.subreports}
        assert "pod" in names
        assert "discrete_maximum_principle" in names
        assert "resolvent_cross_check" in names

    def test_cross_check_data_has_ratio(self):
        rep = run_dirichlet_checks(Grid(15), SemigroupConfig(t_grid=(0.1,), method="expm"))
        cross = next(s for s in rep.subreports if s.name == "resolvent_cross_check")
        for label in ("constant", "sine"):
            assert 3.5 <= cross.data[label]["ratio"] <= 4.5

    def test_positivity_margin_is_the_smallest_entry(self):
        grid = Grid(15)
        A = dirichlet_laplacian(grid)
        cfg = SemigroupConfig(t_grid=(0.1, 1.0), euler_steps=8, method="both")
        rep = run_dirichlet_checks(grid, cfg)
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
        bad = np.eye(7)
        bad[2, 5] = -1e-6
        monkeypatch.setattr(semigroup, "propagators", lambda op, cfg: iter([(0.1, "expm", bad)]))
        rep = run_dirichlet_checks(Grid(7), SemigroupConfig(t_grid=(0.1,)))
        pos = next(s for s in rep.subreports if s.name == "positive[t=0.1,expm]")
        assert rep.verdict == "fails" and pos.verdict == "fails"
        assert [w.label for w in pos.witnesses] == ["T(generator[5]) violates facet[2]"]
        assert pos.witnesses[0].margin == -1e-6

    def test_every_failure_carries_witnesses(self, monkeypatch):
        """A propagator that grows positive parts and a refined grid whose
        error ratio is 2: each failing check names its witnesses."""
        import conesemi.dirichlet as dirichlet

        rows = dirichlet._convergence_rows
        monkeypatch.setattr(
            dirichlet, "_convergence_rows",
            lambda n_values, errors: [r if r["ratio"] is None else {**r, "ratio": 2.0}
                                      for r in rows(n_values, errors)],
        )
        monkeypatch.setattr(semigroup, "propagators",
                            lambda op, cfg: iter([(0.1, "expm", 1.5 * np.eye(7))]))
        rep = run_dirichlet_checks(Grid(7), SemigroupConfig(t_grid=(0.1,)))
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
        rep = run_dirichlet_checks(Grid(7), cfg)
        assert rep.passed


def generator_mutants(n: int) -> dict:
    """Generators that break the maximum principle, from the stencil."""
    A = dirichlet_laplacian(Grid(n)).matrix
    off = A.copy()
    off[3, 4] = -1e-3
    return {"-A": -A, "negative off-diagonal": off, "A + eps I": A + 1e-6 * np.eye(n),
            "1.5 I": 1.5 * np.eye(n)}


def propagator_mutants(n: int) -> dict:
    """Propagators that grow the positive-part sup-norm."""
    T = matrix_exp(dirichlet_laplacian(Grid(n)).matrix, 0.1)
    negative = T.copy()
    negative[2, 5] = -1e-6
    return {"1.5 I": 1.5 * np.eye(n), "one negative entry": negative}


class TestExactChecks:
    """The maximum principle and positive-part contractivity, decided from
    the column minima and row sums, against the sampled loops."""

    @pytest.mark.parametrize("n", [2, 15, 255])
    def test_stencil_holds_without_witnesses(self, n):
        rep = run_dirichlet_checks(Grid(n), SemigroupConfig(method="both"))
        assert rep.verdict == "holds" and rep.samples_used == 0
        exact = [s for s in rep.subreports
                 if s.name == "discrete_maximum_principle"
                 or s.name.startswith("positive_part_contractive[")]
        assert len(exact) == 1 + 2 * len(SemigroupConfig().t_grid)
        for sub in rep.subreports:
            assert sub.verdict == "holds" and not sub.witnesses

    def test_sampling_keywords_are_ignored(self):
        cfg = SemigroupConfig(t_grid=(0.1, 1.0))
        bodies = [run_dirichlet_checks(Grid(15), cfg, n_samples=k, seed=s).to_dict()
                  for k, s in ((100, 0), (3, 7))]
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("name", list(generator_mutants(15)))
    def test_generator_mutants_fail(self, name):
        A = generator_mutants(15)[name]
        rep = _unit_gauge_report("max", A, 0.0, 1e-9, exempt_diagonal=True)
        assert rep.verdict == "fails"
        assert rep.data["worst_margin"] == max(w.margin for w in rep.witnesses)
        for w in rep.witnesses:
            _, margin = max_principle_margin(A, w.point)
            assert margin > 1e-9
            assert w.margin == pytest.approx(margin, rel=1e-12)

    @pytest.mark.parametrize("name", list(propagator_mutants(15)))
    def test_propagator_mutants_fail(self, name, monkeypatch):
        T = propagator_mutants(15)[name]
        monkeypatch.setattr(semigroup, "propagators", lambda op, cfg: iter([(0.1, "expm", T)]))
        rep = run_dirichlet_checks(Grid(15), SemigroupConfig(t_grid=(0.1,)))
        sub = next(s for s in rep.subreports if s.name == "positive_part_contractive[t=0.1,expm]")
        assert rep.verdict == sub.verdict == "fails"
        assert sub.data["worst_margin"] == max(w.margin for w in sub.witnesses)
        for w in sub.witnesses:
            growth = positive_part_growth(T, w.point)
            assert growth > 1e-8
            assert w.margin == pytest.approx(growth, rel=1e-12)

    def test_sampled_failure_implies_exact_failure(self):
        # random near-stencil generators and near-stochastic propagators:
        # whatever the sampled loops refute, the exact checks refute too
        rng = np.random.default_rng(144)
        counts = {"sampled fails": 0, "exact fails only": 0, "both hold": 0}
        for _ in range(150):
            n = int(rng.integers(2, 7))
            off = rng.uniform(-0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(off, 0.0)
            A = off - np.diag(off.sum(axis=1) + rng.uniform(-0.3, 1.0, n))
            T = rng.uniform(-0.1, 1.0, (n, n))
            T *= rng.uniform(0.7, 1.1, (n, 1)) / np.abs(T).sum(axis=1, keepdims=True)
            for M, bound, tol, exempt, loop in (
                (A, 0.0, 1e-9, True, lambda M, r: max_principle_loop(M, 40, r)[1]),
                (T, 1.0, 1e-8, False, lambda M, r: positive_part_loop(M, 40, r)),
            ):
                sampled = loop(M, np.random.default_rng(int(rng.integers(2**31))))
                rep = _unit_gauge_report("check", M, bound, tol, exempt_diagonal=exempt)
                if sampled:
                    assert rep.verdict == "fails"
                    counts["sampled fails"] += 1
                else:
                    counts["exact fails only" if rep.witnesses else "both hold"] += 1
        assert min(counts.values()) > 20, counts
