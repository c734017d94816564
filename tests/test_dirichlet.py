"""Grid example: stencil, closed-form resolvent, convergence, pipelines."""

import json

import numpy as np
import pytest

import conesemi.semigroup as semigroup
from conesemi.cone import PolyCone
from conesemi.dirichlet import (
    RHS_CASES,
    Grid,
    _cross_check_report,
    _propagator_reports,
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
from conesemi.errors import DimensionMismatch, MalformedProblem, NormTooLarge
from conesemi.numerics import linear_solve, matrix_exp
from conesemi.semigroup import SemigroupConfig, grid_reports, is_positive_operator, propagators
from oracles import (
    array_positivity_report,
    array_propagator_reports,
    array_unit_gauge_report,
    max_principle_loop,
    max_principle_margin,
    positive_part_growth,
    positive_part_loop,
    per_grid_cross_check,
    two_pass_closed_form,
)


class TestGrid:
    def test_spacing(self):
        g = Grid(3)
        assert g.h == pytest.approx(0.25)
        assert g.nodes == pytest.approx([0.25, 0.5, 0.75])

    def test_too_small_rejected(self):
        with pytest.raises(MalformedProblem):
            Grid(1)

    @pytest.mark.parametrize("n", [15.0, 2.5, np.float64(7), True, "15", None])
    def test_non_integer_sizes_rejected(self, n):
        with pytest.raises(MalformedProblem, match="an integer"):
            Grid(n)

    def test_non_integer_sizes_rejected_by_the_studies(self):
        with pytest.raises(MalformedProblem):
            convergence_study([15.0, 31.0], RHS_CASES["sine"])

    @pytest.mark.parametrize("n", [np.int64(7), np.int32(7), np.uint8(7)])
    def test_numpy_integers_accepted(self, n):
        g = Grid(n)
        assert type(g.n_interior) is int and g == Grid(7)
        assert g.h == Grid(7).h and np.array_equal(g.nodes, Grid(7).nodes)
        cfg = SemigroupConfig(t_grid=(0.1,))
        assert run_dirichlet_checks(g, cfg).to_dict() == run_dirichlet_checks(Grid(7), cfg).to_dict()

    def test_a_narrow_integer_does_not_wrap_in_the_refined_grid(self):
        rep = _cross_check_report(Grid(np.uint8(200)))
        assert json.dumps(rep.to_dict()) == json.dumps(_cross_check_report(Grid(200)).to_dict())


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

    @pytest.mark.parametrize("rhs", [lambda t: np.column_stack([t, t]), lambda t: 1.0],
                             ids=["block", "scalar"])
    def test_one_value_per_node(self, rhs):
        # an (n, k) block or a constant is not a right-hand side of the study
        with pytest.raises(MalformedProblem, match="one value per interior node"):
            convergence_study([7, 15], rhs)

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


def separate_reports(T):
    """The two per-propagator reports as separate checks make them."""
    orthant = PolyCone.standard_orthant(T.shape[0])
    return (is_positive_operator(T, orthant, tol=1e-12),
            _unit_gauge_report("", T, 1.0, 1e-8, False))


def one_pass_reports(T):
    """The two per-propagator reports from one pass over ``T``."""
    return _propagator_reports(T, PolyCone.standard_orthant(T.shape[0]))


def assert_same_reports(got, expected):
    """Field for field and bit for bit; ``json`` tells ``-0.0`` from ``0.0``."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        for v, w in zip(a.witnesses, b.witnesses):
            for x, y in ((v.point, w.point), (v.functional, w.functional)):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x.dtype == y.dtype and x.shape == y.shape


def crafted_propagators() -> dict:
    """Propagators at the edges of the one-pass reports."""
    T = matrix_exp(dirichlet_laplacian(Grid(7)).matrix, 0.1)
    top = float(np.max(np.abs(T)))
    cases = {"stencil": T}
    cases["negative entry"] = T.copy()
    cases["negative entry"][2, 5] = -1e-6
    for name, value in (("at the threshold", -1e-12 * top),
                        ("an ulp below it", np.nextafter(-1e-12 * top, -1.0))):
        cases[name] = T.copy()
        cases[name][4, 1] = value
    # the threshold is 3e-12: -2e-12 two columns over is rounding, not a witness
    cases["largest magnitude negative"] = T.copy()
    cases["largest magnitude negative"][0, 3] = -3.0
    cases["largest magnitude negative"][6, 5] = -2e-12
    cases["row sum above 1"] = np.eye(7)
    cases["row sum above 1"][3, 2] = 0.25
    # every column's first smallest entry is -0.0
    cases["-0.0"] = np.eye(7)
    cases["-0.0"][0, 1:] = -0.0
    cases["-0.0"][1, 0] = -0.0
    cases["-0.0 column"] = np.eye(7)
    cases["-0.0 column"][:, 4] = -0.0
    return cases


class TestOnePassPerPropagator:
    """``run_dirichlet_checks`` reads positivity and positive-part
    contractivity off one pass over each propagator; the reports are those
    of the two separate checks, field for field."""

    @pytest.mark.parametrize("n", [15, 31])
    @pytest.mark.parametrize("method", ["euler", "expm"])
    def test_every_propagator_of_the_grid(self, n, method):
        grid = Grid(n)
        cfg = SemigroupConfig(t_grid=(0.0, *SemigroupConfig().t_grid), method=method)
        for _, _, T in propagators(dirichlet_laplacian(grid), cfg):
            assert_same_reports(one_pass_reports(T), separate_reports(T))
        got = run_dirichlet_checks(grid, cfg).subreports[3:]
        expected = grid_reports(dirichlet_laplacian(grid), cfg,
                                ("positive", "positive_part_contractive"), separate_reports)
        assert [s.name for s in got] == [s.name for s in expected]
        assert_same_reports(got, expected)

    @pytest.mark.parametrize("name", list(crafted_propagators()))
    def test_crafted_propagators(self, name):
        T = crafted_propagators()[name]
        got = one_pass_reports(T)
        assert_same_reports(got, separate_reports(T))
        assert_identical(got, oracle_reports(T))
        verdicts = {
            "stencil": ("holds", "holds"),
            "negative entry": ("fails", "fails"),
            "at the threshold": ("holds", "holds"),
            "an ulp below it": ("fails", "holds"),
            "largest magnitude negative": ("fails", "fails"),
            "row sum above 1": ("holds", "fails"),
            "-0.0": ("holds", "holds"),
            "-0.0 column": ("holds", "holds"),
        }
        assert tuple(r.verdict for r in got) == verdicts[name]
        if name == "largest magnitude negative":
            assert [w.label for w in got[0].witnesses] == ["T(generator[3]) violates facet[0]"]

    def test_normtoolarge_surfaces_at_the_first_expm_propagator(self):
        # ||0.5 A||_inf = 2 * 256^2 exceeds the guard of matrix_exp
        with pytest.raises(NormTooLarge):
            run_dirichlet_checks(Grid(255), SemigroupConfig(t_grid=(0.5, 1.0), method="expm"))
        it = propagators(dirichlet_laplacian(Grid(255)), SemigroupConfig(t_grid=(0.0, 0.5, 1.0),
                                                                         method="expm"))
        assert next(it)[:2] == (0.0, "expm")
        with pytest.raises(NormTooLarge):
            next(it)


def assert_identical(got, expected):
    """:func:`assert_same_reports`, and the sign of every float margin and
    ``worst_margin`` checked with ``np.signbit``."""
    assert_same_reports(got, expected)
    for a, b in zip(got, expected):
        floats = [(a.data.get("worst_margin"), b.data.get("worst_margin"))]
        floats += [(v.margin, w.margin) for v, w in zip(a.witnesses, b.witnesses)]
        for x, y in floats:
            assert type(x) is type(y)
            if isinstance(x, float):
                assert x == y and np.signbit(x) == np.signbit(y)
        for v, w in zip(a.witnesses, b.witnesses):
            for x, y in ((v.point, w.point), (v.functional, w.functional)):
                if x is not None:
                    assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def oracle_reports(T):
    return array_propagator_reports(T, PolyCone.standard_orthant(T.shape[0]))


class TestReportsFromTwoScalars:
    """The per-propagator and maximum-principle reports are decided from the
    smallest column minimum and the largest row sum; whole arrays of margins
    are built only for a witness.  Each report is the array-at-a-time
    oracle's, bit for bit, signed zeros included."""

    @pytest.mark.parametrize("n", [2, 3, 15, 31, 63])
    @pytest.mark.parametrize("method", ["euler", "expm"])
    def test_every_propagator(self, n, method):
        cfg = SemigroupConfig(t_grid=(0.0, 0.1, 1.0, 5.0), method=method)
        for _, _, T in propagators(dirichlet_laplacian(Grid(n)), cfg):
            assert_identical(one_pass_reports(T), oracle_reports(T))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_identity_and_reversal(self, n):
        # numpy gives the maximum of n copies of -0.0 and one 0.0 a sign
        # that depends on n: T = I, at t = 0, ties at exactly that
        for T in (np.eye(n), np.eye(n)[::-1].copy()):
            got = one_pass_reports(T)
            assert_identical(got, oracle_reports(T))
            assert [r.verdict for r in got] == ["holds", "holds"]

    def test_signed_zero_ties(self):
        for n in (2, 5, 17, 33):
            for sign in (0.0, -0.0):
                T = np.full((n, n), sign)
                T[:, 0] = 1.0 / n  # row sums exactly 1
                assert_identical(one_pass_reports(T), oracle_reports(T))

    @pytest.mark.parametrize("n", [2, 3, 15, 64])
    def test_maximum_principle(self, n):
        A = dirichlet_laplacian(Grid(n)).matrix
        cases = {"stencil": A, "zero": np.zeros((n, n)), "-0.0": np.full((n, n), -0.0)}
        if n >= 15:
            cases.update(generator_mutants(n))
        for M in cases.values():
            assert_identical([_unit_gauge_report("max", M, 0.0, 1e-9, exempt_diagonal=True)],
                             [array_unit_gauge_report("max", M, 0.0, 1e-9, True)])

    def test_positivity_on_a_pyramid(self):
        cone = PolyCone.from_generators([[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]])
        for T in (np.eye(3), np.diag([0.5, 0.5, 1.0]), np.diag([2.0, 1.0, 1.0]),
                  np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.1, 0.0, 1.0]])):
            margins = cone.margins(T)
            negative = margins < -1e-9 * cone._pair_sizes(T).max()
            worst = np.argmin(margins, axis=0)
            cols = np.arange(worst.size)
            expected = array_positivity_report(cone, worst, margins[worst, cols],
                                               negative[worst, cols], 1e-9)
            assert_identical([is_positive_operator(T, cone)], [expected])


class TestCrossCheckReadsTheRefinedGridOnce:
    """This grid's nodes, right-hand sides and closed-form terms are every
    other row of the refined grid's; the report is the per-grid oracle's."""

    def test_every_size_up_to_300(self):
        for n in range(2, 301):
            got, expected = _cross_check_report(Grid(n)), per_grid_cross_check(Grid(n))
            assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict()), n

    def test_coarse_nodes_are_every_other_refined_node(self):
        for n in range(2, 301):
            assert np.array_equal(Grid(2 * n + 1).nodes[1::2], Grid(n).nodes), n

    @pytest.mark.parametrize("n", [2, 7, 15, 255])
    def test_closed_form_and_study_match_the_two_pass_form(self, n):
        g = Grid(n)
        y = np.column_stack([rhs(g.nodes) for rhs in RHS_CASES.values()])
        assert np.array_equal(resolvent_closed_form(g, y), two_pass_closed_form(g, y))
        assert np.array_equal(resolvent_closed_form(g, y[:, 1]), two_pass_closed_form(g, y[:, 1]))
        rows = convergence_study([n, 2 * n + 1], RHS_CASES["sine"])
        for row in rows:
            g = Grid(row["n_interior"])
            y = np.sin(np.pi * g.nodes)
            assert row["sup_error"] == float(np.max(np.abs(fd_resolvent(g, y)
                                                            - two_pass_closed_form(g, y))))

    def test_run_carries_the_oracle_cross_check(self):
        rep = run_dirichlet_checks(Grid(31), SemigroupConfig(t_grid=(0.1,)))
        cross = next(s for s in rep.subreports if s.name == "resolvent_cross_check")
        assert json.dumps(cross.to_dict()) == json.dumps(per_grid_cross_check(Grid(31)).to_dict())
