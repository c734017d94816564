"""Command-line surface: exit codes, witnesses, JSON reports, round-trips."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conesemi.cli import main
from conesemi.errors import ProblemFileError
from conesemi.problemfile import ProblemFile

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(args, capsys=None):
    code = main([str(a) for a in args])
    return code


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "schema_version": 1,
    "cone": {"generators": [[1, 0], [0, 1]]},
}


class TestCheckPod:
    def test_fixture_one_passes(self):
        assert run(["check-pod", "--file", FIXTURES / "example52_matrix1_pod.json",
                    "--quiet"]) == 0

    def test_fixture_two_fails_with_witness(self, capsys):
        code = main(["check-pod", "--file", str(FIXTURES / "example52_matrix2_pod.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness" in out
        assert "[0. 1.]" in out and "[1. 0.]" in out

    def test_malformed_matrix_row_exits_2(self, tmp_path, capsys):
        payload = dict(BASE)
        payload["operator"] = {"matrix": [[1, 1], [1]]}
        code = run(["check-pod", "--file", write(tmp_path, payload), "--quiet"])
        assert code == 2
        assert "operator.matrix" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert run(["check-pod", "--file", "/nonexistent.json", "--quiet"]) == 2

    def test_partial_domain_is_inconclusive(self, tmp_path):
        # the domain leaves out a generator: no witness, but no proof either;
        # the exit code follows report.passed, as check-dissipative's does
        out = tmp_path / "report.json"
        assert run(["check-pod", "--file", FIXTURES / "partial_domain_pod.json",
                    "--json-out", out, "--quiet"]) == 0
        (check,) = json.loads(out.read_text())["checks"]
        assert check["verdict"] == "inconclusive" and check["passed"]
        assert not check["witnesses"] and "partial" in check["notes"][0]


class TestCheckDissipative:
    def test_negative_identity_passes(self, tmp_path):
        payload = dict(BASE)
        payload["halfnorm"] = {"variant": "phi", "phi": [1, 1]}
        payload["operator"] = {"matrix": [[-1, 0], [0, -1]]}
        assert run(["check-dissipative", "--file", write(tmp_path, payload),
                    "--quiet"]) == 0

    def test_functional_gauge_on_an_orthant_leaves_scipy_out(self, tmp_path):
        # a simplicial cone needs no LU solve, so the run never imports scipy
        payload = {
            "schema_version": 1,
            "cone": {"generators": np.eye(3).tolist()},
            "halfnorm": {"variant": "functional", "phi": [1, 2, 3]},
            "operator": {"matrix": [[-2, 1, 0], [0, -2, 1], [1, 0, -2]]},
        }
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        path = str(write(tmp_path, payload))
        script = (
            "import sys, conesemi.cli\n"
            f"argv = ['check-dissipative', '--file', {path!r}, '--quiet']\n"
            "assert conesemi.cli.main(argv) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_fixture_one_fails(self):
        code = run(["check-dissipative", "--file",
                    FIXTURES / "example52_matrix1_dissipative.json", "--quiet"])
        assert code == 1

    def test_fixture_two_passes(self):
        code = run(["check-dissipative", "--file",
                    FIXTURES / "example52_matrix2_dissipative.json", "--quiet"])
        assert code == 0

    def test_nplus_on_non_lattice_cone_exits_2(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "cone": {"generators": [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]},
            "halfnorm": {"variant": "nplus", "norm": {"kind": "linf"}},
            "operator": {"matrix": np.diag([-1.0, -1.0, -1.0]).tolist()},
        }
        code = run(["check-dissipative", "--file", write(tmp_path, payload), "--quiet"])
        assert code == 2
        assert "orthant" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["positive_part", "nplus"])
    @pytest.mark.parametrize("kind", ["l1", "linf"])
    def test_positive_part_on_the_diamond_exits_2(self, tmp_path, capsys, variant, kind):
        # a lattice cone, but not an orthant: there ||x^+|| need not be sublinear
        payload = {
            "schema_version": 1,
            "cone": {"generators": [[1, 1], [1, -1]]},
            "halfnorm": {"variant": variant, "norm": {"kind": kind, "weights": [1.0, 2.0]}},
            "operator": {"matrix": [[-1, 0], [0, -1]]},
        }
        code = run(["check-dissipative", "--file", write(tmp_path, payload), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert all(name in err for name in ("orthant", "functional", "order_unit", "canonical"))


class TestSimulate:
    def test_metzler_fixture_passes(self):
        assert run(["simulate", "--file", FIXTURES / "metzler_positive.json",
                    "--quiet"]) == 0

    def test_negative_offdiagonal_fails(self, capsys):
        code = main(["simulate", "--file", str(FIXTURES / "negative_offdiagonal.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "positive[t=0.01,expm]" in out

    def test_resolvent_fixture_passes(self):
        assert run(["simulate", "--file", FIXTURES / "resolvent_contractive.json",
                    "--quiet"]) == 0

    @pytest.mark.parametrize("fixture", ["metzler_positive.json", "resolvent_contractive.json"])
    def test_two_dimensional_run_leaves_scipy_out(self, fixture):
        # a 2 x 2 resolvent is a dense numpy inverse, so the run never imports scipy
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import sys, conesemi.cli\n"
            f"argv = ['simulate', '--file', {str(FIXTURES / fixture)!r}, '--quiet']\n"
            "assert conesemi.cli.main(argv) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_empty_t_grid_exits_2(self, tmp_path):
        payload = dict(BASE)
        payload["operator"] = {"matrix": [[-1, 0], [0, -1]]}
        payload["phi_set"] = [[1, 0], [0, 1]]
        payload["semigroup"] = {"t_grid": []}
        assert run(["simulate", "--file", write(tmp_path, payload), "--quiet"]) == 2

    def test_overflowing_exponential_exits_2(self, tmp_path, capsys):
        # ||A||_inf = 800 is inside the matrix_exp guard; e^800 is not a float
        payload = dict(BASE)
        payload["operator"] = {"matrix": [[800, 0], [0, -800]]}
        payload["phi_set"] = [[1, 0], [0, 1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["simulate", "--file", write(tmp_path, payload), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert "overflow" in err and "RuntimeWarning" not in err

    def test_overflowing_euler_power_exits_2(self, tmp_path, capsys):
        # (1 - 800/10^4)^-10^4 is about e^834 at t = 1: no float either
        payload = dict(BASE)
        payload["operator"] = {"matrix": [[800, 0], [0, -800]]}
        payload["phi_set"] = [[1, 0], [0, 1]]
        payload["semigroup"] = {"euler_steps": 10000, "method": "euler"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["simulate", "--file", write(tmp_path, payload), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert "overflow" in err and "RuntimeWarning" not in err
        assert "NaN or Inf" not in err

    def test_needs_phi_or_phi_set(self, tmp_path):
        payload = dict(BASE)
        payload["operator"] = {"matrix": [[-1, 0], [0, -1]]}
        assert run(["simulate", "--file", write(tmp_path, payload), "--quiet"]) == 2


class TestRepresent:
    def test_orthant_fixture(self, capsys):
        code = main(["represent", "--file", str(FIXTURES / "represent_orthant.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "weight 2" in out and "weight 3" in out

    def test_diamond_fixture(self):
        assert run(["represent", "--file", FIXTURES / "represent_diamond.json",
                    "--quiet"]) == 0

    def test_boundary_unit_fails(self, tmp_path):
        payload = dict(BASE)
        payload["unit"] = [1, 0]
        payload["phi"] = [1, 1]
        assert run(["represent", "--file", write(tmp_path, payload), "--quiet"]) == 1

    @pytest.mark.parametrize("field", ["unit", "phi"])
    def test_wrong_length_exits_2(self, tmp_path, capsys, field):
        payload = dict(BASE)
        payload["unit"] = [1, 1]
        payload["phi"] = [1, 1]
        payload[field] = [1, 1, 1]
        assert run(["represent", "--file", write(tmp_path, payload), "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDirichletDemo:
    def test_default_flags_pass(self, capsys):
        code = main(["dirichlet-demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sup-error" in out  # convergence tables rendered

    def test_small_run_passes(self):
        assert run(["dirichlet-demo", "--grid-sizes", 7, 15, "--t-grid", 0.1,
                    "--quiet"]) == 0

    def test_single_coarse_grid(self):
        assert run(["dirichlet-demo", "--grid-sizes", 2, "--t-grid", 0.1,
                    "--quiet"]) == 0

    def test_failed_convergence_carries_a_witness(self, tmp_path, monkeypatch):
        import conesemi.cli as cli

        rows = [{"n_interior": 7, "h": 0.125, "sup_error": 1e-3, "ratio": None},
                {"n_interior": 15, "h": 0.0625, "sup_error": 5e-4, "ratio": 2.0}]
        monkeypatch.setattr(cli, "convergence_study", lambda n_values, rhs: rows)
        out = tmp_path / "report.json"
        assert run(["dirichlet-demo", "--grid-sizes", 7, 15, "--t-grid", 0.1,
                    "--json-out", out, "--quiet"]) == 1
        convergence = json.loads(out.read_text())["checks"][:2]
        for check in convergence:
            assert check["verdict"] == "fails"
            assert [(w["margin"], w["label"].split(":")[1]) for w in check["witnesses"]] == [
                (1.5, " error ratio 2.0 at N=15 is not near 4")
            ]

    @pytest.mark.parametrize("sizes, expected", [((15, 63), 16.0), ((63, 15), 1 / 16)])
    def test_grids_that_do_not_halve(self, tmp_path, sizes, expected):
        # h goes from 1/16 to 1/64 or back: the ratio sits near (h_prev/h)^2
        out = tmp_path / "report.json"
        assert run(["dirichlet-demo", "--grid-sizes", *sizes, "--t-grid", 0.1,
                    "--json-out", out, "--quiet"]) == 0
        for check in json.loads(out.read_text())["checks"][:2]:
            assert check["verdict"] == "holds" and not check["witnesses"]
            ratio = check["data"]["rows"][1]["ratio"]
            assert abs(ratio - expected) <= expected / 8

    def test_negative_time_exits_2(self):
        assert run(["dirichlet-demo", "--grid-sizes", 7, "--t-grid", -1.0,
                    "--quiet"]) == 2

    @pytest.mark.parametrize("times", [[0.1, "nan"], ["nan"], ["inf"]])
    def test_non_finite_time_exits_2(self, times, capsys):
        # exit 1 would claim a failed property with a witness
        assert run(["dirichlet-demo", "--grid-sizes", 15, "--t-grid", *times, "--quiet"]) == 2
        assert "t_grid entries must be finite" in capsys.readouterr().err

    def test_tiny_grid_size_exits_2(self):
        assert run(["dirichlet-demo", "--grid-sizes", 1, "--quiet"]) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    def test_sampling_flags_are_refused(self, flag):
        # nothing in the demo, the POD check or a representation is sampled
        for argv in (["dirichlet-demo"],
                     ["check-pod", "--file", str(FIXTURES / "example52_matrix1_pod.json")],
                     ["represent", "--file", str(FIXTURES / "represent_diamond.json")]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "5", "--quiet"])
            assert exc.value.code == 2

    def test_every_grid_is_decided(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["dirichlet-demo", "--grid-sizes", 15, 31, 63, 127, 255,
                    "--json-out", out, "--quiet"]) == 0
        body = json.loads(out.read_text())
        assert body["seed"] is None and body["samples"] is None
        grids = [c for c in body["checks"] if c["name"].startswith("dirichlet_checks[")]
        assert len(grids) == 5
        for check in grids:
            assert check["verdict"] == "holds" and check["samples_used"] == 0


class TestJsonReport:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["check-pod", "--file", FIXTURES / "example52_matrix1_pod.json",
                    "--json-out", out, "--quiet"])
        assert code == 0
        body = json.loads(out.read_text())
        for key in ("schema_version", "tool", "version", "command", "file",
                    "seed", "samples", "exit_code", "checks", "wall_time_s"):
            assert key in body
        assert body["exit_code"] == 0
        assert body["checks"][0]["verdict"] == "holds"

    @pytest.mark.parametrize("command, fixture", [
        ("check-pod", "example52_matrix1_pod.json"),
        ("represent", "represent_diamond.json"),
    ])
    def test_unsampled_commands_report_no_seed(self, tmp_path, monkeypatch, command, fixture):
        # a seed from the environment or the file does not apply to them
        monkeypatch.setenv("CONESEMI_SEED", "not-a-number")
        payload = json.loads((FIXTURES / fixture).read_text())
        payload.update(seed=7, samples=50)
        out = tmp_path / "report.json"
        assert run([command, "--file", write(tmp_path, payload), "--json-out", out,
                    "--quiet"]) == 0
        body = json.loads(out.read_text())
        assert body["seed"] is None and body["samples"] is None

    def test_fixture_reports_validate(self, tmp_path):
        cases = [
            ("check-pod", "example52_matrix1_pod.json"),
            ("check-pod", "example52_matrix2_pod.json"),
            ("check-dissipative", "example52_matrix1_dissipative.json"),
            ("check-dissipative", "example52_matrix2_dissipative.json"),
            ("simulate", "metzler_positive.json"),
            ("simulate", "negative_offdiagonal.json"),
            ("simulate", "resolvent_contractive.json"),
            ("represent", "represent_orthant.json"),
            ("represent", "represent_diamond.json"),
        ]
        for i, (cmd, fixture) in enumerate(cases):
            out = tmp_path / f"report{i}.json"
            run([cmd, "--file", FIXTURES / fixture, "--json-out", out, "--quiet"])
            body = json.loads(out.read_text())
            assert body["schema_version"] == 1
            assert body["command"] == cmd
            assert isinstance(body["checks"], list) and body["checks"]
            for check in body["checks"]:
                assert check["verdict"] in ("holds", "fails", "inconclusive", "vacuous")
                for witness in check["witnesses"]:
                    assert set(witness) == {"point", "functional", "margin", "label"}

    def test_determinism_modulo_wall_time(self, tmp_path):
        bodies = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["check-dissipative", "--file",
                 FIXTURES / "example52_matrix1_dissipative.json",
                 "--seed", 5, "--json-out", out, "--quiet"])
            body = json.loads(out.read_text())
            body.pop("wall_time_s")
            bodies.append(body)
        assert bodies[0] == bodies[1]

    def test_dirichlet_demo_determinism_and_check_names(self, tmp_path):
        bodies = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run(["dirichlet-demo", "--grid-sizes", 7, 15, "--t-grid", 0.1, 1,
                        "--json-out", out, "--quiet"])
            assert code == 0
            body = json.loads(out.read_text())
            body.pop("wall_time_s")
            bodies.append(body)
        assert bodies[0] == bodies[1]
        assert [c["name"] for c in bodies[0]["checks"]] == [
            "convergence[constant]",
            "convergence[sine]",
            "dirichlet_checks[N=7]",
            "dirichlet_checks[N=15]",
        ]


    def test_unwritable_json_out_exits_2(self, tmp_path, capsys):
        code = run(["check-pod", "--file", FIXTURES / "example52_matrix1_pod.json",
                    "--json-out", tmp_path / "missing" / "out.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert "exit: 0" not in captured.out
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: --json-out")


class TestSeedResolution:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONESEMI_SEED", "99")
        out = tmp_path / "report.json"
        run(["check-dissipative", "--file",
             FIXTURES / "example52_matrix2_dissipative.json",
             "--json-out", out, "--quiet"])
        assert json.loads(out.read_text())["seed"] == 99

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONESEMI_SEED", "99")
        out = tmp_path / "report.json"
        run(["check-dissipative", "--file",
             FIXTURES / "example52_matrix2_dissipative.json",
             "--seed", 3, "--json-out", out, "--quiet"])
        assert json.loads(out.read_text())["seed"] == 3

    def test_bad_env_seed_exits_2(self, monkeypatch):
        monkeypatch.setenv("CONESEMI_SEED", "not-a-number")
        assert run(["check-dissipative", "--file",
                    FIXTURES / "example52_matrix2_dissipative.json", "--quiet"]) == 2

    def test_negative_flag_seed_exits_2(self, capsys):
        assert run(["check-dissipative", "--file",
                    FIXTURES / "example52_matrix2_dissipative.json",
                    "--seed", -1, "--quiet"]) == 2
        assert "--seed: expected a nonnegative integer" in capsys.readouterr().err

    def test_negative_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CONESEMI_SEED", "-5")
        assert run(["check-dissipative", "--file",
                    FIXTURES / "example52_matrix2_dissipative.json", "--quiet"]) == 2
        assert "CONESEMI_SEED: expected a nonnegative integer" in capsys.readouterr().err

    def test_negative_file_seed_exits_2(self, tmp_path, capsys):
        payload = json.loads((FIXTURES / "example52_matrix2_dissipative.json").read_text())
        payload["seed"] = -4
        assert run(["check-dissipative", "--file", write(tmp_path, payload), "--quiet"]) == 2
        assert "seed: expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fixture", [
        ("simulate", "metzler_positive.json"),
        ("check-dissipative", "example52_matrix2_dissipative.json"),
    ])
    def test_negative_flag_samples_exits_2(self, capsys, command, fixture):
        assert run([command, "--file", FIXTURES / fixture, "--samples", -1, "--quiet"]) == 2
        assert "--samples: expected a nonnegative integer" in capsys.readouterr().err

    def test_negative_file_samples_exits_2(self, tmp_path, capsys):
        payload = json.loads((FIXTURES / "metzler_positive.json").read_text())
        payload["samples"] = -1
        assert run(["simulate", "--file", write(tmp_path, payload), "--quiet"]) == 2
        assert "samples: expected a nonnegative integer" in capsys.readouterr().err


class TestProblemFileRoundTrip:
    def test_parse_serialize_reparse(self, tmp_path):
        for fixture in FIXTURES.glob("*.json"):
            pf = ProblemFile.load(fixture)
            clone = ProblemFile(pf.to_dict(), source="clone")
            assert clone.raw == pf.raw
            if pf.has("cone"):
                a, b = pf.cone(), clone.cone()
                assert np.array_equal(a.generators, b.generators)
                assert np.array_equal(a.facets, b.facets)
            if pf.has("operator"):
                assert np.array_equal(pf.operator().matrix, clone.operator().matrix)

    def test_located_errors(self):
        with pytest.raises(ProblemFileError, match="schema_version"):
            ProblemFile({"cone": {"generators": [[1, 0], [0, 1]]}})
        with pytest.raises(ProblemFileError, match=r"cone\.generators\[1\]"):
            ProblemFile(
                {"schema_version": 1, "cone": {"generators": [[1, 0], ["x", 1]]}}
            ).cone()
        pf = ProblemFile(
            {
                "schema_version": 1,
                "cone": {"generators": [[1, 0], [0, 1]]},
                "phi_set": [[1, 0], [0, "y"]],
            }
        )
        with pytest.raises(ProblemFileError, match=r"phi_set\[1\]\[1\]"):
            pf.phi_set(pf.cone())

    def test_variant_aliases(self):
        pf = ProblemFile(
            {
                "schema_version": 1,
                "cone": {"generators": [[1, 0], [0, 1]]},
                "halfnorm": {"variant": "phi", "phi": [1, 2]},
            }
        )
        cone = pf.cone()
        gauge = pf.halfnorm(cone)
        assert gauge.variant == "functional"
        assert gauge.value([1, 1]) == pytest.approx(3.0)

    @pytest.mark.parametrize("section, variant, value", [
        ({"variant": "order_unit", "unit": [1, 2]}, "order_unit", 1.0),
        ({"variant": "canonical", "norm": {"kind": "l1", "weights": [1, 2]}}, "canonical", 3.0),
        ({"variant": "regular_gauge"}, "regular_gauge", 1.0),
    ])
    def test_every_gauge_variant_parses(self, section, variant, value):
        # on the orthant each gauge at (1, 1) is the chosen norm of (1, 1)^+
        pf = ProblemFile({**BASE, "halfnorm": section})
        gauge = pf.halfnorm(pf.cone())
        assert gauge.variant == variant
        assert gauge.value([1, 1]) == pytest.approx(value)
        assert gauge.value([-1, -1]) == 0.0
        if variant != "order_unit":
            expected = section.get("norm", {"kind": "linf"})
            assert gauge.norm.kind == expected["kind"]
            assert gauge.norm.weights.tolist() == expected.get("weights", [1.0, 1.0])

    def test_single_lambda_key(self):
        assert ProblemFile({**BASE, "lambda": 2.5}).lambdas() == [2.5]
        assert ProblemFile(BASE).lambdas() == [1.0]
        with pytest.raises(ProblemFileError, match=r"lambdas\[0\]"):
            ProblemFile({**BASE, "lambda": 0}).lambdas()
        with pytest.raises(ProblemFileError, match="lambda"):
            ProblemFile({**BASE, "lambda": "x"}).lambdas()


class TestMalformedInputNeverExitsOne:
    """Exit 1 means a ``fails`` verdict, so a broken input exits 2 with one
    stderr line that names its field, and an unexpected exception exits 2
    with one ``internal error`` line instead of a traceback."""

    def test_integer_beyond_int64_is_a_number(self, tmp_path):
        payload = {**BASE, "operator": {"matrix": [[-2, 1], [1, 10**30]]}}
        assert run(["check-pod", "--file", write(tmp_path, payload), "--quiet"]) == 0

    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        payload = {**BASE, "operator": {"matrix": [[-2, 1], [1, 10**400]]}}
        assert run(["check-pod", "--file", write(tmp_path, payload), "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: operator.matrix[1][1]: number out of the floating-point range"

    @pytest.mark.parametrize("text, message", [
        ('{"schema_version": 1, "seed": ' + "9" * 5000 + "}", "integer string conversion"),
        ('{"schema_version": 1, "cone": ' + "[" * 100000 + "]" * 100000 + "}", "recursion"),
    ])
    def test_json_the_parser_refuses_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "problem.json"
        path.write_text(text)
        assert run(["check-pod", "--file", path, "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: invalid JSON") and message in line

    def test_variant_that_is_not_a_string_exits_2(self, tmp_path, capsys):
        payload = {**BASE, "halfnorm": {"variant": ["functional"]},
                   "operator": {"matrix": [[-2, 1], [1, -2]]}}
        assert run(["check-dissipative", "--file", write(tmp_path, payload), "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: halfnorm.variant: expected a string, got list"

    @pytest.mark.parametrize("field, value, message", [
        ("samples", 10**30, "samples: at most 100000 points"),
        ("semigroup", {"euler_steps": 10**400}, "euler_steps must be from 1 to 1048576"),
        ("semigroup", {"euler_steps": 16.5}, "euler_steps must be from 1 to 1048576"),
    ])
    def test_counts_beyond_their_bound_exit_2(self, tmp_path, capsys, field, value, message):
        payload = json.loads((FIXTURES / "metzler_positive.json").read_text())
        payload[field] = value
        assert run(["simulate", "--file", write(tmp_path, payload), "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert message in line

    def test_flag_samples_beyond_the_bound_exit_2(self, capsys):
        assert run(["simulate", "--file", FIXTURES / "metzler_positive.json",
                    "--samples", 10**30, "--quiet"]) == 2
        assert "samples: at most 100000 points" in capsys.readouterr().err

    def test_weight_with_an_infinite_reciprocal_exits_2(self, tmp_path, capsys):
        payload = json.loads((FIXTURES / "canonical_domain.json").read_text())
        payload["halfnorm"]["norm"]["weights"][0] = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check-dissipative", "--file", write(tmp_path, payload), "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "finite reciprocals" in line

    def test_unexpected_exception_exits_2_with_one_line(self, monkeypatch, capsys):
        from conesemi import cli

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "has_positive_off_diagonal", broken)
        assert run(["check-pod", "--file", FIXTURES / "example52_matrix1_pod.json"]) == 2
        assert capsys.readouterr().err.splitlines() == ["internal error: RuntimeError: boom"]
