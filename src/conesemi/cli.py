"""Command-line front end.

Subcommands read a JSON problem file (see :mod:`conesemi.problemfile`),
dispatch to the certification modules, and print a human-readable report;
``--json-out`` additionally writes the machine-readable report, before any
text.  Exit codes follow the 0/1/2 convention: 0 the checked property
passed, 1 it failed with a printed witness, 2 the input could not be parsed,
the report could not be written, a numerical guard tripped, or the program
hit an internal error, printed as one line and never read as a failed check.
Sampled passes are always labelled as evidence rather than proof, both in
text and in the JSON body.

The ``CONESEMI_SEED`` environment variable overrides the file's ``seed``
field; an explicit ``--seed`` beats both.  Seeds and sample counts must be
nonnegative.  ``check-pod``, ``represent`` and ``dirichlet-demo`` sample
nothing, so they take no ``--seed`` or ``--samples``, and their JSON
reports have ``null`` for both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dirichlet import (
    RHS_CASES,
    Grid,
    convergence_study,
    format_convergence_table,
    order_witnesses,
    run_dirichlet_checks,
)
from .dissipativity import certify_dissipative, has_positive_off_diagonal
from .errors import (ConesemiError, NotOrderUnit, NotPositiveFunctional, NotRepresentable,
                     ProblemFileError)
from .problemfile import ProblemFile
from .report import Report
from .representation import build_state_space, represent_functional
from .semigroup import (
    DEFAULT_T_GRID,
    SemigroupConfig,
    check_resolvent_contractivity,
    check_semigroup_contractivity,
    check_semigroup_positivity,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
# every sampled point is drawn, labelled and kept at once
MAX_SAMPLES = 100_000


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_ERROR
    started = time.perf_counter()
    try:
        code, checks, extra_text = args.handler(args)
    except (ProblemFileError, ConesemiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug, not a verdict: never exit 1 for it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    wall = time.perf_counter() - started

    run_report = {
        "schema_version": 1,
        "tool": "conesemi",
        "version": __version__,
        "command": args.command,
        "file": getattr(args, "file", None),
        "seed": getattr(args, "resolved_seed", None),
        "samples": getattr(args, "resolved_samples", None),
        "exit_code": code,
        "checks": [c.to_dict() for c in checks],
        "wall_time_s": wall,
    }
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(run_report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: --json-out: {exc}", file=sys.stderr)
            return EXIT_ERROR
    if not args.quiet:
        for check in checks:
            _print_report(check)
        for line in extra_text:
            print(line)
        print(f"exit: {code} ({'pass' if code == 0 else 'fail'})")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesemi",
        description="Certify order, dissipativity, and positivity properties "
        "of matrices over polyhedral cones.",
    )
    parser.add_argument("--version", action="version", version=f"conesemi {__version__}")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, with_file=True, sampled=True):
        if with_file:
            p.add_argument("--file", required=True, help="JSON problem file")
        if sampled:
            p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
            p.add_argument("--samples", type=int, default=None, help="override sample count")
        p.add_argument("--json-out", default=None, help="write the JSON report here")
        p.add_argument("--quiet", action="store_true", help="suppress text output")

    p = sub.add_parser("check-pod", help="positive off-diagonal property of the operator")
    common(p, sampled=False)
    p.set_defaults(handler=_cmd_check_pod)

    p = sub.add_parser("check-dissipative", help="sampled dissipativity certificate")
    common(p)
    p.set_defaults(handler=_cmd_check_dissipative)

    p = sub.add_parser("simulate", help="resolvent/semigroup contractivity and positivity")
    common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("represent", help="represent a positive functional over the states")
    common(p, sampled=False)
    p.set_defaults(handler=_cmd_represent)

    p = sub.add_parser("dirichlet-demo", help="grid checks for the boundary-value example")
    common(p, with_file=False, sampled=False)
    p.add_argument(
        "--grid-sizes", type=int, nargs="+", default=[15, 31, 63], help="interior node counts"
    )
    p.add_argument(
        "--t-grid", type=float, nargs="+", default=list(DEFAULT_T_GRID),
        help="semigroup times",
    )
    p.set_defaults(handler=_cmd_dirichlet_demo)
    return parser


def _resolve_seed(args, pf: ProblemFile) -> int:
    if args.seed is not None:
        seed = args.seed
        if seed < 0:
            raise ProblemFileError("--seed: expected a nonnegative integer")
    elif os.environ.get("CONESEMI_SEED"):
        try:
            seed = int(os.environ["CONESEMI_SEED"])
        except ValueError as exc:
            raise ProblemFileError(f"CONESEMI_SEED: expected an integer ({exc})") from exc
        if seed < 0:
            raise ProblemFileError("CONESEMI_SEED: expected a nonnegative integer")
    else:
        seed = pf.seed(0)
    args.resolved_seed = seed
    return seed


def _resolve_samples(args, pf: ProblemFile, default: int = 100) -> int:
    if args.samples is not None:
        n = args.samples
        if n < 0:
            raise ProblemFileError("--samples: expected a nonnegative integer")
    else:
        n = pf.samples(default)
    if n > MAX_SAMPLES:
        raise ProblemFileError(f"samples: at most {MAX_SAMPLES} points, got {n}")
    args.resolved_samples = n
    return n


def _cmd_check_pod(args):
    pf = ProblemFile.load(args.file)
    cone = pf.cone()
    op = pf.operator()
    report = has_positive_off_diagonal(op, cone)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, [report], []


def _cmd_check_dissipative(args):
    pf = ProblemFile.load(args.file)
    seed = _resolve_seed(args, pf)
    samples = _resolve_samples(args, pf)
    cone = pf.cone()
    halfnorm = pf.halfnorm(cone)
    op = pf.operator()
    report = certify_dissipative(op, halfnorm, n_samples=samples, seed=seed)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, [report], []


def _cmd_simulate(args):
    pf = ProblemFile.load(args.file)
    seed = _resolve_seed(args, pf)
    samples = _resolve_samples(args, pf)
    cone = pf.cone()
    op = pf.operator()
    cfg = pf.semigroup_config()
    checks: list[Report] = []
    if pf.has("phi"):
        phi = cone.certify_functional(pf.vector("phi"))
        for lam in pf.lambdas():
            checks.append(
                check_resolvent_contractivity(op, cone, phi, lam, n_samples=samples, seed=seed)
            )
        checks.append(
            check_semigroup_contractivity(op, cone, phi, cfg, n_samples=samples, seed=seed)
        )
    if pf.has("phi_set"):
        phis = pf.phi_set(cone)
        checks.append(
            check_semigroup_positivity(op, phis, cone, cfg, n_samples=samples, seed=seed)
        )
    if not checks:
        raise ProblemFileError("simulate needs a 'phi' or 'phi_set' section")

    conclusions = [r for r in _walk(checks) if r.data.get("role") == "conclusion"]
    code = EXIT_PASS if all(r.passed for r in conclusions) else EXIT_FAIL
    return code, checks, _margin_table(conclusions)


def _cmd_represent(args):
    pf = ProblemFile.load(args.file)
    cone = pf.cone()
    lines = []
    try:
        space = build_state_space(cone, pf.vector("unit"))
        phi = cone.certify_functional(pf.vector("phi"))
        measure = represent_functional(space, phi)
    except (NotOrderUnit, NotRepresentable, NotPositiveFunctional) as exc:
        report = Report(
            name="represent_functional",
            verdict="fails",
            notes=[f"{type(exc).__name__}: {exc}"],
        )
        return EXIT_FAIL, [report], []
    residual = float(
        np.max(np.abs(space.states.T @ measure.weights - np.asarray(pf.vector("phi"))))
    )
    report = Report(
        name="represent_functional",
        verdict="holds",
        tolerance=1e-9,
        notes=["states are the unit-normalized extreme dual rays"],
        data={
            "states": [list(map(float, s)) for s in space.states],
            "weights": [float(w) for w in measure.weights],
            "total_mass": measure.total_mass,
            "residual": residual,
        },
    )
    lines.append("states (unit-normalized extreme dual rays):")
    for s, w in zip(space.states, measure.weights):
        lines.append(f"  weight {w:.12g} at state {np.array2string(s, precision=6)}")
    lines.append(f"total mass {measure.total_mass:.12g}, residual {residual:.3g}")
    return EXIT_PASS, [report], lines


def _cmd_dirichlet_demo(args):
    cfg = SemigroupConfig(t_grid=tuple(sorted(args.t_grid)), method="expm")
    lines = []
    checks = []
    for case, rhs in RHS_CASES.items():
        rows = convergence_study(args.grid_sizes, rhs)
        lines.append(format_convergence_table(rows, label=f"{case} right-hand side"))
        witnesses = order_witnesses(case, rows)
        checks.append(
            Report(
                name=f"convergence[{case}]",
                verdict="fails" if witnesses else "holds",
                witnesses=witnesses,
                notes=["sup-error ratio between successive grids must sit near (h_prev/h)^2"],
                data={"rows": rows},
            )
        )
    for n in args.grid_sizes:
        checks.append(run_dirichlet_checks(Grid(n), cfg))
    code = EXIT_PASS if all(c.passed for c in checks) else EXIT_FAIL
    return code, checks, lines


def _walk(reports):
    for r in reports:
        yield r
        yield from _walk(r.subreports)


def _margin_table(conclusions) -> list[str]:
    if not conclusions:
        return []
    lines = ["per-check worst margins:"]
    for r in conclusions:
        tag = []
        if "t" in r.data:
            tag.append(f"t={r.data['t']:g}")
        if "lambda" in r.data:
            tag.append(f"lam={r.data['lambda']:g}")
        if "method" in r.data:
            tag.append(r.data["method"])
        margin = r.data.get("worst_margin")
        margin_s = f"{margin: .3e}" if margin is not None else "  n/a"
        lines.append(f"  {r.name:40s} {' '.join(tag):18s} margin {margin_s}  {r.verdict}")
    return lines


def _print_report(report: Report, indent: int = 0) -> None:
    pad = "  " * indent
    extra = ""
    if report.data.get("worst_margin") is not None:
        extra = f" (worst margin {report.data['worst_margin']:.3e})"
    print(f"{pad}{report.name}: {report.verdict}{extra}")
    for note in report.notes:
        print(f"{pad}  note: {note}")
    for w in report.witnesses[:5]:
        point = np.array2string(np.asarray(w.point), precision=6) if w.point is not None else "-"
        func = (
            np.array2string(np.asarray(w.functional), precision=6)
            if w.functional is not None
            else "-"
        )
        print(f"{pad}  witness {w.label}: x={point} phi={func} margin={w.margin:.6g}")
    if len(report.witnesses) > 5:
        print(f"{pad}  ... {len(report.witnesses) - 5} more witnesses")
    for sub in report.subreports:
        _print_report(sub, indent + 1)


if __name__ == "__main__":
    raise SystemExit(main())
