"""Malformed problem files never read as a verdict.

Each example takes a fixture's JSON tree and applies one to three
mutations: a key or list entry deleted, or a value replaced by a number
that is huge, tiny, negative or not finite, by another type, or by an empty
or ragged list.  Every command then runs in-process on the result, and the
exit code keeps the CLI contract: 0 or 1 only with a report behind it, 1
only for a ``fails`` verdict, and 2 with one line on stderr that names the
input, never an internal error.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conesemi.cli import main

FIXTURES = {p.name: json.loads(p.read_text())
            for p in sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))}
COMMANDS = ("check-pod", "check-dissipative", "simulate", "represent")
REPLACEMENTS = (
    1e300, -1e300, 10**30, -(10**30), 10**400, 5e-324, -1e-300, -1, -0.5, 0,
    float("nan"), float("inf"), float("-inf"),
    "x", True, None, {}, [], [[]], [[1, 2], [3]], [1, [2]],
)
DELETE = "delete"


def paths(tree, prefix=()):
    """Every key path below the root of a JSON tree."""
    children = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(
        tree, list) else ()
    for key, value in children:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutate(tree, pick: int, change):
    """Delete or replace the node at ``paths(tree)[pick % count]``, in place."""
    where = list(paths(tree))
    if not where:
        return
    path = where[pick % len(where)]
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if change == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(change)


def fails_in(checks, command: str) -> bool:
    """A ``fails`` verdict among the reports; for ``simulate``, among its
    conclusions, which alone set its exit code."""
    stack = list(checks)
    while stack:
        report = stack.pop()
        stack.extend(report["subreports"])
        counted = command != "simulate" or report["data"].get("role") == "conclusion"
        if counted and report["verdict"] == "fails":
            return True
    return False


def run_command(command: str, problem: Path, report: Path) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process run; a warning that
    would reach stderr counts as a line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--file", str(problem), "--quiet", "--json-out", str(report)])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FIXTURES)),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from((DELETE,) + REPLACEMENTS)),
                min_size=1, max_size=3))
def test_mutated_fixtures_keep_the_exit_contract(fixture, mutations):
    tree = copy.deepcopy(FIXTURES[fixture])
    for pick, change in mutations:
        mutate(tree, pick, change)
    with tempfile.TemporaryDirectory() as tmp:
        problem, report = Path(tmp) / "problem.json", Path(tmp) / "report.json"
        problem.write_text(json.dumps(tree))
        for command in COMMANDS:
            report.unlink(missing_ok=True)
            code, lines = run_command(command, problem, report)
            assert code in (0, 1, 2)
            if code == 2:
                assert len(lines) == 1 and not lines[0].startswith("internal error"), lines
            else:
                body = json.loads(report.read_text())
                assert body["exit_code"] == code
                assert fails_in(body["checks"], command) == (code == 1)
