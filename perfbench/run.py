"""conesemi benchmark: one seeded, closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: ``conesemi`` is imported from the
checkout's ``src/`` and nowhere else, so without it the command exits with
code 2 and prints no result.  Workloads are ``certify``, ``grid`` and
``cones`` (see ``workloads.py``).  BLAS is pinned to one thread.

``--trace 0`` runs every item of the deck once, back to back, and reports the
end-to-end metrics.  The deck is fixed by workload, seed and ``--seconds``:
it holds as many rounds as take about ``--seconds`` at the workload's nominal
round time (``workloads.Workload.round_s``), and at least
``workloads.MIN_ITEMS`` items.  So the same arguments always run the same
items, and the counts of attempted and failed items repeat exactly.

- ``item_s.p50`` / ``item_s.p90``: seconds per item, nearest rank; a
  percentile that lands on a failed item reads Infinity.
- ``ok_items_per_s``: items finished with the expected outcome per second,
  the median over rounds.  Every round has the same mix, so a round's rate
  samples the same quantity; the median keeps one rare slow item, such as
  an ``is_total`` LP in R^6 that runs for 10 s before it fails, from
  setting the rate of a whole run.
- ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  from start to built inputs, ``import conesemi`` included.
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the deck's first ``trace_rounds`` rounds once untraced to
warm up, then runs each of their items once untraced and once traced, and
reports the per-layer metrics of ``tracing.PER_LAYER``.  ``trace.overhead_s``
is the traced items' time minus the untraced items'.  Spans go to
``perfbench/out/spans-<workload>-<seed>.jsonl``.

An item fails when it raises or, for ``PolyCone.is_total``, returns a
verdict its own witness refutes.  No item is cut short, so whether an item
fails does not depend on the machine's speed.  A failed item ranks above
every finished one in the percentiles.  The failure ratio, the failed items
by call, layer and exception class, a digest of the items' verdicts and
worst margins, and the environment are printed above the last line.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any other wrong outcome makes the run invalid: ``correct`` is
false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class Outcome:
    seconds: float
    ok: bool  # finished with the expected outcome
    summary: str  # verdict and worst margin, or the failure
    failure: str | None = None  # where it raised, or its spurious verdict
    wrong: str | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "grid", "cones"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- running items -------------------------------------------------------------


def raise_site(exc: BaseException) -> str:
    """``entry:site.Class``: the first and the deepest conesemi frames."""
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("conesemi."):
            frames.append((module.removeprefix("conesemi."), tb.tb_frame.f_code.co_name))
        tb = tb.tb_next
    if not frames:
        return f"benchmark:{type(exc).__name__}"
    (entry_mod, entry_fn), (site_mod, _) = frames[0], frames[-1]
    return f"{entry_mod}.{entry_fn}:{site_mod}.{type(exc).__name__}"


def run_item(item, workloads) -> Outcome:
    start = time.perf_counter()
    try:
        result = item.call()
    except Exception as exc:  # a raised item is a counted failure, not a benchmark crash
        seconds = time.perf_counter() - start
        site = raise_site(exc)
        return Outcome(seconds, False, f"raised|{site}", failure=site)
    seconds = time.perf_counter() - start
    try:
        verdict, margin = item.check(result)
    except workloads.SpuriousVerdict as exc:
        return Outcome(seconds, False, f"spurious|{exc}", failure=str(exc))
    except workloads.WrongOutcome as exc:
        return Outcome(seconds, False, f"wrong|{exc}", wrong=str(exc))
    shown = "-" if margin is None else format(margin, ".10g")
    return Outcome(seconds, True, f"{verdict}|{shown}")


def run_pass(items, workloads) -> tuple[float, list[Outcome]]:
    outcomes = []
    start = time.perf_counter()
    for item in items:
        outcomes.append(run_item(item, workloads))
    return time.perf_counter() - start, outcomes


# -- metrics -------------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    return sorted(values)[max(math.ceil(q * len(values)) - 1, 0)]


def digest(items, outcomes) -> str:
    """Hash of each item's verdict and worst margin, or its failure."""
    lines = "\n".join(f"{item.ident}|{o.summary}" for item, o in zip(items, outcomes))
    return f"digest = {hashlib.sha256(lines.encode()).hexdigest()[:16]} over {len(items)} items"


def setup_seconds(workload: str, seed: int, seconds: float) -> float:
    """Median time from a fresh interpreter's start to its built inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            stdout=subprocess.PIPE, text=True, env=child_env(),
        ) as probe:
            ready = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
            if probe.wait(timeout=PROBE_TIMEOUT_S) != 0 or ready.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with code {probe.returncode}")
    return statistics.median(times)


IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_seconds() -> dict[str, float]:
    """``python -X importtime -c 'import conesemi'`` in fresh interpreters.

    ``conesemi_s`` is the package's cumulative import time.  ``scipy_s`` and
    ``numpy_s`` add up the cumulative times of the imports of each package
    not nested in an import of either, so the numpy modules that scipy pulls
    in count for scipy.
    """
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import conesemi"],
            capture_output=True, text=True, env=child_env(), timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        found = {"conesemi": 0.0, "scipy": 0.0, "numpy": 0.0}
        outer: list[str] = []  # package of the enclosing import at each depth
        # importtime lists a module after its children; reversed, parents come first
        for _, cumulative_us, indent, name in reversed(IMPORTTIME.findall(proc.stderr)):
            depth = (len(indent) - 1) // 2
            package = name.split(".")[0]
            del outer[depth:]
            nested = "scipy" in outer or "numpy" in outer
            if name == "conesemi" or (package in ("scipy", "numpy") and not nested):
                found[package] += int(cumulative_us) / 1e6
            outer.append(package)
        runs.append(found)
    return {f"import.{key}_s": statistics.median(run[key] for run in runs) for key in runs[0]}


def environment(seed: int) -> str:
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, seed {seed}")


def report(args, outcomes, metrics, units, notes, invalid: list[str]) -> int:
    failed = [o for o in outcomes if not o.ok]
    wrong = sorted({o.wrong for o in outcomes if o.wrong})
    failures = Counter(o.failure for o in outcomes if o.failure)
    print(f"workload {args.workload}: {len(outcomes)} items attempted, {len(failed)} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_ratio = {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)})")
    for site, count in sorted(failures.items()):
        print(f"  failed {count} x {site}")
    for message in wrong:
        print(f"  WRONG OUTCOME: {message}")
    for message in invalid:
        print(f"  INVALID: {message}")
    for line in notes:
        print(f"  {line}")
    print(f"  env: {environment(args.seed)}")
    correct = not wrong and not invalid
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


# -- modes ---------------------------------------------------------------------


def end_to_end(args, workloads) -> int:
    setup_s = setup_seconds(args.workload, args.seed, args.seconds)
    deck = workloads.build_deck(args.workload, args.seed, args.seconds)
    items = [item for rnd in deck for item in rnd]
    outcomes, round_rates, wall = [], [], 0.0
    for rnd in deck:
        round_wall, round_outcomes = run_pass(rnd, workloads)
        outcomes += round_outcomes
        round_rates.append(sum(o.ok for o in round_outcomes) / round_wall)
        wall += round_wall
    latencies = [o.seconds if o.ok else math.inf for o in outcomes]
    metrics = {
        "item_s.p50": nearest_rank(latencies, 0.50),
        "item_s.p90": nearest_rank(latencies, 0.90),
        "ok_items_per_s": statistics.median(round_rates),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"item_s.p50": "s", "item_s.p90": "s", "ok_items_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}
    beyond = len(outcomes) - math.ceil(0.9 * len(outcomes))
    notes = [f"{len(outcomes)} items in {len(deck)} rounds, {wall:.2f} s; "
             f"{beyond} items beyond p90",
             digest(items, outcomes)]
    return report(args, outcomes, metrics, units, notes, [])


def traced(args, workloads) -> int:
    import tracing

    deck = workloads.build_deck(args.workload, args.seed, args.seconds)
    items = [item for rnd in deck[:workloads.WORKLOADS[args.workload].trace_rounds] for item in rnd]
    _, plain = run_pass(items, workloads)  # warms up, and gives the untraced outcomes
    tracer = tracing.Tracer()
    outcomes: list[Outcome] = []
    plain_s = traced_s = 0.0
    # each item runs once untraced and once traced, the first turn alternating,
    # so that machine speed drift and the warmer second run cancel out
    for k, item in enumerate(items):
        tracer.item = item.ident
        for traced_turn in (k % 2 == 1, k % 2 == 0):
            if not traced_turn:
                plain_s += run_item(item, workloads).seconds
                continue
            tracer.install()
            try:
                outcomes.append(run_item(item, workloads))
            finally:
                tracer.uninstall()
            traced_s += outcomes[-1].seconds
    tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = tracer.layer_metrics()
    metrics.update(import_seconds())
    metrics["trace.overhead_s"] = traced_s - plain_s
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: metrics[name] for name in units}
    invalid = []
    if [o.summary for o in plain] != [o.summary for o in outcomes]:
        invalid.append("the traced pass gave other outcomes than the untraced one")
    if args.workload == "grid" and metrics["numerics.solve_lp.calls"] != 0:
        invalid.append("grid is the LP bypass workload, yet it called solve_lp")
    notes = [f"{len(items)} items: {plain_s:.2f} s untraced, {traced_s:.2f} s traced, "
             f"{len(tracer.spans)} spans",
             digest(items, outcomes)]
    return report(args, outcomes, metrics, units, notes, invalid)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "conesemi" / "__init__.py").is_file():
        print(f"error: no conesemi package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.build_deck(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0
    if args.trace:
        return traced(args, workloads)
    return end_to_end(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
