"""Spans around calls into ``conesemi``, recorded from the benchmark's side.

The tracer replaces the public functions listed in ``FUNCTIONS`` with
timing wrappers under every name a ``conesemi`` module binds them to, and
the methods in ``HALFNORM_METHODS`` and ``CONE_METHODS`` on their classes.
``uninstall`` puts the originals back.  The package itself is not edited.

A span is ``[layer, start, end, parent, item, info]``: ``parent`` is the
index of the enclosing span or None, ``item`` the benchmark item that was
running, and ``info`` what the layer counts (LP rows, facets found, the
class of an exception that escaped).  Spans stay in memory until the run
writes them out.  A span's self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import conesemi as cs


def _lp_info(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    rows = sum(block[0].shape[0] for block in (problem.eq_constraints, problem.ineq_constraints)
               if block is not None)
    return {"rows": rows, "cols": problem.dim, "infeasible": int(result.status == "infeasible")}


def _facets_info(args, kwargs, result):
    return {"facets_found": int(result.facets.shape[0])}


def _samples_info(args, kwargs, result):
    return {"points": int(result.samples_used)}


# (module, function, layer, info): wrapped wherever a conesemi module binds it
FUNCTIONS = (
    ("numerics", "solve_lp", "numerics.solve_lp", _lp_info),
    ("numerics", "matrix_exp", "numerics.matrix_exp", None),
    ("numerics", "linear_solve", "numerics.lu", None),
    ("numerics", "factorized_solver", "numerics.lu", None),
    ("dissipativity", "certify_dissipative", "dissipativity.certify", _samples_info),
    ("dissipativity", "has_positive_off_diagonal", "dissipativity.pod", None),
    ("semigroup", "is_contractive", "semigroup.is_contractive", None),
    ("semigroup", "is_positive_operator", "semigroup.is_positive", None),
    ("semigroup", "euler_matrix", "semigroup.euler_matrix", None),
    ("semigroup", "check_resolvent_contractivity", "semigroup.pipeline", None),
    ("semigroup", "check_semigroup_contractivity", "semigroup.pipeline", None),
    ("semigroup", "check_semigroup_positivity", "semigroup.pipeline", None),
    ("representation", "represent_functional", "representation.represent", None),
    ("dirichlet", "run_dirichlet_checks", "dirichlet.checks", None),
    ("dirichlet", "convergence_study", "dirichlet.convergence", None),
)

# (method, layer, info) on every HalfNorm class that defines it, and on PolyCone
HALFNORM_METHODS = (
    ("value", "halfnorm.value", None),
    ("pairing_extremum", "halfnorm.pairing", None),
)
CONE_METHODS = (
    ("from_generators", "cone.from_generators", _facets_info),
    ("is_total", "cone.is_total", None),
)

# the solves made with a factorization from factorized_solver count as LU time
LU_SOLVE = "numerics.lu_solve"

# per-call means: metric kind -> the per-span count it averages
MEANS = {"rows_mean": "rows", "cols_mean": "cols", "lp_share": "lp"}

PER_LAYER = (
    ("numerics.solve_lp.calls", "count", "lower"),
    ("numerics.solve_lp.self_s", "s", "lower"),
    ("numerics.solve_lp.rows_mean", "count", "lower"),
    ("numerics.solve_lp.cols_mean", "count", "lower"),
    ("numerics.solve_lp.raised", "count", "lower"),
    ("numerics.solve_lp.infeasible", "count", "lower"),
    ("numerics.matrix_exp.calls", "count", "lower"),
    ("numerics.matrix_exp.s", "s", "lower"),
    ("numerics.matrix_exp.raised", "count", "lower"),
    ("numerics.lu.calls", "count", "lower"),
    ("numerics.lu.s", "s", "lower"),
    ("halfnorm.value.calls", "count", "lower"),
    ("halfnorm.value.self_s", "s", "lower"),
    ("halfnorm.value.lp_share", "ratio", "lower"),
    ("halfnorm.pairing.calls", "count", "lower"),
    ("halfnorm.pairing.self_s", "s", "lower"),
    ("cone.from_generators.calls", "count", "lower"),
    ("cone.from_generators.self_s", "s", "lower"),
    ("cone.from_generators.facets_found", "count", "higher"),
    ("cone.is_total.calls", "count", "lower"),
    ("cone.is_total.s", "s", "lower"),
    ("cone.is_total.raised", "count", "lower"),
    ("dissipativity.certify.calls", "count", "lower"),
    ("dissipativity.certify.self_s", "s", "lower"),
    ("dissipativity.certify.points", "count", "higher"),
    ("dissipativity.pod.s", "s", "lower"),
    ("semigroup.is_contractive.calls", "count", "lower"),
    ("semigroup.is_contractive.self_s", "s", "lower"),
    ("semigroup.is_positive.s", "s", "lower"),
    ("semigroup.euler_matrix.s", "s", "lower"),
    ("semigroup.pipeline.s", "s", "lower"),
    ("representation.represent.calls", "count", "lower"),
    ("representation.represent.s", "s", "lower"),
    ("dirichlet.checks.self_s", "s", "lower"),
    ("dirichlet.convergence.s", "s", "lower"),
    ("import.conesemi_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, layer, fn, info=None, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result if post is None else post(result)

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "conesemi" or name.startswith("conesemi.")]
        for module, attr, layer, info in FUNCTIONS:
            original = getattr(sys.modules[f"conesemi.{module}"], attr)
            post = self._wrap_lu_solve if attr == "factorized_solver" else None
            traced = self.wrap(layer, original, info, post)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, traced)
        for cls in [cs.HalfNorm, *_subclasses(cs.HalfNorm)]:
            for method, layer, info in HALFNORM_METHODS:
                if method in cls.__dict__:
                    self._set(cls, method, self.wrap(layer, cls.__dict__[method], info))
        for method, layer, info in CONE_METHODS:
            original = cs.PolyCone.__dict__[method]
            if isinstance(original, classmethod):
                self._set(cs.PolyCone, method,
                          classmethod(self.wrap(layer, original.__func__, info)))
            else:
                self._set(cs.PolyCone, method, self.wrap(layer, original, info))

    def _wrap_lu_solve(self, solve):
        return self.wrap(LU_SOLVE, solve)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The metrics of ``PER_LAYER`` that spans provide.

        Per layer: ``calls``, ``s`` (total time), ``self_s``, ``raised``, the
        sums of what the layer's info function counts, and the per-call
        means of ``MEANS``.  ``lp`` counts the spans with a ``solve_lp``
        child, so ``halfnorm.value.lp_share`` is the share of gauge
        evaluations that needed an LP.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        reached_lp = [0] * len(spans)
        for layer, start, end, parent, _, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
                reached_lp[parent] |= layer == "numerics.solve_lp"
        stats = defaultdict(lambda: defaultdict(float))
        for i, (layer, start, end, _, _, info) in enumerate(spans):
            if layer == LU_SOLVE:
                stats["numerics.lu"]["s"] += end - start
                continue
            layer_stats = stats[layer]
            layer_stats["calls"] += 1
            layer_stats["s"] += end - start
            layer_stats["self_s"] += end - start - child_s[i]
            layer_stats["lp"] += reached_lp[i]
            for key, value in (info or {}).items():
                layer_stats[key] += 1 if key == "raised" else value
        metrics = {}
        for name, unit, _ in PER_LAYER:
            layer, kind = name.rsplit(".", 1)
            if layer in ("import", "trace"):
                continue
            layer_stats = stats[layer]
            if kind in MEANS:
                calls = layer_stats["calls"]
                metrics[name] = layer_stats[MEANS[kind]] / calls if calls else 0.0
            else:
                value = layer_stats[kind]
                metrics[name] = int(value) if unit == "count" else value
        return metrics

    def write(self, path) -> None:
        """One JSON array per span: layer, start, end, parent, item, info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
