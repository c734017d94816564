"""The public API: every check owns its tolerance.

A check or order predicate decides at a named module constant, which its
report states as ``tolerance``; none takes one from the caller.  The one
exception is :func:`is_positive_operator`, whose tolerance has two values in
use: the Dirichlet checks pass 1e-12, the pipelines keep the default 1e-9.
A step count, time, sample count, seed or dimension that is not one is
refused with ``MalformedProblem``.
"""

import inspect
import math

import numpy as np
import pytest

import conesemi
from conesemi import HalfNorm, LinOp, PolyCone, PolyhedralSet
from conesemi.errors import MalformedProblem


def public_callables():
    """``(name, callable)`` for everything in ``conesemi.__all__`` and every
    public method of the cone, domain, operator and half-norm classes."""
    exported = [(name, getattr(conesemi, name)) for name in conesemi.__all__]
    classes = [PolyCone, PolyhedralSet, LinOp] + [
        obj for _, obj in exported if inspect.isclass(obj) and issubclass(obj, HalfNorm)
    ]
    yield from ((name, obj) for name, obj in exported if callable(obj))
    for cls in classes:
        for name, method in inspect.getmembers(cls, callable):
            if not name.startswith("_"):
                yield f"{cls.__name__}.{name}", method


def test_only_positivity_takes_a_tolerance():
    names = [name for name, _ in public_callables()]
    assert "PolyCone.is_total" in names and "FunctionalGauge.value" in names
    takes_tol = sorted(
        name for name, f in public_callables() if "tol" in inspect.signature(f).parameters
    )
    assert takes_tol == ["is_positive_operator"]


def _orthant_gauge():
    return conesemi.FunctionalGauge(PolyCone.standard_orthant(2), [1.0, 1.0])


# each input names a step count, a time, a resolvent parameter, a sample count
# or seed, or a dimension that is not one: a library call must refuse it as
# malformed, not raise a raw TypeError or SingularMatrix or run on it
MALFORMED_INPUTS = {
    **{f"euler_matrix(n={n!r})": lambda n=n: conesemi.euler_matrix(-np.eye(2), 1.0, n)
       for n in (2.5, True, 2**21)},
    **{f"euler_power(n={n!r})": lambda n=n: conesemi.euler_power(-np.eye(2), 1.0, n, [1.0, 0.0])
       for n in (2.5, True, 2**21)},
    **{f"euler_matrix(t={t})": lambda t=t: conesemi.euler_matrix(-np.eye(2), t, 4)
       for t in (math.nan, math.inf)},
    **{f"euler_power(t={t})": lambda t=t: conesemi.euler_power(-np.eye(2), t, 4, [1.0, 0.0])
       for t in (math.nan, math.inf)},
    **{f"resolvent_apply(lam={lam})":
       lambda lam=lam: conesemi.resolvent_apply(-np.eye(2), lam, [1.0, 0.0])
       for lam in (math.nan, math.inf)},
    **{f"certify_dissipative(n_samples={n!r})":
       lambda n=n: conesemi.certify_dissipative(LinOp(-np.eye(2)), _orthant_gauge(), n, 0)
       for n in (2.5, True)},
    "certify_dissipative(seed=1.5)":
        lambda: conesemi.certify_dissipative(LinOp(-np.eye(2)), _orthant_gauge(), 10, 1.5),
    "standard_orthant(2.5)": lambda: PolyCone.standard_orthant(2.5),
    "Grid(True)": lambda: conesemi.Grid(True),
}


@pytest.mark.parametrize("call", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_counts_and_times_are_refused(call):
    with pytest.raises(MalformedProblem):
        call()
