"""The public API: every check owns its tolerance.

A check or order predicate decides at a named module constant, which its
report states as ``tolerance``; none takes one from the caller.  The one
exception is :func:`is_positive_operator`, whose tolerance has two values in
use: the Dirichlet checks pass 1e-12, the pipelines keep the default 1e-9.
"""

import inspect

import conesemi
from conesemi import HalfNorm, LinOp, PolyCone, PolyhedralSet


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
