"""Structured verdicts with witnesses, shared by every certification routine.

Verdicts are deliberately three-plus-one valued:

* ``holds``        -- the property was established by an exhaustive finite check;
* ``fails``        -- a concrete witness violates the property beyond tolerance;
* ``inconclusive`` -- every structural point and random sample passed, but the
  check is sampling-based and therefore not a proof;
* ``vacuous``      -- a pipeline's hypothesis already failed, so its conclusion
  was not meaningfully tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
VACUOUS = "vacuous"


@dataclass(frozen=True, eq=False)
class Witness:
    """A point/functional pair with the margin that triggered it."""

    point: np.ndarray | None
    functional: np.ndarray | None
    margin: float
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "point": None if self.point is None else [float(v) for v in self.point],
            "functional": None
            if self.functional is None
            else [float(v) for v in self.functional],
            "margin": float(self.margin),
            "label": self.label,
        }


@dataclass
class Report:
    """Outcome of one certification routine.

    ``fails`` always carries at least one witness whose margin violates
    ``tolerance``.  ``notes`` records soundness caveats such as
    "sampling cannot prove the universal claim".
    """

    name: str
    verdict: str
    witnesses: list[Witness] = field(default_factory=list)
    samples_used: int = 0
    tolerance: float = 0.0
    notes: list[str] = field(default_factory=list)
    subreports: list["Report"] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when no violation was found (holds or sampled-pass)."""
        return self.verdict in (HOLDS, INCONCLUSIVE)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "passed": self.passed,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "samples_used": int(self.samples_used),
            "tolerance": float(self.tolerance),
            "notes": list(self.notes),
            "subreports": [s.to_dict() for s in self.subreports],
            "data": self.data,
        }
