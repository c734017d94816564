"""JSON problem files: the wire format of the command-line front end.

A problem file is a single JSON object with a ``schema_version`` and any of
the sections below; each command reads the sections it needs.

.. code-block:: json

    {
      "schema_version": 1,
      "cone": {"generators": [[1, 0], [0, 1]]},
      "halfnorm": {"variant": "functional", "phi": [1, 1]},
      "operator": {
        "matrix": [[-1, -1], [1, 1]],
        "domain": {
          "ineq": {"matrix": [[1, 0]], "rhs": [0]},
          "eq":   {"matrix": [[0, 1]], "rhs": [0]}
        }
      },
      "phi_set": [[1, 0], [0, 1]],
      "semigroup": {"t_grid": [0.1, 1, 5], "euler_steps": 16, "method": "both"},
      "lambdas": [0.1, 0.5, 1.0],
      "unit": [1, 1],
      "phi": [2, 3],
      "seed": 0,
      "samples": 100
    }

Half-norm variants: ``canonical``, ``regular_gauge``, ``functional`` (alias
``phi``), ``order_unit``, ``positive_part`` (alias ``nplus``), ``euclidean``.
Norm kinds: ``l1``, ``linf``, each with strictly positive ``weights``.
``positive_part`` is ``||x^+||`` for its norm and is accepted on orthants
only, cones whose every generator is a positive multiple of a distinct unit
vector; there it is the functional gauge of the l1 weights, or the
order-unit gauge of the reciprocals of the linf weights.

Parse failures raise :class:`ProblemFileError` whose message carries the
JSON field path of the offending entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cone import DualVector, PolyCone
from .dissipativity import LinOp, PolyhedralSet
from .errors import ConesemiError, ProblemFileError, VariantPreconditionFailed
from .halfnorm import (
    CanonicalHalfNorm,
    EuclideanNorm,
    FunctionalGauge,
    HalfNorm,
    OrderUnitGauge,
    RegularizedGauge,
    WeightedNorm,
)
from .semigroup import SemigroupConfig

SCHEMA_VERSION = 1

_VARIANT_ALIASES = {"phi": "functional", "nplus": "positive_part"}
_VARIANTS = (
    "canonical",
    "regular_gauge",
    "functional",
    "order_unit",
    "positive_part",
    "euclidean",
)


def _fail(path: str, message: str):
    raise ProblemFileError(f"{path}: {message}")


def _require(obj: dict, path: str, key: str):
    if key not in obj:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        _fail(path, "number out of the floating-point range")
    if not np.isfinite(value):
        _fail(path, "numbers must be finite")
    return value


def _as_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of numbers")
    return np.array([_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _as_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of rows")
    rows = [_as_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.size != width:
            _fail(f"{path}[{i}]", f"expected {width} entries, got {row.size}")
    return np.vstack(rows)


def _positive_part_gauge(cone: PolyCone, norm: WeightedNorm) -> HalfNorm:
    """``||x^+||`` on an orthant, as the gauge it is; off the orthant the
    norm of the positive part need not be sublinear, so it is refused."""
    G = cone.generators
    support = G != 0
    if not (
        G.shape[0] == cone.dim
        and np.all(support.sum(axis=1) == 1)
        and np.all(support.any(axis=0))
        and np.all(G[support] > 0)
    ):
        raise VariantPreconditionFailed(
            "positive_part needs an orthant (every generator a positive multiple of a "
            "distinct unit vector); on other cones use functional, order_unit or canonical"
        )
    if norm.kind == "l1":
        return FunctionalGauge(cone, norm.weights)
    return OrderUnitGauge(cone, 1.0 / norm.weights)


class ProblemFile:
    """Validated view over one problem JSON object."""

    def __init__(self, raw: dict, source: str = "<memory>"):
        if not isinstance(raw, dict):
            raise ProblemFileError("top level: expected a JSON object")
        self.raw = raw
        self.source = source
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    @classmethod
    def load(cls, path) -> "ProblemFile":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ProblemFileError(f"{path}: cannot read file ({exc})") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
        except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
            raise ProblemFileError(f"{path}: invalid JSON ({exc})") from exc
        return cls(raw, source=str(path))

    # -- sections ----------------------------------------------------------

    def has(self, key: str) -> bool:
        return key in self.raw

    def cone(self) -> PolyCone:
        section = _require(self.raw, "", "cone")
        if not isinstance(section, dict):
            _fail("cone", "expected an object")
        rays = _as_matrix(_require(section, "cone", "generators"), "cone.generators")
        try:
            return PolyCone.from_generators(rays)
        except ConesemiError as exc:
            _fail("cone.generators", str(exc))

    def halfnorm(self, cone: PolyCone) -> HalfNorm:
        section = _require(self.raw, "", "halfnorm")
        if not isinstance(section, dict):
            _fail("halfnorm", "expected an object")
        variant = _require(section, "halfnorm", "variant")
        if not isinstance(variant, str):
            _fail("halfnorm.variant", f"expected a string, got {type(variant).__name__}")
        variant = _VARIANT_ALIASES.get(variant, variant)
        if variant not in _VARIANTS:
            _fail("halfnorm.variant", f"unknown variant {variant!r}")
        try:
            if variant == "functional":
                phi = _as_vector(_require(section, "halfnorm", "phi"), "halfnorm.phi")
                return FunctionalGauge(cone, phi)
            if variant == "order_unit":
                unit = _as_vector(_require(section, "halfnorm", "unit"), "halfnorm.unit")
                return OrderUnitGauge(cone, unit)
            if variant == "euclidean":
                return EuclideanNorm(cone)
            norm = self._norm(section, cone)
            if variant == "positive_part":
                return _positive_part_gauge(cone, norm)
            cls = {"canonical": CanonicalHalfNorm, "regular_gauge": RegularizedGauge}[variant]
            return cls(cone, norm)
        except ProblemFileError:
            raise
        except ConesemiError as exc:
            raise ProblemFileError(f"halfnorm: {exc}") from exc

    def _norm(self, section: dict, cone: PolyCone) -> WeightedNorm:
        norm = section.get("norm")
        if norm is None:
            return WeightedNorm.sup(cone.dim)
        if not isinstance(norm, dict):
            _fail("halfnorm.norm", "expected an object")
        kind = _require(norm, "halfnorm.norm", "kind")
        if kind not in ("l1", "linf"):
            _fail("halfnorm.norm.kind", f"expected 'l1' or 'linf', got {kind!r}")
        weights = norm.get("weights")
        if weights is None:
            w = np.ones(cone.dim)
        else:
            w = _as_vector(weights, "halfnorm.norm.weights")
        try:
            return WeightedNorm(kind, w)
        except ConesemiError as exc:
            raise ProblemFileError(f"halfnorm.norm: {exc}") from exc

    def operator(self) -> LinOp:
        section = _require(self.raw, "", "operator")
        if not isinstance(section, dict):
            _fail("operator", "expected an object")
        matrix = _as_matrix(_require(section, "operator", "matrix"), "operator.matrix")
        if matrix.shape[0] != matrix.shape[1]:
            _fail("operator.matrix", f"expected a square matrix, got {matrix.shape}")
        domain = None
        if "domain" in section and section["domain"] is not None:
            domain = self._domain(section["domain"])
        try:
            return LinOp(matrix, domain=domain)
        except ConesemiError as exc:
            raise ProblemFileError(f"operator: {exc}") from exc

    def _domain(self, section) -> PolyhedralSet:
        if not isinstance(section, dict):
            _fail("operator.domain", "expected an object")
        blocks = {}
        for key in ("ineq", "eq"):
            if key in section and section[key] is not None:
                block = section[key]
                path = f"operator.domain.{key}"
                if not isinstance(block, dict):
                    _fail(path, "expected an object")
                mat = _as_matrix(_require(block, path, "matrix"), f"{path}.matrix")
                rhs = _as_vector(_require(block, path, "rhs"), f"{path}.rhs")
                if mat.shape[0] != rhs.size:
                    _fail(path, f"{mat.shape[0]} rows but {rhs.size} rhs entries")
                blocks[key] = (mat, rhs)
        if not blocks:
            _fail("operator.domain", "expected at least one of 'ineq', 'eq'")
        try:
            return PolyhedralSet(ineq=blocks.get("ineq"), eq=blocks.get("eq"))
        except ConesemiError as exc:
            raise ProblemFileError(f"operator.domain: {exc}") from exc

    def phi_set(self, cone: PolyCone) -> list[DualVector]:
        section = _require(self.raw, "", "phi_set")
        if not isinstance(section, list) or not section:
            _fail("phi_set", "expected a nonempty list of functionals")
        out = []
        for i, row in enumerate(section):
            coords = _as_vector(row, f"phi_set[{i}]")
            try:
                out.append(cone.certify_functional(coords))
            except ConesemiError as exc:
                _fail(f"phi_set[{i}]", str(exc))
        return out

    def semigroup_config(self) -> SemigroupConfig:
        section = self.raw.get("semigroup")
        if section is None:
            return SemigroupConfig()
        if not isinstance(section, dict):
            _fail("semigroup", "expected an object")
        kwargs = {}
        if "t_grid" in section:
            grid = section["t_grid"]
            if not isinstance(grid, list) or not grid:
                _fail("semigroup.t_grid", "expected a nonempty list of times")
            kwargs["t_grid"] = tuple(
                _as_number(t, f"semigroup.t_grid[{i}]") for i, t in enumerate(grid)
            )
        if "euler_steps" in section:
            steps = section["euler_steps"]
            if not isinstance(steps, int) or isinstance(steps, bool):
                _fail("semigroup.euler_steps", "expected an integer")
            kwargs["euler_steps"] = steps
        if "method" in section:
            kwargs["method"] = section["method"]
        try:
            return SemigroupConfig(**kwargs)
        except ConesemiError as exc:
            raise ProblemFileError(f"semigroup: {exc}") from exc

    def vector(self, key: str) -> np.ndarray:
        return _as_vector(_require(self.raw, "", key), key)

    def lambdas(self) -> list[float]:
        if "lambdas" in self.raw:
            section = self.raw["lambdas"]
            if not isinstance(section, list) or not section:
                _fail("lambdas", "expected a nonempty list of positive numbers")
            values = [_as_number(v, f"lambdas[{i}]") for i, v in enumerate(section)]
        elif "lambda" in self.raw:
            values = [_as_number(self.raw["lambda"], "lambda")]
        else:
            values = [1.0]
        for i, v in enumerate(values):
            if v <= 0:
                _fail(f"lambdas[{i}]", "resolvent parameters must be positive")
        return values

    def seed(self, default: int = 0) -> int:
        value = self.raw.get("seed", default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            _fail("seed", "expected a nonnegative integer")
        return value

    def samples(self, default: int = 100) -> int:
        value = self.raw.get("samples", default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            _fail("samples", "expected a nonnegative integer")
        return value

    def to_dict(self) -> dict:
        """Canonical form whose JSON round-trip reproduces the same inputs."""
        return json.loads(json.dumps(self.raw))
