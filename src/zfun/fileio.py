"""JSON file formats: spaces, maps, measures, fixtures, extend maps and reports.

Numbers are always serialized as strings ("3/2", "0.25") so exact values
survive round trips.  Fields holding a sub-object (a map's domain, a measure's
space, a fixture's ambient) accept either an inline object or a path string,
resolved relative to the referencing file.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError
from .kantorovich import LipschitzPotential, TransportPlan
from .measures import ProbMeasure, prob_measure
from .numbers import EXACT, Mode, format_number, parse_number
from .scheme import ContinuationContext, build_finite_fixture
from .spaces import FiniteMetricSpace, MetricMap, metric_map, validate_space


def load_json(path: str | Path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    # bad bytes or syntax, an integer past the string limit, or deep nesting
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _resolve(obj, base: Path | None):
    """Inline object, or a path string to load (relative to ``base``)."""
    if isinstance(obj, str):
        path = Path(obj)
        if base is not None and not path.is_absolute():
            path = base / path
        return load_json(path)
    return obj


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FormatError(f"{what} is missing keys: {missing}")


def space_from_obj(
    obj, mode: Mode = EXACT, base: Path | None = None, parsed: list | None = None
) -> FiniteMetricSpace:
    """The space an inline object or a path string describes.

    ``parsed`` lists ``(object, space)`` pairs already built in ``mode``: an
    equal object reuses its space, a new one is validated and appended.
    """
    obj = _resolve(obj, base)
    for seen, space in parsed or ():
        if seen == obj:
            return space
    _require_keys(obj, ("points", "dist"), "a space")
    points = obj["points"]
    dist = obj["dist"]
    if not isinstance(points, list) or not isinstance(dist, list):
        raise FormatError("'points' must be a list and 'dist' a list of lists")
    space = validate_space(points, dist, mode)
    if parsed is not None:
        parsed.append((obj, space))
    return space


def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[format_number(v) for v in row] for row in space.dist],
    }


def load_space(path: str | Path, mode: Mode = EXACT) -> FiniteMetricSpace:
    return space_from_obj(load_json(path), mode, Path(path).parent)


def map_from_obj(
    obj, mode: Mode = EXACT, base: Path | None = None, parsed: list | None = None
) -> MetricMap:
    """A map object; ``parsed`` shares spaces across its domain, codomain and calls."""
    obj = _resolve(obj, base)
    _require_keys(obj, ("domain", "codomain", "assignment"), "a map")
    domain = space_from_obj(obj["domain"], mode, base, parsed)
    codomain = space_from_obj(obj["codomain"], mode, base, parsed)
    return metric_map(domain, codomain, assignment_from_obj(obj["assignment"]))


def assignment_from_obj(obj) -> dict[str, str]:
    """A map file's ``assignment``: an object whose values are labels."""
    if not isinstance(obj, dict) or not all(isinstance(q, str) for q in obj.values()):
        raise FormatError("'assignment' must be an object of label pairs")
    return obj


def load_map(
    path: str | Path, mode: Mode = EXACT, parsed: list | None = None
) -> MetricMap:
    """A map file; ``parsed`` shares spaces across calls (:func:`space_from_obj`)."""
    return map_from_obj(load_json(path), mode, Path(path).parent, parsed)


def labels_from_obj(obj, base: Path | None = None) -> list[str]:
    """The labels of an extend map's domain or codomain: a list or a space object."""
    obj = _resolve(obj, base)
    labels = obj.get("points") if isinstance(obj, dict) else obj
    if not isinstance(labels, list) or not all(isinstance(p, str) for p in labels):
        raise FormatError("domain/codomain must be a label list or a space object")
    return labels


def load_extend_map(path: str | Path):
    """An extend map file's assignment, and a reader of its members' labels."""
    obj = load_json(path)
    if not isinstance(obj, dict) or "assignment" not in obj:
        raise FormatError("a map file needs an 'assignment' object")
    assignment = assignment_from_obj(obj["assignment"])
    return assignment, lambda key: labels_from_obj(obj.get(key), Path(path).parent)


def measure_from_obj(
    obj, mode: Mode = EXACT, base: Path | None = None, parsed: list | None = None
) -> ProbMeasure:
    obj = _resolve(obj, base)
    _require_keys(obj, ("space", "weights"), "a measure")
    space = space_from_obj(obj["space"], mode, base, parsed)
    weights = obj["weights"]
    if not isinstance(weights, dict):
        raise FormatError("'weights' must be an object mapping labels to numbers")
    return prob_measure(space, weights)


def measure_to_obj(mu: ProbMeasure) -> dict:
    return {
        "space": space_to_obj(mu.space),
        "weights": {p: format_number(w) for p, w in mu.weights},
    }


def load_measure(
    path: str | Path, mode: Mode = EXACT, parsed: list | None = None
) -> ProbMeasure:
    """A measure file; ``parsed`` shares spaces across calls (:func:`space_from_obj`)."""
    return measure_from_obj(load_json(path), mode, Path(path).parent, parsed)


def _fixture_int(desc: dict, key: str, default=None):
    """``desc[key]`` as an integer (``default`` when absent), or FormatError."""
    value = desc.get(key, default)
    if value is None:
        return None
    try:
        number = parse_number(value)
    except (FormatError, ValueError, OverflowError):
        number = None
    if number is None or number.denominator != 1:
        raise FormatError(f"fixture {key!r} must be an integer, got {value!r}")
    return int(number)


def load_fixture(path: str | Path, mode: Mode, seed: int) -> ContinuationContext:
    """A fixture file; its ``seed`` defaults to ``seed``, ``ambient`` to a random space."""
    desc = load_json(path)
    if not isinstance(desc, dict) or "n" not in desc or "k" not in desc:
        raise FormatError("a fixture file needs at least 'n' and 'k'")
    n, k = _fixture_int(desc, "n"), _fixture_int(desc, "k")
    fixture_seed = _fixture_int(desc, "seed", seed)
    h_seed = _fixture_int(desc, "h_seed")
    base = Path(path).parent
    ambient = space_from_obj(desc["ambient"], mode, base) if "ambient" in desc else None
    try:
        return build_finite_fixture(n, k, fixture_seed, mode, ambient=ambient, h_seed=h_seed)
    except ValueError as exc:  # the fixture names its random streams by these numbers
        raise FormatError("a fixture's n, k, seed or h_seed has more digits than the "
                          "integer string conversion limit") from exc


def load_report(path: str | Path) -> dict:
    """A saved report: a boolean ``pass`` and a list of record objects, if any."""
    obj = load_json(path)
    if not isinstance(obj, dict) or "pass" not in obj:
        raise FormatError("not a report: missing 'pass'")
    if not isinstance(obj["pass"], bool):
        raise FormatError("a report's 'pass' must be true or false")
    records = obj.get("records", [])
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and isinstance(r.get("failures", []), list) for r in records
    ):
        raise FormatError("a report's 'records' must be a list of objects")
    return obj


def potential_to_obj(f: LipschitzPotential) -> dict:
    return {p: format_number(v) for p, v in f.values}


def plan_to_obj(plan: TransportPlan) -> dict:
    return {
        "points": list(plan.source.space.points),
        "matrix": [[format_number(v) for v in row] for row in plan.matrix],
    }


def dump_json(obj, path: str | Path | None) -> str:
    """Serialize canonically; write to ``path`` when given.  Returns the text."""
    text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
