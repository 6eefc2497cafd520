"""Probability measures on finite metric spaces and their pushforwards.

Measures are stored sparsely (zero weights dropped) in space point order, so
structural equality coincides with equality of measures.  Pushforward along a
map adds up the mass of each fiber; the Dirac embedding sends a point to the
unit mass sitting on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import InvalidWeights, SpaceMismatch, UnknownPoint
from .numbers import Num, fold_sum, quote_number
from .spaces import FiniteMetricSpace, MetricMap, image

RENORMALIZE_WITHIN = 1e-12


@dataclass(frozen=True)
class ProbMeasure:
    """A probability measure: sparse nonnegative weights totalling one.

    ``drift`` records the renormalization applied in float mode (always zero
    in exact mode) and does not participate in equality.
    """

    space: FiniteMetricSpace
    weights: tuple[tuple[str, Num], ...]
    drift: float = field(default=0.0, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.weights))

    def weight(self, label: str) -> Num:
        if label not in self.space:
            raise UnknownPoint(f"{label!r} is not a point of the space")
        return self._table.get(label, self.space.mode.zero)

    def support(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.weights)

    def as_dict(self) -> dict[str, Num]:
        return dict(self.weights)


def prob_measure(space: FiniteMetricSpace, weights: Mapping[str, object]) -> ProbMeasure:
    """Validate and canonicalize weights into a measure, in the space's mode.

    Exact mode demands a total of exactly one.  Float mode accepts totals
    within 1e-12 of one, renormalizes, and records the drift.
    """
    mode = space.mode
    table: dict[str, Num] = {}
    for label, raw in weights.items():
        if label not in space:
            raise UnknownPoint(f"{label!r} is not a point of the space")
        value = mode.convert(raw)
        if value < 0:
            raise InvalidWeights(f"negative weight at {label!r}: {quote_number(value)}")
        table[label] = value
    total = fold_sum(table.values(), mode.zero)
    drift = 0.0
    if mode.is_exact:
        if total != 1:
            raise InvalidWeights(f"weights total {quote_number(total)}, expected exactly 1")
    else:
        if abs(total - 1.0) > RENORMALIZE_WITHIN:
            raise InvalidWeights(f"weights total {total!r}, expected 1 within 1e-12")
        if total != 1.0:
            drift = total - 1.0
            table = {k: v / total for k, v in table.items()}
    canonical = tuple((p, table[p]) for p in space.points if table.get(p, 0) != 0)
    return ProbMeasure(space, canonical, drift)


def dirac(space: FiniteMetricSpace, point: str) -> ProbMeasure:
    """Unit mass at ``point``."""
    if point not in space:
        raise UnknownPoint(f"{point!r} is not a point of the space")
    return ProbMeasure(space, ((point, space.mode.one),))


def pushforward(f: MetricMap, mu: ProbMeasure) -> ProbMeasure:
    """Transport ``mu`` along ``f``: each target point collects its fiber's mass."""
    if mu.space != f.domain:
        raise SpaceMismatch("measure does not live on the map's domain")
    zero = mu.space.mode.zero
    out: dict[str, Num] = {}
    for p, w in mu.weights:
        q = f(p)
        out[q] = out.get(q, zero) + w
    return prob_measure(f.codomain, out)


def convex_combination(t, mu: ProbMeasure, nu: ProbMeasure) -> ProbMeasure:
    """``t * mu + (1 - t) * nu`` for ``t`` in [0, 1]."""
    if mu.space != nu.space:
        raise SpaceMismatch("convex combination needs a shared space")
    mode = mu.space.mode
    coeff = mode.convert(t)
    if coeff < 0 or coeff > 1:
        raise InvalidWeights(f"coefficient {coeff} outside [0, 1]")
    out: dict[str, Num] = {}
    for p, w in mu.weights:
        out[p] = out.get(p, mode.zero) + coeff * w
    for p, w in nu.weights:
        out[p] = out.get(p, mode.zero) + (mode.one - coeff) * w
    return prob_measure(mu.space, out)


def integrate(g: Mapping[str, Num], mu: ProbMeasure) -> Num:
    """Integral of the function ``g`` (a table on the points) against ``mu``."""
    return fold_sum((g[p] * w for p, w in mu.weights), mu.space.mode.zero)


def image_weight(f: MetricMap, mu: ProbMeasure) -> Num:
    """Mass that ``mu`` assigns to the image of ``f`` (mu lives on the codomain)."""
    if mu.space != f.codomain:
        raise SpaceMismatch("measure does not live on the map's codomain")
    img = set(image(f))
    return fold_sum((w for p, w in mu.weights if p in img), mu.space.mode.zero)


def in_image(f: MetricMap, mu: ProbMeasure) -> bool:
    """Whether ``mu`` is a pushforward along ``f``: full mass on the image."""
    mode = mu.space.mode
    return mode.eq(image_weight(f, mu), mode.one)


def preimage_measure(f: MetricMap, mu: ProbMeasure) -> Optional[ProbMeasure]:
    """A constructive witness ``nu`` with ``pushforward(f, nu) == mu``, or None.

    Splits each target point's mass uniformly across its fiber.  Returns None
    exactly when some supported point has an empty fiber, i.e. when ``mu`` is
    not a pushforward along ``f``.
    """
    if mu.space != f.codomain:
        raise SpaceMismatch("measure does not live on the map's codomain")
    fibers: dict[str, list[str]] = {}
    for p in f.domain.points:
        fibers.setdefault(f(p), []).append(p)
    zero = mu.space.mode.zero
    out: dict[str, Num] = {}
    for q, w in mu.weights:
        fiber = fibers.get(q)
        if not fiber:
            return None
        share = w / len(fiber)
        for p in fiber:
            out[p] = out.get(p, zero) + share
    return prob_measure(f.domain, out)


def measures_equal(a: ProbMeasure, b: ProbMeasure) -> bool:
    """Equality on a shared space, within the space's tolerance."""
    if a.space != b.space:
        return False
    mode = a.space.mode
    keys = set(a.as_dict()) | set(b.as_dict())
    return all(mode.eq(a.weight(k), b.weight(k)) for k in keys)
