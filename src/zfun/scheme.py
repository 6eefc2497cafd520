"""Extension of maps and metrics from distinguished subsets to an ambient space.

A :class:`ContinuationContext` fixes an ambient finite metric space, the family
of all k-point subsets, a disjoint "pad" space (so each subset plus the pad has
exactly as many points as the ambient space), and for each family member K a
bijection ``H_K`` from K-plus-pad onto the ambient points that sends the copy
of K onto K itself.  The pad is an anchor: K-plus-pad is
``glue_space(member_space(ctx, K), ctx.pad)`` and a map between members acts
on it as ``glue_map(f, ctx.pad)``, so it needs a pad of diameter exactly one.

A map between family members then extends to a self-map of the ambient space:
conjugate by the chosen bijections and act as the identity on the pad.  The
assignment is a functor, restricts to the original map, and transfers
injectivity, surjectivity and image data both ways.  A metric on a family
member likewise extends to the ambient point set: pull back along the
bijection, adjoin the pad at cross distance ``max(diameter, 1)``, push forward
— the original sup-metric geometry of the map space embeds isometrically.

Each ambient self-bijection preserving K setwise factors uniquely as
(bijection fixing K pointwise) ∘ (extension of its own restriction to K).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadParameters,
    InvalidMetric,
    NotInFamily,
    NotSetwiseInvariant,
    SpaceMismatch,
)
from .generate import normalize_diameter, random_space, rng_for
from .numbers import EXACT, Mode, quote_number
from .spaces import (
    ANCHOR_PREFIX,
    FiniteMetricSpace,
    MetricMap,
    compose,
    glue_space,
    invert,
    is_bijective,
    metric_map,
    relabel_disjoint,
    scanned_space,
    subspace,
)


@dataclass(frozen=True)
class ContinuationContext:
    """Ambient space, subset family, pad, and one chosen bijection per member.

    ``charts[K]`` maps each label of K-plus-pad to an ambient label,
    bijectively, carrying K onto K.  Build via :func:`build_finite_fixture`.
    """

    ambient: FiniteMetricSpace
    subset_size: int
    family: tuple[tuple[str, ...], ...]
    pad: FiniteMetricSpace
    charts: tuple[tuple[tuple[str, ...], tuple[tuple[str, str], ...]], ...]
    _chart_table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_chart_table", {k: dict(pairs) for k, pairs in self.charts}
        )

    def member(self, labels: Iterable[str]) -> tuple[str, ...]:
        """The family member with these labels (ambient order), or NotInFamily."""
        wanted = set(labels)
        key = tuple(p for p in self.ambient.points if p in wanted)
        if len(key) != len(wanted) or key not in set(self.family):
            raise NotInFamily(f"{sorted(wanted)!r} is not in the subset family")
        return key

    def chart(self, member: tuple[str, ...]) -> dict[str, str]:
        return dict(self._chart_table[member])

    def chart_inverse(self, member: tuple[str, ...]) -> dict[str, str]:
        return {v: k for k, v in self._chart_table[member].items()}


def check_fixture_sizes(n, k) -> None:
    """Raise :class:`BadParameters` unless ``1 <= k <= n/2`` with integer sizes."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise BadParameters("n and k must be integers")
    if not (1 <= k and 2 * k <= n):
        raise BadParameters(f"need 1 <= k <= n/2, got n={quote_number(Fraction(n))}, "
                            f"k={quote_number(Fraction(k))}")


def build_finite_fixture(
    n: int,
    k: int,
    seed: int = 0,
    mode: Mode = EXACT,
    ambient: FiniteMetricSpace | None = None,
    h_seed: int | None = None,
) -> ContinuationContext:
    """Random fixture: ambient space of ``n`` points, all ``k``-subsets, a pad.

    Requires ``1 <= k <= n/2``, and a given ``ambient`` must be in ``mode``.
    With ``h_seed`` None each chart is the canonical one (identity on the
    subset, order-preserving on the pad); otherwise charts are seeded random
    bijections still carrying each subset onto itself.
    """
    check_fixture_sizes(n, k)
    if ambient is None:
        ambient = random_space(rng_for(seed, f"fixture-ambient-{n}"), n, mode=mode)
    elif len(ambient.points) != n:
        raise BadParameters(f"ambient has {len(ambient.points)} points, "
                            f"expected {quote_number(Fraction(n))}")
    elif ambient.mode != mode:
        raise SpaceMismatch("the ambient space is not in the fixture's mode")

    pad_size = n - k
    pad_labels = relabel_disjoint(
        tuple(f"{ANCHOR_PREFIX}{i}" for i in range(pad_size)), ambient.points
    )
    if pad_size == 1:
        pad = FiniteMetricSpace(pad_labels, ((mode.zero,),), mode)
    else:
        raw = random_space(
            rng_for(seed, f"fixture-pad-{n}-{k}"), pad_size, labels=pad_labels, mode=mode
        )
        pad = normalize_diameter(raw)

    family = tuple(itertools.combinations(ambient.points, k))
    charts = []
    for member in family:
        complement = tuple(p for p in ambient.points if p not in member)
        if h_seed is None:
            inside = dict(zip(member, member))
            outside = dict(zip(pad_labels, complement))
        else:
            rng = rng_for(h_seed, f"chart-{seed}-{','.join(member)}")
            inside_targets = list(member)
            rng.shuffle(inside_targets)
            outside_targets = list(complement)
            rng.shuffle(outside_targets)
            inside = dict(zip(member, inside_targets))
            outside = dict(zip(pad_labels, outside_targets))
        chart = {**inside, **outside}
        charts.append((member, tuple((p, chart[p]) for p in member + pad_labels)))
    return ContinuationContext(ambient, k, family, pad, tuple(charts))


# ---------------------------------------------------------------------------
# the underlying construction on subsets


def member_space(ctx: ContinuationContext, member: Sequence[str]) -> FiniteMetricSpace:
    """The family member as a subspace of the ambient space."""
    return subspace(ctx.ambient, ctx.member(member))


# ---------------------------------------------------------------------------
# map extension


def conjugate_map(ctx: ContinuationContext, phi: MetricMap) -> MetricMap:
    """A map between family members in member-plus-pad coordinates: read a
    member point through its chart, apply ``phi``, read back through the
    codomain chart."""
    dom = member_space(ctx, phi.domain.points)
    cod = member_space(ctx, phi.codomain.points)
    h_dom = ctx.chart(dom.points)
    h_cod_inv = ctx.chart_inverse(cod.points)
    return metric_map(dom, cod, {x: h_cod_inv[phi(h_dom[x])] for x in dom.points})


def extend_map(ctx: ContinuationContext, phi: MetricMap) -> MetricMap:
    """Extend a map between family members to an ambient self-map: the member
    behaves like ``phi``, the rest rides along the charts.

    Apply :func:`conjugate_map` on the member, let pad points pass through
    unchanged, and conjugate the padded map by the charts on the ambient side.
    """
    conjugate = conjugate_map(ctx, phi)
    moved = conjugate.as_dict()
    h_cod = ctx.chart(conjugate.codomain.points)
    return metric_map(ctx.ambient, ctx.ambient, {
        a: h_cod[moved.get(x, x)]
        for a, x in ctx.chart_inverse(conjugate.domain.points).items()
    })


# ---------------------------------------------------------------------------
# metric extension


def extend_metric(
    ctx: ContinuationContext, member: Sequence[str], d: FiniteMetricSpace
) -> FiniteMetricSpace:
    """Extend a metric given on a family member to the whole ambient point set.

    Pull the metric back along the chart, adjoin the pad at cross distance
    ``max(diameter, 1)``, and push the result forward to ambient labels.  The
    output restricts to ``d`` on the member exactly (for any charts) and is
    axiom-scanned again.  A one-point pad has diameter 0, so the gluing
    raises :class:`AnchorDiameterNotOne` when ``n - k == 1``.
    """
    key = ctx.member(member)
    if set(d.points) != set(key):
        raise InvalidMetric(
            f"metric is on {sorted(d.points)!r}, expected {sorted(key)!r}"
        )
    if d.mode != ctx.ambient.mode:
        raise SpaceMismatch("the metric is not in the ambient space's mode")
    mode = d.mode
    h = ctx.chart(key)
    # pull back: a relabeling of the validated ``d``, so it is not re-validated
    pulled = FiniteMetricSpace(
        key, tuple(tuple(d.distance(h[x], h[y]) for y in key) for x in key), mode
    )
    padded = glue_space(pulled, ctx.pad)
    h_inv = ctx.chart_inverse(key)
    matrix = tuple(
        tuple(padded.distance(h_inv[a], h_inv[b]) for b in ctx.ambient.points)
        for a in ctx.ambient.points
    )
    return scanned_space(ctx.ambient.points, matrix, mode)


# ---------------------------------------------------------------------------
# decomposition of subset-preserving bijections


def decompose_automorphism(
    ctx: ContinuationContext, member: Sequence[str], h: MetricMap
) -> tuple[MetricMap, MetricMap]:
    """Factor an ambient self-bijection preserving the member setwise.

    Returns ``(u, v)`` with ``h == u ∘ v``, where ``v`` is the extension of
    the restriction of ``h`` to the member and ``u`` fixes the member
    pointwise.  The factorization is unique for the fixture's charts.
    """
    key = ctx.member(member)
    if h.domain != ctx.ambient or h.codomain != ctx.ambient:
        raise BadParameters("the map must be an ambient self-map")
    if not is_bijective(h):
        raise BadParameters("the map must be a bijection")
    if {h(x) for x in key} != set(key):
        raise NotSetwiseInvariant(
            f"the map does not carry {sorted(key)!r} onto itself"
        )
    member_sp = subspace(ctx.ambient, key)
    restriction = metric_map(member_sp, member_sp, {x: h(x) for x in key})
    v = extend_map(ctx, restriction)
    u = compose(h, invert(v))
    return u, v


def _bijections(ctx: ContinuationContext, member: Sequence[str]) -> list[MetricMap]:
    """All ambient self-bijections carrying the member onto itself,
    lexicographic in ambient point order."""
    key = ctx.member(member)
    rest = tuple(p for p in ctx.ambient.points if p not in key)
    return [
        metric_map(ctx.ambient, ctx.ambient, dict(zip(key + rest, sigma + tau)))
        for sigma in itertools.permutations(key)
        for tau in itertools.permutations(rest)
    ]
