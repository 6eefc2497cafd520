"""Finite metric spaces, maps between them, and the anchor-gluing construction.

A space is a nonempty tuple of distinct string labels plus a square distance
matrix and the arithmetic mode it was validated in; all values are immutable
once validated, and whatever is built on a space works in its mode.  Gluing
adjoins a fixed "anchor" space of diameter exactly one, with every cross
distance set to ``max(diameter, 1)`` — the (nonexpansive) maps between glued
spaces act as the original map on the original points and as the identity on
the anchor copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    AnchorDiameterNotOne,
    AxiomViolation,
    BadParameters,
    DomainMismatch,
    SpaceMismatch,
    UnknownPoint,
)
from .numbers import EXACT, Mode, Num, quote_number, scaled

ANCHOR_PREFIX = "ω:"  # "ω:" — reserved for anchor/pad labels


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite labeled point set with a validated distance matrix.

    ``mode`` is the arithmetic the distances were validated in; it takes part
    in equality, so an exact and a float space are never equal.  Build
    instances through :func:`validate_space`, or :func:`scanned_space` for a
    matrix the library made; the raw constructor trusts its arguments.
    :attr:`lattice` is no field and takes no part in equality, hashing or
    ``repr``: two ways of building one matrix may scale it apart.
    """

    points: tuple[str, ...]
    dist: tuple[tuple[Num, ...], ...]
    mode: Mode
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    @cached_property
    def lattice(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, scale)`` of ``int``s, ``dist[i][j] == Fraction(rows[i][j], scale)``."""
        flat, scale = scaled([v for row in self.dist for v in row])
        return tuple(zip(*[iter(flat)] * len(self.dist))), scale

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownPoint(f"{label!r} is not a point of this space") from None

    def distance(self, a: str, b: str) -> Num:
        return self.dist[self.index(a)][self.index(b)]


def _structural_check(points: Sequence[str], dist: Sequence[Sequence]) -> None:
    if len(points) == 0:
        raise BadParameters("a space needs at least one point")
    for p in points:
        if not isinstance(p, str):
            raise BadParameters(f"labels must be strings, got {type(p).__name__}")
    if len(set(points)) != len(points):
        raise BadParameters("point labels must be distinct")
    n = len(points)
    if len(dist) != n or any(not isinstance(row, (list, tuple)) or len(row) != n for row in dist):
        raise BadParameters(f"distance matrix must be {n}x{n}")


def metric_violations(
    points: Sequence[str], dist: Sequence[Sequence[Num]], mode: Mode = EXACT
) -> list[tuple[str, tuple[str, ...]]]:
    """Every metric-axiom violation in ``dist``, as ``(axiom, witness-labels)``.

    Checks identity, symmetry, positivity and the triangle inequality over all
    ordered triples of distinct points, in that order.  Exact mode scans the
    matrix on its integer lattice, ``int`` rows as given (a space's lattice),
    with tolerance zero; float mode scans the floats as given.  Each test is
    written as ``not (x <= tol)`` or ``not (x > tol)``, the comparisons of
    :class:`Mode`, so a NaN is a violation in float mode.  On a matrix equal
    to its transpose, (k, j, i) computes the same number as (i, j, k), as
    addition commutes, so the scan tests i < k first and walks every ordered
    triple only when one of those fails.
    """
    n, exact = len(points), mode.is_exact
    if exact and not set(map(type, chain.from_iterable(dist))) <= {int}:
        flat, _ = scaled([mode.convert(v) for row in dist for v in row])
        dist = [flat[i * n:(i + 1) * n] for i in range(n)]
    d, tol = dist, 0 if exact else mode.tolerance
    bad = [("identity", (points[i],)) for i in range(n) if not abs(d[i][i]) <= tol]
    for i, j in combinations(range(n), 2):
        if not abs(d[i][j] - d[j][i]) <= tol:
            bad.append(("symmetry", (points[i], points[j])))
        if not d[i][j] > tol:
            bad.append(("positivity", (points[i], points[j])))
    if tuple(map(tuple, d)) != tuple(zip(*d)) or next(_broken_triangles(d, tol, half=True), None):
        bad += [("triangle", (points[i], points[j], points[k]))
                for i, j, k in _broken_triangles(d, tol)]
    return bad


def _broken_triangles(d, tol, half=False):
    """Each (i, j, k) of distinct indices, in order, whose triangle fails:
    ``d(i, k) - (d(i, j) + d(j, k)) > tol``; with ``half``, only for i < k."""
    n = len(d)
    for i, row_i in enumerate(d):
        start = i + 1 if half else 0
        for j, row_j in enumerate(d):
            if i == j:
                continue
            dij = row_i[j]
            for k in range(start, n):
                if not row_i[k] - (dij + row_j[k]) <= tol and k != i and k != j:
                    yield i, j, k


def scanned_space(
    points: tuple[str, ...], dist: tuple[tuple[Num, ...], ...], mode: Mode, lattice=None
) -> FiniteMetricSpace:
    """The space of a matrix the library built, after one axiom scan.

    Trusts what its builder made: distinct labels, a square tuple of tuples,
    numbers already in ``mode``.  An exact builder that holds the matrix's
    ``int`` rows and scale hands them over as ``lattice=(rows, scale)``.
    Raises :class:`AxiomViolation` as :func:`validate_space` does.
    """
    space = FiniteMetricSpace(points, dist, mode)
    if lattice is not None:
        vars(space)["lattice"] = lattice  # what the cached property would hold
    violations = metric_violations(points, space.lattice[0] if mode.is_exact else dist, mode)
    if violations:
        raise AxiomViolation(violations)
    return space


def validate_space(
    points: Iterable[str], dist: Sequence[Sequence], mode: Mode = EXACT
) -> FiniteMetricSpace:
    """Validate labels and matrix and return the immutable space.

    Numbers are converted according to ``mode`` (strings like "3/2" accepted).
    Raises :class:`AxiomViolation` carrying *all* violated axioms, with
    witnesses, if the matrix is not a metric.
    """
    pts = tuple(points)
    _structural_check(pts, dist)
    return scanned_space(pts, tuple(tuple(map(mode.convert, row)) for row in dist), mode)


def diameter(space: FiniteMetricSpace) -> Num:
    """Largest pairwise distance (zero for a singleton)."""
    if space.mode.is_exact:
        rows, scale = space.lattice
        return Fraction(max(map(max, rows)), scale)
    upper = (v for i, row in enumerate(space.dist) for v in row[i + 1:])
    return max(upper, default=space.mode.zero)


def subspace(space: FiniteMetricSpace, labels: Iterable[str]) -> FiniteMetricSpace:
    """Restriction of the space to ``labels``, in ambient point order."""
    wanted = set(labels)
    missing = wanted - set(space.points)
    if missing:
        raise UnknownPoint(f"not points of the space: {sorted(missing)!r}")
    pts = tuple(p for p in space.points if p in wanted)
    idx = [space.index(p) for p in pts]
    matrix = tuple(tuple(space.dist[i][j] for j in idx) for i in idx)
    return FiniteMetricSpace(pts, matrix, space.mode)


@dataclass(frozen=True)
class MetricMap:
    """A total map between two finite metric spaces.

    The assignment is stored canonically as pairs in domain point order, so
    equality and hashing behave as expected.  Build through
    :func:`metric_map`.
    """

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    assignment: tuple[tuple[str, str], ...]
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.assignment))

    def __call__(self, label: str) -> str:
        try:
            return self._table[label]
        except KeyError:
            raise UnknownPoint(f"{label!r} is not in the domain") from None

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


def metric_map(
    domain: FiniteMetricSpace,
    codomain: FiniteMetricSpace,
    assignment: Mapping[str, str],
) -> MetricMap:
    """Validate totality and codomain membership, return the canonical map."""
    if domain.mode != codomain.mode:
        raise DomainMismatch("domain and codomain differ in arithmetic mode")
    extra = set(assignment) - set(domain.points)
    if extra:
        raise DomainMismatch(f"assignment mentions non-domain points: {sorted(extra)!r}")
    pairs = []
    for p in domain.points:
        if p not in assignment:
            raise DomainMismatch(f"assignment is not total: missing {p!r}")
        q = assignment[p]
        if q not in codomain:
            raise UnknownPoint(f"{q!r} is not a point of the codomain")
        pairs.append((p, q))
    return MetricMap(domain, codomain, tuple(pairs))


def identity_map(space: FiniteMetricSpace) -> MetricMap:
    return metric_map(space, space, {p: p for p in space.points})


def compose(g: MetricMap, f: MetricMap) -> MetricMap:
    """g after f; requires ``f.codomain == g.domain`` exactly."""
    if f.codomain != g.domain:
        raise DomainMismatch("cannot compose: inner codomain differs from outer domain")
    return metric_map(f.domain, g.codomain, {p: g(f(p)) for p in f.domain.points})


def image(f: MetricMap) -> tuple[str, ...]:
    """Image point labels, in codomain order."""
    hit = {f(p) for p in f.domain.points}
    return tuple(q for q in f.codomain.points if q in hit)


def is_injective(f: MetricMap) -> bool:
    values = [f(p) for p in f.domain.points]
    return len(set(values)) == len(values)


def is_surjective(f: MetricMap) -> bool:
    return len(image(f)) == len(f.codomain.points)


def is_bijective(f: MetricMap) -> bool:
    return is_injective(f) and is_surjective(f)


def invert(f: MetricMap) -> MetricMap:
    if not is_bijective(f):
        raise BadParameters("only bijective maps can be inverted")
    return metric_map(f.codomain, f.domain, {f(p): p for p in f.domain.points})


def sup_distance(f: MetricMap, g: MetricMap) -> Num:
    """Largest codomain distance between images of the same domain point.

    Both maps must share the domain and the codomain.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        raise DomainMismatch("sup distance needs a shared domain and codomain")
    return max(f.codomain.distance(f(p), g(p)) for p in f.domain.points)


# ---------------------------------------------------------------------------
# anchor gluing


@cache
def default_anchor(mode: Mode = EXACT) -> FiniteMetricSpace:
    """The minimal anchor: two points at distance exactly one."""
    one = mode.one
    zero = mode.zero
    return FiniteMetricSpace(
        (ANCHOR_PREFIX + "0", ANCHOR_PREFIX + "1"),
        ((zero, one), (one, zero)),
        mode,
    )


def relabel_disjoint(labels: Sequence[str], taken: Iterable[str]) -> tuple[str, ...]:
    """Deterministically rename ``labels`` until they avoid ``taken``.

    Collisions gain one "ω:" prefix per round; existing labels never change
    unless they collide.
    """
    used = set(taken)
    out = []
    for lbl in labels:
        cand = lbl
        while cand in used:
            cand = ANCHOR_PREFIX + cand
        out.append(cand)
        used.add(cand)
    return tuple(out)


def _anchor_for(
    space: FiniteMetricSpace, anchor: FiniteMetricSpace | None
) -> FiniteMetricSpace:
    """The anchor to glue onto ``space``: the default one, or a checked ``anchor``."""
    mode = space.mode
    if anchor is None:
        return default_anchor(mode)
    if anchor.mode != mode:
        raise SpaceMismatch("the anchor and the space differ in arithmetic mode")
    if not mode.eq(diameter(anchor), mode.one):
        raise AnchorDiameterNotOne(
            f"anchor diameter is {quote_number(diameter(anchor))}, expected exactly 1"
        )
    return anchor


def _blocks(a, b, cross) -> tuple[tuple, ...]:
    """Block-diagonal rows of ``a`` and ``b``, every cross entry ``cross``."""
    n, m = len(a), len(b)
    return tuple(tuple(r) + (cross,) * m for r in a) + tuple((cross,) * n + tuple(r) for r in b)


def glue_space(
    space: FiniteMetricSpace, anchor: FiniteMetricSpace | None = None
) -> FiniteMetricSpace:
    """Adjoin a disjoint copy of the anchor; the result is axiom-scanned.

    Point order is ``space.points`` followed by the (relabeled) anchor points;
    the matrix is block-diagonal, every cross distance ``max(diameter(space), 1)``.
    Exact lattices at scales s and t glue at ``lcm(s, t)``, the cross at ``max(max d, s)``.
    """
    anchor = _anchor_for(space, anchor)
    mode = space.mode
    pts = space.points + relabel_disjoint(anchor.points, space.points)
    matrix = _blocks(space.dist, anchor.dist, max(diameter(space), mode.one))
    if not mode.is_exact:
        return scanned_space(pts, matrix, mode)
    (a, s), (b, t) = space.lattice, anchor.lattice
    scale = lcm(s, t)
    a = [[v * (scale // s) for v in row] for row in a]
    b = [[v * (scale // t) for v in row] for row in b]
    rows = _blocks(a, b, max(max(map(max, a)), scale))
    return scanned_space(pts, matrix, mode, (rows, scale))


def glue_map(f: MetricMap, anchor: FiniteMetricSpace | None = None) -> MetricMap:
    """Extend ``f`` over the glued spaces, fixing the anchor copy pointwise.

    The anchor copies in the glued domain and codomain correspond
    positionally (relabeling may give them different labels on each side).
    """
    gdom = glue_space(f.domain, anchor)
    gcod = glue_space(f.codomain, anchor)
    dom_extra = gdom.points[len(f.domain.points):]
    cod_extra = gcod.points[len(f.codomain.points):]
    table = f.as_dict()
    for a, b in zip(dom_extra, cod_extra):
        table[a] = b
    return metric_map(gdom, gcod, table)
