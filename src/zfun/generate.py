"""Seeded random generators for spaces, maps, measures and step functions.

Everything is driven by an explicit :class:`random.Random` so identical seeds
give identical structures on every platform.  Use :func:`rng_for` to derive
independent streams: it seeds from a string, which CPython hashes stably.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import truediv
from typing import Sequence

from .numbers import EXACT, Mode
from .spaces import FiniteMetricSpace, MetricMap, diameter, metric_map, scanned_space
from .measures import ProbMeasure, prob_measure
from .stepspace import StepFunction, step_function

_MAX_SEGMENTS = 6  # cells of a random step function, at most
_GRID = 64  # its breakpoints lie on the 1/_GRID lattice


def rng_for(seed: int, label: str) -> random.Random:
    """An independent, reproducible stream for ``(seed, label)``."""
    return random.Random(f"{seed}:{label}")


def random_space(
    rng: random.Random,
    size: int,
    prefix: str = "x",
    mode: Mode = EXACT,
    labels: Sequence[str] | None = None,
) -> FiniteMetricSpace:
    """A random valid metric on ``size`` labeled points.

    Draws a symmetric positive weight matrix and closes it under shortest
    paths, which repairs every triangle violation while keeping positivity.
    The closure runs on one integer lattice, which an exact space keeps; a
    float space takes each ``d / scale``, the double nearest the Fraction.
    """
    pts = tuple(labels) if labels is not None else tuple(f"{prefix}{i}" for i in range(size))
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = rng.getrandbits
    draws = [(_randint(bits, 1, 40), _randint(bits, 1, 8)) for _ in pairs]
    scale = lcm(*(q for _, q in draws))
    d = [[0] * n for _ in range(n)]
    for (i, j), (p, q) in zip(pairs, draws):
        d[i][j] = d[j][i] = p * (scale // q)
    if n > 2:  # a path shorter than an edge needs a third point
        for k, row_k in enumerate(d):
            for row_i in d:
                dik = row_i[k]
                for j, dkj in enumerate(row_k):
                    if dik + dkj < row_i[j]:
                        row_i[j] = dik + dkj
    ratio = Fraction if mode.is_exact else truediv
    matrix = [[mode.zero] * n for _ in range(n)]
    for i, j in pairs:
        matrix[i][j] = matrix[j][i] = ratio(d[i][j], scale)
    lattice = (tuple(map(tuple, d)), scale) if mode.is_exact else None
    return scanned_space(pts, tuple(map(tuple, matrix)), mode, lattice)


def _randint(getrandbits, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)`` from ``rng.getrandbits``: CPython's rejection
    loop (3.10 to 3.13), so the value and the stream left behind are the same."""
    n = hi - lo + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


def normalize_diameter(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Rescale so the diameter is exactly one (space must have >= 2 points)."""
    top = diameter(space)
    rows = tuple(tuple(v / top for v in row) for row in space.dist)
    return scanned_space(space.points, rows, space.mode)


def random_measure(
    rng: random.Random, space: FiniteMetricSpace, *, full_support: bool = False
) -> ProbMeasure:
    """Random rational weights totalling exactly one (possibly sparse).

    A float space takes each ``w / total``, the double nearest the Fraction.
    """
    n = len(space.points)
    while True:
        raw = [
            rng.randint(1, 9) if full_support or rng.random() < 0.8 else 0
            for _ in range(n)
        ]
        total = sum(raw)
        if total > 0:
            break
    ratio = Fraction if space.mode.is_exact else truediv
    weights = {p: ratio(w, total) for p, w in zip(space.points, raw) if w}
    return prob_measure(space, weights)


def random_map(
    rng: random.Random, domain: FiniteMetricSpace, codomain: FiniteMetricSpace
) -> MetricMap:
    assignment = {p: rng.choice(codomain.points) for p in domain.points}
    return metric_map(domain, codomain, assignment)


def random_step_function(rng: random.Random, target: FiniteMetricSpace) -> StepFunction:
    """Random step function of 1 to ``_MAX_SEGMENTS`` cells, breakpoints on the
    ``1/_GRID`` lattice."""
    cells = rng.randint(1, _MAX_SEGMENTS)
    interior = sorted(rng.sample(range(1, _GRID), cells - 1))
    bps = [Fraction(0)] + [Fraction(k, _GRID) for k in interior] + [Fraction(1)]
    vals = [rng.choice(target.points) for _ in range(len(bps) - 1)]
    return step_function(target, bps, vals)
