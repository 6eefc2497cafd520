"""Step functions from the unit interval into a finite metric space.

A step function is a breakpoint grid ``0 = t0 < t1 < ... < tm = 1`` with one
target point per cell ``[t_{i-1}, t_i)``.  Functions are canonicalized on
construction (adjacent equal values merged), so equality of representations is
equality almost everywhere.  The metric integrates the pointwise distance over
a common refinement, which makes the constant embedding isometric and the
pushforward-by-composition nonexpansive.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadN, BadParameters, TargetMismatch, UnknownPoint, ValueOutsideImage
from .numbers import Num
from .spaces import FiniteMetricSpace, MetricMap


@dataclass(frozen=True)
class StepFunction:
    """Canonical right-open step function on [0, 1].  Build via :func:`step_function`."""

    target: FiniteMetricSpace
    breakpoints: tuple[Num, ...]
    values: tuple[str, ...]

    def __call__(self, t) -> str:
        """Value at ``t`` in [0, 1] (the last cell is closed at 1)."""
        if t < 0 or t > 1:
            raise BadParameters(f"argument {t} outside [0, 1]")
        # the cell whose left end is the last breakpoint <= t, bar the final 1
        return self.values[bisect_right(self.breakpoints, t, 0, len(self.values)) - 1]


def step_function(
    target: FiniteMetricSpace, breakpoints: Sequence, values: Sequence[str]
) -> StepFunction:
    """Validate and canonicalize a step function, in the target's mode.

    Breakpoints must start at 0, end at 1 and strictly increase; values must
    be points of the target, one per cell.  Adjacent cells with equal values
    are merged, so two representations of the same function compare equal.
    """
    bps = [target.mode.convert(t) for t in breakpoints]
    if len(bps) < 2:
        raise BadParameters("need at least the endpoints 0 and 1")
    if bps[0] != 0 or bps[-1] != 1:
        raise BadParameters("breakpoints must start at 0 and end at 1")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise BadParameters("breakpoints must strictly increase")
    if len(values) != len(bps) - 1:
        raise BadParameters(
            f"need one value per cell: {len(bps) - 1} cells, {len(values)} values"
        )
    for v in values:
        if v not in target:
            raise UnknownPoint(f"{v!r} is not a point of the target")
    merged_bps = [bps[0]]
    merged_vals: list[str] = []
    for i, v in enumerate(values):
        if merged_vals and merged_vals[-1] == v:
            merged_bps[-1] = bps[i + 1]
        else:
            merged_vals.append(v)
            merged_bps.append(bps[i + 1])
    return StepFunction(target, tuple(merged_bps), tuple(merged_vals))


def dirac_const(target: FiniteMetricSpace, point: str) -> StepFunction:
    """The constant function at ``point`` — the isometric embedding of the target."""
    return step_function(target, (0, 1), (point,))


def refine(f: StepFunction, g: StepFunction) -> tuple[tuple[Num, ...], tuple[str, ...], tuple[str, ...]]:
    """Common breakpoint grid and the two value sequences over it."""
    cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
    fv: list[str] = []
    gv: list[str] = []
    fi = gi = 0
    for left in cuts[:-1]:
        while f.breakpoints[fi + 1] <= left:
            fi += 1
        while g.breakpoints[gi + 1] <= left:
            gi += 1
        fv.append(f.values[fi])
        gv.append(g.values[gi])
    return tuple(cuts), tuple(fv), tuple(gv)


def integral_metric(f: StepFunction, g: StepFunction) -> Num:
    """Integral over [0, 1] of the pointwise target distance."""
    if f.target != g.target:
        raise TargetMismatch("both functions must share the target space")
    cuts, fv, gv = refine(f, g)
    total = f.target.mode.zero
    for i in range(len(fv)):
        if fv[i] != gv[i]:
            total += (cuts[i + 1] - cuts[i]) * f.target.distance(fv[i], gv[i])
    return total


def compose_pushforward(f: MetricMap, u: StepFunction) -> StepFunction:
    """Pushforward of a step function along a map: compose values cellwise."""
    if u.target != f.domain:
        raise TargetMismatch("the step function must land in the map's domain")
    return step_function(f.codomain, u.breakpoints, tuple(f(v) for v in u.values))


def phi_n_witness(a: str, n: int, f: StepFunction) -> StepFunction:
    """Replace ``f`` by ``a`` on the initial cell [0, 1/n).

    The result is within ``diameter/n`` of ``f``, always passes through ``a``,
    and therefore avoids every step-function space over a subset missing ``a``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadN(f"head length must be a positive integer, got {n!r}")
    if a not in f.target:
        raise UnknownPoint(f"{a!r} is not a point of the target")
    mode = f.target.mode
    cut = mode.convert(Fraction(1, n))
    if cut >= 1:
        return dirac_const(f.target, a)
    bps: list[Num] = [mode.zero, cut]
    vals: list[str] = [a]
    for i, v in enumerate(f.values):
        right = f.breakpoints[i + 1]
        if right > cut:
            bps.append(right)
            vals.append(v)
    return step_function(f.target, bps, vals)


def select_preimage(f: MetricMap, v: StepFunction) -> StepFunction:
    """Pull a step function back through ``f`` by the least-index preimage.

    Each cell value is replaced by its earliest preimage in domain point
    order; pushing the result forward along ``f`` returns ``v`` exactly.
    Raises :class:`ValueOutsideImage` (naming the offending cell) when a value
    has no preimage.
    """
    if v.target != f.codomain:
        raise TargetMismatch("the step function must land in the map's codomain")
    first_preimage: dict[str, str] = {}
    for p in f.domain.points:
        first_preimage.setdefault(f(p), p)
    pulled = []
    for i, val in enumerate(v.values):
        if val not in first_preimage:
            raise ValueOutsideImage(i, val)
        pulled.append(first_preimage[val])
    return step_function(f.domain, v.breakpoints, pulled)

