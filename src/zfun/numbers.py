"""Number handling: exact rationals by default, tolerance-based floats on demand.

Quantities travel as :class:`fractions.Fraction` in exact mode and as ``float``
in float mode.  File formats always carry numbers as *strings* ("3/2", "0.25")
so exact values survive round trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import isfinite, lcm
from operator import add, truediv
from typing import Union

from .errors import FormatError

Num = Union[Fraction, float]

DEFAULT_FLOAT_TOLERANCE = 1e-9

_ZERO, _ONE = Fraction(0), Fraction(1)  # shared: Fractions are immutable

# a plain ASCII "p/q", which Fraction's string grammar reads as int(p) / int(q)
_PLAIN_RATIO = re.compile(r"([0-9]+)/([0-9]+)")


def _read_string(value: str, divide) -> Num:
    """``divide(int(p), int(q))`` for a plain ASCII ``"p/q"``, else ``Fraction(value)``.

    Either way the grammar is ``Fraction``'s: a string it rejects, or a zero
    denominator, raises FormatError.
    """
    try:
        plain = _PLAIN_RATIO.fullmatch(value)
        if plain:
            return divide(int(plain[1]), int(plain[2]))
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {value!r}") from exc


def parse_number(value) -> Fraction:
    """Parse a rational from a string ("3/2", "0.25", "7"), int, float or Fraction.

    A string follows ``Fraction``'s grammar; a plain ``"p/q"`` skips its
    parser for two ``int`` calls.
    """
    if isinstance(value, str):
        return _read_string(value, Fraction)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise FormatError(f"not a finite number: {value!r}")
        return Fraction(value)
    raise FormatError(f"unsupported number type: {type(value).__name__}")


def fold_sum(values, start=0):
    """``start + v0 + v1 + ...``, added left to right.

    This is the builtin ``sum`` up to Python 3.11; from 3.12 it compensates
    the rounding of floats, so float results would depend on the version.
    """
    return reduce(add, values, start)


def scaled(values) -> tuple[list[int], int]:
    """Rationals times the lcm of their denominators, as ints, and that lcm.

    Dividing every entry by one positive scale keeps sums, differences and
    comparisons, so exact kernels can run on Python ``int``s.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def format_number(value: Num) -> str:
    """Serialize a number as a string: "3/2" / "3" for rationals, repr for floats.

    A rational with more digits than Python converts to a string raises
    FormatError.
    """
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise FormatError("number too large to write: it has more digits "
                              "than the integer string conversion limit") from exc
    return repr(float(value))


def quote_number(value: Num) -> str:
    """:func:`format_number` for an error message, which names the number's field.

    A number too large to write reads as a placeholder, so the message
    still says which input broke which rule.
    """
    try:
        return format_number(value)
    except FormatError:
        return "<more digits than the integer string conversion limit>"


@dataclass(frozen=True)
class Mode:
    """Arithmetic and comparison policy.

    ``kind == "exact"`` keeps Fractions and compares exactly; ``kind ==
    "float"`` converts values to floats and compares within ``tolerance``.
    """

    kind: str
    tolerance: float = 0.0
    # set from ``kind`` in ``__post_init__``
    is_exact: bool = field(init=False, repr=False, compare=False)
    zero: Num = field(init=False, repr=False, compare=False)
    one: Num = field(init=False, repr=False, compare=False)
    #: zero threshold used inside solvers (tighter than the reporting tolerance)
    pivot_eps: Num = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.kind == "float" and not self.tolerance > 0:
            raise ValueError("float mode requires a positive tolerance")
        exact = self.kind == "exact"
        object.__setattr__(self, "is_exact", exact)
        object.__setattr__(self, "zero", _ZERO if exact else 0.0)
        object.__setattr__(self, "one", _ONE if exact else 1.0)
        object.__setattr__(self, "pivot_eps", _ZERO if exact else 1e-12)

    def convert(self, value) -> Num:
        """``value`` as this mode's number: a Fraction, or the double nearest it.

        Float mode reads a plain ``"p/q"`` as ``int(p) / int(q)``, which is
        correctly rounded, so it never builds the Fraction.
        """
        if self.is_exact:
            return value if isinstance(value, Fraction) else parse_number(value)
        if isinstance(value, float) and isfinite(value):
            return value
        try:
            q = _read_string(value, truediv) if isinstance(value, str) else parse_number(value)
            return q if isinstance(q, float) else q.numerator / q.denominator  # float(q)
        except OverflowError as exc:
            raise FormatError(f"too large for float mode: {value!r}") from exc

    def eq(self, a: Num, b: Num) -> bool:
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.tolerance

    def leq(self, a: Num, b: Num) -> bool:
        if self.is_exact:
            return a <= b
        return a - b <= self.tolerance

    def is_zero(self, a: Num) -> bool:
        return self.eq(a, self.zero)

    def positive(self, a: Num) -> bool:
        """Strict positivity, i.e. distinguishable from zero in this mode."""
        if self.is_exact:
            return a > 0
        return a > self.tolerance


EXACT = Mode("exact")


def float_mode(tolerance: float = DEFAULT_FLOAT_TOLERANCE) -> Mode:
    return Mode("float", tolerance)


def mode_from_name(name: str, tolerance: float = DEFAULT_FLOAT_TOLERANCE) -> Mode:
    if name == "exact":
        return EXACT
    if name == "float":
        return float_mode(tolerance)
    raise ValueError(f"unknown mode {name!r}")
