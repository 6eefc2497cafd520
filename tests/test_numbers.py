"""Number parsing, serialization and comparison-mode behavior."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfun import EXACT, FormatError, float_mode, format_number, parse_number
from zfun.numbers import Mode, mode_from_name


class TestParseNumber:
    def test_rational_string(self):
        assert parse_number("3/2") == Fraction(3, 2)

    def test_decimal_string(self):
        assert parse_number("0.25") == Fraction(1, 4)

    def test_integer_string(self):
        assert parse_number("7") == Fraction(7)

    def test_whitespace_tolerated(self):
        assert parse_number("  5/3 ") == Fraction(5, 3)

    def test_int_and_fraction_pass_through(self):
        assert parse_number(4) == Fraction(4)
        assert parse_number(Fraction(2, 7)) == Fraction(2, 7)

    def test_float_converts_exactly(self):
        assert parse_number(0.5) == Fraction(1, 2)

    def test_bool_rejected(self):
        with pytest.raises(FormatError):
            parse_number(True)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "--3", None, [1]])
    def test_garbage_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_number(bad)

    @settings(derandomize=True, max_examples=200)
    @given(st.fractions())
    def test_format_parse_round_trip(self, q):
        assert parse_number(format_number(q)) == q


class TestFormatNumber:
    def test_fraction_keeps_slash(self):
        assert format_number(Fraction(3, 2)) == "3/2"

    def test_whole_fraction_has_no_slash(self):
        assert format_number(Fraction(6, 2)) == "3"

    def test_float_uses_repr(self):
        assert format_number(0.1) == "0.1"


class TestModes:
    def test_exact_mode_is_exact(self):
        assert EXACT.is_exact
        assert EXACT.zero == Fraction(0)
        assert EXACT.one == Fraction(1)
        assert EXACT.pivot_eps == 0

    def test_exact_comparisons_are_strict(self):
        tiny = Fraction(1, 10**12)
        assert not EXACT.eq(Fraction(0), tiny)
        assert EXACT.leq(Fraction(0), tiny)
        assert not EXACT.leq(tiny, Fraction(0))
        assert EXACT.positive(tiny)

    def test_float_mode_defaults(self):
        mode = float_mode()
        assert not mode.is_exact
        assert mode.tolerance == 1e-9
        assert mode.pivot_eps == 1e-12
        assert isinstance(mode.convert("3/2"), float)
        assert mode.convert("3/2") == 1.5

    def test_float_comparisons_respect_tolerance(self):
        mode = float_mode(1e-9)
        assert mode.eq(1.0, 1.0 + 1e-12)
        assert not mode.eq(1.0, 1.0 + 1e-6)
        assert mode.leq(1.0 + 1e-12, 1.0)
        assert not mode.positive(1e-12)
        assert mode.positive(1e-6)

    def test_mode_from_name(self):
        assert mode_from_name("exact") is EXACT
        assert mode_from_name("float").tolerance == 1e-9
        assert mode_from_name("float", 1e-6).tolerance == 1e-6
        with pytest.raises(ValueError):
            mode_from_name("interval")

    def test_float_overflow_is_a_format_error(self):
        with pytest.raises(FormatError):
            float_mode().convert("1e400")
        assert EXACT.convert("1e400") == Fraction(10) ** 400

    def test_bad_modes_rejected(self):
        with pytest.raises(ValueError):
            Mode("decimal")
        with pytest.raises(ValueError):
            Mode("float", 0.0)
