"""Number parsing, serialization and comparison-mode behavior."""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfun import EXACT, FormatError, float_mode, format_number, parse_number
from zfun.numbers import Mode, mode_from_name
from zfun.suites import Report, RunConfig


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_a_format_error(self, bad):
        with pytest.raises(FormatError, match="not a finite number"):
            parse_number(bad)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "--3", None, [1]])
    def test_garbage_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_number(bad)

    @settings(derandomize=True, max_examples=200)
    @given(st.fractions())
    def test_format_parse_round_trip(self, q):
        assert parse_number(format_number(q)) == q


def assert_parses_as_fraction(s):
    """``parse_number`` agrees with ``Fraction``'s own string parser, and
    float mode with ``float`` of that Fraction: same value, or both reject."""
    try:
        expected = Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None:
        with pytest.raises(FormatError, match="not a rational"):
            parse_number(s)
        with pytest.raises(FormatError):
            float_mode().convert(s)
        return
    assert parse_number(s) == expected
    try:
        as_float = float(expected)
    except OverflowError:
        with pytest.raises(FormatError):
            float_mode().convert(s)
    else:
        assert repr(float_mode().convert(s)) == repr(as_float)


class TestParseAgreesWithFraction:
    """A plain ASCII "p/q" is read with two ``int`` calls, every other string
    by ``Fraction``; either way the grammar and the value are ``Fraction``'s."""

    @settings(derandomize=True, max_examples=500)
    @given(st.text(alphabet="0123456789/+-_.e \n\u00b2\u0663", max_size=12))
    def test_drawn_strings(self, s):
        assert_parses_as_fraction(s)

    @pytest.mark.parametrize("s", [
        "\u0663/\u0664",  # Arabic-Indic digits: Fraction's grammar, not the plain path
        "\u00b2/3",  # a superscript: a digit to str.isdigit, not to int()
        "1_0/3",  # rejected on 3.10, accepted from 3.11 on
        "0/0", "03/004", "7/1", "0/5", "3/4\n", " 3/4", "-3/4", "+3/4",
        "1" * 5001 + "/2", "2/" + "1" * 5001,  # past the integer string limit
    ])
    def test_fixed_strings(self, s):
        assert_parses_as_fraction(s)


class TestFormatNumber:
    def test_fraction_keeps_slash(self):
        assert format_number(Fraction(3, 2)) == "3/2"

    def test_whole_fraction_has_no_slash(self):
        assert format_number(Fraction(6, 2)) == "3"

    def test_float_uses_repr(self):
        assert format_number(0.1) == "0.1"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter has no integer string limit")
    def test_more_digits_than_the_string_limit_is_a_format_error(self):
        limit = sys.get_int_max_str_digits()
        assert format_number(Fraction(10 ** (limit - 1))) == "1" + "0" * (limit - 1)
        with pytest.raises(FormatError, match="too large to write"):
            format_number(Fraction(1, 10**limit))


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


class TestModeFields:
    """``is_exact``, ``zero``, ``one`` and ``pivot_eps`` are set once from
    ``kind`` and take no part in equality, hashing, ``repr`` or the report."""

    MODES = [EXACT, float_mode(), float_mode(1e-3)]

    @pytest.mark.parametrize("mode", MODES, ids=["exact", "float", "float-1e-3"])
    def test_equality_hash_and_repr_see_kind_and_tolerance_only(self, mode):
        twin = Mode(mode.kind, mode.tolerance)
        assert twin == mode and twin is not mode
        assert hash(mode) == hash(twin) == hash((mode.kind, mode.tolerance))
        assert repr(mode) == f"Mode(kind={mode.kind!r}, tolerance={mode.tolerance!r})"
        assert [f.name for f in dataclasses.fields(Mode) if f.init] == ["kind", "tolerance"]

    def test_replace_derives_the_fields_again(self):
        as_float = dataclasses.replace(EXACT, kind="float", tolerance=1e-6)
        assert as_float == float_mode(1e-6)
        assert (as_float.is_exact, as_float.zero, as_float.one, as_float.pivot_eps) == (
            False, 0.0, 1.0, 1e-12)
        assert all(type(v) is float for v in (as_float.zero, as_float.one, as_float.pivot_eps))
        as_exact = dataclasses.replace(as_float, kind="exact", tolerance=0.0)
        assert as_exact == EXACT and as_exact.is_exact
        assert all(type(v) is Fraction for v in (as_exact.zero, as_exact.one, as_exact.pivot_eps))
        with pytest.raises((ValueError, TypeError)):  # TypeError from 3.13 on
            dataclasses.replace(EXACT, is_exact=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            EXACT.is_exact = False

    def test_report_config_bytes(self):
        assert Report("check all", RunConfig(mode=float_mode(1e-3), seed=7), []).to_json() == (
            '{\n  "command": "check all",\n  "config": {\n    "mode": "float",\n'
            '    "seed": "7",\n    "trials": "100",\n    "n": "4",\n    "k": "2",\n'
            '    "tolerance": "0.001"\n  },\n  "records": [],\n  "pass": true\n}\n'
        )
        assert Report("check all", RunConfig(), []).to_json() == (
            '{\n  "command": "check all",\n  "config": {\n    "mode": "exact",\n'
            '    "seed": "0",\n    "trials": "100",\n    "n": "4",\n    "k": "2"\n'
            '  },\n  "records": [],\n  "pass": true\n}\n'
        )


class TestFloatConvertOfPlainRatios:
    """Float mode reads a plain ``"p/q"`` as ``int(p) / int(q)``: the double
    of ``Fraction(p, q)``, and the errors the Fraction path raised."""

    @settings(derandomize=True, max_examples=300)
    @given(st.integers(8, 1100), st.integers(8, 1100), st.randoms(use_true_random=False))
    def test_the_double_of_the_fraction(self, p_bits, q_bits, rng):
        p = rng.getrandbits(p_bits)
        q = rng.getrandbits(q_bits) | 1
        try:
            expected = float(Fraction(p, q))
        except OverflowError:
            with pytest.raises(FormatError, match="too large for float mode"):
                float_mode().convert(f"{p}/{q}")
        else:
            assert float_mode().convert(f"{p}/{q}").hex() == expected.hex()

    @pytest.mark.parametrize("s, value", [("0/7", 0.0), ("03/004", 0.75)])
    def test_zero_and_leading_zeros(self, s, value):
        got = float_mode().convert(s)
        assert type(got) is float and got.hex() == value.hex()

    @pytest.mark.parametrize("s, message, cause", [
        ("1/0", "not a rational: '1/0'", ZeroDivisionError),
        ("1" * 5001 + "/2", "not a rational: '" + "1" * 5001 + "/2'", ValueError),
        ("2/" + "1" * 5001, "not a rational: '2/" + "1" * 5001 + "'", ValueError),
        ("18" + "0" * 307 + "/1", "too large for float mode: '18" + "0" * 307 + "/1'",
         OverflowError),
    ], ids=["zero-denominator", "long-numerator", "long-denominator", "past-1.8e308"])
    def test_errors(self, request, s, message, cause):
        if cause is ValueError:  # a part past the integer string limit
            request.getfixturevalue("default_limit")
        with pytest.raises(FormatError) as info:
            float_mode().convert(s)
        assert str(info.value) == message
        assert type(info.value.__cause__) is cause


class TestConvertDirectPath:
    """``Mode.convert`` on values that are already a Fraction or a float."""

    def test_float_comes_back_as_the_same_object(self):
        value = 0.1 + 0.2
        assert float_mode().convert(value) is value

    def test_fraction_comes_back_as_the_same_object_in_exact_mode(self):
        q = Fraction(22, 7)
        assert EXACT.convert(q) is q

    def test_fraction_to_float_is_bit_identical_to_float(self):
        rng = random.Random(1000)
        mode = float_mode()
        for _ in range(2000):
            bits = rng.choice([8, 60, 600, 1100, 1500])
            num = rng.getrandbits(bits) * rng.choice([1, -1])
            den = rng.getrandbits(max(1, bits + rng.randint(-60, 60))) + 1
            q = Fraction(num, den)
            assert mode.convert(q).hex() == float(q).hex(), q
        edges = (
            Fraction(2**1023 + 1, 3),  # near the largest double
            Fraction(1, 2**1074 * 3),  # a subnormal
            Fraction(-(2**1000) - 1, 2**999),
        )
        for q in edges:
            assert mode.convert(q).hex() == float(q).hex()

    def test_overflow_is_still_a_format_error(self):
        with pytest.raises(FormatError):
            float_mode().convert(Fraction(10) ** 400)
        with pytest.raises(FormatError):
            float_mode().convert(10**400)

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_bool_is_still_rejected(self, mode):
        with pytest.raises(FormatError):
            mode.convert(True)

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_a_format_error(self, mode, bad):
        with pytest.raises(FormatError, match="not a finite number"):
            mode.convert(bad)
