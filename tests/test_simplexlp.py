"""The LP kernel against a plain Fraction-tableau simplex.

Both use Bland's rule, so on every program the exact kernel must pivot alike
and return the same vertex, not only the same optimal value; the float kernel
must come within rounding of the same value.
"""

import importlib
import random
from fractions import Fraction

import pytest

from zfun import EXACT, BadParameters, SolverFailure, float_mode
from zfun.generate import random_measure, random_space, rng_for
from zfun.simplexlp import solve_inequality_lp

from helpers import reference_inequality_lp

kantorovich_module = importlib.import_module("zfun.kantorovich")


def random_rational_lp(rng: random.Random):
    """A small LP over rationals, far from totally unimodular.

    Coefficients come from a short list with repeats and zeros, and many
    right-hand sides are 0 or 1, so degenerate vertices, ratio-test ties and
    optimal faces with several vertices are common.
    """
    n, m = rng.randint(1, 5), rng.randint(1, 7)
    values = [Fraction(v) for v in (0, 0, 1, 1, 2, -1, "1/2", "-3/2")]
    values.append(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
    rhs_values = [Fraction(0), Fraction(1), Fraction(1), Fraction(rng.randint(1, 12), rng.randint(1, 5))]
    b = [rng.choice(rhs_values) for _ in range(m)]
    c = [rng.choice(values) for _ in range(n)]
    return c, rows, b


def solve_or_none(c, rows, b, mode=EXACT):
    try:
        return solve_inequality_lp(c, rows, b, mode)
    except SolverFailure:
        return None


class TestAgainstReference:
    def test_random_rational_programs(self):
        rng = rng_for(3, "simplex-oracle")
        outcomes = {"bounded": 0, "unbounded": 0, "zero rhs": 0}
        for _ in range(1000):
            c, rows, b = random_rational_lp(rng)
            expected = reference_inequality_lp(c, rows, b)
            assert solve_or_none(c, rows, b) == expected, (c, rows, b)
            outcomes["unbounded" if expected is None else "bounded"] += 1
            outcomes["zero rhs"] += 0 in b
        assert min(outcomes.values()) >= 50, outcomes

    def test_random_rational_programs_in_float_mode(self):
        # Pivots here are rarely 1, so float mode runs the Bareiss update,
        # which no program of this package reaches.
        rng = rng_for(3, "simplex-oracle")
        unbounded = 0
        for _ in range(1000):
            c, rows, b = random_rational_lp(rng)
            expected = reference_inequality_lp(c, rows, b)
            got = solve_or_none(c, rows, b, float_mode())
            assert (got is None) == (expected is None), (c, rows, b)
            if expected is None:
                unbounded += 1
            else:
                assert abs(got[0] - expected[0]) <= 1e-9, (c, rows, b)
        assert unbounded >= 50

    def test_kantorovich_dual_programs(self, monkeypatch):
        programs = []
        solve = kantorovich_module.solve_inequality_lp

        def recording(c, rows, b, mode):
            programs.append((c, rows, b))
            return solve(c, rows, b, mode)

        monkeypatch.setattr(kantorovich_module, "solve_inequality_lp", recording)
        rng = rng_for(5, "dual-oracle")
        for n in range(3, 13):
            space = random_space(rng, n)
            mu = random_measure(rng, space, full_support=True)
            nu = random_measure(rng, space, full_support=True)
            kantorovich_module.kantorovich_dual(mu, nu)
        assert len(programs) == 10
        for c, rows, b in programs:
            assert solve(c, rows, b, EXACT) == reference_inequality_lp(c, rows, b)

    def test_ratio_tie_goes_to_the_smaller_basic_variable(self):
        # x0 enters first and leaves row 1, so row 1 holds x0 (index 0) and
        # row 0 still holds its slack (index 4).  x1 enters next with ratio 1
        # in both rows; Bland pivots on row 1, and the first row would lead
        # to the other optimal vertex (0, 0, 1, 1).
        c, rows, b = [1, 1, 2, 0], [[1, 1, 0, 1], [2, 1, 1, 0], [1, -1, 0, 2]], [1, 1, 2]
        expected = (Fraction(2), [Fraction(0), Fraction(0), Fraction(1), Fraction(0)])
        assert reference_inequality_lp(c, rows, b) == expected
        assert solve_inequality_lp(c, rows, b, EXACT) == expected

    def test_unbounded_program_raises(self):
        # max x + y  s.t.  x - y <= 1: y grows without bound
        c, rows, b = [1, 1], [[1, -1]], [1]
        assert reference_inequality_lp(c, rows, b) is None
        with pytest.raises(SolverFailure):
            solve_inequality_lp(c, rows, b, EXACT)

    def test_results_are_fractions(self):
        F = Fraction
        program = ([F(1, 2), F(1, 3)], [[1, 1], [F(2, 3), 0]], [F(3, 4), F(1, 5)])
        value, x = solve_inequality_lp(*program)
        assert (value, x) == reference_inequality_lp(*program)
        assert all(isinstance(v, Fraction) for v in [value, *x])


class TestInputs:
    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_string_numbers_are_parsed_everywhere(self, mode):
        # max x + y/2  s.t.  x <= 1/2,  x + y <= 2
        c, rows, b = ["1", "1/2"], [["1", "0"], ["1", "1"]], ["1/2", "2"]
        value, x = solve_inequality_lp(c, rows, b, mode)
        assert (value, x) == (Fraction(5, 4), [Fraction(1, 2), Fraction(3, 2)])
        with pytest.raises(BadParameters, match="right-hand side"):
            solve_inequality_lp(c, rows, ["-1/2", "2"], mode)
