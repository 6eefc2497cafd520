"""The network LP kernel against a plain Fraction-tableau simplex.

The kernel takes its rows as index pairs; the reference takes them expanded
to dense rows.  Both use Bland's rule, so on every program the exact kernel
must pivot alike and return the same vertex, not only the same optimal
value; the float kernel must come within rounding of the same value.  The
kernel's own dense predecessor must agree with it bit for bit, on ints,
Fractions and floats, and take the same number of pivots.
"""

import importlib
import random
from fractions import Fraction

import pytest

from zfun import BadParameters, SolverFailure, float_mode, prob_measure, validate_space
from zfun import simplexlp
from zfun.generate import random_measure, random_space, rng_for
from zfun.numbers import scaled
from zfun.simplexlp import solve_inequality_lp

from helpers import assert_kernel_matches_dense, reference_inequality_lp

kantorovich_module = importlib.import_module("zfun.kantorovich")

FLOAT_EPS = float_mode().pivot_eps


def dense(rows, n):
    """The pair rows as dense rows: ``(i, j)`` is ``x_i - x_j``, ``(i, None)`` is ``x_i``."""
    out = []
    for i, j in rows:
        row = [0] * n
        row[i] = 1
        if j is not None:
            row[j] = -1
        out.append(row)
    return out


def reference(c, rows, b):
    return reference_inequality_lp(c, dense(rows, len(c)), b)


def random_network_lp(rng: random.Random):
    """A small network LP over rationals: pair rows and bound rows.

    Every variable is in some row, so a variable can run off only through
    pair rows.  Rows may repeat and many right-hand sides are 0 or 1, so
    degenerate vertices, ratio-test ties and optimal faces with several
    vertices are common.
    """
    n, extra = rng.randint(1, 5), rng.randint(0, 4)
    rows = []
    for k in list(range(n)) + [rng.randrange(n) for _ in range(extra)]:
        other = rng.choice([None] + [v for v in range(n) if v != k])
        rows.append((other, k) if other is not None and rng.random() < 0.5 else (k, other))
    rng.shuffle(rows)
    values = [Fraction(v) for v in (0, 0, 1, 1, 2, -1, "1/2", "-3/2")]
    values.append(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    rhs_values = [Fraction(0), Fraction(1), Fraction(1), Fraction(rng.randint(1, 12), rng.randint(1, 5))]
    b = [rng.choice(rhs_values) for _ in rows]
    c = [rng.choice(values) for _ in range(n)]
    return c, rows, b


def solve_or_none(c, rows, b, eps=0):
    try:
        return solve_inequality_lp(c, rows, b, eps)
    except SolverFailure:
        return None


class TestAgainstReference:
    def test_random_rational_programs(self):
        rng = rng_for(3, "simplex-oracle")
        outcomes = {"bounded": 0, "unbounded": 0, "zero rhs": 0}
        for _ in range(1000):
            c, rows, b = random_network_lp(rng)
            expected = reference(c, rows, b)
            assert solve_or_none(c, rows, b) == expected, (c, rows, b)
            if expected is None:
                # a program whose every variable has a bound row is bounded
                assert {i for i, j in rows if j is None} != set(range(len(c)))
            outcomes["unbounded" if expected is None else "bounded"] += 1
            outcomes["zero rhs"] += 0 in b
        assert min(outcomes.values()) >= 50, outcomes

    def test_random_rational_programs_in_float_mode(self):
        rng = rng_for(3, "simplex-oracle")
        unbounded = 0
        for _ in range(1000):
            c, rows, b = random_network_lp(rng)
            expected = reference(c, rows, b)
            got = solve_or_none([float(v) for v in c], rows, [float(v) for v in b], FLOAT_EPS)
            assert (got is None) == (expected is None), (c, rows, b)
            if expected is None:
                unbounded += 1
            else:
                assert abs(got[0] - expected[0]) <= 1e-9, (c, rows, b)
                assert all(type(v) is float for v in [got[0], *got[1]])
        assert unbounded >= 50

    def test_kantorovich_dual_programs(self, monkeypatch):
        programs = []
        solve = kantorovich_module.solve_inequality_lp

        def recording(c, rows, b, eps):
            programs.append((c, rows, b))
            return solve(c, rows, b, eps)

        monkeypatch.setattr(kantorovich_module, "solve_inequality_lp", recording)
        rng = rng_for(5, "dual-oracle")
        for n in range(3, 13):
            space = random_space(rng, n)
            mu = random_measure(rng, space, full_support=True)
            nu = random_measure(rng, space, full_support=True)
            kantorovich_module.kantorovich_dual(mu, nu)
        assert len(programs) == 10
        for c, rows, b in programs:
            assert solve(c, rows, b, 0) == reference(c, rows, b)

    def test_ratio_tie_goes_to_the_smaller_basic_variable(self):
        # max x0 - x1 + x2  s.t.  x1 <= 1, x0 - x1 <= 1, x2 <= 1, x0 - x2 <= 1.
        # x0 enters first with ratio 1 in rows 1 and 3, whose slacks are
        # variables 4 and 6; Bland pivots on row 1.  Row 3 would lead to the
        # other optimal vertex (2, 1, 1).
        F = Fraction
        c, rows, b = [F(1), F(-1), F(1)], [(1, None), (0, 1), (2, None), (0, 2)], [F(1)] * 4
        expected = (F(2), [F(1), F(0), F(1)])
        assert reference(c, rows, b) == expected
        assert solve_inequality_lp(c, rows, b, 0) == expected
        swapped = [rows[0], rows[3], rows[2], rows[1]]
        assert solve_inequality_lp(c, swapped, b, 0) == (F(2), [F(2), F(1), F(1)])

    def test_unbounded_program_raises(self):
        # max x + y  s.t.  x - y <= 1: y has no bound row and grows without bound
        c, rows, b = [Fraction(1), Fraction(1)], [(0, 1)], [Fraction(1)]
        assert reference(c, rows, b) is None
        with pytest.raises(SolverFailure, match="unbounded"):
            solve_inequality_lp(c, rows, b, 0)
        with pytest.raises(SolverFailure, match="unbounded"):
            solve_inequality_lp([1.0, 1.0], rows, [1.0], FLOAT_EPS)

    @pytest.mark.parametrize("kind", [int, Fraction, float])
    def test_results_are_the_numbers_given(self, kind):
        # x1 stays nonbasic at zero, so the zero of the given kind shows too
        F = Fraction
        c, rows, b = [F(1, 2), F(-1, 3)], [(0, None), (1, 0), (1, None)], [F(3, 4), F(1, 5), F(2, 3)]
        value, x = reference(c, rows, b)
        assert x[1] == 0
        if kind is int:
            (c, t), (b, s) = scaled(c), scaled(b)
            value, x = value * s * t, [v * s for v in x]
        eps = {int: 0, Fraction: F(0), float: FLOAT_EPS}[kind]
        got = solve_inequality_lp([kind(v) for v in c], rows, [kind(v) for v in b], eps)
        assert got == (kind(value), [kind(v) for v in x])
        assert {type(v) for v in [got[0], *got[1]]} == {kind}

    def test_negative_right_hand_side_is_rejected(self):
        with pytest.raises(BadParameters, match="right-hand side"):
            solve_inequality_lp([Fraction(1)], [(0, None)], [Fraction(-1, 2)], 0)
        with pytest.raises(BadParameters, match="right-hand side"):
            solve_inequality_lp([1.0], [(0, None)], [-0.5], FLOAT_EPS)


def assert_pivot_count(program, eps, pivots):
    """The kernel solves ``program`` in exactly ``pivots`` pivots."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplexlp, "MAX_PIVOTS", pivots + 1)
        solve_inequality_lp(*program, eps)
        patch.setattr(simplexlp, "MAX_PIVOTS", pivots)
        with pytest.raises(SolverFailure, match="pivot budget exhausted"):
            solve_inequality_lp(*program, eps)


class TestSparseMatchesDense:
    """The sparse-row kernel against the dense tableau it replaced.

    Both pivot by Bland's rule with the same ``v - f * q`` updates, so they
    must return the same numbers, bit for bit, after the same pivots.
    """

    @pytest.mark.parametrize("kind", ["int", "fraction", "float"])
    def test_random_network_programs(self, kind):
        eps = {"int": 0, "fraction": Fraction(0), "float": FLOAT_EPS}[kind]
        rng = rng_for(3, "simplex-oracle")
        counted = []
        for t in range(1000):
            c, rows, b = random_network_lp(rng)
            if kind == "int":
                (c, _), (b, _) = scaled(c), scaled(b)
            elif kind == "float":
                c, b = [float(v) for v in c], [float(v) for v in b]
            try:
                _, pivots = assert_kernel_matches_dense(c, rows, b, eps)
            except SolverFailure:
                continue
            if t % 10 == 0:
                assert_pivot_count((c, rows, b), eps, pivots)
                counted.append(pivots)
        assert len(counted) >= 50 and max(counted) >= 4, counted

    def test_full_support_dual_programs_up_to_64_points(self, monkeypatch):
        programs = []
        solve = kantorovich_module.solve_inequality_lp

        def recording(c, rows, b, eps):
            programs.append((c, rows, b, eps))
            return solve(c, rows, b, eps)

        monkeypatch.setattr(kantorovich_module, "solve_inequality_lp", recording)
        rng = rng_for(89, "sparse-kernel")
        mode = float_mode()
        for n in (24, 48, 64):
            space = random_space(rng, n)
            mu = random_measure(rng, space, full_support=True)
            nu = random_measure(rng, space, full_support=True)
            fspace = validate_space(space.points, space.dist, mode)
            fmu, fnu = (prob_measure(fspace, dict(m.weights)) for m in (mu, nu))
            kantorovich_module.kantorovich_dual(mu, nu)
            kantorovich_module.kantorovich_dual(fmu, fnu)
        monkeypatch.undo()
        assert [len(c) for c, _, _, _ in programs] == [23, 23, 47, 47, 63, 63]
        for c, rows, b, eps in programs:
            _, pivots = assert_kernel_matches_dense(c, rows, b, eps)
            if len(c) < 24:  # two more solves each, so only at the cheapest size
                assert_pivot_count((c, rows, b), eps, pivots)
