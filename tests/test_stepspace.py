"""Step functions on [0,1): canonical forms, integral metric, head witness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfun import (
    EXACT,
    BadN,
    BadParameters,
    TargetMismatch,
    UnknownPoint,
    ValueOutsideImage,
    compose_pushforward,
    diameter,
    dirac_const,
    float_mode,
    integral_metric,
    metric_map,
    phi_n_witness,
    refine,
    select_preimage,
    step_function,
    sup_distance,
)
from zfun.generate import random_map, random_space, random_step_function, rng_for

from helpers import space_ab, space_abc


class TestConstruction:
    def test_merges_adjacent_equal_values(self):
        f = step_function(space_ab(), ["0", "1/4", "1/2", "1"], ["a", "a", "b"])
        assert f.breakpoints == (0, Fraction(1, 2), Fraction(1))
        assert f.values == ("a", "b")

    def test_rejects_bad_breakpoints(self):
        space = space_ab()
        with pytest.raises(BadParameters):
            step_function(space, ["0"], [])
        with pytest.raises(BadParameters):
            step_function(space, ["0", "1/2"], ["a"])  # must end at 1
        with pytest.raises(BadParameters):
            step_function(space, ["1/4", "1"], ["a"])  # must start at 0
        with pytest.raises(BadParameters):
            step_function(space, ["0", "1/2", "1/2", "1"], ["a", "b", "a"])
        with pytest.raises(BadParameters):
            step_function(space, ["0", "1"], ["a", "b"])  # too many values

    def test_rejects_unknown_values(self):
        with pytest.raises(UnknownPoint):
            step_function(space_ab(), ["0", "1"], ["z"])

    def test_evaluation_is_right_open(self):
        f = step_function(space_ab(), ["0", "1/2", "1"], ["a", "b"])
        assert f(0) == "a"
        assert f(Fraction(1, 2)) == "b"  # cells are [t_i, t_{i+1})
        assert f(Fraction(499, 1000)) == "a"
        assert f(1) == "b"  # the last cell is closed at 1
        with pytest.raises(BadParameters):
            f(Fraction(3, 2))

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_lookup_matches_a_linear_scan(self, mode):
        # at every breakpoint (0 and 1 among them) and between each two
        def scan(f, t):
            for i in range(len(f.values)):
                if t < f.breakpoints[i + 1]:
                    return f.values[i]
            return f.values[-1]

        rng = rng_for(8, "step-lookup")
        for _ in range(100):
            f = random_step_function(rng, random_space(rng, rng.randint(1, 4), mode=mode))
            bps = f.breakpoints
            for t in bps + tuple((a + b) / 2 for a, b in zip(bps, bps[1:])):
                assert f(t) == scan(f, t)

    @settings(derandomize=True, max_examples=150)
    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=31), unique=True, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=10**6),
        extra=st.integers(min_value=1, max_value=31),
    )
    def test_representation_independence(self, cuts, seed, extra):
        """Splitting any cell at a new breakpoint leaves the function equal."""
        space = space_abc()
        rng = rng_for(seed, "hypothesis-step")
        bps = [Fraction(0)] + [Fraction(c, 32) for c in sorted(cuts)] + [Fraction(1)]
        vals = [rng.choice(space.points) for _ in range(len(bps) - 1)]
        f = step_function(space, bps, vals)
        cut = Fraction(extra, 32)
        if cut in bps:
            return
        refined_bps = sorted(bps + [cut])
        idx = refined_bps.index(cut)
        refined_vals = vals[: idx] + [vals[idx - 1]] + vals[idx:]
        assert step_function(space, refined_bps, refined_vals) == f


class TestRefineAndMetric:
    def test_refine_example(self):
        space = space_ab()
        f = step_function(space, ["0", "1/2", "1"], ["a", "b"])
        g = step_function(space, ["0", "1/4", "1"], ["b", "a"])
        cuts, fv, gv = refine(f, g)
        assert cuts == (0, Fraction(1, 4), Fraction(1, 2), Fraction(1))
        assert fv == ("a", "a", "b")
        assert gv == ("b", "a", "a")

    def test_integral_metric_frozen_value(self):
        space = space_ab()
        f = step_function(space, ["0", "1/2", "1"], ["a", "b"])
        g = dirac_const(space, "b")
        # they differ on [0, 1/2) by d(a,b) = 3/2
        assert integral_metric(f, g) == Fraction(3, 4)

    def test_metric_axioms_randomized(self):
        rng = rng_for(61, "step-axioms")
        for _ in range(60):
            space = random_space(rng, rng.randint(2, 5))
            f = random_step_function(rng, space)
            g = random_step_function(rng, space)
            h = random_step_function(rng, space)
            assert integral_metric(f, f) == 0
            d_fg = integral_metric(f, g)
            assert (d_fg == 0) == (f == g)
            assert d_fg == integral_metric(g, f)
            assert integral_metric(f, h) <= d_fg + integral_metric(g, h)

    def test_target_mismatch(self):
        f = dirac_const(space_ab(), "a")
        g = dirac_const(space_abc(), "a")
        with pytest.raises(TargetMismatch):
            integral_metric(f, g)

    def test_constant_embedding_is_isometric(self):
        space = space_abc()
        for x in space.points:
            for y in space.points:
                assert integral_metric(
                    dirac_const(space, x), dirac_const(space, y)
                ) == space.distance(x, y)

    def test_diameter_attained_by_constants(self):
        space = space_abc()
        assert diameter(space) == Fraction(3, 2)
        rng = rng_for(67, "step-diameter")
        for _ in range(40):
            f = random_step_function(rng, space)
            g = random_step_function(rng, space)
            assert integral_metric(f, g) <= Fraction(3, 2)
        assert integral_metric(
            dirac_const(space, "a"), dirac_const(space, "b")
        ) == Fraction(3, 2)


class TestPushforward:
    def test_compose_pushforward_values(self):
        f = metric_map(space_ab(), space_abc(), {"a": "c", "b": "b"})
        u = step_function(space_ab(), ["0", "1/2", "1"], ["a", "b"])
        v = compose_pushforward(f, u)
        assert v.values == ("c", "b")
        assert v.target == space_abc()

    def test_pushforward_collapses_and_canonicalizes(self):
        f = metric_map(space_ab(), space_abc(), {"a": "b", "b": "b"})
        u = step_function(space_ab(), ["0", "1/2", "1"], ["a", "b"])
        assert compose_pushforward(f, u) == dirac_const(space_abc(), "b")

    def test_sup_distance_bound_with_equality_at_constants(self):
        rng = rng_for(71, "step-bound")
        dom, cod = space_abc(), space_ab()
        for _ in range(40):
            phi = random_map(rng, dom, cod)
            psi = random_map(rng, dom, cod)
            bound = sup_distance(phi, psi)
            u = random_step_function(rng, dom)
            moved = integral_metric(
                compose_pushforward(phi, u), compose_pushforward(psi, u)
            )
            assert moved <= bound
            # the bound is attained at the constant sitting on a maximizer
            worst = max(
                dom.points, key=lambda p: cod.distance(phi(p), psi(p))
            )
            attained = integral_metric(
                compose_pushforward(phi, dirac_const(dom, worst)),
                compose_pushforward(psi, dirac_const(dom, worst)),
            )
            assert attained == bound

    def test_target_mismatch(self):
        f = metric_map(space_ab(), space_abc(), {"a": "a", "b": "b"})
        with pytest.raises(TargetMismatch):
            compose_pushforward(f, dirac_const(space_abc(), "a"))


class TestHeadWitness:
    def test_replaces_initial_cell(self):
        space = space_ab()
        f = dirac_const(space, "b")
        w = phi_n_witness("a", 4, f)
        assert w.breakpoints == (0, Fraction(1, 4), Fraction(1))
        assert w.values == ("a", "b")
        assert integral_metric(w, f) == Fraction(1, 4) * Fraction(3, 2)

    def test_n_one_gives_the_constant(self):
        space = space_ab()
        f = step_function(space, ["0", "1/3", "1"], ["b", "a"])
        assert phi_n_witness("a", 1, f) == dirac_const(space, "a")

    def test_distance_bound_for_all_n(self):
        rng = rng_for(73, "head-bound")
        for _ in range(10):
            space = random_space(rng, rng.randint(2, 5))
            diam = diameter(space)
            f = random_step_function(rng, space)
            a = rng.choice(space.points)
            for n in range(1, 65):
                w = phi_n_witness(a, n, f)
                assert integral_metric(w, f) <= Fraction(diam, n)
                assert w(0) == a  # always passes through the head value

    def test_bad_n_rejected(self):
        f = dirac_const(space_ab(), "a")
        for bad in (0, -3, True, Fraction(1, 2), 1.5):
            with pytest.raises(BadN):
                phi_n_witness("a", bad, f)

    def test_unknown_head_point_rejected(self):
        with pytest.raises(UnknownPoint):
            phi_n_witness("z", 4, dirac_const(space_ab(), "a"))


class TestSelection:
    def test_least_index_preimage(self):
        dom, cod = space_abc(), space_ab()
        f = metric_map(dom, cod, {"a": "a", "b": "a", "c": "b"})
        v = step_function(cod, ["0", "1/2", "1"], ["a", "b"])
        s = select_preimage(f, v)
        assert s.values == ("a", "c")  # 'a' chosen over 'b' for the fiber of a

    def test_round_trip_exact(self):
        rng = rng_for(79, "selection-round-trip")
        for _ in range(60):
            dom = random_space(rng, rng.randint(1, 5), prefix="d")
            cod = random_space(rng, rng.randint(1, 4), prefix="c")
            f = random_map(rng, dom, cod)
            u = random_step_function(rng, dom)
            v = compose_pushforward(f, u)  # guaranteed to lie in the image
            s = select_preimage(f, v)
            assert compose_pushforward(f, s) == v

    def test_value_outside_image_names_the_cell(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "a", "b": "a"})  # image = {a}
        v = step_function(cod, ["0", "1/2", "1"], ["a", "b"])
        with pytest.raises(ValueOutsideImage) as err:
            select_preimage(f, v)
        assert err.value.segment == 1
        assert err.value.value == "b"

    def test_target_mismatch(self):
        f = metric_map(space_ab(), space_abc(), {"a": "a", "b": "b"})
        with pytest.raises(TargetMismatch):
            select_preimage(f, dirac_const(space_ab(), "a"))
