"""Probability measures, pushforwards, and image/preimage transfer."""

from fractions import Fraction

import pytest

from zfun import (
    InvalidWeights,
    SpaceMismatch,
    UnknownPoint,
    convex_combination,
    dirac,
    float_mode,
    identity_map,
    image,
    image_weight,
    in_image,
    integrate,
    measures_equal,
    metric_map,
    preimage_measure,
    prob_measure,
    pushforward,
    validate_space,
)
from zfun.generate import random_map, random_measure, random_space, rng_for

from helpers import all_maps, grid_measures, space_ab, space_abc


def float_space_ab():
    """``space_ab()`` validated in float mode."""
    space = space_ab()
    return validate_space(space.points, space.dist, float_mode())


class TestProbMeasure:
    def test_accepts_and_canonicalizes(self):
        space = space_abc()
        mu = prob_measure(space, {"c": Fraction(1, 3), "a": "2/3", "b": 0})
        assert mu.weights == (("a", Fraction(2, 3)), ("c", Fraction(1, 3)))
        assert mu.support() == ("a", "c")
        assert mu.weight("b") == 0
        with pytest.raises(UnknownPoint):
            mu.weight("z")

    def test_weight_off_the_support_is_the_modes_zero(self):
        exact = space_abc()
        weight = prob_measure(exact, {"a": 1}).weight("b")
        assert weight == 0 and type(weight) is Fraction
        weight = dirac(float_space_ab(), "a").weight("b")
        assert weight == 0.0 and type(weight) is float

    def test_rejects_bad_weights(self):
        space = space_ab()
        with pytest.raises(InvalidWeights):
            prob_measure(space, {"a": "1/2", "b": "1/3"})  # total 5/6
        with pytest.raises(InvalidWeights):
            prob_measure(space, {"a": "3/2", "b": "-1/2"})  # negative
        with pytest.raises(UnknownPoint):
            prob_measure(space, {"a": "1/2", "z": "1/2"})

    def test_float_mode_renormalizes_and_records_drift(self):
        space = float_space_ab()
        mu = prob_measure(space, {"a": 0.5, "b": 0.5 + 1e-13})
        assert mu.drift == pytest.approx(1e-13, rel=0.5)
        assert sum(w for _, w in mu.weights) == 1.0

    def test_float_mode_rejects_larger_drift(self):
        space = float_space_ab()
        with pytest.raises(InvalidWeights):
            prob_measure(space, {"a": 0.5, "b": 0.51})

    def test_dirac(self):
        space = space_abc()
        mu = dirac(space, "b")
        assert mu.weights == (("b", Fraction(1)),)
        with pytest.raises(UnknownPoint):
            dirac(space, "z")

    def test_equality_ignores_drift(self):
        space = float_space_ab()
        exact_half = prob_measure(space, {"a": 0.5, "b": 0.5})
        nudged = prob_measure(space, {"a": 0.5 * (1 + 1e-13), "b": 0.5 * (1 + 1e-13)})
        assert measures_equal(exact_half, nudged)


class TestPushforward:
    def test_documented_example(self):
        space = space_abc()
        f = metric_map(space, space, {"a": "b", "b": "b", "c": "a"})
        mu = prob_measure(space, {"a": "1/2", "b": "1/4", "c": "1/4"})
        out = pushforward(f, mu)
        assert out.as_dict() == {"b": Fraction(3, 4), "a": Fraction(1, 4)}

    def test_space_mismatch(self):
        f = metric_map(space_ab(), space_ab(), {"a": "b", "b": "a"})
        mu = dirac(space_abc(), "a")
        with pytest.raises(SpaceMismatch):
            pushforward(f, mu)

    def test_functor_laws_randomized(self):
        rng = rng_for(23, "push-functor")
        for _ in range(40):
            a = random_space(rng, rng.randint(1, 5), prefix="a")
            b = random_space(rng, rng.randint(1, 5), prefix="b")
            c = random_space(rng, rng.randint(1, 5), prefix="c")
            f = random_map(rng, a, b)
            g = random_map(rng, b, c)
            mu = random_measure(rng, a)
            assert pushforward(identity_map(a), mu) == mu
            assert pushforward(g, pushforward(f, mu)) == pushforward(
                metric_map(a, c, {p: g(f(p)) for p in a.points}), mu
            )

    def test_dirac_naturality_exhaustive(self):
        dom, cod = space_ab(), space_abc()
        for f in all_maps(dom, cod):
            for p in dom.points:
                assert pushforward(f, dirac(dom, p)) == dirac(cod, f(p))

    def test_affinity_on_grid(self):
        dom, cod = space_abc(), space_ab()
        f = metric_map(dom, cod, {"a": "a", "b": "b", "c": "a"})
        measures = list(grid_measures(dom, 4))
        coeffs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        for mu in measures[:6]:
            for nu in measures[-6:]:
                for t in coeffs:
                    mixed = convex_combination(t, mu, nu)
                    assert pushforward(f, mixed) == convex_combination(
                        t, pushforward(f, mu), pushforward(f, nu)
                    )

    def test_convex_combination_guards(self):
        mu = dirac(space_ab(), "a")
        nu = dirac(space_ab(), "b")
        with pytest.raises(InvalidWeights):
            convex_combination(Fraction(3, 2), mu, nu)
        with pytest.raises(SpaceMismatch):
            convex_combination(Fraction(1, 2), mu, dirac(space_abc(), "a"))

    def test_change_of_variables(self):
        dom, cod = space_abc(), space_ab()
        g = {"a": Fraction(2), "b": Fraction(-1, 3)}
        rng = rng_for(29, "change-of-variables")
        for _ in range(25):
            f = random_map(rng, dom, cod)
            mu = random_measure(rng, dom)
            lhs = integrate(g, pushforward(f, mu))
            rhs = integrate({p: g[f(p)] for p in dom.points}, mu)
            assert lhs == rhs

    def test_integrate(self):
        space = space_ab()
        mu = prob_measure(space, {"a": "1/4", "b": "3/4"})
        assert integrate({"a": Fraction(4), "b": Fraction(0)}, mu) == 1


class TestImageTransfer:
    def test_in_image_iff_constructive_witness_exhaustive(self):
        """For every map 3 -> 2 and every grid measure on the codomain:
        in_image agrees with the oracle (full mass on the image) and with
        the constructive preimage witness round-tripping."""
        dom, cod = space_abc(), space_ab()
        for f in all_maps(dom, cod):
            img = set(image(f))
            for mu in grid_measures(cod, 3):
                oracle = sum(
                    (w for p, w in mu.weights if p in img), Fraction(0)
                ) == 1
                assert in_image(f, mu) == oracle
                witness = preimage_measure(f, mu)
                if oracle:
                    assert witness is not None
                    assert pushforward(f, witness) == mu
                else:
                    assert witness is None

    def test_image_weight_value(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "c", "b": "c"})
        mu = prob_measure(cod, {"b": "1/4", "c": "3/4"})
        assert image_weight(f, mu) == Fraction(3, 4)
        with pytest.raises(SpaceMismatch):
            image_weight(f, dirac(dom, "a"))

    def test_preimage_splits_fibers_uniformly(self):
        dom, cod = space_abc(), space_ab()
        f = metric_map(dom, cod, {"a": "a", "b": "a", "c": "b"})
        mu = prob_measure(cod, {"a": "1/2", "b": "1/2"})
        witness = preimage_measure(f, mu)
        assert witness.as_dict() == {
            "a": Fraction(1, 4),
            "b": Fraction(1, 4),
            "c": Fraction(1, 2),
        }

    def test_surjectivity_transfer_exhaustive(self):
        """A map is onto iff every codomain measure is a pushforward."""
        dom, cod = space_abc(), space_ab()
        for f in all_maps(dom, cod):
            surjective = set(image(f)) == set(cod.points)
            all_in = all(in_image(f, mu) for mu in grid_measures(cod, 2))
            assert surjective == all_in

    def test_injectivity_transfer(self):
        """The pushed Diracs at two points coincide exactly when the map
        sends the points together."""
        dom, cod = space_ab(), space_abc()
        injective = metric_map(dom, cod, {"a": "a", "b": "c"})
        collapsing = metric_map(dom, cod, {"a": "b", "b": "b"})
        for f, collides in ((injective, False), (collapsing, True)):
            pushed_a, pushed_b = (pushforward(f, dirac(dom, p)) for p in "ab")
            assert (f("a") == f("b")) == collides
            assert measures_equal(pushed_a, pushed_b) == collides
