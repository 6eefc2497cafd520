"""Seeded generators: ``random_space`` against a Fraction Floyd–Warshall, its
draws against ``random.Random.randint``, and float ``random_measure`` against
the exact draw."""

import random

import pytest

from zfun import EXACT, float_mode
from zfun.generate import _randint, random_measure, random_space, rng_for
from zfun.measures import prob_measure

from helpers import reference_random_distances


@pytest.mark.parametrize(
    "mode, draws", [(EXACT, 512), (float_mode(), 128)], ids=["exact", "float"]
)
def test_random_space_matches_the_fraction_closure(mode, draws):
    """Same distances, to the repr, and the same stream left for later draws."""
    for seed in range(draws):
        size = 1 + seed % 16
        rng, ref_rng = rng_for(seed, "random-space"), rng_for(seed, "random-space")
        space = random_space(rng, size, mode=mode)
        expected = tuple(
            tuple(q if mode.is_exact else float(q) for q in row)
            for row in reference_random_distances(ref_rng, size)
        )
        assert repr(space.dist) == repr(expected), (seed, size)
        assert rng.random() == ref_rng.random(), (seed, size)


@pytest.mark.parametrize("lo, hi", [(1, 40), (1, 8)])
def test_draws_are_the_interpreters_randint(lo, hi):
    """The same values as ``randint`` and the same state left behind, on the
    running interpreter, for every range ``random_space`` draws from."""
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = [_randint(rng.getrandbits, lo, hi) for _ in range(64)]
        assert got == [ref_rng.randint(lo, hi) for _ in range(64)], seed
        assert rng.getstate() == ref_rng.getstate(), seed


@pytest.mark.parametrize("full_support", [False, True], ids=["sparse", "full"])
def test_float_random_measure_rounds_the_exact_weights(full_support):
    """Float weights are the doubles of the exact draw's ``Fraction(w, total)``
    after ``prob_measure``, to the repr, and the stream is left where the exact
    draw leaves it."""
    mode = float_mode()
    drifted = 0
    for seed in range(256):
        size = 1 + seed % 12
        rng, ref_rng = rng_for(seed, "random-measure"), rng_for(seed, "random-measure")
        space, exact_space = random_space(rng, size, mode=mode), random_space(ref_rng, size)
        mu = random_measure(rng, space, full_support=full_support)
        ref = random_measure(ref_rng, exact_space, full_support=full_support)
        expected = prob_measure(space, {p: float(q) for p, q in ref.weights})
        assert repr(mu.weights) == repr(expected.weights), (seed, size)
        assert mu.drift == expected.drift, (seed, size)
        assert rng.random() == ref_rng.random(), (seed, size)
        drifted += mu.drift != 0
    assert drifted  # some totals round off one, so the renormalization is covered
