"""Seeded generators: ``random_space`` against a Fraction Floyd–Warshall."""

import pytest

from zfun import EXACT, float_mode
from zfun.generate import random_space, rng_for

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
