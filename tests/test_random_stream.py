"""The library's draws keep random.Random's stream bit for bit.

polyring._random_codes and polyring._random_poly_codes run
Random._randbelow's rejection loop on getrandbits themselves; these tests
hold _random_codes to rng.randrange draw for draw, and random_poly to its
randrange-based form (randrange_stream.py), with equal generator states after.
The goldens and selftest transcripts depend on this stream.
"""

import itertools
from random import Random

import pytest

from ffsym.gf import field_make
from ffsym.polyring import _random_codes, random_poly
from randrange_stream import randrange_random_poly

BOUNDS = [1, 2, 3, 4, 5, 7, 8, 9, 13, 243, 256, 257, 625, 65521, 2**31 - 1]
SEEDS = range(24)


@pytest.mark.parametrize("n", BOUNDS)
def test_random_codes_is_the_randrange_stream(n):
    for seed, count in itertools.product(SEEDS, (0, 1, 2, 9, 40)):
        ours, oracle = Random(seed), Random(seed)
        assert _random_codes(ours, n, count) == [oracle.randrange(n) for _ in range(count)]
        assert ours.getstate() == oracle.getstate()


# F_2 draws its leading code below 1; F_4 is the smallest even extension
@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (7, 1), (3, 2), (257, 1), (3, 5), (5, 4),
                                 (65521, 1)])
def test_random_poly_is_the_randrange_stream(p, e):
    field = field_make(p, e)
    for nonzero, monic, exact_deg in itertools.product((False, True), repeat=3):
        flags = dict(nonzero=nonzero, monic=monic, exact_deg=exact_deg)
        for seed in range(20):
            ours, oracle = Random(f"{seed}:{flags}"), Random(f"{seed}:{flags}")
            for max_deg in (0, 1, 2, 3, 5, 0, 4):
                assert (random_poly(field, ours, max_deg, **flags)
                        == randrange_random_poly(field, oracle, max_deg, **flags))
            assert ours.getstate() == oracle.getstate()


def test_an_empty_range_raises():
    # an empty range rejects every draw, so it must raise, not loop
    field = field_make(3)
    for n in (0, -1, -8):
        with pytest.raises(ValueError):
            _random_codes(Random(0), n, 1)
    for max_deg, (nonzero, monic, exact_deg) in itertools.product(
            (-1, -3), itertools.product((False, True), repeat=3)):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            random_poly(field, rng, max_deg, nonzero=nonzero, monic=monic, exact_deg=exact_deg)
        assert rng.getstate() == state  # raised before any draw
