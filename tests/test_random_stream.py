"""The library's draws keep random.Random's stream bit for bit.

polyring._random_codes runs Random._randbelow's rejection loop on getrandbits
itself; these tests hold it to rng.randrange draw for draw, and random_poly
to a copy of its randrange-based form, with equal generator states after.
The goldens and selftest transcripts depend on this stream.
"""

import itertools
from random import Random

import pytest

from ffsym.gf import field_make
from ffsym.polyring import Poly, _random_codes, random_poly

BOUNDS = [1, 2, 3, 4, 5, 7, 8, 9, 13, 243, 256, 257, 625, 65521, 2**31 - 1]
SEEDS = range(24)


@pytest.mark.parametrize("n", BOUNDS)
def test_random_codes_is_the_randrange_stream(n):
    for seed, count in itertools.product(SEEDS, (0, 1, 2, 9, 40)):
        ours, oracle = Random(seed), Random(seed)
        assert _random_codes(ours, n, count) == [oracle.randrange(n) for _ in range(count)]
        assert ours.getstate() == oracle.getstate()


def _randrange_random_poly(field, rng, max_deg, *, nonzero=False, monic=False, exact_deg=False):
    # random_poly as written on randrange and randint, the reference stream
    while True:
        deg = max_deg if exact_deg else rng.randint(0, max_deg)
        codes = [rng.randrange(field.q) for _ in range(deg)]
        codes.append(field.one_code if monic else rng.randrange(1, field.q))
        f = Poly(field, codes, trusted=True)
        if not exact_deg and not monic and rng.random() < 1.0 / (max_deg + 2):
            f = Poly.zero(field)
        if nonzero and f.is_zero:
            continue
        return f


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (257, 1), (3, 5), (5, 4)])
def test_random_poly_is_the_randrange_stream(p, e):
    field = field_make(p, e)
    for nonzero, monic, exact_deg in itertools.product((False, True), repeat=3):
        flags = dict(nonzero=nonzero, monic=monic, exact_deg=exact_deg)
        for seed in range(20):
            ours, oracle = Random(f"{seed}:{flags}"), Random(f"{seed}:{flags}")
            for max_deg in (0, 1, 2, 3, 5, 0, 4):
                assert (random_poly(field, ours, max_deg, **flags)
                        == _randrange_random_poly(field, oracle, max_deg, **flags))
            assert ours.getstate() == oracle.getstate()


def test_an_empty_range_raises():
    # an empty range rejects every draw, so it must raise, not loop
    field = field_make(3)
    for n in (0, -1, -8):
        with pytest.raises(ValueError):
            _random_codes(Random(0), n, 1)
    with pytest.raises(ValueError):
        random_poly(field, Random(0), -1)
