"""Seeded randomized invariants of the polynomial and symbol layers, over a
large prime field, extension fields of odd and even characteristic, and
fields far from the small ones the example tests use."""

from random import Random

import pytest

from ffsym import (
    Place,
    Poly,
    RatFunc,
    check_general_reciprocity,
    factor,
    field_make,
    gcd,
    hilbert_product,
    is_irreducible,
    local_symbol,
    random_poly,
    support,
    xgcd,
)

FIELDS = [(257, 1), (17, 2), (3, 6), (2, 3), (2, 9)]
ODD_FIELDS = [(p, e) for p, e in FIELDS if p % 2]


def _setup(p, e, name):
    return field_make(p, e), Random(f"{name}:{p}^{e}")


@pytest.mark.parametrize("p,e", FIELDS)
def test_poly_ring_axioms(p, e):
    field, rng = _setup(p, e, "ring")
    zero, one = Poly.zero(field), Poly.one(field)
    for _ in range(40):
        a, b, c = (random_poly(field, rng, 8) for _ in range(3))
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a - a == zero and a + (-a) == zero


@pytest.mark.parametrize("p,e", FIELDS)
def test_divmod_and_xgcd_invariants(p, e):
    field, rng = _setup(p, e, "division")
    for _ in range(40):
        a = random_poly(field, rng, 10)
        b = random_poly(field, rng, 6, nonzero=True)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a and rem.degree < b.degree
        d, u, v = xgcd(a, b)
        assert u * a + v * b == d and d == gcd(a, b) and d.is_monic
        assert (a % d).is_zero and (b % d).is_zero


@pytest.mark.parametrize("p,e", FIELDS)
def test_factor_round_trip(p, e):
    field, rng = _setup(p, e, "factor")
    for _ in range(15):
        f = random_poly(field, rng, 8, nonzero=True)
        # a repeated factor exercises the squarefree split
        f = f * random_poly(field, rng, 2, nonzero=True) ** 2
        fac = factor(f)
        assert fac.product() == f
        assert all(prime.is_monic and is_irreducible(prime) and mult >= 1
                   for prime, mult in fac)


def _random_ratfunc(field, rng, max_deg):
    return RatFunc(random_poly(field, rng, max_deg, nonzero=True),
                   random_poly(field, rng, max_deg, nonzero=True))


@pytest.mark.parametrize("p,e", ODD_FIELDS)
def test_local_symbol_bilinear_and_antisymmetric(p, e):
    field, rng = _setup(p, e, "symbols")
    for _ in range(12):
        a1, a2, b = (_random_ratfunc(field, rng, 4) for _ in range(3))
        places = support(a1) | support(a2) | support(b) | {Place.infinite(field)}
        for place in places:
            s1, s2 = local_symbol(a1, b, place), local_symbol(a2, b, place)
            assert local_symbol(a1 * a2, b, place).sign == s1.sign * s2.sign
            assert local_symbol(b, a1, place).sign == s1.sign  # (a,b)(b,a) = 1


@pytest.mark.parametrize("p,e", ODD_FIELDS)
def test_product_formula(p, e):
    field, rng = _setup(p, e, "product")
    for _ in range(20):
        res = hilbert_product(_random_ratfunc(field, rng, 5), _random_ratfunc(field, rng, 5))
        assert res.product == 1


@pytest.mark.parametrize("p,e", ODD_FIELDS)
def test_general_reciprocity_on_coprime_pairs(p, e):
    field, rng = _setup(p, e, "reciprocity")
    checked = 0
    while checked < 30:
        a = random_poly(field, rng, 6, nonzero=True)
        b = random_poly(field, rng, 6, nonzero=True)
        if gcd(a, b).degree != 0:
            continue
        assert check_general_reciprocity(a, b).passed
        checked += 1
