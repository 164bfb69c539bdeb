"""Seeded randomized invariants of the polynomial and symbol layers, over a
large prime field, extension fields of odd and even characteristic, and
fields far from the small ones the example tests use."""

from itertools import zip_longest
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
    powmod,
    random_poly,
    support,
    xgcd,
)
from powers import power

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


def _trim(codes):
    codes = list(codes)
    while codes and codes[-1] == 0:
        codes.pop()
    return codes


def _school_add(a, b, field):
    # Field.add on the code lists padded with zeros to one length
    return _trim(field.add(x, y) for x, y in zip_longest(a, b, fillvalue=0))


def _school_mul(a, b, field):
    # an oracle independent of polyring: Field.add and Field.mul only
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(out)


def _long_div(a, b, field):
    # (quotient, remainder) codes by Field.sub, Field.mul and Field.inv only
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = field.inv(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = quo[k] = field.mul(rem[k + len(b) - 1], inv)
        for i, y in enumerate(b):
            rem[k + i] = field.sub(rem[k + i], field.mul(c, y))
    return _trim(quo), _trim(rem[:len(b) - 1])


@pytest.mark.parametrize("p,e", FIELDS + [(3, 1), (5, 1), (2, 1), (65521, 1), (2, 2), (3, 5)])
def test_arithmetic_matches_schoolbook_oracle(p, e):
    # constant, degree-1 and higher divisors, monic and scaled by the code 2
    # (1 in F_2); zero, shorter and longer dividends
    field, rng = _setup(p, e, "oracle")
    for deg in range(5):
        for _ in range(4):
            monic = random_poly(field, rng, deg, monic=True, exact_deg=True)
            shorter = random_poly(field, rng, deg - 1) if deg else Poly.zero(field)
            for b in (monic, monic.scale(min(2, field.q - 1))):
                for a in (Poly.zero(field), shorter, random_poly(field, rng, 10)):
                    assert list((a + b).coeffs) == _school_add(a.coeffs, b.coeffs, field)
                    assert list((-a).coeffs) == [field.sub(0, x) for x in a.coeffs]
                    c = rng.randrange(field.q)
                    assert list(a.scale(c).coeffs) == _trim(field.mul(x, c) for x in a.coeffs)
                    assert list((a * b).coeffs) == _school_mul(a.coeffs, b.coeffs, field)
                    assert list((b * a).coeffs) == _school_mul(b.coeffs, a.coeffs, field)
                    quo, rem = divmod(a, b)
                    assert (list(quo.coeffs), list(rem.coeffs)) == _long_div(a.coeffs, b.coeffs, field)
                    n = rng.randint(1, 12)
                    power = base = _long_div(a.coeffs, b.coeffs, field)[1]
                    for _ in range(n - 1):
                        power = _long_div(_school_mul(power, base, field), b.coeffs, field)[1]
                    assert list(powmod(a, n, b).coeffs) == power


@pytest.mark.parametrize("p,e", FIELDS)
def test_factor_round_trip(p, e):
    field, rng = _setup(p, e, "factor")
    for _ in range(15):
        f = random_poly(field, rng, 8, nonzero=True)
        # a repeated factor exercises the squarefree split
        f = f * power(random_poly(field, rng, 2, nonzero=True), 2)
        fac = factor(f)
        rebuilt = Poly(field, [f.lead_code])
        for prime, mult in fac:
            rebuilt = rebuilt * power(prime, mult)
        assert rebuilt == f
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
