import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from ffsym.gf import FieldElem, field_make
from ffsym.places import (
    Place,
    RatFunc,
    _strip_prime,
    divisor,
    is_square_local,
    odd_support,
    parse_place,
    parse_ratfunc,
    random_ratfunc,
    residue,
    residue_inf,
    sorted_places,
    support,
    valuation,
)
from ffsym.polyring import (
    Poly, factor, invmod, is_irreducible, monic_irreducibles, parse_poly, random_irreducible,
)
from powers import power

F3 = field_make(3)
F5 = field_make(5)
F9 = field_make(3, 2)
FIELDS = (F3, F5, field_make(7), F9)


def _inf(field):
    return Place.infinite(field)


def test_place_construction():
    p = Place.finite(parse_poly(F3, "t^2+1"))
    assert p.residue_degree == 2
    assert _inf(F3).residue_degree == 1
    with pytest.raises(ValueError):
        Place.finite(parse_poly(F3, "2*t"))  # not monic
    with pytest.raises(ValueError):
        Place.finite(parse_poly(F5, "t^2+1"))  # reducible
    with pytest.raises(ValueError):
        Place.finite(Poly.one(F3))
    assert parse_place(F3, "inf").is_infinite
    assert parse_place(F3, "t+1") == Place.finite(parse_poly(F3, "t+1"))


def test_ratfunc_canonical_form():
    x = RatFunc(parse_poly(F3, "2*t+2"), parse_poly(F3, "t^2+2*t+1"))
    assert x == parse_ratfunc(F3, "2/t+1")
    assert x.den.is_monic
    z = RatFunc(Poly.zero(F3), parse_poly(F3, "t^2"))
    assert z.is_zero and z.den == Poly.one(F3)
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(F3), Poly.zero(F3))


def test_valuation_examples():
    x = parse_ratfunc(F3, "t^2/t+1")
    assert valuation(x, Place.finite(Poly.t(F3))) == 2
    assert valuation(parse_ratfunc(F3, "t^2+1/t"), _inf(F3)) == -1
    y = parse_ratfunc(F3, "1/t^3+3*t^2+3*t+1")  # 1/(t+1)^3
    assert valuation(y, Place.finite(parse_poly(F3, "t+1"))) == -3
    with pytest.raises(ValueError):
        valuation(RatFunc.constant(F3, 0), _inf(F3))


def test_residue_examples():
    pt1 = Place.finite(parse_poly(F3, "t+1"))
    assert residue(RatFunc.from_poly(Poly.t(F3)), pt1) == Poly.constant(F3, 2)
    p = parse_poly(F3, "t^2+1")
    pl = Place.finite(p)
    assert residue(RatFunc.from_poly(p + Poly.one(F3)), pl) == Poly.one(F3)
    assert residue(parse_ratfunc(F3, "1/t+1"), Place.finite(Poly.t(F3))) == Poly.one(F3)
    with pytest.raises(ValueError):
        residue(parse_ratfunc(F3, "1/t"), Place.finite(Poly.t(F3)))


def test_residue_inf_examples():
    assert residue_inf(parse_ratfunc(F3, "2*t+1/t+2")) == F3.elem(2)
    assert residue_inf(parse_ratfunc(F3, "1/t")) == F3.zero
    with pytest.raises(ValueError):
        residue_inf(RatFunc.from_poly(Poly.t(F3)))


def test_residue_inf_prime_power_ratio():
    # red_inf(Q^{deg P} / P^{deg Q}) = 1 for monic primes P, Q
    for field in (F3, F5):
        primes = list(monic_irreducibles(field, 1)[:2])
        primes += list(monic_irreducibles(field, 2)[:2])
        primes += list(monic_irreducibles(field, 3)[:1])
        for p in primes:
            for q in primes:
                dp, dq = len(p.coeffs) - 1, len(q.coeffs) - 1
                x = RatFunc(power(q, dp), power(p, dq))
                assert residue_inf(x) == field.one


def test_residue_over_extension_field():
    # v > 0 reads 0, v = 0 the residue (num mod P)(den mod P)^{-1}, v < 0 raises
    rng = Random("residue-f9")
    for prime in (parse_poly(F9, "t+1"), monic_irreducibles(F9, 2)[3]):
        pl = Place.finite(prime)
        pi = RatFunc.from_poly(prime)
        for _ in range(40):
            x = random_ratfunc(F9, rng, 3)
            v = valuation(x, pl)
            if v < 0:
                with pytest.raises(ValueError):
                    residue(x, pl)
                continue
            u = x * power(pi, -v)  # v_P(u) = 0
            expected = (u.num % prime) * invmod(u.den % prime, prime) % prime
            assert residue(u, pl) == expected and not expected.is_zero
            assert residue(u * pi, pl).is_zero
            with pytest.raises(ValueError):
                residue(u * pi.inverse(), pl)
    inf, t = _inf(F9), RatFunc.from_poly(Poly.t(F9))
    for _ in range(40):
        x = random_ratfunc(F9, rng, 3)
        v = valuation(x, inf)
        u = x * power(t, v)  # x * t^v has v_inf = 0
        lead = F9.div(u.num.lead_code, u.den.lead_code)
        assert residue_inf(u) == FieldElem(F9, lead)
        assert residue_inf(u * t.inverse()) == F9.zero
        with pytest.raises(ValueError):
            residue_inf(u * t)


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (257, 1), (3, 5), (5, 4), (2, 2), (2, 3)])
def test_divisor_is_the_factored_form(p, e):
    # x = a P^i for a random fraction a and a prime P of degree 1 or 2, so
    # that multiplicities above 1 occur on both sides of the fraction
    field = field_make(p, e)
    rng = Random(f"divisor:{p}^{e}")
    for n in range(30):
        prime = random_irreducible(field, rng, 1 + n % 2)
        x = random_ratfunc(field, rng, 3) * power(RatFunc.from_poly(prime), rng.randint(-2, 2))
        div = divisor(x)
        assert isinstance(div, tuple) and all(isinstance(pv, tuple) for pv in div)
        with pytest.raises(TypeError):
            div[0] = (prime, 1)  # shared by every caller through the cache
        places = [Place(field, pr) for pr, _ in div]
        assert places == sorted_places(places) and len(set(places)) == len(places)
        rebuilt = RatFunc.constant(field, FieldElem(field, x.lead_ratio_code()))
        for pr, v in div:
            assert pr.is_monic and not pr.is_constant and is_irreducible(pr) and v != 0
            rebuilt = rebuilt * power(RatFunc.from_poly(pr), v)
        assert rebuilt == x
        # valuations against stripping P from num and den one division at a time
        outside = [random_irreducible(field, rng, 1 + k % 2) for k in range(3)]
        for pr in [pr for pr, _ in div] + outside:
            stripped = _strip_prime(x.num, pr)[0] - _strip_prime(x.den, pr)[0]
            assert valuation(x, Place(field, pr)) == stripped
            assert stripped == dict(div).get(pr, 0)
        # a polynomial's divisor is its factorization: one factored form
        if not x.num.is_constant:
            assert divisor(RatFunc.from_poly(x.num)) == factor(x.num)
    with pytest.raises(ValueError):
        divisor(RatFunc.constant(field, 0))


def test_place_hashes_agree_between_processes():
    # a place hashes only ints, so sets of places iterate in one order in
    # every process: the infinite place included
    code = (
        "from ffsym.gf import field_make\n"
        "from ffsym.places import Place, odd_support, parse_ratfunc\n"
        "F = field_make(7)\n"
        "x = parse_ratfunc(F, 't^3+2*t+1/t^4+3*t^2+5')\n"
        "print(hash(Place.infinite(F)), [str(p) for p in odd_support(x)])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=60, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] and "inf" in outs[0]


def test_odd_support_examples():
    x = RatFunc.from_poly(Poly.t(F3) * power(parse_poly(F3, "t+1"), 2))
    assert {str(p) for p in odd_support(x)} == {"t", "inf"}
    assert odd_support(RatFunc.constant(F3, 2)) == frozenset()
    y = parse_ratfunc(F3, "t/t+1")
    assert {str(p) for p in odd_support(y)} == {"t", "t+1"}
    with pytest.raises(ValueError):
        odd_support(RatFunc.constant(F3, 0))


def test_is_square_local_examples():
    assert is_square_local(parse_ratfunc(F3, "t^2"), _inf(F3))
    assert not is_square_local(parse_ratfunc(F3, "2*t^2"), _inf(F3))
    assert not is_square_local(RatFunc.from_poly(Poly.t(F3)), Place.finite(Poly.t(F3)))
    with pytest.raises(ValueError):
        is_square_local(RatFunc.constant(F3, 0), _inf(F3))
    with pytest.raises(ValueError):
        is_square_local(RatFunc.constant(field_make(2), 1), _inf(field_make(2)))


def test_degree_product_formula():
    # sum of v_P(x) deg(P) over finite places equals deg num - deg den = -v_inf
    for field in FIELDS:
        rng = Random(f"prodformula:{field.q}")
        for _ in range(200):
            x = random_ratfunc(field, rng, 4)
            total = sum(
                valuation(x, pl) * pl.residue_degree
                for pl in support(x) - {_inf(field)}
            )
            expected = (len(x.num.coeffs) - 1) - (len(x.den.coeffs) - 1)
            assert total == expected == -valuation(x, _inf(field))


def test_valuation_multiplicative():
    for field in (F3, F5):
        rng = Random(f"valmul:{field.q}")
        for _ in range(100):
            x = random_ratfunc(field, rng, 3)
            y = random_ratfunc(field, rng, 3)
            places = set(support(x)) | set(support(y)) | {_inf(field)}
            for pl in places:
                vx, vy = valuation(x, pl), valuation(y, pl)
                if (x * y).is_zero:
                    continue
                assert valuation(x * y, pl) == vx + vy


def test_residue_is_ring_hom():
    for field in (F3, F5):
        rng = Random(f"reshom:{field.q}")
        primes = monic_irreducibles(field, 1) + monic_irreducibles(field, 2)
        count = 0
        while count < 100:
            x = random_ratfunc(field, rng, 3, nonzero=False)
            y = random_ratfunc(field, rng, 3, nonzero=False)
            pl = Place(field, primes[rng.randrange(len(primes))])
            if not (x.is_zero or valuation(x, pl) >= 0):
                continue
            if not (y.is_zero or valuation(y, pl) >= 0):
                continue
            count += 1
            p = pl.prime
            assert residue(x + y, pl) == (residue(x, pl) + residue(y, pl)) % p
            assert residue(x * y, pl) == (residue(x, pl) * residue(y, pl)) % p


def test_square_is_locally_square():
    for field in (F3, F5, F9):
        rng = Random(f"sqloc:{field.q}")
        for _ in range(60):
            x = random_ratfunc(field, rng, 3)
            sq = x * x
            for pl in sorted_places(set(support(sq)) | {_inf(field)}):
                assert is_square_local(sq, pl)


def test_ratfunc_text_roundtrip():
    rng = Random(99)
    for field in (F3, F9):
        for _ in range(40):
            x = random_ratfunc(field, rng, 4)
            assert parse_ratfunc(field, str(x)) == x
