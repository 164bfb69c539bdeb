from collections import Counter
from itertools import product
from random import Random

import pytest

from ffsym.definability import sample_d_pairs, witness_pair
from ffsym.gf import field_make, is_prime, smallest_nonsquare
from ffsym import places, quaternion, symbols
from ffsym.places import (
    Place,
    RatFunc,
    odd_support,
    parse_ratfunc,
    random_ratfunc,
    sorted_places,
    support,
    unit_character,
    valuation,
)
from ffsym.polyring import Poly, monic_irreducibles, parse_poly, random_irreducible, random_poly
from ffsym.quaternion import (
    EmptyRamificationError,
    decompose_t_element,
    delta,
    hilbert_product,
    i_c_member,
    in_u_residue,
    jacobson_member,
    parity_class_member,
    r_tilde_member,
    s_global_member,
    s_local_member,
    t_member,
    t_unit_member,
    u_set,
)
from ffsym.symbols import local_symbol
from powers import power

F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)
F13 = field_make(13)

A3 = RatFunc.from_poly(Poly.t(F3))
B3 = parse_ratfunc(F3, "t+1")  # delta(A3, B3) = {t+1, inf}


def test_delta_examples():
    d = delta(A3, B3)
    assert {str(p) for p in d.places} == {"t+1", "inf"}
    assert delta(RatFunc.constant(F3, 1), RatFunc.constant(F3, 1)).is_empty
    # a pair (eps P, eps Q) built to ramify exactly at P and infinity
    wp = witness_pair(Place.finite(Poly.t(F3)), F3.elem(2), Random(1))
    assert {str(p) for p in wp.ramified.places} == {"t", "inf"}
    with pytest.raises(ValueError):
        delta(RatFunc.constant(F3, 0), B3)


def test_delta_even_and_product():
    for field in (F3, F5, F7):
        rng = Random(f"even:{field.q}")
        for _ in range(500):
            a = random_ratfunc(field, rng, 3)
            b = random_ratfunc(field, rng, 3)
            assert len(delta(a, b)) % 2 == 0
            assert hilbert_product(a, b).product == 1


def test_delta_inside_odd_support():
    for field in (F3, F5):
        rng = Random(f"inside:{field.q}")
        checked = 0
        while checked < 50:
            a = random_ratfunc(field, rng, 3)
            b = random_ratfunc(field, rng, 3)
            d = delta(a, b)
            assert d.places <= (odd_support(a) | odd_support(b))
            # symbols are 1 at joint-support places of even valuation
            even_places = [
                pl for pl in (set(support(a)) | set(support(b)))
                if valuation(a, pl) % 2 == 0 and valuation(b, pl) % 2 == 0
            ]
            for pl in even_places[:2]:
                checked += 1
                assert local_symbol(a, b, pl).sign == 1


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (257, 1), (3, 2), (3, 5), (5, 4)])
def test_hilbert_product_matches_local_symbols(p, e):
    # hilbert_product reads its signs off Delta; each one must be the local
    # symbol evaluated directly, also where both valuations are even
    field = field_make(p, e)
    rng = Random(f"hilbert-oracle:{p}^{e}")
    inf = Place.infinite(field)
    even_places = 0
    for _ in range(12):
        square = power(RatFunc.from_poly(random_irreducible(field, rng, rng.randint(1, 2))), 2)
        a = random_ratfunc(field, rng, 2) * square
        b = random_ratfunc(field, rng, 2)
        if rng.random() < 0.5:
            b = b * square
        res = hilbert_product(a, b)
        joint = support(a) | support(b)
        assert [place for place, _ in res.per_place] == sorted_places(joint | {inf})
        for place, sign in res.per_place:
            assert sign == local_symbol(a, b, place).sign
        even_places += len(joint - odd_support(a) - odd_support(b) - {inf})
        assert res.product == 1
    assert even_places > 0


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (257, 1), (3, 2), (3, 5)])
def test_hilbert_product_evaluates_each_symbol_once(p, e, monkeypatch):
    # on a fresh pair, delta evaluates each place of the joint odd support
    # once, by one unit character per side whose partner has odd valuation
    # there; hilbert_product evaluates nothing of its own, a delta after it
    # is a cache hit, and the strip-based oracle path is never reached
    field = field_make(p, e)
    rng = Random(f"symbols-once:{p}^{e}")
    pairs = [(random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)) for _ in range(20)]
    expected = []
    for a, b in pairs:
        needed = Counter()
        for place in odd_support(a) | odd_support(b):
            if valuation(b, place) % 2:
                needed[a, place] += 1
            if valuation(a, place) % 2:
                needed[b, place] += 1
        assert set(place for _, place in needed) == odd_support(a) | odd_support(b)
        expected.append(needed)
    calls = []

    def counting_unit_character(x, place):
        calls.append((x, place))
        return unit_character(x, place)

    def unreachable(*args):
        raise AssertionError("the delta path reached the strip-based oracle")

    monkeypatch.setattr(quaternion, "unit_character", counting_unit_character)
    for module, name in ((symbols, "local_symbol"), (places, "square_class"), (places, "_strip_prime")):
        monkeypatch.setattr(module, name, unreachable)
    for (a, b), needed in zip(pairs, expected):
        places.divisor.cache_clear()
        quaternion._delta_cached.cache_clear()
        calls.clear()
        hilbert_product(a, b)
        assert Counter(calls) == needed
        calls.clear()
        delta(a, b)
        assert calls == []


# q^h mod 4 for the shared primes below: F_3 and F_{3^5} have q = 3 mod 4,
# so a prime of odd degree has chi(-1) = -1 and one of even degree has 1
@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (13, 1), (257, 1), (65521, 1),
                                 (3, 2), (3, 5), (5, 4), (17, 2)])
def test_delta_matches_local_symbol_oracle(p, e):
    # delta (tame symbols read from the divisors) against local_symbol
    # (P stripped from num*den) at every place of the joint support and inf,
    # on pairs sharing a prime P of degree 1 or 2 to the powers (m, k)
    field = field_make(p, e)
    rng = Random(f"delta-oracle:{p}^{e}")
    inf = Place.infinite(field)
    powers = [(1, 1), (1, -1), (-3, 1), (1, 2), (2, 1), (-2, 3), (3, 0), (0, -1)]
    seen = Counter()
    for i in range(48):
        m, k = powers[i % len(powers)]
        h = 1 + i // len(powers) % 2
        shared = RatFunc.from_poly(random_irreducible(field, rng, h))
        a = random_ratfunc(field, rng, 2) * power(shared, m)
        b = random_ratfunc(field, rng, 2) * power(shared, k)
        joint = support(a) | support(b) | {inf}
        want = frozenset(place for place in joint if local_symbol(a, b, place).sign == -1)
        assert delta(a, b).places == want
        for place in joint:
            m_odd, k_odd = valuation(a, place) % 2, valuation(b, place) % 2
            if m_odd and k_odd:
                seen["both odd", pow(field.q, place.residue_degree, 4), place in want] += 1
            elif m_odd or k_odd:
                seen["one odd", valuation(b if m_odd else a, place) != 0] += 1
    # every case of the tame symbol occurs: both valuations odd, ramified or
    # not, for each value of q^h mod 4 the field has; one valuation odd with
    # the other zero and with the other even and nonzero
    residues = {1, 3} if field.q % 4 == 3 else {1}
    for r in residues:
        assert seen["both odd", r, True] and seen["both odd", r, False]
    assert seen["one odd", True] and seen["one odd", False]


def test_delta_square_scaling_invariance():
    for field in (F3, F5):
        rng = Random(f"scaling:{field.q}")
        for _ in range(40):
            a = random_ratfunc(field, rng, 2)
            b = random_ratfunc(field, rng, 2)
            s = random_ratfunc(field, rng, 2)
            u = random_ratfunc(field, rng, 2)
            assert delta(a * s * s, b * u * u).places == delta(a, b).places


def test_s_local_examples():
    pl = Place.finite(parse_poly(F3, "t+1"))
    assert s_local_member(RatFunc.constant(F3, 2), A3, B3, pl)
    assert s_local_member(RatFunc.constant(F3, -2), A3, B3, pl)
    assert s_local_member(RatFunc.constant(F3, 0), A3, B3, pl)  # x^2 + 1 irreducible mod 3
    assert not s_local_member(parse_ratfunc(F3, "1/t+1"), A3, B3, pl)
    # away from the ramification set everything is a trace
    off = Place.finite(parse_poly(F3, "t+2"))
    assert s_local_member(parse_ratfunc(F3, "1/t+2"), A3, B3, off)
    # x^2 -+ 2x + 1 = (x -+ 1)^2: eps = +-2 is a trace at every ramified place,
    # found through the zero discriminant eps^2 - 4
    for field in (F5, field_make(3, 2), F13, field_make(257)):
        a, b = RatFunc.constant(field, smallest_nonsquare(field)), RatFunc.from_poly(Poly.t(field))
        ramified = delta(a, b).sorted()
        assert [str(place) for place in ramified] == ["t", "inf"]
        for place in ramified:
            for eps in (2, -2):
                assert s_local_member(RatFunc.constant(field, eps), a, b, place)
        assert not s_local_member(parse_ratfunc(field, "1/t"), a, b, ramified[0])


def test_s_global_examples():
    assert s_global_member(RatFunc.constant(F3, -2), A3, B3)
    assert s_global_member(RatFunc.constant(F3, 0), A3, B3)
    assert not s_global_member(parse_ratfunc(F3, "1/t+1"), A3, B3)


def test_t_member_examples():
    assert t_member(parse_ratfunc(F3, "1/t+2"), A3, B3)
    assert not t_member(RatFunc.from_poly(Poly.t(F3)), A3, B3)
    assert t_member(RatFunc.constant(F3, 2), A3, B3)
    assert t_member(RatFunc.constant(F3, 0), A3, B3)
    with pytest.raises(EmptyRamificationError):
        t_member(RatFunc.constant(F3, 1), RatFunc.constant(F3, 1), RatFunc.constant(F3, 1))


def test_t_unit_examples():
    assert t_unit_member(RatFunc.constant(F3, 2), A3, B3)
    assert t_unit_member(parse_ratfunc(F3, "t+2/t"), A3, B3)
    assert not t_unit_member(parse_ratfunc(F3, "1/t+2"), A3, B3)
    assert not t_unit_member(RatFunc.constant(F3, 0), A3, B3)


def test_t_unit_matches_integrality_trick():
    # x is a unit of T exactly when (x^2 + 1)/x lies in T
    rng = Random(31)
    one = RatFunc.constant(F3, 1)
    for _ in range(200):
        x = random_ratfunc(F3, rng, 3)
        trick = (x * x + one) * x.inverse()
        assert t_unit_member(x, A3, B3) == t_member(trick, A3, B3)


def test_parity_class_examples():
    assert parity_class_member(RatFunc.constant(F3, 1), A3, B3)
    assert parity_class_member(parse_ratfunc(F3, "t^2"), A3, B3)
    assert not parity_class_member(B3, A3, B3)
    with pytest.raises(ValueError):
        parity_class_member(RatFunc.constant(F3, 0), A3, B3)


def test_parity_class_absorbs_squares_times_units():
    rng = Random(47)
    found = 0
    while found < 60:
        k = random_ratfunc(F3, rng, 2)
        u = random_ratfunc(F3, rng, 2)
        if not t_unit_member(u, A3, B3):
            continue
        found += 1
        assert parity_class_member(k * k * u, A3, B3)


def test_i_c_examples():
    c = B3
    assert i_c_member(parse_ratfunc(F3, "t+1/t^2"), A3, B3, c)
    assert not i_c_member(RatFunc.constant(F3, 1), A3, B3, c)
    assert not i_c_member(parse_ratfunc(F3, "t^2"), A3, B3, RatFunc.constant(F3, 1))


def test_i_c_matches_set_algebra_form():
    # I_c = c * (squares * units of T) intersect (1 - squares * units of T):
    # equivalently even-parity of x/c and of 1 - x across the ramified places
    rng = Random(83)
    one = RatFunc.constant(F3, 1)
    for _ in range(300):
        x = random_ratfunc(F3, rng, 3)
        c = random_ratfunc(F3, rng, 2)
        via_parity = (
            x != one
            and parity_class_member(x * c.inverse(), A3, B3)
            and parity_class_member(one - x, A3, B3)
        )
        assert i_c_member(x, A3, B3, c) == via_parity


def test_jacobson_examples():
    assert jacobson_member(RatFunc.constant(F3, 0), A3, B3)
    assert jacobson_member(parse_ratfunc(F3, "t+1/t^2"), A3, B3)
    assert not jacobson_member(RatFunc.constant(F3, 1), A3, B3)


def test_r_tilde_examples():
    assert r_tilde_member(RatFunc.constant(F3, 0), A3, B3)
    assert r_tilde_member(RatFunc.from_poly(Poly.t(F3)), A3, B3)
    assert not r_tilde_member(parse_ratfunc(F3, "t^2/t+1"), A3, B3)


def test_r_tilde_matches_jacobson_dual():
    for field in (F3, F5, F7):
        eps = smallest_nonsquare(field)
        rng = Random(f"dual:{field.q}")
        primes = monic_irreducibles(field, 1) + monic_irreducibles(field, 2)
        pairs = [witness_pair(Place(field, p), eps, rng) for p in primes[:3]]
        for _ in range(500):
            x = random_ratfunc(field, rng, 3, nonzero=False)
            for wp in pairs:
                dual = x.is_zero or not jacobson_member(x.inverse(), wp.a, wp.b)
                assert r_tilde_member(x, wp.a, wp.b) == dual


def _r_tilde_cases(field, rng):
    # D pairs (witness and random), witness pairs at chosen primes, eight
    # random pairs with inf outside a nonempty Delta and four with an empty
    # Delta; x = 0, constants, polynomials, random fractions and inverses
    # of fractions with a pole at inf
    eps = smallest_nonsquare(field)
    pairs = [(a, b) for a, b, _ in sample_d_pairs(field, eps, 12, rng)]
    for prime in (*monic_irreducibles(field, 1)[:2], random_irreducible(field, rng, 2)):
        wp = witness_pair(Place(field, prime), eps, rng)
        pairs.append((wp.a, wp.b))
    inf = Place.infinite(field)
    finite_only = empty = 0
    while finite_only < 8 or empty < 4:
        a, b = random_ratfunc(field, rng, 2), random_ratfunc(field, rng, 2)
        ram = delta(a, b).places
        if not ram and empty < 4:
            empty += 1
        elif ram and inf not in ram and finite_only < 8:
            finite_only += 1
        else:
            continue
        pairs.append((a, b))
    pairs.append((RatFunc.constant(field, 1), random_ratfunc(field, rng, 2)))  # (1, b) = 1 everywhere
    xs = [RatFunc.constant(field, 0), RatFunc.constant(field, 1), RatFunc.constant(field, eps)]
    for _ in range(6):
        xs.append(RatFunc.from_poly(random_poly(field, rng, 3, nonzero=True)))
        x = random_ratfunc(field, rng, 3)
        xs.append(x)
        if not x.den.is_constant and valuation(x, inf) < 0:
            xs.append(x.inverse())  # integral at inf, a zero where x had a pole
    return pairs, xs


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (13, 1), (257, 1), (3, 5)])
def test_r_tilde_matches_valuations_over_delta(p, e):
    # R~ is decided at inf first; the verdict must be the definition over the
    # whole of Delta, and an empty Delta must raise whatever x is
    field = field_make(p, e)
    rng = Random(f"r-tilde:{p}^{e}")
    pairs, xs = _r_tilde_cases(field, rng)
    inf = Place.infinite(field)
    seen = Counter()
    for a, b in pairs:
        ram = delta(a, b).places
        # for the product M of Delta's finite primes, 1/M is integral at inf
        # only and t + 1/M nowhere on Delta
        m = Poly.one(field)
        for place in ram - {inf}:
            m = m * place.prime
        extra = [RatFunc(Poly.one(field), m), RatFunc(m * Poly.t(field) + Poly.one(field), m)]
        for x in xs + extra:
            if not ram:
                with pytest.raises(EmptyRamificationError):
                    r_tilde_member(x, a, b)
                seen["empty"] += 1
                continue
            expected = x.is_zero or any(valuation(x, v) >= 0 for v in ram)
            assert r_tilde_member(x, a, b) == expected, (x, a, b)
            seen[expected, x.is_zero or valuation(x, inf) >= 0] += 1
            # a nonconstant polynomial against a pair with inf in Delta: the
            # case accepted at inf by the product formula
            seen["poly"] += x.den.is_constant and not x.num.is_constant and inf in ram
    assert seen["empty"] and seen["poly"]
    assert all(seen[key] for key in product((True, False), repeat=2))


def test_r_tilde_argument_checks():
    # delta's checks in delta's order, before x is looked at
    for field in (field_make(2, 2), field_make(2, 3)):
        one, t = RatFunc.constant(field, 1), RatFunc.from_poly(Poly.t(field))
        for x in (RatFunc.constant(field, 0), one, t.inverse()):
            with pytest.raises(ValueError, match="odd q"):
                r_tilde_member(x, parse_ratfunc(field, "t+1"), t)
        with pytest.raises(ValueError, match="nonzero arguments"):
            r_tilde_member(one, RatFunc.constant(field, 0), t)
    zero, t = RatFunc.constant(F5, 0), RatFunc.from_poly(Poly.t(F5))
    for a, b in ((zero, t), (t, zero)):
        with pytest.raises(ValueError, match="nonzero arguments"):
            r_tilde_member(RatFunc.constant(F5, 1), a, b)


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (257, 1)])
def test_r_tilde_at_infinity_factors_nothing(p, e):
    # against a pair of D, inf is in Delta, so a member integral at inf or a
    # polynomial member (Delta has a finite place too, by the product
    # formula) is accepted from degrees and leading coefficients alone: no
    # divisor is built and Delta is not computed; x = 0, a fraction with a
    # finite pole and v_inf < 0, and a polynomial against a pair with inf
    # outside Delta still take the whole of Delta
    field = field_make(p, e)
    rng = Random(f"r-tilde-cost:{p}^{e}")
    eps = smallest_nonsquare(field)
    pairs = [(a, b) for a, b, _ in sample_d_pairs(field, eps, 6, rng)]
    at_inf = [RatFunc.constant(field, eps), parse_ratfunc(field, "t+1/t^2+2"),
              parse_ratfunc(field, "2*t^2+1/t^2+t+1")]
    t = Poly.t(field)

    def fall_through(x, a, b):
        places.divisor.cache_clear()
        quaternion._delta_cached.cache_clear()
        verdict = r_tilde_member(x, a, b)
        assert quaternion._delta_cached.cache_info().misses == 1
        assert places.divisor.cache_info().misses >= 1
        assert verdict == (x.is_zero or any(valuation(x, v) >= 0 for v in delta(a, b).places))
        return verdict

    polys = []
    for a, b in pairs:
        poly = RatFunc.from_poly(random_poly(field, rng, 3, nonzero=True) * t)
        polys.append(poly)
        for x in (*at_inf, poly):
            places.divisor.cache_clear()
            quaternion._delta_cached.cache_clear()
            assert r_tilde_member(x, a, b)
            info = places.divisor.cache_info()
            assert info.hits + info.misses == 0
            assert quaternion._delta_cached.cache_info().misses == 0
        # x = 0 is a member, decided over the whole of Delta too
        assert fall_through(RatFunc.constant(field, 0), a, b)
        # for the product M of Delta's finite primes, (t M + 1)/M has its
        # poles at inf and at every finite place of Delta, so it is no member
        m = Poly.one(field)
        for place in delta(a, b).places - {Place.infinite(field)}:
            m = m * place.prime
        assert not fall_through(RatFunc(t * m + Poly.one(field), m), a, b)
    # (t^2 + t, eps) ramifies exactly at t and t + 1
    a, b = RatFunc.from_poly(t * t + t), RatFunc.constant(field, eps)
    assert delta(a, b).places == {Place(field, t), Place(field, t + Poly.one(field))}
    for x in polys:
        assert fall_through(x, a, b)


def test_s_plus_s_lands_in_t():
    rng = Random(53)
    found = 0
    while found < 50:
        s1 = random_ratfunc(F3, rng, 2, nonzero=False)
        s2 = random_ratfunc(F3, rng, 2, nonzero=False)
        if not (s_global_member(s1, A3, B3) and s_global_member(s2, A3, B3)):
            continue
        found += 1
        assert t_member(s1 + s2, A3, B3)


def test_u_set_examples():
    u3 = u_set(F3)
    assert u3.members == (0,)
    assert not u3.sumset_covers
    assert u_set(F5).members == (1, 4)
    u13 = u_set(F13)
    assert len(u13) == 6 and u13.sumset_covers
    with pytest.raises(ValueError):
        u_set(field_make(2))


ODD_PRIME_POWERS_BELOW_1000 = [
    (p, e) for p in range(3, 1000, 2) if is_prime(p)
    for e in range(1, 10) if p ** e < 1000
]


@pytest.mark.parametrize("p, e", [(p, e) for p, e in ODD_PRIME_POWERS_BELOW_1000 if p ** e <= 49]
                         + [(257, 1)])
def test_u_set_matches_full_sumset(p, e):
    # the sumset loop stops once U + U covers the field; the reference forms
    # every sum and finds each member by a root search: eps is in U exactly
    # when t^2 - eps*t + 1 has no root in F_q
    field = field_make(p, e)
    members = tuple(
        eps for eps in range(field.q)
        if all(field.add(field.sub(field.mul(z, z), field.mul(eps, z)), 1) for z in range(field.q))
    )
    sums = {field.add(x, y) for x in members for y in members}
    us = u_set(field)
    assert us.members == members
    assert us.sumset_covers == (len(sums) == field.q)


def test_u_sumset_covers_exactly_above_eleven():
    # the coverage that decompose_t_element needs at each ramified place
    assert len(ODD_PRIME_POWERS_BELOW_1000) == 184
    failing = {p ** e for p, e in ODD_PRIME_POWERS_BELOW_1000
               if not u_set(field_make(p, e)).sumset_covers}
    assert failing == {3, 5, 7, 11}


def test_in_u_residue_matches_u_set():
    # at a degree-1 place the residue field is F_q itself
    prime = Poly.t(F13)
    expected = set(u_set(F13).members)
    got = {c for c in range(13) if in_u_residue(Poly.constant(F13, c), prime)}
    assert got == expected


def _decompose_pair():
    eps = smallest_nonsquare(F13)
    wp = witness_pair(Place.finite(Poly.t(F13)), eps, Random(3))
    return wp.a, wp.b


def _assert_decomposes(x, a, b):
    out = decompose_t_element(x, a, b)
    assert out is not None
    s1, s2 = out
    assert s1 + s2 == x
    assert s_global_member(s1, a, b) and s_global_member(s2, a, b)
    return out


def test_decompose_trivial_cases():
    a, b = _decompose_pair()
    for c in (0, 4):
        _assert_decomposes(RatFunc.constant(F13, c), a, b)


def test_decompose_generic():
    a, b = _decompose_pair()
    rng = Random(61)
    done = 0
    while done < 15:
        x = random_ratfunc(F13, rng, 2, nonzero=False)
        if not t_member(x, a, b):
            continue
        done += 1
        _assert_decomposes(x, a, b)


def test_decompose_preconditions():
    a, b = _decompose_pair()
    with pytest.raises(ValueError):
        decompose_t_element(RatFunc.from_poly(Poly.t(F13)), a, b)  # not in T (pole at infinity)


def _residues_mod(prime):
    # every polynomial of degree < deg P, by its coefficient tuple
    field = prime.field
    return [Poly(field, cs) for cs in product(range(field.q), repeat=prime.degree)]


def _u_sumset_by_roots(prime):
    # U_v holds eps when t^2 - eps*t + 1 has no root among the residues mod P;
    # the sum of two residues needs no reduction
    residues = _residues_mod(prime)
    one = Poly.one(prime.field)
    u = [eps for eps in residues
         if not any(((z * z - eps * z + one) % prime).is_zero for z in residues)]
    return {(x + y).coeffs for x in u for y in u}


def _red_by_search(x, place):
    # red_v(x) for x integral at v: the leading ratio at infinity (0 below
    # degree), else the residue r with den * r = num mod P
    field = x.field
    if place.is_infinite:
        if x.is_zero or x.num.degree < x.den.degree:
            return ()
        return (field.div(x.num.lead_code, x.den.lead_code),)
    prime = place.prime
    return next(r.coeffs for r in _residues_mod(prime)
                if ((x.den * r - x.num) % prime).is_zero)


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)])
def test_decompose_small_residue_fields(p, e):
    # None exactly when some ramified v has red_v(x) outside U_v + U_v, with
    # U_v found by a root search mod P; otherwise a verified pair.  Witness
    # pairs are ramified at {P, inf}: P runs over the degree-1 primes, and
    # over F_3 also the degree-2 ones (residue field F_9, which covers)
    field = field_make(p, e)
    primes = list(monic_irreducibles(field, 1))
    if field.q == 3:
        primes += monic_irreducibles(field, 2)
    inf = Place.infinite(field)
    sumsets = {inf: _u_sumset_by_roots(Poly.t(field))}
    rng = Random(f"small-residue:{field.q}")
    outcomes = Counter()
    for prime in primes:
        wp = witness_pair(Place.finite(prime), smallest_nonsquare(field), rng)
        sumsets[wp.place] = _u_sumset_by_roots(prime)
        done = 0
        while done < 6:
            x = random_ratfunc(field, rng, 2, nonzero=False)
            if not t_member(x, wp.a, wp.b):
                continue
            done += 1
            covered = all(_red_by_search(x, v) in sumsets[v] for v in (wp.place, inf))
            outcomes[covered] += 1
            if covered:
                _assert_decomposes(x, wp.a, wp.b)
            else:
                assert decompose_t_element(x, wp.a, wp.b) is None
    if field.q == 9:
        assert outcomes[False] == 0
    else:
        assert outcomes[False] and outcomes[True]


def test_decompose_extension_base_field():
    f25 = field_make(5, 2)
    eps = smallest_nonsquare(f25)
    wp = witness_pair(Place.finite(Poly.t(f25)), eps, Random(8))
    rng = Random(71)
    done = 0
    while done < 6:
        x = random_ratfunc(f25, rng, 2, nonzero=False)
        if not t_member(x, wp.a, wp.b):
            continue
        done += 1
        _assert_decomposes(x, wp.a, wp.b)


def test_decompose_when_delta_holds_every_linear_place():
    # Delta(t^13 - t, 2) over F_13 is every degree-1 place and infinity, so
    # no linear polynomial is a unit at all of Delta; the denominator M + 1
    # of the construction still is
    a = RatFunc.from_poly(parse_poly(F13, "t^13+12*t"))
    b = RatFunc.constant(F13, 2)
    assert len(delta(a, b)) == 14
    _assert_decomposes(RatFunc(Poly.constant(F13, 10), parse_poly(F13, "t^3+8*t^2+t+11")), a, b)
    rng = Random(113)
    done = 0
    while done < 8:
        x = random_ratfunc(F13, rng, 3, nonzero=False)
        if t_member(x, a, b):
            done += 1
            _assert_decomposes(x, a, b)


def test_decompose_large_residue_field_is_deterministic():
    # the residue field at t^2 + 3 over F_257 has 66,049 elements, and the
    # first residue pair in enumeration order is found and reproduced
    f257 = field_make(257)
    wp = witness_pair(Place.finite(parse_poly(f257, "t^2+3")), smallest_nonsquare(f257), Random(5))
    assert Place.finite(parse_poly(f257, "t^2+3")) in delta(wp.a, wp.b)
    rng = Random(257)
    done = 0
    while done < 6:
        x = random_ratfunc(f257, rng, 2, nonzero=False)
        if t_member(x, wp.a, wp.b):
            done += 1
            assert _assert_decomposes(x, wp.a, wp.b) == decompose_t_element(x, wp.a, wp.b)
