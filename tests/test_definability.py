import time
from random import Random

import pytest

from ffsym import definability, polyring
from ffsym.definability import (
    DEFAULT_WITNESS_DEGREE_SLACK,
    _nonsquare_residues,
    InfSquareClass,
    gamma_check,
    inf_square_class,
    member_A,
    member_A_union_Ainf_semantic,
    member_A_union_Ainf_theorem,
    sample_d_pairs,
    witness_pair,
)
from ffsym.dirichlet import ap_prime_counts, unit_residues
from ffsym.gf import FieldElem, field_make, parse_field_spec, smallest_nonsquare
from ffsym.places import Place, RatFunc, parse_ratfunc, random_ratfunc, valuation
from ffsym.polyring import (
    SIEVE_CAP, Poly, gcd, monic_irreducibles, parse_poly, power_character, random_irreducible,
)
from ffsym.quaternion import delta
from ffsym.symbols import local_symbol
from randrange_stream import randrange_random_irreducible, randrange_random_ratfunc

F3 = field_make(3)
F5 = field_make(5)


def phi_inf(c):
    # the formula read literally: c = (lead num / lead den) t^{-v_inf(c)} times a
    # 1-unit, so c is a square at infinity exactly when v_inf(c) is even and
    # the leading-coefficient ratio is a square
    field = c.field
    ratio = field.div(c.num.lead_code, c.den.lead_code)
    return valuation(c, Place.infinite(field)) % 2 == 0 and field.is_square_code(ratio)


def test_phi_inf_examples():
    for text, square in (("t^2", True), ("2*t^2", False), ("t+1/t", True), ("t", False)):
        x = parse_ratfunc(F3, text)
        assert phi_inf(x) is square
        assert (inf_square_class(x) is InfSquareClass.SQUARE) is square
    with pytest.raises(ValueError):
        inf_square_class(RatFunc.constant(F3, 0))


def test_phi_inf_on_squares():
    rng = Random(11)
    for field in (F3, F5):
        for _ in range(100):
            x = random_ratfunc(field, rng, 3)
            assert phi_inf(x * x)
            assert inf_square_class(x * x) is InfSquareClass.SQUARE


def test_inf_square_class_examples():
    assert inf_square_class(parse_ratfunc(F3, "2/t")) is InfSquareClass.NONSQUARE_INV_T_TIMES_SQUARE
    assert inf_square_class(RatFunc.from_poly(Poly.t(F3))) is InfSquareClass.INV_T_TIMES_SQUARE
    assert inf_square_class(RatFunc.constant(F3, 2)) is InfSquareClass.NONSQUARE_TIMES_SQUARE
    assert inf_square_class(parse_ratfunc(F3, "t^2+1")) is InfSquareClass.SQUARE


def test_inf_square_class_partitions():
    # exactly the SQUARE class passes phi_inf
    rng = Random(17)
    for _ in range(120):
        x = random_ratfunc(F5, rng, 3)
        assert (inf_square_class(x) is InfSquareClass.SQUARE) == phi_inf(x)


def test_gamma_examples():
    assert gamma_check(parse_ratfunc(F3, "2*t"), parse_ratfunc(F3, "2*t^2+2"))
    assert not gamma_check(RatFunc.constant(F3, 1), RatFunc.constant(F3, 1))
    assert not gamma_check(parse_ratfunc(F3, "2*t"), parse_ratfunc(F3, "2*t"))
    with pytest.raises(ValueError):
        gamma_check(RatFunc.constant(F3, 0), RatFunc.constant(F3, 1))


def _gamma_check_oracle(a, b, eps):
    # the definition read literally: a / eps as a quotient of rational functions
    field = a.field
    inf = Place.infinite(field)

    def branch(first, second):
        c = first * RatFunc.constant(field, eps).inverse()
        return phi_inf(c) and valuation(c, inf) % 2 != valuation(second, inf) % 2

    return branch(a, b) or branch(b, a)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (5, 2)])
def test_gamma_check_matches_quotient_definition(p, e):
    field = field_make(p, e)
    rng = Random(f"gamma-check:{p}^{e}")
    nonsquares = [FieldElem(field, c) for c in range(1, field.q) if not field.is_square_code(c)]
    verdicts = set()
    for _ in range(150):
        a, b = random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)
        verdict = gamma_check(a, b)
        # the definition reads epsilon; the verdict is the same for every one
        for eps in nonsquares:
            assert verdict == _gamma_check_oracle(a, b, eps)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_witness_pair_examples():
    eps = F3.elem(2)
    wp = witness_pair(Place.finite(Poly.t(F3)), eps, Random(2))
    assert wp.a == parse_ratfunc(F3, "2*t")
    assert wp.b == parse_ratfunc(F3, "2*t^2+2")  # companion t^2 + 1
    assert {str(p) for p in wp.ramified.places} == {"t", "inf"}
    wp2 = witness_pair(Place.finite(parse_poly(F3, "t^2+1")), eps, Random(2))
    assert {str(p) for p in wp2.ramified.places} == {"t^2+1", "inf"}
    with pytest.raises(ValueError):
        witness_pair(Place.infinite(F3), eps)
    with pytest.raises(ValueError):
        witness_pair(Place.finite(Poly.t(field_make(2))), None)


@pytest.mark.parametrize("q, d, worst", [
    (3, 1, 2), (3, 2, 3), (3, 3, 6), (3, 4, 7), (5, 1, 2), (5, 2, 5), (7, 1, 2), (7, 2, 3),
])
def test_worst_least_companion_degree(q, d, worst):
    # the largest, over the primes P of degree d, of the least companion
    # degree witness_pair can reach: even degrees in the class of 1 for odd d,
    # odd degrees in each nonsquare class for even d, read from exact counts
    field = field_make(q)
    least = 0
    for prime in monic_irreducibles(field, d):
        units = unit_residues(prime)
        squares = {r * r % prime for r in units}
        remaining = [Poly.one(field)] if d % 2 else [r for r in units if r not in squares]
        k = 1 + d % 2
        while True:
            counts = ap_prime_counts(prime, k)
            remaining = [r for r in remaining if not counts[r]]
            if not remaining:
                break
            k += 2
        least = max(least, k)
    assert least == worst
    assert least <= d + DEFAULT_WITNESS_DEGREE_SLACK


def test_witness_pairs_exhaustive_small_primes():
    # for every small prime: ramified exactly at {P, inf}, pair in the family,
    # companion of opposite degree parity, symbols -1 at P and infinity
    for field, max_deg in ((F3, 4), (F5, 4)):
        eps = smallest_nonsquare(field)
        inf = Place.infinite(field)
        for deg in range(1, max_deg + 1):
            for prime in monic_irreducibles(field, deg):
                place = Place(field, prime)
                wp = witness_pair(place, eps, Random(f"wp:{field.q}:{prime}"))
                assert wp.ramified.places == frozenset({place, inf})
                assert gamma_check(wp.a, wp.b)
                q_deg = wp.companion.residue_degree
                assert (q_deg - deg) % 2 == 1
                assert local_symbol(wp.a, wp.b, place).sign == -1
                assert local_symbol(wp.a, wp.b, inf).sign == -1


def test_semantic_membership_examples():
    assert member_A_union_Ainf_semantic(parse_ratfunc(F3, "t^2"))
    assert member_A_union_Ainf_semantic(parse_ratfunc(F3, "1/t+1"))
    assert not member_A_union_Ainf_semantic(parse_ratfunc(F3, "t^2+1/t"))
    assert member_A_union_Ainf_semantic(RatFunc.constant(F3, 0))


def test_is_constant_semantic():
    # the constants' membership test is RatFunc.is_constant on the reduced form
    assert RatFunc.constant(F3, 2).is_constant
    assert not RatFunc.from_poly(Poly.t(F3)).is_constant
    assert parse_ratfunc(F3, "2*t+2/t+1").is_constant
    assert RatFunc.constant(F3, 0).is_constant


def test_sample_d_pairs_accepted_by_gamma():
    for field in (F3, F5):
        eps = smallest_nonsquare(field)
        pairs = sample_d_pairs(field, eps, 12, Random(f"dpairs:{field.q}"))
        assert len(pairs) == 12
        for a, b, source in pairs:
            assert source in ("witness", "random")
            assert gamma_check(a, b)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (257, 1)])
def test_d_pairs_ramify_at_infinity(p, e):
    # ROADMAP item 2's lemma: one coordinate of a pair in D is a nonsquare
    # unit at inf and the other has odd valuation there, so (a, b)_inf = -1,
    # and by the product formula Delta(a, b) holds inf and another place
    field = field_make(p, e)
    inf = Place.infinite(field)
    pairs = sample_d_pairs(field, smallest_nonsquare(field), 200, Random(f"d-lemma:{p}^{e}"))
    assert {source for _, _, source in pairs} == {"witness", "random"}
    for a, b, _ in pairs:
        ramified = delta(a, b).places
        assert inf in ramified and len(ramified) >= 2


def _sample_d_pairs_reference(field, epsilon, count, rng):
    # the loop sample_d_pairs replaced, drawn on randrange rather than
    # through the library's drawers: reduce both fractions, then decide D
    pairs = []
    while len(pairs) < count:
        if rng.random() < 0.5:
            prime = randrange_random_irreducible(field, rng, rng.randint(1, 2))
            wp = witness_pair(Place(field, prime), epsilon, rng)
            pairs.append((wp.a, wp.b, "witness"))
        else:
            for _ in range(200):
                a = randrange_random_ratfunc(field, rng, 2)
                b = randrange_random_ratfunc(field, rng, 2)
                if gamma_check(a, b):
                    pairs.append((a, b, "random"))
                    break
    return pairs


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (257, 1)])
def test_sample_d_pairs_keeps_the_stream(p, e):
    # deciding D on the unreduced draws' classes at infinity returns the
    # same pairs and leaves the generator where the reduce-first loop did
    field = field_make(p, e)
    eps = smallest_nonsquare(field)
    randoms = 0
    for seed in range(9):
        rng, ref_rng = Random(f"stream:{seed}"), Random(f"stream:{seed}")
        pairs = sample_d_pairs(field, eps, 8, rng)
        assert pairs == _sample_d_pairs_reference(field, eps, 8, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        for a, b, source in pairs:
            assert gamma_check(a, b)
            if source == "random":
                randoms += 1
                for x in (a, b):
                    assert x.den.is_monic and gcd(x.num, x.den).degree == 0
    assert randoms > 0


def test_theorem_membership_examples():
    eps = F3.elem(2)
    r = member_A_union_Ainf_theorem(parse_ratfunc(F3, "t^2"), eps, 8, Random(4))
    assert r.member and r.agrees and len(r.evidence) == 8
    r = member_A_union_Ainf_theorem(parse_ratfunc(F3, "t^2/t+1"), eps, 8, Random(4))
    assert not r.member and r.agrees
    assert not r.evidence[0].accepted
    r = member_A_union_Ainf_theorem(parse_ratfunc(F3, "1/t"), eps, 8, Random(4))
    assert r.member and r.agrees


def test_theorem_agrees_with_semantic():
    for field in (F3, F5):
        eps = smallest_nonsquare(field)
        rng = Random(f"agree:{field.q}")
        members = non_members = 0
        for _ in range(400):
            x = random_ratfunc(field, rng, 4, nonzero=False)
            semantic = member_A_union_Ainf_semantic(x)
            members += semantic
            non_members += not semantic
            report = member_A_union_Ainf_theorem(x, eps, 4, rng)
            assert report.member == semantic
            assert report.agrees
        assert members and non_members  # both directions exercised


def test_member_A_examples():
    eps = F3.elem(2)
    assert member_A(parse_ratfunc(F3, "t^3+2*t"), eps, 6, Random(9)).member
    r = member_A(parse_ratfunc(F3, "1/t+1"), eps, 6, Random(9))
    assert not r.member and r.agrees  # inside A-or-Ainf but not a polynomial
    assert member_A(RatFunc.constant(F3, 2), eps, 6, Random(9)).member
    assert member_A(RatFunc.constant(F3, 0), eps, 6, Random(9)).member


def test_member_A_matches_constant_denominator():
    for field in (F3, F5):
        eps = smallest_nonsquare(field)
        rng = Random(f"memA:{field.q}")
        for _ in range(500):
            x = random_ratfunc(field, rng, 3, nonzero=False)
            report = member_A(x, eps, 3, rng)
            assert report.agrees
            assert report.member == x.den.is_constant


def test_witness_pair_deterministic_for_seed():
    eps = F5.elem(2)
    place = Place.finite(parse_poly(F5, "t^2+2"))
    first = witness_pair(place, eps, Random("fixed"))
    second = witness_pair(place, eps, Random("fixed"))
    assert first.a == second.a and first.b == second.b


def _reference_nonsquare_residue(prime, rng):
    # one residue as drawn before the character tables: deg P range draws
    # below q, one norm each, until the quadratic character is -1
    field = prime.field
    while True:
        r = Poly(field, [rng.randrange(field.q) for _ in range(prime.degree)])
        if power_character(r, prime) == field.neg_one_code:
            return r


@pytest.mark.parametrize("q, d", [
    ("7", 2), ("3^2", 2), ("13", 2), ("3", 4),  # q^d <= SIEVE_CAP: the character table
    ("257", 2), ("3", 8),                        # above it: one norm a draw
])
def test_nonsquare_residues_keep_the_stream(q, d):
    field = parse_field_spec(q)
    rng = Random(f"nonsquare:{q}:{d}")
    for _ in range(3):
        prime = random_irreducible(field, rng, d)
        seed = rng.getrandbits(64)
        ours, ref = Random(seed), Random(seed)
        residues = _nonsquare_residues(prime, ours, 6)
        assert residues == [_reference_nonsquare_residue(prime, ref) for _ in range(6)]
        assert ours.getstate() == ref.getstate()


def _count_power_characters(monkeypatch):
    # power_character as called by definability's draws, and by anything in
    # polyring that reads the module global: a character table that took a
    # norm would be counted
    calls = []

    def counting(*args):
        calls.append(args)
        return power_character(*args)

    for module in (definability, polyring):
        monkeypatch.setattr(module, "power_character", counting)
    return calls


def test_nonsquare_residues_read_no_norm_a_prime_below_the_cap(monkeypatch):
    # the F_7 table is read at a root of the prime in F_49, with no norm, and
    # later draws for the same prime read the cached table
    calls = _count_power_characters(monkeypatch)
    prime = parse_poly(field_make(7), "t^2+1")
    _nonsquare_residues(prime, Random(1), 30)
    assert calls == []
    _nonsquare_residues(prime, Random(2), 30)
    assert calls == []


@pytest.mark.parametrize("q, prime_text", [("257", "t^2+3"), ("3", "t^8+t^3+2")])
def test_nonsquare_residues_take_one_norm_a_draw_above_the_cap(q, prime_text, monkeypatch):
    field = parse_field_spec(q)
    prime = parse_poly(field, prime_text)
    assert field.q ** prime.degree > SIEVE_CAP
    calls = _count_power_characters(monkeypatch)
    draws = []

    def counting_codes(rng, n, count):
        draws.append(count)
        return polyring._random_codes(rng, n, count)

    monkeypatch.setattr(definability, "_random_codes", counting_codes)
    _nonsquare_residues(prime, Random(5), 4)
    assert len(draws) >= 4 and len(calls) == len(draws)


@pytest.mark.parametrize("q", [3, 257])
def test_witness_pair_refuses_a_square_modulus_before_any_draw(q):
    # (t + 1)^2 through the unchecked Place constructor: no residue is a
    # nonsquare mod a square, so the draws would never end
    field = field_make(q)
    rng = Random(1)
    state = rng.getstate()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="irreducible"):
        witness_pair(Place(field, parse_poly(field, "t^2+2*t+1")), None, rng)
    assert time.perf_counter() - start < 1.0
    assert rng.getstate() == state
