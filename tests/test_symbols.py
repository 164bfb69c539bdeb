import importlib.util
import itertools
from pathlib import Path
from random import Random

import pytest

from ffsym.gf import FieldElem, field_make, smallest_nonsquare
from ffsym.places import (
    Place,
    RatFunc,
    is_square_local,
    parse_ratfunc,
    random_ratfunc,
    sorted_places,
    support,
    valuation,
)
from ffsym import places, polyring, quaternion, symbols
from ffsym.definability import gamma_check
from ffsym.polyring import (
    MonicSieve,
    Poly,
    character_table,
    enumerate_monic,
    factor,
    gcd,
    invmod,
    monic_irreducibles,
    parse_poly,
    poly_index,
    power_character,
    random_irreducible,
    random_poly,
)
from ffsym.quaternion import delta, hilbert_product
from ffsym.symbols import (
    _residue_walk,
    check_general_reciprocity,
    local_symbol,
    reciprocity_sweep,
    residue_symbol,
    sign_n,
)
from powers import power

F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)
GOLDEN = Path(__file__).parent / "golden"


def test_symbol_value_semantics():
    # a symbol value is a field element; sign reads 0 and +-1 and checks 1
    # before -1, so over F_4 (where -1 == 1) the sign of -1 is 1
    for field in (F3, field_make(3, 2), field_make(2, 2)):
        one, zero, minus = field.one, field.zero, field.neg_one
        assert one.sign == 1 and zero.sign == 0
        assert minus.sign == (1 if field.p == 2 else -1)
        assert zero.is_zero and not one.is_zero and not minus.is_zero
        assert field.mul(one.code, minus.code) == minus.code
        assert field.mul(zero.code, minus.code) == zero.code
        assert field.inv(minus.code) == minus.code
        assert field.pow_(minus.code, 2) == one.code
        for code in range(2, field.q):
            if code != field.neg_one_code:  # not quadratic: F_9 and F_4 have such codes
                with pytest.raises(ValueError):
                    FieldElem(field, code).sign


def test_residue_symbol_examples():
    t = Poly.t(F3)
    assert residue_symbol(t, parse_poly(F3, "t+1")) == -1
    assert residue_symbol(parse_poly(F3, "t+1"), parse_poly(F3, "t+1")).is_zero
    assert residue_symbol(Poly.constant(F3, 2), parse_poly(F3, "t^2+1")) == 1
    with pytest.raises(ValueError):
        residue_symbol(t, parse_poly(F3, "t+1"), n=4)  # 4 does not divide q-1


def test_residue_symbol_periodicity_and_multiplicativity():
    p = parse_poly(F5, "t^2+2")
    rng = Random(5)
    for _ in range(40):
        a = random_poly(F5, rng, 3, nonzero=True)
        b = random_poly(F5, rng, 3, nonzero=True)
        assert residue_symbol(a * b, p).code == F5.mul(residue_symbol(a, p).code, residue_symbol(b, p).code)
        assert residue_symbol(a + p, p) == residue_symbol(a, p)


def test_residue_symbol_general_examples():
    t = Poly.t(F3)
    t1 = parse_poly(F3, "t+1")
    assert residue_symbol(t, t1 * t1) == 1
    assert residue_symbol(t, t1.scale(2)) == -1  # sign of beta ignored
    assert residue_symbol(t1, t1 * t).is_zero  # shared factor
    assert residue_symbol(t, Poly.constant(F3, 2)) == 1  # empty product
    with pytest.raises(ValueError):
        residue_symbol(t, Poly.zero(F3))


def test_residue_symbol_general_trusts_factor(monkeypatch):
    # the symbol re-tests no prime for irreducibility; its values on
    # composite lower arguments agree with the product over the factorization
    rng = Random("general-trusts-factor")
    pairs = [(random_poly(F5, rng, 3), random_poly(F5, rng, 3, nonzero=True)) for _ in range(60)]
    factored = [(alpha, beta, factor(beta)) for alpha, beta in pairs]

    def refuse(f):
        raise AssertionError("irreducibility test on a prime argument")

    assert not hasattr(symbols, "is_irreducible")
    for module in (polyring, places):
        for name in ("is_irreducible", "_walk_is_irreducible"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for alpha, beta, fac in factored:
        assert residue_symbol(alpha, beta) == _factored_symbol(alpha, fac)


def _factored_symbol(alpha, factors, n=2):
    # the definition: the product of (alpha/P)_n^e over the factorization
    field = alpha.field
    code = field.one_code
    for prime, mult in factors:
        code = field.mul(code, field.pow_(residue_symbol(alpha, prime, n).code, mult))
    return FieldElem(field, code)


@pytest.mark.parametrize("p,e,n", [
    (3, 1, 2), (7, 1, 3), (7, 1, 6), (13, 1, 4), (3, 2, 8), (5, 2, 3), (257, 1, 2),
    (2, 2, 3), (2, 3, 7), (3, 5, 2),
])
def test_residue_symbol_general_matches_factored_product(p, e, n):
    # one resultant against the product over the factorization of beta, on
    # random pairs, repeated factors and shared factors
    field = field_make(p, e)
    rng = Random(f"general-vs-factored:{p}^{e}:{n}")
    for _ in range(40):
        alpha = random_poly(field, rng, 6)
        beta = random_poly(field, rng, 6, nonzero=True)
        g = random_poly(field, rng, 2, nonzero=True)
        for a, b in ((alpha, beta), (alpha, beta * g * g), (alpha * g, beta * g)):
            assert residue_symbol(a, b, n) == _factored_symbol(a, factor(b), n)


def test_sign_n_examples():
    assert sign_n(parse_poly(F3, "t^2+t")) == F3.one
    assert sign_n(parse_poly(F5, "2*t^3+t")) == F5.elem(4)
    assert sign_n(parse_poly(F3, "2*t")) == F3.elem(2)
    with pytest.raises(ValueError):
        sign_n(Poly.zero(F3))


def test_constant_symbol_closed_form():
    # (a/P) = a^{((q-1)/2) deg P} for constants, exhaustive over small primes
    for field in (F3, F5, F7):
        q = field.q
        for deg in (1, 2, 3):
            for prime in monic_irreducibles(field, deg):
                for a in range(1, q):
                    sym = residue_symbol(Poly.constant(field, a), prime)
                    assert sym.code == field.pow_(a, ((q - 1) // 2) * deg)


def test_symbol_square_oracle_exhaustive():
    # symbol in {1, 0} exactly on squares-or-zero mod P, by brute force
    for field in (F3, F5, F7):
        q = field.q
        for deg in (1, 2):
            for prime in monic_irreducibles(field, deg):
                residues = [Poly(field, tail) for tail in itertools.product(range(q), repeat=deg)]
                squares = {((r * r) % prime).coeffs for r in residues}
                for r in residues:
                    sym = residue_symbol(r, prime)
                    assert sym.is_zero == r.is_zero
                    assert (sym.sign >= 0) == (r.coeffs in squares)


def test_residue_symbol_attains_every_root_of_unity():
    # every element of mu_n occurs as a symbol value for some upper argument
    cases = [(F3, 1, 2), (F3, 2, 2), (F5, 2, 2), (F7, 1, 3), (F7, 2, 3), (field_make(13), 1, 4)]
    for field, deg, n in cases:
        roots = {c for c in range(1, field.q) if field.pow_(c, n) == field.one_code}
        assert len(roots) == n
        for prime in monic_irreducibles(field, deg)[:3]:
            seen = set()
            for tail in itertools.product(range(field.q), repeat=deg):
                r = Poly(field, tail)
                if r.is_zero:
                    continue
                seen.add(residue_symbol(r, prime, n).code)
            assert seen == roots


def test_reciprocity_examples():
    t3, one3 = Poly.t(F3), Poly.one(F3)
    chk = check_general_reciprocity(t3, t3 + one3)
    assert chk.lhs == F3.elem(2) and chk.rhs == F3.elem(2) and chk.passed
    t5, one5 = Poly.t(F5), Poly.one(F5)
    chk = check_general_reciprocity(t5, t5 + one5)
    assert chk.lhs == F5.one and chk.rhs == F5.one and chk.passed
    chk = check_general_reciprocity(Poly.constant(F3, 2), t3 + one3)
    assert chk.passed
    with pytest.raises(ValueError):
        check_general_reciprocity(t3, t3 * (t3 + one3))


def test_reciprocity_exhaustive_small():
    for field, max_deg in ((F3, 3), (F5, 3)):
        res = reciprocity_sweep(field, max_deg)
        assert res.passed, res.violations[:3]


def test_sweep_matches_direct_check():
    # the batched sweep against the one-pair implementation: its coprime
    # count against gcd over every ordered pair, and its empty violation list
    # against check_general_reciprocity on every coprime pair (60 seeded
    # pairs over F_9)
    for field, max_deg in ((F3, 2), (F5, 1), (field_make(3, 2), 1)):
        res = reciprocity_sweep(field, max_deg)
        polys = [f.scale(a) for k in range(max_deg + 1) for f in enumerate_monic(field, k)
                 for a in range(1, field.q)]
        coprime = [(a, b) for a in polys for b in polys if gcd(a, b).degree == 0]
        assert res.pairs_total == len(polys) ** 2
        assert res.pairs_coprime == len(coprime)
        assert res.violations == ()
        if not field.is_prime_field:
            coprime = Random(77).sample(coprime, 60)
        for a, b in coprime:
            assert check_general_reciprocity(a, b).passed


def test_residue_walk_matches_division():
    # the residue of every monic mod every prime, walked in sieve order
    for field, max_deg in ((F3, 4), (F7, 2), (field_make(3, 2), 2), (field_make(2, 3), 2)):
        sieve = MonicSieve(field)
        sieve.grow(max_deg)
        monics = [sieve.monic(h) for h in range(len(sieve.least))]
        for prime in (f for h, f in enumerate(monics) if h and sieve.least[h] == h):
            d = len(prime.coeffs) - 1
            assert _residue_walk(prime, max_deg) == [
                poly_index((f % prime).coeffs, field.q, d) for f in monics]


def test_sweep_violations_match_fixture():
    # one corrupted character-table entry: the enumeration of the failing
    # blocks must list the same violations, in the same order, as the fixture
    spec = importlib.util.spec_from_file_location(
        "make_violation_golden", GOLDEN / "make_violation_golden.py")
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    cases = maker.violation_cases(symbols)
    assert [len(rows) for rows in cases.values()] == [48, 16, 256, 64, 128]
    assert maker.dumps(cases) == (GOLDEN / "sweep_violations.json").read_text()
    assert symbols.character_table is character_table


def test_local_symbol_examples():
    pt = Place.finite(Poly.t(F3))
    assert local_symbol(RatFunc.from_poly(Poly.t(F3)), RatFunc.from_poly(Poly.t(F3)), pt).sign == -1
    inf = Place.infinite(F3)
    assert local_symbol(RatFunc.constant(F3, 2), parse_ratfunc(F3, "1/t"), inf).sign == -1
    assert local_symbol(RatFunc.constant(F3, 1), parse_ratfunc(F3, "t+1"), inf).sign == 1
    with pytest.raises(ValueError):
        local_symbol(RatFunc.constant(F3, 0), RatFunc.constant(F3, 1), inf)
    f4 = field_make(2, 2)
    with pytest.raises(ValueError):
        local_symbol(RatFunc.constant(f4, 1), RatFunc.constant(f4, 1), Place.infinite(f4))


def _joint_places(field, *xs):
    places = set()
    for x in xs:
        places |= set(support(x))
    places.add(Place.infinite(field))
    return sorted_places(places)


def test_local_symbol_bilinear():
    for field in (F3, F5, F7):
        rng = Random(f"bilinear:{field.q}")
        for _ in range(500):
            a1 = random_ratfunc(field, rng, 2)
            a2 = random_ratfunc(field, rng, 2)
            b = random_ratfunc(field, rng, 2)
            for pl in _joint_places(field, a1, a2, b):
                left = local_symbol(a1 * a2, b, pl).sign
                assert left == local_symbol(a1, b, pl).sign * local_symbol(a2, b, pl).sign
                right = local_symbol(b, a1 * a2, pl).sign
                assert right == local_symbol(b, a1, pl).sign * local_symbol(b, a2, pl).sign


def _gamma_symbol(alpha, beta, place):
    # the gamma form: ((-1)^{mk} alpha^k / beta^m reduced at v)^{(q^h - 1)/2},
    # the unit gamma reduced as (num mod P)(den mod P)^{-1} or its lead ratio
    field = alpha.field
    m, k = valuation(alpha, place), valuation(beta, place)
    gamma = power(alpha, k) * power(beta, m).inverse()
    if (m * k) % 2:
        gamma = gamma * RatFunc.constant(field, field.neg_one)
    assert valuation(gamma, place) == 0
    if place.is_infinite:
        return field.pow_(gamma.lead_ratio_code(), (field.q - 1) // 2)
    p = place.prime
    red = (gamma.num % p) * invmod(gamma.den % p, p) % p
    return power_character(red, p)


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (257, 1), (3, 2), (3, 5), (17, 2)])
def test_local_symbol_matches_gamma_form(p, e):
    # alpha = a P^i, beta = b P^j for a prime P of degree 1 or 2, so that
    # v_P takes negative, zero and positive values on both sides
    field = field_make(p, e)
    rng = Random(f"gamma-oracle:{p}^{e}")
    seen = set()
    for n in range(60):
        prime = random_irreducible(field, rng, 1 + n % 2)
        pi = RatFunc.from_poly(prime)
        i, j = rng.randint(-2, 2), rng.randint(-2, 2)
        alpha = random_ratfunc(field, rng, 2) * power(pi, i)
        beta = random_ratfunc(field, rng, 2) * power(pi, j)
        for pl in {*_joint_places(field, alpha, beta), Place(field, prime)}:
            m, k = valuation(alpha, pl), valuation(beta, pl)
            seen.add(((m > 0) - (m < 0), (k > 0) - (k < 0)))
            assert local_symbol(alpha, beta, pl).code == _gamma_symbol(alpha, beta, pl)
    assert len(seen) == 9


@pytest.mark.parametrize("p,e", [(3, 1), (257, 1), (3, 5), (17, 2)])
def test_local_path_inverts_nothing(p, e, monkeypatch):
    # local questions read square classes (num*den), never a residue inverse
    field = field_make(p, e)
    rng = Random(f"no-inverse:{p}^{e}")
    pairs = [(random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)) for _ in range(25)]

    def run():
        quaternion._delta_cached.cache_clear()
        out = []
        for alpha, beta in pairs:
            places = sorted_places(support(alpha) | {Place.infinite(field)})
            out.append((
                hilbert_product(alpha, beta),
                delta(alpha, beta).places,
                gamma_check(alpha, beta),
                [is_square_local(alpha, pl) for pl in places],
            ))
        return out

    expected = run()

    def refuse(f, g):
        raise AssertionError("extended gcd on the local path")

    monkeypatch.setattr(polyring, "xgcd", refuse)
    assert run() == expected


@pytest.mark.parametrize("p,e", [(257, 1), (3, 5)])
def test_characters_raise_no_power(p, e, monkeypatch):
    # a character is read from the norm Res(P, r): power_character,
    # residue_character and local_symbol on fresh pairs make no powmod
    field = field_make(p, e)
    rng = Random(f"no-powmod:{p}^{e}")
    primes = [random_irreducible(field, rng, d) for d in (1, 2, 3, 4) for _ in range(3)]
    pairs = [(random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)) for _ in range(12)]
    residues = [random_poly(field, rng, 6) for _ in range(12)]
    calls = []
    real = polyring.powmod

    def counting_powmod(f, n, mod):
        calls.append(n)
        return real(f, n, mod)

    monkeypatch.setattr(polyring, "powmod", counting_powmod)
    for prime in primes:
        place = Place(field, prime)
        for r in residues:
            power_character(r, prime, 2)
            places.residue_character(place, r % prime)
        for alpha, beta in pairs:
            local_symbol(alpha, beta, place)
    for alpha, beta in pairs:
        local_symbol(alpha, beta, Place.infinite(field))
    assert calls == []


@pytest.mark.parametrize("p, e, max_deg, n", [(5, 1, 3, 2), (3, 2, 2, 8), (2, 2, 2, 3)],
                         ids=["F5", "F9", "F4"])
def test_sweep_calls_no_powmod(p, e, max_deg, n, monkeypatch):
    # the sweep's precompute is the sieve and one character table per prime,
    # whose coset walk certifies its own generator: no powmod order test
    calls = []
    real = polyring.powmod

    def counting_powmod(f, k, mod):
        calls.append(k)
        return real(f, k, mod)

    monkeypatch.setattr(polyring, "powmod", counting_powmod)
    assert reciprocity_sweep(field_make(p, e), max_deg, n=n).passed
    assert calls == []


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (257, 1), (3, 2), (3, 5)])
def test_local_path_factors_each_fraction_once(p, e, monkeypatch):
    # hilbert_product then delta read one cached divisor per fraction:
    # factor runs once on each nonconstant numerator and denominator
    field = field_make(p, e)
    rng = Random(f"factor-once:{p}^{e}")
    pairs = [(random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)) for _ in range(20)]
    pairs.append((pairs[0][0], pairs[0][0]))
    expected = [(hilbert_product(a, b), delta(a, b).places) for a, b in pairs]
    calls = []

    def counting_factor(f):
        calls.append(f)
        return polyring.factor(f)

    assert not hasattr(symbols, "factor")  # symbols reads places' divisors
    monkeypatch.setattr(places, "factor", counting_factor)
    for (a, b), out in zip(pairs, expected):
        places.divisor.cache_clear()
        quaternion._delta_cached.cache_clear()
        calls.clear()
        assert (hilbert_product(a, b), delta(a, b).places) == out
        parts = [f for x in {a, b} for f in (x.num, x.den) if not f.is_constant]
        assert sorted(calls, key=Poly.sort_key) == sorted(parts, key=Poly.sort_key)


def test_local_symbol_special_values():
    for field in (F3, F5):
        rng = Random(f"special:{field.q}")
        for _ in range(200):
            a = random_ratfunc(field, rng, 3)
            zero, one = RatFunc.constant(field, 0), RatFunc.constant(field, 1)
            for pl in _joint_places(field, a):
                assert local_symbol(a, zero - a, pl).sign == 1
                if a != one:
                    assert local_symbol(a, one - a, pl).sign == 1


def test_local_symbol_antisymmetric():
    for field in (F3, F5):
        rng = Random(f"antisym:{field.q}")
        for _ in range(200):
            a = random_ratfunc(field, rng, 3)
            b = random_ratfunc(field, rng, 3)
            for pl in _joint_places(field, a, b):
                assert local_symbol(a, b, pl).sign * local_symbol(b, a, pl).sign == 1


def test_nondegeneracy_witness():
    # a local nonsquare pairs to -1 with the uniformizer or a nonsquare unit
    for field in (F3, F5, F7):
        rng = Random(f"nondeg:{field.q}")
        eps = smallest_nonsquare(field)
        found = 0
        while found < 60:
            x = random_ratfunc(field, rng, 3)
            candidates = _joint_places(field, x)
            pl = candidates[rng.randrange(len(candidates))]
            if is_square_local(x, pl):
                continue
            found += 1
            if pl.is_infinite:
                uniformizer = parse_ratfunc(field, "1/t")
                unit = RatFunc.constant(field, eps)
            else:
                uniformizer = RatFunc.from_poly(pl.prime)
                unit = RatFunc.from_poly(_nonsquare_unit_lift(pl))
            signs = {local_symbol(x, uniformizer, pl).sign,
                     local_symbol(x, unit, pl).sign}
            assert -1 in signs


def _nonsquare_unit_lift(place):
    field = place.field
    prime = place.prime
    d = place.residue_degree
    for tail in itertools.product(range(field.q), repeat=d):
        r = Poly(field, tail)
        if r.is_zero:
            continue
        from ffsym.polyring import powmod

        if powmod(r, (field.q ** d - 1) // 2, prime).coeffs == (field.neg_one_code,):
            return r
    raise AssertionError("no nonsquare residue found")


def test_local_square_iff_trivial_pairing():
    # x is a local square exactly when it pairs to 1 with both the
    # uniformizer and a nonsquare unit (independent route to the same fact)
    for field in (F3, F5):
        rng = Random(f"sq-pairing:{field.q}")
        eps = smallest_nonsquare(field)
        for _ in range(150):
            x = random_ratfunc(field, rng, 3)
            places = _joint_places(field, x)
            pl = places[rng.randrange(len(places))]
            if pl.is_infinite:
                uniformizer = parse_ratfunc(field, "1/t")
                unit = RatFunc.constant(field, eps)
            else:
                uniformizer = RatFunc.from_poly(pl.prime)
                unit = RatFunc.from_poly(_nonsquare_unit_lift(pl))
            both_one = (local_symbol(x, uniformizer, pl).sign == 1
                        and local_symbol(x, unit, pl).sign == 1)
            assert is_square_local(x, pl) == both_one


def test_reciprocity_sweep_degree_zero():
    # constants only: every pair is coprime, and the sieve holds only the monic 1
    for field in (F3, F5, field_make(3, 2)):
        res = reciprocity_sweep(field, 0)
        units = field.q - 1
        assert (res.pairs_total, res.pairs_coprime) == (units ** 2, units ** 2)
        assert res.passed
    sieve = MonicSieve(F5)
    assert (sieve.monic(0), list(sieve.least), list(sieve.cofactor)) == (Poly.one(F5), [0], [0])
    assert sieve.factor_indices(0) == ()
    assert monic_irreducibles(F5, 0) == ()


def test_reciprocity_sweep_higher_orders():
    # the identity is stated for every n dividing q - 1
    assert reciprocity_sweep(field_make(7), 2, n=3).passed
    assert reciprocity_sweep(field_make(13), 1, n=4).passed
    assert reciprocity_sweep(field_make(13), 1, n=3).passed
    assert reciprocity_sweep(field_make(3, 2), 1, n=8).passed
    assert reciprocity_sweep(field_make(3, 2), 1, n=4).passed


def test_cubic_residue_oracle():
    # (a/P)_3 = 1 exactly on nonzero cubes mod P, by brute force
    field = field_make(7)
    for prime in monic_irreducibles(field, 1) + monic_irreducibles(field, 2):
        deg = len(prime.coeffs) - 1
        residues = [Poly(field, tail) for tail in itertools.product(range(7), repeat=deg)]
        cubes = {((r * r * r) % prime).coeffs for r in residues if not r.is_zero}
        for r in residues:
            sym = residue_symbol(r, prime, n=3)
            if r.is_zero:
                assert sym.is_zero
            else:
                assert (sym == 1) == (r.coeffs in cubes)
                assert field.pow_(sym.code, 3) == field.one_code  # value in mu_3


def test_hilbert_examples():
    res = hilbert_product(RatFunc.from_poly(Poly.t(F3)), parse_ratfunc(F3, "t+1"))
    assert res.as_dict() == {"t": 1, "t+1": -1, "inf": -1}
    assert res.product == 1
    res = hilbert_product(RatFunc.constant(F3, 1), parse_ratfunc(F3, "t^2+t"))
    assert all(sign == 1 for _, sign in res.per_place)
    with pytest.raises(ValueError):
        hilbert_product(RatFunc.constant(F3, 0), RatFunc.constant(F3, 1))


def test_hilbert_product_random():
    for field in (F3, F5):
        rng = Random(f"hilbert:{field.q}")
        for _ in range(250):
            a = random_ratfunc(field, rng, 4)
            b = random_ratfunc(field, rng, 4)
            assert hilbert_product(a, b).product == 1
