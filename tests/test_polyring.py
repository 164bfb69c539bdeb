from random import Random

import pytest

from ffsym import polyring
from ffsym.dirichlet import pi_q
from ffsym.gf import Field, field_make, prime_divisors
from ffsym.polyring import (
    MAX_PARSED_DEGREE,
    NEG_INF,
    SIEVE_CAP,
    MonicSieve,
    Poly,
    character_table,
    enumerate_monic,
    enumerate_residues,
    factor,
    format_poly,
    gcd,
    invmod,
    is_irreducible,
    monic_irreducibles,
    monic_sieve,
    parse_poly,
    poly_index,
    power_character,
    powmod,
    random_irreducible,
    random_poly,
    xgcd,
)
from powers import power

F3 = field_make(3)
F5 = field_make(5)
F9 = field_make(3, 2)


def test_arith_examples():
    t = Poly.t(F3)
    one = Poly.one(F3)
    assert power(t + one, 2) == parse_poly(F3, "t^2+2*t+1")
    assert (t + one) * parse_poly(F3, "t^2+2*t+1") == parse_poly(F3, "t^3+1")
    f = parse_poly(F3, "t^2+2")
    assert f + Poly.zero(F3) == f


def test_degree_sentinel():
    z = Poly.zero(F3)
    assert z.degree == NEG_INF
    assert z.degree + 5 == NEG_INF  # absorbing under degree addition
    assert Poly.one(F3).degree == 0
    t = Poly.t(F3)
    assert (t * z).degree == NEG_INF
    assert (t * t).degree == t.degree + t.degree


def test_mixed_descriptor_error():
    with pytest.raises(ValueError):
        Poly.t(F3) + Poly.t(F5)
    # fields compare by identity first and by (p, e) after it: a directly
    # built Field(3, 2) is F_9, and F_9 is not F_3
    direct = Field(3, 2)
    assert direct is not F9 and direct == F9
    assert Poly.t(direct) * Poly.t(F9) == Poly(F9, (0, 0, 1))
    with pytest.raises(ValueError, match="mixed field descriptors"):
        Poly.t(F9) + Poly.t(F3)


def test_divmod_examples():
    t = Poly.t(F3)
    q, r = divmod(power(t, 3), t + Poly.one(F3))
    assert q == parse_poly(F3, "t^2+2*t+1")
    assert r == Poly.constant(F3, 2)
    assert gcd(parse_poly(F5, "t^2+4"), parse_poly(F5, "t+4")) == parse_poly(F5, "t+4")
    f = parse_poly(F3, "2*t+2")
    assert gcd(f, Poly.zero(F3)) == f.monic()
    assert gcd(Poly.zero(F3), Poly.zero(F3)) == Poly.zero(F3)
    with pytest.raises(ZeroDivisionError):
        divmod(t, Poly.zero(F3))


def _euclid(f, g):
    # the test's own gcd: Euclid on Poly remainders, then monic
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (257, 1), (3, 2), (2, 3), (3, 5), (5, 4)],
                         ids=["F2", "F3", "F257", "F9", "F8", "F243", "F625"])
def test_gcd_matches_poly_euclid(p, e):
    # random pairs, pairs with a common factor, and zero and constant inputs
    field = field_make(p, e)
    rng = Random(f"gcd:{field.spec}")
    zero = Poly.zero(field)
    for _ in range(60):
        f, g = random_poly(field, rng, 5), random_poly(field, rng, 5)
        h = random_poly(field, rng, 3, nonzero=True)
        for x, y in ((f, g), (f * h, g * h), (f, zero), (zero, g), (f, f),
                     (h.scale(field.neg_one_code), f * h)):
            assert gcd(x, y) == _euclid(x, y)
        c = Poly.constant(field, rng.randrange(1, p))
        assert gcd(c, f) == gcd(f, c) == Poly.one(field)
    assert gcd(zero, zero) == zero
    with pytest.raises(ValueError, match="mixed field descriptors"):
        gcd(Poly.t(field), Poly.t(F5))


def _ben_or_irreducible(f):
    # the test's own Ben-Or step for a monic quadratic: no root in F_q
    # exactly when gcd(t^q - t, f) = 1
    t = Poly.t(f.field)
    return _euclid(powmod(t, f.field.q, f) - t, f).degree == 0


@pytest.mark.parametrize("p, e", [(257, 1), (3, 5), (5, 4), (65521, 1)],
                         ids=["F257", "F243", "F625", "F65521"])
def test_quadratic_closed_form_matches_ben_or(p, e):
    # above the sieve cap a monic quadratic over odd q is decided by its
    # discriminant and split by its square root: random quadratics, products
    # of two distinct linears and squares of linears
    field = field_make(p, e)
    assert field.q ** 2 > SIEVE_CAP
    rng = Random(f"quadratic:{field.spec}")
    t = Poly.t(field)
    seen = {True: 0, False: 0}
    for _ in range(100):
        f = random_poly(field, rng, 2, monic=True, exact_deg=True)
        irreducible = _ben_or_irreducible(f)
        seen[irreducible] += 1
        assert polyring._walk_is_irreducible(f) == irreducible
        assert list(polyring._distinct_degree(f)) == [(f, 2 if irreducible else 1)]
        fac = polyring._walk_factor(f)
        if irreducible:
            assert fac == ((f, 1),)
        else:
            assert _rebuild(f, fac) == f and all(prime.degree == 1 for prime, _ in fac)
    assert seen[True] > 10 and seen[False] > 10
    for _ in range(20):
        r, s = rng.sample(range(field.q), 2)
        low, high = sorted((t - Poly(field, (r,)), t - Poly(field, (s,))), key=Poly.sort_key)
        f = low * high
        assert not _ben_or_irreducible(f) and not polyring._walk_is_irreducible(f)
        assert sorted(polyring._equal_degree_split(f, 1, None), key=Poly.sort_key) == [low, high]
        assert polyring._walk_factor(f) == ((low, 1), (high, 1))
        assert polyring._walk_factor(low * low) == ((low, 2),)
        assert not polyring._walk_is_irreducible(low * low)


def test_xgcd_identity():
    rng = Random(101)
    for _ in range(50):
        f = random_poly(F5, rng, 4)
        g = random_poly(F5, rng, 4)
        d, u, v = xgcd(f, g)
        assert u * f + v * g == d
        assert d == gcd(f, g)


def test_invmod():
    p = parse_poly(F3, "t^2+1")
    for tail in [(1,), (2,), (0, 1), (1, 2), (2, 2)]:
        f = Poly(F3, tail)
        inv = invmod(f, p)
        assert (f * inv) % p == Poly.one(F3)
    with pytest.raises(ZeroDivisionError):
        invmod(Poly.zero(F3), p)


def test_is_irreducible_examples():
    assert is_irreducible(parse_poly(F3, "t^2+1"))
    assert not is_irreducible(parse_poly(F5, "t^2+1"))  # roots +-2
    assert is_irreducible(Poly.t(F5))
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F3))
    with pytest.raises(ValueError):
        is_irreducible(Poly.zero(F3))


def _rebuild(f, fac):
    # f from its leading coefficient and its (monic prime, multiplicity) pairs
    acc = Poly(f.field, [f.lead_code])
    for prime, mult in fac:
        acc = acc * power(prime, mult)
    return acc


def test_factor_examples():
    assert factor(parse_poly(F3, "t^2+2*t+1")) == ((parse_poly(F3, "t+1"), 2),)
    assert factor(parse_poly(F3, "t^3+t")) == ((Poly.t(F3), 1), (parse_poly(F3, "t^2+1"), 1))
    f = parse_poly(F3, "2*t+2")
    fac = factor(f)
    assert fac == ((parse_poly(F3, "t+1"), 1),)
    assert _rebuild(f, fac) == f  # the leading coefficient 2 is f's own
    with pytest.raises(ValueError):
        factor(Poly.zero(F3))


def test_factor_roundtrip_seeded():
    for field in (F3, F5, field_make(7), F9):
        rng = Random(f"roundtrip:{field.q}")
        for _ in range(100):
            f = random_poly(field, rng, 6, nonzero=True)
            fac = factor(f)
            assert type(fac) is tuple and _rebuild(f, fac) == f
            assert [prime.sort_key() for prime, _ in fac] == sorted(prime.sort_key() for prime, _ in fac)
            for prime, _ in fac:
                assert prime.is_monic and is_irreducible(prime)


def _ben_or(f):
    # the test's own irreducibility test for a monic f: gcd(t^(q^d) - t, f)
    # = 1 for every d <= deg f / 2, through plain powmod
    t = h = Poly.t(f.field)
    for _ in range(f.degree // 2):
        h = powmod(h, f.field.q, f)
        if _euclid(h - t, f).degree != 0:
            return False
    return True


def _ben_or_prime(field, rng, deg, avoid):
    # a random monic irreducible of degree deg outside avoid
    while True:
        f = random_poly(field, rng, deg, monic=True, exact_deg=True)
        if f not in avoid and _ben_or(f):
            return f


WALK_FIELDS = [(3, 5), (5, 4), (17, 2), (2, 8), (257, 1), (65521, 1)]


@pytest.mark.parametrize("p, e", WALK_FIELDS, ids=[f"F{p ** e}" for p, e in WALK_FIELDS])
def test_factor_walk_fields_match_ben_or(p, e):
    # above the sieve cap on every degree: products of primes found by the
    # test's own Ben-Or, which Cantor-Zassenhaus must split (two quadratics,
    # two cubics, three linears) or _squarefree_parts must strip (a square)
    field = field_make(p, e)
    assert field.q ** 2 > SIEVE_CAP
    rng = Random(f"walk-fields:{field.spec}")
    for shape in ((2, 2), (3, 3), (1, 1, 1), (2, 1)):
        primes = []
        for deg in shape:
            primes.append(_ben_or_prime(field, rng, deg, primes))
        mults = [2, 1] if shape == (2, 1) else [1] * len(shape)
        f = Poly(field, (rng.randrange(1, field.q),))
        for prime, mult in zip(primes, mults):
            f = f * power(prime, mult)
        expected = tuple(sorted(zip(primes, mults), key=lambda pm: pm[0].sort_key()))
        assert factor(f) == expected
        assert is_irreducible(f) is False
        assert all(is_irreducible(prime) for prime in primes)


def test_factor_seed_independent():
    # Cantor-Zassenhaus draws at random, and the sorted split does not
    # depend on the draws: odd q, and even q through the trace map
    for field, texts, d in ((F5, ("t", "t+1", "t+2"), 1), (F5, ("t^2+2", "t^2+t+1"), 2),
                            (field_make(2, 2), ("t", "t+1"), 1),
                            (field_make(2, 2), ("t^3+t+1", "t^3+t^2+1"), 3),
                            (field_make(3, 5), ("t^2+[1,0,0,0,0]", "t^2+t+[2,1,0,0,0]"), 2),
                            (field_make(2, 3), ("t^2+t+[0,1,0]", "t^2+t+[0,0,1]"), 2)):
        primes = sorted((parse_poly(field, text) for text in texts), key=Poly.sort_key)
        prod = Poly.one(field)
        for prime in primes:
            prod = prod * prime
        for s in range(5):
            rng = Random(s)
            split = polyring._equal_degree_split(prod, d, rng)
            assert sorted(split, key=Poly.sort_key) == primes
            assert rng.getstate() != Random(s).getstate()  # it drew


def test_factor_char_p_powers():
    # p-th powers exercise the derivative-zero branch
    f = parse_poly(F3, "t^3+2")  # (t + 2)^3 over F_3
    assert factor(f) == ((parse_poly(F3, "t+2"), 3),)
    g = parse_poly(F9, "t^6+2*t^3+1")  # ((t^3+1))^2 = ((t+1)^3)^2
    assert factor(g) == ((parse_poly(F9, "t+1"), 6),)


def test_irreducible_vs_factor_exhaustive():
    for field in (F3, F5):
        for deg in range(1, 5):
            for f in enumerate_monic(field, deg):
                single = factor(f)
                expected = len(single) == 1 and single[0][1] == 1
                assert is_irreducible(f) == expected


def test_enumerate_monic():
    assert [format_poly(f) for f in enumerate_monic(F3, 1)] == ["t", "t+1", "t+2"]
    assert len(list(enumerate_monic(F3, 2))) == 9
    assert list(enumerate_monic(F5, 0)) == [Poly.one(F5)]
    polys = list(enumerate_monic(F3, 2))
    assert len(set(polys)) == 9


def test_enumerate_monic_unit_constant():
    # the same order without the monics that t divides; degree 0 keeps 1
    for field, k in ((F3, 1), (F3, 3), (F5, 2), (F9, 2)):
        units = [f for f in enumerate_monic(field, k) if f.coeffs[0] != 0]
        assert list(enumerate_monic(field, k, unit_constant=True)) == units
        assert len(units) == (field.q - 1) * field.q ** (k - 1)
    assert list(enumerate_monic(F5, 0, unit_constant=True)) == [Poly.one(F5)]


def test_enumerate_residues_follows_monic_order():
    for field, k in ((F3, 0), (F3, 2), (F5, 1), (F9, 2)):
        t_k = Poly(field, (0,) * k + (1,))
        tails = [f - t_k for f in enumerate_monic(field, k)]
        assert list(enumerate_residues(field, k)) == tails


def test_power_character_against_squares():
    # the quadratic character mod t over F_{5^4} vs enumerated squares
    field = field_make(5, 4)
    t = Poly.t(field)
    squares = {field.mul(x, x) for x in range(field.q)}
    for c in range(field.q):
        expected = 0 if c == 0 else field.one_code if c in squares else field.neg_one_code
        assert power_character(Poly(field, [c]), t) == expected
        assert power_character(Poly(field, [c, 1]) * t, t) == 0
    # quartic character over F_9 mod an irreducible quadratic
    prime = parse_poly(F9, "t^2+[0,1]*t+[1,1]")
    assert power_character(parse_poly(F9, "t+[1,1]"), prime, 4) == F9.elem([0, 2]).code


def _euler(r, prime, n):
    # Euler's criterion, the oracle: r^((q^d - 1)/n) mod P as a code
    s = powmod(r, (r.field.q ** prime.degree - 1) // n, prime)
    return s.coeffs[0] if s.coeffs else 0


@pytest.mark.parametrize("p, e, max_deg", [(3, 1, 3), (5, 1, 3), (7, 1, 3), (3, 2, 3), (2, 2, 3),
                                           (2, 3, 3), (13, 1, 2), (5, 2, 2), (3, 3, 2)],
                         ids=["F3", "F5", "F7", "F9", "F4", "F8", "F13", "F25", "F27"])
def test_power_character_matches_euler(p, e, max_deg):
    # the norm Res(P, r)^((q-1)/n) against Euler's criterion: every residue
    # and a seeded sample of unreduced r (degree deg P to 2 deg P + 1), for
    # every n >= 2 dividing q - 1; every prime while q^d <= 125, and above
    # that the first, the last and two seeded primes of each degree
    field = field_make(p, e)
    rng = Random(f"euler:{field.spec}")
    orders = [n for n in range(2, field.q) if (field.q - 1) % n == 0]
    for d in range(1, max_deg + 1):
        primes = monic_irreducibles(field, d)
        if field.q ** d > 125:
            primes = (primes[0], primes[-1]) + tuple(rng.sample(primes[1:-1], 2))
        residues = list(enumerate_residues(field, d))
        for prime in primes:
            unreduced = [r + prime * random_poly(field, rng, d + 1, nonzero=True)
                         for r in rng.sample(residues, min(len(residues), 12))]
            for r in residues + unreduced + [prime * Poly.t(field)]:
                for n in orders:
                    assert power_character(r, prime, n) == _euler(r, prime, n), (r, prime, n)


@pytest.mark.parametrize("p, e, orders", [(257, 1, (2, 4, 16, 256)), (65521, 1, (2, 3, 5, 7, 13, 65520)),
                                          (3, 5, (2, 11, 22, 121, 242)), (5, 4, (2, 3, 8, 13, 624)),
                                          (2, 8, (3, 5, 15, 17, 51, 85))],
                         ids=["F257", "F65521", "F3^5", "F5^4", "F2^8"])
def test_power_character_matches_euler_random(p, e, orders):
    # seeded primes of degree 1 to 5 over fields with q > 200, each with a
    # residue, an unreduced r and a multiple of P
    field = field_make(p, e)
    rng = Random(f"euler-random:{field.spec}")
    for _ in range(12):
        d = rng.randint(1, 5)
        prime = random_irreducible(field, rng, d)
        for r in (random_poly(field, rng, d - 1), random_poly(field, rng, 2 * d + 1),
                  prime * random_poly(field, rng, 2, nonzero=True)):
            for n in orders:
                assert power_character(r, prime, n) == _euler(r, prime, n), (r, prime, n)


def test_power_character_rejects_bad_order_and_modulus():
    # n >= 2 must divide q - 1 (a floored (q - 1)/n would be silently
    # wrong), and Res(P, r) is the norm only for monic P of positive degree
    field = field_make(7)
    prime = parse_poly(field, "t^2+1")
    r = parse_poly(field, "t+3")
    for n in (0, 1, 4, 5):
        with pytest.raises(ValueError, match="n must be >= 2|does not divide"):
            power_character(r, prime, n)
    with pytest.raises(ValueError, match="does not divide"):
        power_character(Poly.one(field_make(2, 3)), Poly.t(field_make(2, 3)), 2)
    for modulus in (prime.scale(3), Poly.one(field), Poly.constant(field, 2), Poly.zero(field)):
        with pytest.raises(ValueError, match="monic of positive degree"):
            power_character(r, modulus, 2)


def test_irreducible_counts_match_mobius():
    for field in (F3, F5):
        for k in range(1, 7):
            assert len(monic_irreducibles(field, k)) == pi_q(field.q, k)


@pytest.mark.parametrize("q, e, max_deg", [(2, 1, 8), (3, 1, 6), (2, 2, 4), (5, 1, 4), (3, 2, 4),
                                           (2, 3, 4), (5, 2, 3)])
def test_is_irreducible_matches_sieve(q, e, max_deg):
    # Ben-Or's test reads the first step of the Frobenius walk that factor
    # also takes; the sieve (Eratosthenes, no Frobenius) is its oracle
    field = field_make(q, e)
    walk = polyring._walk_is_irreducible
    for k in range(1, max_deg + 1):
        primes = monic_irreducibles(field, k)
        assert tuple(f for f in enumerate_monic(field, k) if walk(f)) == primes
        if 2 * k <= max_deg:
            # every prime factor at d = m/2, the last degree the walk tests:
            # P^2 is not squarefree, P Q is
            for prime, other in zip(primes, primes[1:] + primes[:1]):
                assert not walk(prime * prime)
                assert not walk(prime * other)


def _count_calls(monkeypatch, *names):
    # wrap each named polyring function to count its calls in the returned dict
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, name=name, real=getattr(polyring, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(polyring, name, wrapper)
    return calls


def test_frobenius_walk_cost(monkeypatch):
    # x^(q^d) mod f is raised once for each degree d the walk tests and
    # never beyond: floor(m/2) steps for an irreducible of degree m, one for
    # an input with a linear factor, none for a linear input, and none for a
    # quadratic over odd q, which its discriminant decides.  A step is e
    # p-power maps for small p and one powmod over F_257, where
    # square-and-multiply is cheaper; and a squarefree input takes one gcd
    # in _squarefree_parts
    calls = _count_calls(monkeypatch, "powmod", "_pth_power", "gcd")

    def count(fn, *args):
        for name in calls:
            calls[name] = 0
        fn(*args)
        return calls["_pth_power"], calls["powmod"]

    walk_factor, walk_is_irreducible = polyring._walk_factor, polyring._walk_is_irreducible
    for field in (field_make(2), F3, F9, field_make(2, 3), field_make(257)):
        rng = Random(f"walk:{field.spec}")

        def cost(steps):
            return (0, steps) if field.p == 257 else (field.e * steps, 0)

        linear = random_irreducible(field, rng, 1)
        assert count(walk_factor, linear) == (0, 0)
        squarefree = linear
        for m in range(1, 7):
            closed_form = field.q % 2 == 1 and m == 2
            prime = random_irreducible(field, rng, m)
            walk = cost(0 if closed_form else m // 2)
            assert count(walk_is_irreducible, prime) == walk
            assert count(walk_is_irreducible, prime.scale(field.q - 1)) == walk
            assert count(walk_factor, prime) == walk
            if m > 1:
                cofactor = random_poly(field, rng, m - 1, monic=True, exact_deg=True)
                assert count(walk_is_irreducible, linear * cofactor) == cost(1 - closed_form)
                squarefree = squarefree * prime
        count(polyring._squarefree_parts, squarefree)
        assert calls["gcd"] == 1


PTH_POWER_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 5), (5, 4), (13, 1), (17, 2),
                    (257, 1), (65521, 1)]


@pytest.mark.parametrize("p, e", PTH_POWER_FIELDS, ids=[f"F{p ** e}" for p, e in PTH_POWER_FIELDS])
def test_pth_power_matches_powmod(p, e):
    # the p-power map against square-and-multiply, once and e times, on
    # random residues; the moduli (t + a)^p fold t^p to the constant -a^p,
    # which the remaining e - 1 maps must still raise to the p-th power
    field = field_make(p, e)
    rng = Random(f"pth-power:{field.spec}")
    t = Poly.t(field)
    degrees = (1, 2, 3) if p > 256 else (1, 2, 3, 5, 8)
    moduli = [random_poly(field, rng, n, monic=True, exact_deg=True) for n in degrees]
    if p ** 2 <= 256:
        moduli += [power(t + Poly(field, (a,)), p) for a in rng.sample(range(field.q), min(field.q, 8))]
    for mod in moduli:
        n = mod.degree
        for h in [t % mod] + [random_poly(field, rng, n - 1) for _ in range(4 if p > 256 else 8)]:
            once = polyring._pth_power(h, mod)
            assert once == powmod(h, p, mod)
            x = h
            for _ in range(e):
                x = polyring._pth_power(x, mod)
            assert x == polyring._qth_power(h, mod) == powmod(h, field.q, mod)


def test_qth_power_picks_the_cheaper_side(monkeypatch):
    # small p spreads at every degree the parser accepts; p = 257 at degree
    # 5 and p = 17 at degree 12 keep square-and-multiply
    for p in (2, 3, 5, 7):
        assert all(polyring._spreads(p, n) for n in range(1, MAX_PARSED_DEGREE + 1))
    assert not polyring._spreads(257, 5) and not polyring._spreads(17, 12)
    calls = _count_calls(monkeypatch, "powmod", "_pth_power")
    for (p, e), n, spread in (((3, 5), 5, True), ((7, 1), 5, True), ((257, 1), 5, False),
                              ((17, 2), 12, False)):
        field = field_make(p, e)
        mod = random_poly(field, Random(f"pick:{field.spec}"), n, monic=True, exact_deg=True)
        for name in calls:
            calls[name] = 0
        polyring._qth_power(Poly.t(field), mod)
        assert calls == ({"powmod": 0, "_pth_power": e} if spread else {"powmod": 1, "_pth_power": 0})


@pytest.mark.parametrize("q, e, max_deg", [(3, 1, 4), (5, 1, 3), (3, 2, 3), (2, 3, 3)])
def test_sieve_factorizations_match_factor(q, e, max_deg):
    # one block per degree in enumerate_monic order, indexed by base-q code
    field = field_make(q, e)
    sieve = MonicSieve(field)
    sieve.grow(max_deg)
    monics = [f for k in range(max_deg + 1) for f in enumerate_monic(field, k)]
    assert [sieve.monic(h) for h in range(len(sieve.least))] == monics
    for h, f in enumerate(monics):
        k = len(f.coeffs) - 1
        assert h == (field.q ** k - 1) // (field.q - 1) + poly_index(f.coeffs, field.q, k)
        got = sieve.factor_indices(h)
        expected = polyring._walk_factor(f)
        assert sorted(((monics[i], m) for i, m in got), key=lambda fm: fm[0].sort_key()) == list(expected)
        if h:
            least = monics[sieve.least[h]]
            assert least.degree == min(prime.degree for prime, _ in expected)
            assert least * monics[sieve.cofactor[h]] == f


# F_4 and F_8 reach the cap exactly, at degrees 6 and 4, as F_2 does at 12
SIEVE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1)]


def _cap_degree(field):
    # the top degree of the field's sieve table
    k = 0
    while field.q ** (k + 1) <= SIEVE_CAP:
        k += 1
    return k


@pytest.mark.parametrize("p, e", SIEVE_FIELDS, ids=[f"F{p ** e}" for p, e in SIEVE_FIELDS])
def test_sieve_table_matches_walk(p, e):
    # factor and is_irreducible read the table on every monic it holds.  The
    # walk's verdict is checked on each, so a table factorization into
    # primes that multiply back to f is the walk's by unique factorization;
    # a seeded sample is also compared with the walk's output outright
    field = field_make(p, e)
    top = _cap_degree(field)
    walk_factor, walk_is_irreducible = polyring._walk_factor, polyring._walk_is_irreducible
    for k in range(top + 1):
        for f in enumerate_monic(field, k):
            fac = factor(f)
            assert _rebuild(f, fac) == f
            assert [prime.sort_key() for prime, _ in fac] == sorted({prime.sort_key() for prime, _ in fac})
            assert all(is_irreducible(prime) for prime, _ in fac)
            if k:
                assert is_irreducible(f) == walk_is_irreducible(f)
    assert monic_sieve(field).max_deg == top
    rng = Random(f"table:{field.spec}")
    for _ in range(100):
        f = random_poly(field, rng, top, nonzero=True)
        assert factor(f) == walk_factor(f)
    # just above the cap the walk answers, and the table does not grow
    for _ in range(5):
        f = random_poly(field, rng, top + 1, nonzero=True, exact_deg=True)
        fac = factor(f)
        assert _rebuild(f, fac) == f and all(walk_is_irreducible(prime) for prime, _ in fac)
        assert is_irreducible(f) == (fac == ((f.monic(), 1),))
    assert monic_sieve(field).max_deg == top


def test_sieve_grows_only_to_the_degree_asked():
    # degrees 2, then 5, then 3: the answers of the walk, never a table past
    # the degree asked, and after each step the arrays of one build to the
    # top degree
    for field, degrees in ((F5, (2, 5, 3)), (field_make(2), (4, 12, 7)), (F9, (1, 3, 2))):
        sieve = monic_sieve(field)
        assert sieve.max_deg == 0
        rng = Random(f"grow:{field.spec}")
        top = 0
        for k in degrees:
            top = max(top, k)
            f = random_poly(field, rng, k, nonzero=True, exact_deg=True)
            assert factor(f) == polyring._walk_factor(f)
            assert is_irreducible(f) == polyring._walk_is_irreducible(f)
            assert sieve.max_deg == top and len(sieve.least) == sieve.start(top + 1)
            one_build = MonicSieve(field)
            one_build.grow(top)
            assert (sieve.least, sieve.cofactor) == (one_build.least, one_build.cofactor)


def test_tabled_factor_calls_no_powmod_or_gcd(monkeypatch):
    # the table is built and read with no Frobenius step and no gcd
    fields = (field_make(2), F3, F9, field_make(2, 3), field_make(13))  # made by the walk
    calls = []
    for name in ("powmod", "gcd"):
        monkeypatch.setattr(polyring, name, lambda *args, name=name: calls.append(name))
    for field in fields:
        rng = Random(f"no-walk:{field.spec}")
        for k in range(1, _cap_degree(field) + 1):
            for _ in range(5):
                f = random_poly(field, rng, k, nonzero=True, exact_deg=True)
                factor(f)
                is_irreducible(f)
    assert calls == []


def test_walk_seeds_only_to_split(monkeypatch):
    # the walk's fixed-seed Random is built only when a product of several
    # primes of one degree must be split by Cantor-Zassenhaus: over odd q
    # two linears split in closed form
    seeds = []
    monkeypatch.setattr(polyring, "Random", lambda seed: seeds.append(seed) or Random(seed))
    field = field_make(257)
    linear, other, third = (parse_poly(field, f"t+{c}") for c in (1, 2, 3))
    quadratic = random_irreducible(field, Random("seeds"), 2)
    assert polyring._walk_factor(linear * power(quadratic, 2)) == ((linear, 1), (quadratic, 2))
    assert polyring._walk_factor(linear * other) == ((linear, 1), (other, 1))
    assert seeds == []
    assert polyring._walk_factor(linear * other * third) == ((linear, 1), (other, 1), (third, 1))
    assert seeds == [polyring._FACTOR_SEED]


def test_cache_clearing_resets_the_sieve():
    # the sieve factory is an lru_cache, so the layer-cache clearing between
    # tests (and between benchmark jobs) empties the table like any cache
    from conftest import clear_caches

    factor(parse_poly(F3, "t^4+t+2"))
    assert monic_sieve(F3).max_deg == 4
    clear_caches()
    assert monic_sieve(F3).max_deg == 0


@pytest.mark.parametrize("q, e, orders", [(3, 1, (2,)), (5, 1, (2, 4)), (7, 1, (3, 6)),
                                           (13, 1, (4,)), (3, 2, (2, 4, 8)), (2, 3, (7,)),
                                           (257, 1, (2,)), (2, 2, (3,)), (2, 4, (3, 5, 15)),
                                           (31, 1, (2, 3, 5, 6, 10, 15, 30))],
                         ids=["F3", "F5", "F7", "F13", "F9", "F8", "F257", "F4", "F16", "F31"])
def test_character_table_matches_power_character(q, e, orders):
    # every prime of degree <= 3 with q^d <= 200; above that (up to 2,500
    # residues) the first, the last and two seeded primes of each degree,
    # since all 728 cubics over F_13 would take minutes per residue.  F_16
    # and F_31 have two and three primes l | q - 1
    field = field_make(q, e)
    rng = Random(5)
    for d in range(1, 4):
        if field.q ** d > 2500:
            continue
        primes = monic_irreducibles(field, d)
        if field.q ** d > 200:
            primes = (primes[0], primes[-1]) + tuple(rng.sample(primes[1:-1], 2))
        for prime in primes:
            for n in orders:
                expected = [power_character(r, prime, n) for r in enumerate_residues(field, d)]
                assert character_table(prime, n) == expected


@pytest.mark.parametrize("q, e", [(3, 1), (7, 1), (31, 1), (2, 2), (3, 2)],
                         ids=["F3", "F7", "F31", "F4", "F9"])
def test_character_table_passes_over_residues_that_do_not_generate(q, e):
    # Primes on which a table walked from the powers of a first guess g, the
    # first nonzero residue, would go wrong: g^i turns constant before
    # i = M = (q^d - 1)/(q - 1) ("early"), or at M with a constant that does
    # not generate F_q^* ("late").  A powmod order oracle finds a prime of
    # each kind among those of degree 2 and 3 with q^d <= 2,500; on each the
    # table must equal the norms of power_character for every order n.
    field = field_make(q, e)
    one = Poly.one(field)
    found = {}
    for d in (2, 3):
        if field.q ** d > 2500:
            continue
        order = field.q ** d - 1
        m = order // (field.q - 1)
        first = next(r for r in enumerate_residues(field, d) if r.coeffs)
        for prime in monic_irreducibles(field, d):
            if any(powmod(first, m // ell, prime).is_constant for ell in prime_divisors(m)):
                found.setdefault("early", prime)
            elif any(powmod(first, order // ell, prime) == one for ell in prime_divisors(order)):
                found.setdefault("late", prime)
    assert set(found) == {"early", "late"}
    for prime in found.values():
        d = prime.degree
        for n in (n for n in range(2, field.q) if (field.q - 1) % n == 0):
            expected = [power_character(r, prime, n) for r in enumerate_residues(field, d)]
            assert character_table(prime, n) == expected


def test_character_table_rejects_a_reducible_modulus():
    # a reducible P has no root of degree deg P: no Frobenius orbit of
    # F_{q^d} expands to it
    for mod in ("t^2+t", "t^2"):
        with pytest.raises(ValueError, match="not irreducible"):
            character_table(parse_poly(F3, mod), 2)


@pytest.mark.parametrize("mod, n, match", [("t^2+2", 1, "must be >= 2"),
                                            ("t^2+2", 3, "does not divide"),
                                            ("2*t^2+1", 2, "monic of positive degree"),
                                            ("1", 2, "monic of positive degree")],
                         ids=["order1", "order3", "not_monic", "constant"])
def test_character_table_checks_arguments_as_power_character(mod, n, match, monkeypatch):
    # the same ValueError as power_character, before any root is looked up
    def no_root_map(field, d):
        raise AssertionError("root map reached")

    monkeypatch.setattr(polyring, "_root_map", no_root_map)
    prime = parse_poly(F5, mod)
    with pytest.raises(ValueError, match=match) as table_error:
        character_table(prime, n)
    with pytest.raises(ValueError) as norm_error:
        power_character(Poly.t(F5), prime, n)
    assert str(table_error.value) == str(norm_error.value)


def _add_slow(field, a, b):
    # digit-wise sum of two codes, without the log and Zech tables
    return field._encode([(x + y) % field.p for x, y in zip(field._decode(a), field._decode(b))])


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2),
                                  (2, 4), (5, 2)],
                         ids=["F3", "F5", "F7", "F13", "F4", "F8", "F9", "F16", "F25"])
def test_root_map_finds_a_root_of_every_prime(p, e):
    # at every d with q^d <= 2,500: one root per monic prime of degree d,
    # pi_q(q, d) of them, each a zero of its prime by the reference
    # multiplication, and an embedding of F_q that keeps sums and products
    field = field_make(p, e)
    q = field.q
    d = 1
    while q ** d <= 2500:
        big, embed, roots = polyring._root_map(field, d)
        assert big.q == q ** d
        assert len(set(embed)) == q
        for a in range(q):
            for b in range(q):
                assert embed[field.add(a, b)] == _add_slow(big, embed[a], embed[b])
                assert embed[field.mul(a, b)] == big._mul_slow(embed[a], embed[b])
        assert len(roots) == pi_q(q, d)
        assert set(roots) == {f.coeffs for f in monic_irreducibles(field, d)}
        for coeffs, alpha in roots.items():
            value = 0
            for c in reversed(coeffs):
                value = _add_slow(big, big._mul_slow(value, alpha), embed[c])
            assert value == 0
        d += 1


def test_powmod_matches_naive():
    # prime, extension, characteristic-2 and q > 256 fields; moduli of degree
    # 0 to 4, each monic and scaled by the code 2, against f^n mod mod;
    # negative n against powers of invmod(f, mod)
    for p, e in [(5, 1), (3, 1), (257, 1), (3, 2), (2, 3), (5, 4)]:
        field = field_make(p, e)
        rng = Random(f"powmod:{p}^{e}")
        for deg in range(5):
            monic = random_poly(field, rng, deg, monic=True, exact_deg=True)
            for mod in (monic, monic.scale(2)):
                for _ in range(6):
                    f = random_poly(field, rng, 4)
                    n = rng.randint(1, 40)
                    assert powmod(f, 0, mod) == Poly.one(field)
                    assert powmod(f, n, mod) == power(f, n) % mod
                    try:
                        inverse = invmod(f, mod)
                    except ZeroDivisionError:
                        with pytest.raises(ZeroDivisionError):
                            powmod(f, -n, mod)
                    else:
                        assert powmod(f, -n, mod) == power(inverse, n) % mod
        with pytest.raises(ZeroDivisionError):
            powmod(Poly.t(field), 3, Poly.zero(field))


def test_powmod_of_a_residue_divides_nothing(monkeypatch):
    # the Frobenius walk and equal-degree splitting hand powmod residues
    # already reduced mod P
    field = field_make(3, 2)
    rng = Random("powmod-reduced")
    cases = []
    for deg in (2, 3):
        mod = random_poly(field, rng, deg, monic=True, exact_deg=True)
        for _ in range(10):
            f = random_poly(field, rng, deg - 1)
            cases.append((f, rng.randint(0, 40), mod))
    expected = [powmod(f, n, mod) for f, n, mod in cases]

    def refuse(self, other):
        raise AssertionError("division of a reduced residue")

    monkeypatch.setattr(Poly, "__divmod__", refuse)
    assert [powmod(f, n, mod) for f, n, mod in cases] == expected


def test_text_grammar_roundtrip():
    assert format_poly(parse_poly(F3, "t^3+2*t+1")) == "t^3+2*t+1"
    assert parse_poly(F3, "2+t") == parse_poly(F3, "t+2")
    assert format_poly(Poly.zero(F3)) == "0"
    assert parse_poly(F3, "0") == Poly.zero(F3)
    rng = Random(13)
    for field in (F3, F5, F9):
        for _ in range(50):
            f = random_poly(field, rng, 5)
            assert parse_poly(field, format_poly(f)) == f
    # extension-field coefficients in the modulus basis
    g = parse_poly(F9, "[1,2]*t^2+[0,1]")
    assert g.coeffs == (F9.elem([0, 1]).code, 0, F9.elem([1, 2]).code)
    with pytest.raises(ValueError):
        parse_poly(F3, "t&")
    with pytest.raises(ValueError):
        parse_poly(F3, "")
