import time
from random import Random

import pytest

from ffsym import gf
from ffsym.gf import MAX_Q, Field, field_make, parse_field_spec, smallest_nonsquare

ODD_Q = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3),
         (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2)]
ALL_Q = ODD_Q + [(2, 1), (2, 2), (2, 4), (17, 1), (19, 1), (23, 1)]


def test_field_make_examples():
    f3 = field_make(3)
    assert f3.q == 3 and f3.modulus is None
    f9 = field_make(3, 2)
    assert f9.modulus == (1, 0, 1)  # y^2 + 1
    f2 = field_make(2)
    assert f2.q == 2


def test_prime_divisors_matches_brute_force():
    def brute(n):
        return [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]

    for n in range(1, 2001):
        assert gf.prime_divisors(n) == brute(n)
    for p, d in [(7, 3), (257, 2), (2, 16)]:
        assert gf.prime_divisors(p ** d - 1) == brute(p ** d - 1)
    assert [n for n in range(2001) if gf.is_prime(n)] == [n for n in range(2001) if brute(n) == [n]]


def test_field_make_errors():
    with pytest.raises(ValueError):
        field_make(4)
    with pytest.raises(ValueError):
        field_make(3, 0)


def test_field_make_deterministic():
    a = Field(3, 2).modulus
    b = Field(3, 2).modulus
    assert a == b
    assert field_make(3, 2) is field_make(3, 2)


def test_parse_field_spec():
    assert parse_field_spec("3").q == 3
    assert parse_field_spec("3^2").q == 9
    assert parse_field_spec(" 5^2 ").q == 25


def test_elem_arith_examples():
    f3 = field_make(3)
    assert f3.add(2, 2) == 1
    f5 = field_make(5)
    assert f5.inv(2) == 3
    f13 = field_make(13)
    assert f13.pow_(2, 6) == 12


def test_elem_arith_errors():
    f3 = field_make(3)
    with pytest.raises(ZeroDivisionError):
        f3.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        f3.inv(0)
    with pytest.raises(ValueError):
        f3.pow_(2, -1)


def test_extension_field_basic():
    f9 = field_make(3, 2)
    y = f9.elem([0, 1])
    assert f9.mul(y.code, y.code) == f9.elem(-1).code  # modulus y^2 + 1
    assert f9._decode(y.code) == [0, 1]
    for code in range(1, 9):
        c = f9.elem(f9._decode(code)).code
        assert f9.mul(c, f9.inv(c)) == f9.one_code


# Moduli picked by the smallest-irreducible rule; every extension-field
# element code depends on them, so a change to the search must not move them.
PINNED_MODULI = {
    (3, 5): (1, 0, 0, 0, 2, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
}


@pytest.mark.parametrize("p,e", sorted(PINNED_MODULI))
def test_extension_modulus_pinned(p, e):
    # (3, 12) is above MAX_Q, so only the modulus search is checked there
    assert gf._smallest_irreducible(p, e) == PINNED_MODULI[(p, e)]
    assert p ** e > MAX_Q or field_make(p, e).modulus == PINNED_MODULI[(p, e)]


@pytest.mark.parametrize("p,e", [(2, 1), (257, 1), (65521, 1), (3, 2), (2, 3), (3, 5), (5, 4),
                                 (3, 6), (2, 8), (2, 9), (17, 2)])
def test_field_arithmetic_matches_reference(p, e):
    field = field_make(p, e)
    q = field.q
    # the doubled exp table starts with every nonzero code exactly once
    assert sorted(field._exp[:q - 1]) == list(range(1, q))
    rng = Random(f"axioms:{p}^{e}")
    mul, add, dec = field.mul, field.add, field._decode
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert mul(a, b) == field._mul_slow(a, b)
        assert add(a, b) == field._encode([(x + y) % p for x, y in zip(dec(a), dec(b))])
        assert field.neg(a) == field._encode([-x % p for x in dec(a)])
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        if a:
            assert mul(a, field.inv(a)) == field.one_code


def test_tables_match_reference_build():
    # _powers steps g^k by half-code tables; rebuild _exp, _log and _zech
    # with one _mul_slow per power, and 1 + g^k by adding vectors, for every
    # extension field with q <= 4096
    fields = [(p, e) for p in range(2, 65) if gf.is_prime(p)
              for e in range(2, 13) if p ** e <= 4096]
    assert len(fields) == 40
    for p, e in fields:
        field = field_make(p, e)
        n = field.q - 1
        primes = gf.prime_divisors(n)
        g = next(c for c in range(1, field.q)
                 if all(field._pow_slow(c, n // r) != 1 for r in primes))
        exp = [1]
        for _ in range(n - 1):
            exp.append(field._mul_slow(exp[-1], g))
        log = [-1] * field.q
        for k, code in enumerate(exp):
            log[code] = k
        one = field._decode(1)
        zech = [log[field._encode([(x + y) % p for x, y in zip(one, field._decode(c))])]
                for c in exp]
        assert (field._exp, field._log, field._zech) == (exp + exp, log, zech), (p, e)


@pytest.mark.parametrize("make", [
    lambda: field_make(3, 12),
    lambda: field_make(65537),
    lambda: parse_field_spec("3^1000000000"),
], ids=["3^12", "65537", "3^1000000000"])
def test_field_above_max_q_rejected_fast(make):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_Q"):
        make()
    assert time.perf_counter() - start < 1.0


def test_is_square_examples():
    f5 = field_make(5)
    assert f5.is_square_code(f5.elem(4).code)
    f3 = field_make(3)
    assert not f3.is_square_code(f3.elem(2).code)
    assert f3.is_square_code(f3.zero.code)
    f2 = field_make(2)
    assert f2.is_square_code(f2.zero.code)
    with pytest.raises(ValueError):
        f2.is_square_code(f2.one.code)


@pytest.mark.parametrize("p,e", ALL_Q)
def test_multiplicative_order(p, e):
    field = field_make(p, e)
    for code in range(1, field.q):
        assert field.pow_(code, field.q - 1) == field.one_code


@pytest.mark.parametrize("p,e", ODD_Q)
def test_square_structure(p, e):
    field = field_make(p, e)
    q = field.q
    squares = [c for c in range(1, q) if field.is_square_code(c)]
    assert len(squares) == (q - 1) // 2
    # square status is multiplicative (XNOR) on nonzero elements
    for x in range(1, q):
        for y in range(1, q):
            xy = field.mul(x, y)
            assert field.is_square_code(xy) == (
                field.is_square_code(x) == field.is_square_code(y)
            )


@pytest.mark.parametrize("p,e", ODD_Q + [(257, 1), (3, 5), (5, 4)])
def test_sqrt_code_matches_brute_force_squares(p, e):
    # every square has a root that squares back to it, and every nonsquare
    # (an element that is no x^2) is refused
    field = field_make(p, e)
    squares = {field.mul(x, x) for x in range(field.q)}
    for a in range(field.q):
        if a in squares:
            assert field.mul(field.sqrt_code(a), field.sqrt_code(a)) == a
        else:
            with pytest.raises(ValueError):
                field.sqrt_code(a)
    assert field.sqrt_code(0) == 0


def test_sqrt_code_requires_odd_q():
    with pytest.raises(ValueError):
        field_make(2, 3).sqrt_code(1)


def test_smallest_nonsquare():
    assert smallest_nonsquare(field_make(3)).code == 2
    assert smallest_nonsquare(field_make(5)).code == 2
    assert smallest_nonsquare(field_make(13)).code == 2
    with pytest.raises(ValueError):
        smallest_nonsquare(field_make(2))
