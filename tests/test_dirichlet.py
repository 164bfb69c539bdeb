import time
from collections import Counter
from itertools import chain, product
from random import Random

import pytest

from ffsym import dirichlet
from ffsym.dirichlet import (
    APQuery,
    _mobius,
    find_prime_in_ap,
    pi_ap,
    pi_q,
    uniformity_report,
    unit_residues,
)
from ffsym.gf import field_make, parse_field_spec
from ffsym.polyring import (
    Poly,
    enumerate_monic,
    enumerate_residues,
    factor,
    gcd,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    random_irreducible,
    random_poly,
)

F3 = field_make(3)
F5 = field_make(5)
F13 = field_make(13)


def euler_phi(f):
    # Phi_q(f) by the product formula over the prime factorization of f
    q = f.field.q
    total = 1
    for prime, mult in factor(f):
        d = len(prime.coeffs) - 1
        total *= q ** (d * (mult - 1)) * (q ** d - 1)
    return total


def test_euler_phi_examples():
    for text, phi in (("t^2", 6), ("t^2+1", 8), ("t^2+t", 4), ("2", 1)):  # t^2+1: q^deg - 1
        f = parse_poly(F3, text)
        assert euler_phi(f) == phi
        assert len(unit_residues(f)) == phi


def test_euler_phi_matches_unit_enumeration():
    rng = Random(3)
    for field in (F3, F5, field_make(3, 2)):
        for _ in range(15):
            f = random_poly(field, rng, 4, nonzero=True)
            if f.is_constant or field.q ** (len(f.coeffs) - 1) > 10_000:
                continue
            units = unit_residues(f)
            residues = enumerate_residues(field, len(f.coeffs) - 1)
            assert units == [r for r in residues if gcd(r, f) == Poly.one(field)]
            assert euler_phi(f) == len(units)


def test_mobius_matches_divisor_sum_definition():
    # mu is the unique function with sum_{d | n} mu(d) = [n = 1]
    top = 2000
    mu = [0, 1] + [0] * (top - 1)
    for n in range(2, top + 1):
        mu[n] = -sum(mu[d] for d in range(1, n // 2 + 1) if n % d == 0)
    assert [_mobius(n) for n in range(1, top + 1)] == mu[1:]


def test_pi_q_examples():
    for q in (3, 5, 7, 9, 13):
        assert pi_q(q, 1) == q
    assert pi_q(3, 2) == 3
    assert pi_q(3, 4) == 18
    with pytest.raises(ValueError):
        pi_q(3, 0)


def test_pi_q_matches_enumeration_and_tail():
    for field in (F3, F5):
        for k in range(1, 7):
            count = sum(1 for f in enumerate_monic(field, k) if is_irreducible(f))
            assert pi_q(field.q, k) == count
    for q in (3, 5, 7, 9, 13):
        for k in range(1, 7):
            assert abs(pi_q(q, k) - q ** k / k) <= 2 * q ** (k / 2) / k


def test_pi_ap_examples():
    t = Poly.t(F3)
    assert pi_ap(APQuery(t, Poly.one(F3), 2)) == 1
    assert pi_ap(APQuery(t, Poly.constant(F3, 2), 2)) == 2
    with pytest.raises(ValueError):
        APQuery(t, Poly.zero(F3), 2)
    with pytest.raises(ValueError):
        APQuery(t, Poly.one(F3), k=-1)
    for c in (Poly.one(F3), t):  # gcd(1, 0) = 1 passes the coprimality check
        with pytest.raises(ValueError, match="modulus must be nonzero"):
            APQuery(Poly.zero(F3), c, 2)


def test_ap_class_sum_identity():
    # summing over unit classes misses exactly the degree-k primes dividing f
    cases = [(field, f_text, k) for field in (F3, F5) for f_text in ("t", "t+1", "t^2")
             for k in range(1, 5)]
    cases += [(F13, "t", 8), (F13, "t^2+2", 6), (F13, "t^2+t", 6)]
    for field, f_text, k in cases:
        f = parse_poly(field, f_text)
        total = sum(row.count for row in uniformity_report(f, k).rows)
        missing = sum(1 for p, _ in factor(f) if p.degree == k)
        assert total == pi_q(field.q, k) - missing


def brute_ap_counts(f, k):
    """Monic irreducibles of degree k binned by their residue mod f, by
    enumeration and Ben-Or's test (the class mod f is the class mod monic(f))."""
    counts = Counter()
    if k >= 1:
        for g in enumerate_monic(f.field, k):
            if is_irreducible(g):
                counts[g % f] += 1
    return counts


@pytest.mark.parametrize("q, f_text, k_max", [
    ("3", "t^2", 6),  # G = (F_3[t]/t^2)^x is cyclic of order 6
    ("3", "t^3", 6),  # non-cyclic unit groups from here on
    ("3", "t^2+t", 6),
    ("5", "2*t^2+4", 5),  # not monic
    ("3^2", "t^2+[0,1]", 3),
    ("2^2", "t^2+t", 5),
    ("2", "t^3+t", 9),
])
def test_ap_counts_match_enumeration(q, f_text, k_max):
    field = parse_field_spec(q)
    f = parse_poly(field, f_text)
    m = f.degree
    units = [r for r in enumerate_residues(field, m) if gcd(r, f).degree == 0]
    shift = Poly.t(field) * f  # a representative of each class outside its reduced form
    for k in range(0, k_max + 1):  # k = 0 and k < deg f included
        brute = brute_ap_counts(f, k)
        if k >= 1:
            rows = uniformity_report(f, k).rows
            assert [row.residue for row in rows] == units
            assert [row.count for row in rows] == [brute[c] for c in units]
        for c in units:
            assert pi_ap(APQuery(f, c + shift, k)) == brute[c]


def test_pi_ap_constant_modulus_and_degree_zero():
    for field in (F3, field_make(2, 2)):
        for f in (Poly.one(field), Poly.constant(field, field.q - 1)):
            for k in range(0, 5):
                for c in (Poly.one(field), Poly.t(field)):
                    expected = pi_q(field.q, k) if k else 0
                    assert pi_ap(APQuery(f, c, k)) == expected
    assert pi_ap(APQuery(parse_poly(F5, "t^2+2"), Poly.one(F5), 0)) == 0


def test_find_prime_examples():
    assert find_prime_in_ap(Poly.t(F3), Poly.one(F3), 2) == parse_poly(F3, "t^2+1")
    assert find_prime_in_ap(parse_poly(F3, "t+1"), Poly.one(F3), 1) == parse_poly(F3, "t+2")
    assert find_prime_in_ap(parse_poly(F3, "t^2"), Poly.one(F3), 1) is None
    with pytest.raises(ValueError):
        find_prime_in_ap(Poly.t(F3), Poly.zero(F3), 2)
    for c in (Poly.one(F3), Poly.t(F3)):
        with pytest.raises(ValueError, match="modulus must be nonzero"):
            find_prime_in_ap(Poly.zero(F3), c, 2, Random(1))
    with pytest.raises(ValueError, match="target degree"):
        find_prime_in_ap(Poly.t(F3), Poly.one(F3), -1)


@pytest.mark.parametrize("q", ["3", "3^2", "257"])
def test_find_prime_constant_modulus(q):
    # a constant modulus gets the seeded probes like any other: with an rng
    # they draw what random_irreducible draws, without one the scan's first
    # prime is the result; degree 0 holds no prime either way
    field = parse_field_spec(q)
    f, c = Poly.constant(field, 2), Poly.t(field)
    for k in range(1, 5):
        assert find_prime_in_ap(f, c, k, Random(k)) == random_irreducible(field, Random(k), k)
    for rng in (None, Random(0)):
        assert find_prime_in_ap(f, c, 0, rng) is None
    first = next(g for g in enumerate_monic(field, 2) if is_irreducible(g))
    assert find_prime_in_ap(f, c, 2) == first


def _first_prime_prime_to_t(field, k):
    # brute force: the first irreducible in enumerate_monic order (constant
    # term most significant) whose constant term is nonzero
    for c0 in range(1, field.q):
        for rest in product(range(field.q), repeat=k - 1):
            g = Poly(field, (c0, *rest, 1))
            if is_irreducible(g):
                return g


def test_find_prime_constant_modulus_skips_multiples_of_t():
    # without an rng a constant modulus scans the g of degree k themselves,
    # and for k >= 2 the q^(k-1) multiples of t that lead enumerate_monic
    # order are passed over unvisited: the first prime found is unchanged
    for k in (2, 3):
        first = next(g for g in enumerate_monic(F3, k) if is_irreducible(g))
        assert _first_prime_prime_to_t(F3, k) == first
        assert find_prime_in_ap(Poly.constant(F3, 2), Poly.one(F3), k) == first
    f257 = field_make(257)
    f, c = Poly.constant(f257, 3), Poly.one(f257)
    for k in (3, 4):
        start = time.perf_counter()
        out = find_prime_in_ap(f, c, k)
        assert time.perf_counter() - start < 2.0
        assert out == _first_prime_prime_to_t(f257, k)
    assert find_prime_in_ap(f, c, 3) == parse_poly(f257, "t^3+t^2+1")
    # k = 1: t itself is the first prime of degree 1
    assert find_prime_in_ap(f, c, 1) == Poly.t(f257)


def test_find_prime_output_contract():
    rng = Random(23)
    for field in (F3, F5):
        for _ in range(40):
            f = random_poly(field, rng, 2, nonzero=True)
            c = random_poly(field, rng, 2, nonzero=True)
            if gcd(c, f).degree != 0:
                continue
            k = rng.randint(1, 4)
            out = find_prime_in_ap(f, c, k, rng)
            if out is None:
                continue
            assert out.is_monic and len(out.coeffs) - 1 == k
            assert is_irreducible(out)
            assert ((out - c) % f).is_zero


@pytest.mark.parametrize("q, f_text", [
    ("3", "1"), ("3", "2"), ("3", "t"), ("3", "2*t^2+t"), ("2^2", "t^2+t+1"),
])
def test_find_prime_matches_exact_counts(q, f_text):
    # None exactly when the class holds no prime of degree k, with or
    # without the random probes, for every unit class and k <= deg f + 2
    field = parse_field_spec(q)
    f = parse_poly(field, f_text)
    units = [r for r in enumerate_residues(field, f.degree) if gcd(r, f).degree == 0]
    rng = Random(f"find-prime-counts:{q}:{f_text}")
    for k in range(0, f.degree + 3):
        for c in units:
            count = pi_ap(APQuery(f, c, k))
            for probe_rng in (None, rng):
                out = find_prime_in_ap(f, c, k, probe_rng)
                if count == 0:
                    assert out is None
                    continue
                assert out.is_monic and out.degree == k and is_irreducible(out)
                assert ((out - c) % f).is_zero



def _reference_find_prime_in_ap(f, c, k, rng, is_prime):
    # the search on Poly arithmetic: every candidate c_red + monic(f) g, the
    # 64 seeded probes first, then the scan
    field = f.field
    f = f.monic()
    c_red = c % f
    deg_g = k - f.degree
    probes = 64 if rng is not None and deg_g >= 0 else 0
    draws = (random_poly(field, rng, deg_g, monic=True, exact_deg=True) for _ in range(probes))
    if deg_g < 0:
        scan = [Poly.zero(field)]
    else:
        scan = enumerate_monic(field, deg_g, unit_constant=f.is_constant and k >= 2)
    for g in chain(draws, scan):
        cand = c_red + f * g
        if cand.degree == k >= 1 and cand.is_monic and is_prime(cand):
            return cand
    return None


@pytest.mark.parametrize("q, moduli", [
    ("3", ["2", "t+1", "2*t^2+t+1"]),
    ("7", ["3", "t+5", "3*t^2+4*t+6"]),
    ("257", ["5", "t+100", "7*t^2+3*t+2"]),
    ("3^2", ["[0,1]", "t+[1,1]", "[0,1]*t^2+t+[2,1]"]),
    ("3^5", ["[0,1]", "t+[1,0,2]", "[2,1]*t^2+[0,0,1]*t+1"]),
])
def test_find_prime_keeps_the_reference_search(q, moduli, monkeypatch):
    # the returned prime, the rng's end state and the number of
    # is_irreducible calls, for constant, linear and non-monic quadratic
    # moduli, every k from 0 to deg f + 3, with and without an rng
    field = parse_field_spec(q)
    ours, ref = [], []

    def counting(calls):
        def is_prime(g):
            calls.append(g)
            return is_irreducible(g)
        return is_prime

    monkeypatch.setattr(dirichlet, "is_irreducible", counting(ours))
    rng = Random(f"find-prime-reference:{q}")
    for f_text in moduli:
        f = parse_poly(field, f_text)
        residues = [random_poly(field, rng, max(f.degree - 1, 0), exact_deg=True) for _ in range(4)]
        for c in [r for r in residues if gcd(r, f).degree == 0][:2]:
            for k in range(0, f.degree + 4):
                for seeded in (False, True):
                    seed = rng.getrandbits(64)
                    a, b = (Random(seed), Random(seed)) if seeded else (None, None)
                    out = find_prime_in_ap(f, c, k, a)
                    assert out == _reference_find_prime_in_ap(f, c, k, b, counting(ref))
                    assert len(ours) == len(ref)
                    if seeded:
                        assert a.getstate() == b.getstate()
    assert ours and all(g.degree >= 1 for g in ours)

def test_dirichlet_small_degrees_f13():
    # a prime exists in every unit class mod a linear modulus for k = 3..6
    for f in monic_irreducibles(F13, 1):
        for c_code in range(1, 13):
            for k in range(3, 7):
                out = find_prime_in_ap(f, Poly.constant(F13, c_code), k)
                assert out is not None


def test_uniformity_examples():
    rep = uniformity_report(Poly.t(F3), 2)
    counts = {str(r.residue): r.count for r in rep.rows}
    assert counts == {"1": 1, "2": 2}
    assert rep.expected == pytest.approx(1.5)
    assert rep.pi_k == pi_q(3, 2) and rep.phi_f == 2

    rep13 = uniformity_report(Poly.t(F13), 3)
    assert rep13.pi_k == 728 and rep13.phi_f == 12
    assert rep13.expected == pytest.approx(728 / 12)
    assert rep13.max_deviation <= 0.5
    assert len(rep13.rows) == 12
