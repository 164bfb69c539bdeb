"""Prime counting in F_q[t]: the Phi_q(f) unit residues mod f, exact counts
of monic irreducibles in arithmetic progressions, and a uniformity report
comparing each residue class against the equidistribution prediction
pi_q(k) / Phi_q(f).
"""

from __future__ import annotations

import itertools
import math
from random import Random
from typing import NamedTuple

from .gf import prime_divisors
from .polyring import (
    Poly, _mul_codes, _random_poly_codes, _reduce_codes, _reduction, enumerate_monic, enumerate_residues,
    factor, format_poly, gcd, is_irreducible, powmod,
)


def _mobius(n: int) -> int:
    # n is squarefree exactly when it is the product of its distinct primes
    primes = prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def pi_q(q: int, k: int) -> int:
    """Number of monic irreducibles of degree k: (1/k) sum mu(d) q^{k/d}."""
    if k < 1:
        raise ValueError("prime counting needs degree >= 1")
    total = sum(_mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0)
    assert total % k == 0
    return total // k


class _APFields(NamedTuple):
    f: Poly
    c: Poly
    k: int


class APQuery(_APFields):
    """Count monic irreducibles of degree k congruent to c mod f."""

    __slots__ = ()  # a NamedTuple body cannot define __new__, so it checks here

    def __new__(cls, f: Poly, c: Poly, k: int) -> APQuery:
        if k < 0:
            raise ValueError("target degree must be >= 0")
        if f.is_zero:
            raise ValueError("modulus must be nonzero")
        if gcd(c, f).degree != 0:
            raise ValueError("residue and modulus must be coprime")
        return super().__new__(cls, f, c, k)


def pi_ap(query: APQuery) -> int:
    """Exact count: the entry of the class of c in ap_prime_counts(f, k)."""
    f = query.f.monic()
    c = query.c % f
    return ap_prime_counts(f, query.k)[c]


def find_prime_in_ap(f: Poly, c: Poly, k: int, rng: Random | None = None) -> Poly | None:
    """A monic irreducible of degree k congruent to c mod f.

    The class mod f equals the class mod monic(f), so every candidate is
    c_red + monic(f) * g: over 64 seeded random monic g of degree
    k - deg f first (given an rng), then over every such g (g = 0 alone
    when k < deg f); None only after that sweep finds nothing.  A constant
    f makes each candidate g itself, so for k >= 2 the sweep passes over
    the g with constant term 0, which t divides.
    """
    APQuery(f, c, k)  # rejects k < 0, a zero f and a c not coprime to f
    field = f.field
    f = f.monic()
    c_red = c % f
    deg_g = k - (len(f.coeffs) - 1)
    probes = 64 if rng is not None and deg_g >= 0 else 0
    draws = (Poly(field, _random_poly_codes(rng, field.q, deg_g, monic=True, exact_deg=True),
                  trusted=True) for _ in range(probes))
    if deg_g < 0:
        scan = [Poly.zero(field)]
    else:
        scan = enumerate_monic(field, deg_g, unit_constant=f.is_constant and k >= 2)
    for g in itertools.chain(draws, scan):
        cand = c_red + f * g
        if len(cand.coeffs) - 1 == k >= 1 and cand.is_monic and is_irreducible(cand):
            return cand
    return None


class UniformityRow(NamedTuple):
    residue: Poly
    count: int
    deviation: float  # |count/expected - 1|


class UniformityReport(NamedTuple):
    f: Poly
    k: int
    pi_k: int
    phi_f: int
    expected: float
    rows: tuple[UniformityRow, ...]
    max_deviation: float
    in_stated_range: bool  # the prediction is calibrated for ||f|| <= q^{k-4}

    def as_rows(self) -> list[dict]:
        return [
            {"c": format_poly(r.residue), "count": r.count, "deviation": round(r.deviation, 6)}
            for r in self.rows
        ]


def unit_residues(f: Poly) -> list[Poly]:
    """All residues mod f coprime to f (degree < deg f), in
    enumerate_residues order: those that are no multiple P g
    (deg g < deg f - deg P) of a prime factor P of f."""
    field, m = f.field, len(f.coeffs) - 1
    multiples = {(prime * g).coeffs for prime, _ in factor(f)
                 for g in enumerate_residues(field, m - len(prime.coeffs) + 1)}
    return [r for r in enumerate_residues(field, m) if r.coeffs not in multiples]


# largest estimated cost of a prime count or a prime search, in table
# operations (dict lookups or coefficient steps, about 2 us each under
# Python 3.11 on a 2-vCPU Xeon host): about 10 s
MAX_AP_WORK = 5 * 10 ** 6


def _check_work(work: int, task: str, f: Poly, k: int) -> None:
    if work > MAX_AP_WORK:
        raise ValueError(f"{task} of degree {k} mod {format_poly(f)} takes about "
                         f"10^{math.log10(work):.1f} table operations, "
                         f"above MAX_AP_WORK = {MAX_AP_WORK:,}")


def check_search_work(f: Poly, k: int) -> None:
    """Raise ValueError naming MAX_AP_WORK when find_prime_in_ap(f, c, k)
    costs more than it allows: about k candidates until a prime turns up,
    each an irreducibility test of at most Rabin's k^3 log2(q) / 4 steps."""
    _check_work(k ** 4 * f.field.q.bit_length() // 4, "searching for a prime", f, k)


def ap_prime_counts(f: Poly, k: int) -> dict[Poly, int]:
    """Monic irreducibles of degree k in each unit class mod f, keyed by the
    residue in unit_residues(f) order, by integer arithmetic in the group ring Z[G],
    G = (F_q[t]/f)^x (Rosen, GTM 210, ch. 4).

    A_j, the sum of the classes of the monic g of degree j coprime to f, has
    q^(j-m) on every class when j >= m = deg f and is the set of those g
    themselves when j < m.  Newton's identity k A_k = sum_{j=1..k} L_j A_{k-j}
    for the logarithmic derivative of the L-series gives L_j, the sum of
    deg P [P^n] over prime powers P^n of degree j; peeling
    d B_d = L_d - sum_{e | d, e < d} e psi_{d/e}(B_e), where psi_n maps the
    class of x to the class of x^n, leaves B_d, the sum of [P] over the
    primes P of degree d not dividing f.
    """
    if k < 0:
        raise ValueError("target degree must be >= 0")
    q, m = f.field.q, len(f.coeffs) - 1
    # the scan of the q^m residues (about m steps each), then k Newton steps
    # of about Phi(f) * (k + q^min(m-1, k-m)) each, with q^m for Phi(f)
    _check_work(q ** m * (m + k * (k + q ** max(0, min(m - 1, k - m)))), "counting primes", f, k)
    f = f.monic()
    residues = unit_residues(f)
    index = {r.coeffs: i for i, r in enumerate(residues)}
    phi = len(residues)
    # A_j for j < m, as class indices: a monic g of degree j < m is its own residue
    sparse = [
        [index[g.coeffs] for g in enumerate_monic(f.field, j) if g.coeffs in index]
        for j in range(min(m, k + 1))
    ]
    # class of x * g for the sparse g, one row per g, and of x^p, filled on demand
    products: dict[int, dict[int, int]] = {g: {} for row in sparse for g in row}
    powers: dict[tuple[int, int], int] = {}
    field, red = f.field, _reduction(f)

    def power(x: int, n: int) -> int:
        # x^n one prime p | n at a time, so psi_4 reuses the psi_2 entries
        for p in prime_divisors(n):
            while n % p == 0:
                if (x, p) not in powers:
                    powers[x, p] = index[powmod(residues[x], p, f).coeffs]
                x, n = powers[x, p], n // p
        return x

    # Newton: L_j = j A_j - sum_{i < j} L_i A_{j-i}; a class sum A_s with
    # s >= m is flat, so L_i A_s is the scalar q^(s-m) * (sum of L_i) on
    # every class, and only the sparse A_s are convolved entry by entry
    lam: list[dict[int, int]] = [{}]
    lam_sum = [0]
    for j in range(1, k + 1):
        flat = j * q ** (j - m) if j >= m else 0
        acc = {} if j >= m else dict.fromkeys(sparse[j], j)
        for i in range(1, j):
            s = j - i
            if s >= m:
                flat -= q ** (s - m) * lam_sum[i]
                continue
            for g in sparse[s]:
                row = products[g]
                for x, v in lam[i].items():
                    y = row.get(x)
                    if y is None:
                        rem = _reduce_codes(_mul_codes(residues[x].coeffs, residues[g].coeffs, field),
                                            red, field)
                        y = row[x] = index[Poly(field, rem).coeffs]
                    acc[y] = acc.get(y, 0) - v
        if flat:
            acc = {x: flat + acc.get(x, 0) for x in range(phi)}
        lam.append({x: v for x, v in acc.items() if v})
        lam_sum.append(sum(acc.values()))

    # peel the prime powers off L_d for the divisors d of k
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    primes: dict[int, dict[int, int]] = {}
    for d in divisors:
        acc = dict(lam[d])
        for e in divisors:
            if e < d and d % e == 0:
                for x, v in primes[e].items():
                    y = power(x, d // e)
                    acc[y] = acc.get(y, 0) - e * v
        assert all(v % d == 0 for v in acc.values()), "prime counts must be integers"
        primes[d] = {x: v // d for x, v in acc.items() if v}
    counts = primes.get(k, {})
    return {r: counts.get(x, 0) for x, r in enumerate(residues)}


def uniformity_report(f: Poly, k: int) -> UniformityReport:
    """Counts over every unit residue class mod f at degree k, with the
    relative deviation from pi_q(k)/Phi_q(f).

    The equidistribution range ||f|| <= q^{k-4} is reported, not enforced.
    """
    if f.is_zero or f.is_constant:
        raise ValueError("modulus must have positive degree")
    counts = ap_prime_counts(f, k)
    pi_k = pi_q(f.field.q, k)
    phi_f = len(counts)  # one key per unit class mod f
    expected = pi_k / phi_f
    rows = tuple(UniformityRow(r, n, abs(n / expected - 1.0)) for r, n in counts.items())
    max_dev = max((row.deviation for row in rows), default=0.0)
    in_range = len(f.coeffs) - 1 <= k - 4  # ||f|| <= q^{k-4}
    return UniformityReport(f, k, pi_k, phi_f, expected, rows, max_dev, in_range)
