"""Prime counting in F_q[t]: the polynomial Euler function, exact counts
of monic irreducibles in arithmetic progressions, and a uniformity report
comparing each residue class against the equidistribution prediction
pi_q(k) / Phi_q(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .polyring import Poly, enumerate_monic, enumerate_residues, factor, format_poly, gcd, is_irreducible


def _mobius(n: int) -> int:
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def pi_q(q: int, k: int) -> int:
    """Number of monic irreducibles of degree k: (1/k) sum mu(d) q^{k/d}."""
    if k < 1:
        raise ValueError("prime counting needs degree >= 1")
    total = sum(_mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0)
    assert total % k == 0
    return total // k


def euler_phi(f: Poly) -> int:
    """Phi_q(f): units of F_q[t]/(f), by the product formula over primes."""
    if f.is_zero:
        raise ValueError("Euler function of zero is undefined")
    q = f.field.q
    total = 1
    for prime, mult in factor(f):
        d = len(prime.coeffs) - 1
        total *= q ** (d * (mult - 1)) * (q ** d - 1)
    return total


@dataclass(frozen=True)
class APQuery:
    """Count monic irreducibles of degree k congruent to c mod f."""

    f: Poly
    c: Poly
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("target degree must be >= 0")
        if gcd(self.c, self.f).degree != 0:
            raise ValueError("residue and modulus must be coprime")


def _ap_candidates(f: Poly, c: Poly, k: int):
    """All monic polynomials of degree k congruent to c mod f.

    The class mod f equals the class mod monic(f), so the modulus is
    normalized and candidates are c_red + monic(f) * g over monic g.
    """
    field = f.field
    deg_f = len(f.coeffs) - 1
    if deg_f == 0:
        yield from enumerate_monic(field, k)
        return
    f = f.monic()
    c_red = c % f
    if k < deg_f:
        if len(c_red.coeffs) - 1 == k and c_red.is_monic:
            yield c_red
        return
    for g in enumerate_monic(field, k - deg_f):
        yield c_red + f * g


def pi_ap(query: APQuery) -> int:
    """Exact count by enumerating the residue class in degree k."""
    return sum(
        1
        for cand in _ap_candidates(query.f, query.c, query.k)
        if not cand.is_constant and is_irreducible(cand)
    )


def find_prime_in_ap(f: Poly, c: Poly, k: int, rng: Random | None = None) -> Poly | None:
    """A monic irreducible of degree k congruent to c mod f.

    Seeded random probing first, then an exhaustive sweep; None only after
    the sweep finds nothing.
    """
    if gcd(c, f).degree != 0:
        raise ValueError("residue and modulus must be coprime")
    field = f.field
    deg_f = len(f.coeffs) - 1
    if rng is not None and k >= deg_f >= 1:
        f_monic = f.monic()
        c_red = c % f_monic
        for _ in range(64):
            g = Poly(field, [rng.randrange(field.q) for _ in range(k - deg_f)] + [1], trusted=True)
            cand = c_red + f_monic * g
            if not cand.is_constant and is_irreducible(cand):
                return cand
    for cand in _ap_candidates(f, c, k):
        if not cand.is_constant and is_irreducible(cand):
            return cand
    return None


@dataclass(frozen=True)
class UniformityRow:
    residue: Poly
    count: int
    deviation: float  # |count/expected - 1|


@dataclass(frozen=True)
class UniformityReport:
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
    """All residues mod f coprime to f (degree < deg f)."""
    residues = enumerate_residues(f.field, len(f.coeffs) - 1)
    return [r for r in residues if gcd(r, f).degree == 0]


def uniformity_report(f: Poly, k: int) -> UniformityReport:
    """Counts over every unit residue class mod f at degree k, with the
    relative deviation from pi_q(k)/Phi_q(f).

    The equidistribution range ||f|| <= q^{k-4} is reported, not enforced.
    """
    if f.is_zero or f.is_constant:
        raise ValueError("modulus must have positive degree")
    field = f.field
    pi_k = pi_q(field.q, k)
    phi_f = euler_phi(f)
    expected = pi_k / phi_f
    counts = [(r, pi_ap(APQuery(f, r, k))) for r in unit_residues(f)]
    rows = tuple(UniformityRow(r, n, abs(n / expected - 1.0)) for r, n in counts)
    max_dev = max((row.deviation for row in rows), default=0.0)
    in_range = len(f.coeffs) - 1 <= k - 4  # ||f|| <= q^{k-4}
    return UniformityReport(f, k, pi_k, phi_f, expected, rows, max_dev, in_range)
