"""The formula layer: squares at infinity, the pair family D, witness
pairs ramified exactly at {P, inf}, and the membership checker for the
union of the polynomial ring with the valuation ring at infinity.

The driving identity is that polynomials-or-infinity-integral elements are
exactly the elements lying in R~(a, b) for every pair (a, b) of the
definable family D; non-members are falsified by a constructed witness
pair whose ramification set is {P, inf} for a prime P of the denominator.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from random import Random
from typing import NamedTuple, Sequence

from .dirichlet import find_prime_in_ap
from .gf import Field, FieldElem, smallest_nonsquare
from .places import Place, RatFunc, divisor, square_class_inf, valuation
from .polyring import (
    SIEVE_CAP, Poly, _random_codes, _random_poly_codes, character_table, is_irreducible, poly_index,
    power_character, random_irreducible,
)
from .quaternion import RamificationSet, delta, r_tilde_member

DEFAULT_WITNESS_DEGREE_SLACK = 6

# most sampled pairs times the bit length of q in a membership check: 0.06 ms
# (F_3) to 0.02 ms (F_65521) per pair and bit under Python 3.11 on a 2-vCPU Xeon host, so 3 s
MAX_SAMPLE_WORK = 50_000


def _require_odd(field: Field) -> None:
    if field.q % 2 == 0:
        raise ValueError("quadratic definability layer requires odd q")


def _check_epsilon(field: Field, epsilon: FieldElem | None) -> FieldElem:
    if epsilon is None:
        return smallest_nonsquare(field)
    epsilon = field.elem(epsilon)
    if epsilon.code == 0 or field.is_square_code(epsilon.code):
        raise ValueError("epsilon must be a nonsquare constant")
    return epsilon


class InfSquareClass(enum.Enum):
    """Square classes of the completion at infinity: squares, and the three
    nontrivial classes (1/t), h, h/t for a fixed nonsquare constant h."""

    SQUARE = "sq"
    INV_T_TIMES_SQUARE = "sq/t"
    NONSQUARE_TIMES_SQUARE = "h*sq"
    NONSQUARE_INV_T_TIMES_SQUARE = "h*sq/t"


def inf_square_class(c: RatFunc) -> InfSquareClass:
    if c.is_zero:
        raise ValueError("square class of zero is undefined")
    _require_odd(c.field)
    return _class_at_inf(c.field, c.num.coeffs, c.den.coeffs)


def _class_at_inf(field: Field, num: Sequence[int], den: Sequence[int]) -> InfSquareClass:
    # the class of num/den from nonzero code lists, reduced or not
    w, r = square_class_inf(field, num, den)
    if field.is_square_code(r):
        return InfSquareClass.INV_T_TIMES_SQUARE if w % 2 else InfSquareClass.SQUARE
    return (
        InfSquareClass.NONSQUARE_INV_T_TIMES_SQUARE
        if w % 2
        else InfSquareClass.NONSQUARE_TIMES_SQUARE
    )


_ODD_AT_INF = (InfSquareClass.INV_T_TIMES_SQUARE, InfSquareClass.NONSQUARE_INV_T_TIMES_SQUARE)


def gamma_check(a: RatFunc, b: RatFunc) -> bool:
    """Decide membership of (a, b) in the pair family D.

    Branch one: a/epsilon is a square at infinity and the degree parities
    of a/epsilon and b differ; branch two swaps the roles.  The scalar
    witness in front of the second coordinate ranges over nonzero
    constants, so only the parity of that coordinate matters.  For every
    nonsquare constant epsilon, a/epsilon is a square at infinity exactly
    when a lies in the class h*sq, so (a, b) is in D iff one coordinate is
    in h*sq and the other has odd valuation at infinity: the verdict is
    the same for every epsilon, which is therefore no argument.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("pair family membership needs nonzero coordinates")
    _require_odd(a.field)
    return _in_d(inf_square_class(a), inf_square_class(b))


def _in_d(ca: InfSquareClass, cb: InfSquareClass) -> bool:
    h_sq = InfSquareClass.NONSQUARE_TIMES_SQUARE
    return (ca is h_sq and cb in _ODD_AT_INF) or (cb is h_sq and ca in _ODD_AT_INF)


class WitnessPair(NamedTuple):
    """A pair (epsilon*P, epsilon*Q) ramified exactly at {P, inf}, with
    deg Q of opposite parity to deg P."""

    a: RatFunc
    b: RatFunc
    place: Place
    companion: Place
    epsilon: FieldElem

    @property
    def ramified(self) -> RamificationSet:
        return delta(self.a, self.b)


# 1 where the quadratic character of a residue mod P is -1, one byte per
# residue in enumerate_residues order: at most SIEVE_CAP bytes (4 KiB) a
# prime, so the 256 most recent primes hold at most 1 MiB
@lru_cache(maxsize=256)
def _nonsquare_table(prime: Poly) -> bytes:
    neg_one = prime.field.neg_one_code
    return bytes(c == neg_one for c in character_table(prime))  # raises for a reducible P


def _nonsquare_residues(prime: Poly, rng: Random, count: int) -> list[Poly]:
    """count residues r mod P with power_character(r, P) = -1, each drawn
    as deg P codes below q until one is a nonsquare.  When q^deg P <=
    SIEVE_CAP a draw reads the prime's cached character table, else it
    takes one norm.  A reducible P raises ValueError before any draw (mod a
    square the draws would never end: a Jacobi symbol there is never -1)."""
    field = prime.field
    q, d = field.q, len(prime.coeffs) - 1
    if q ** d <= SIEVE_CAP:
        table = _nonsquare_table(prime)
    elif is_irreducible(prime):
        table = None
    else:
        raise ValueError("nonsquare residues need an irreducible modulus")
    residues = []
    while len(residues) < count:
        codes = _random_codes(rng, q, d)
        if table is None:
            r = Poly(field, codes)
            if power_character(r, prime) == field.neg_one_code:  # 0 when r is zero
                residues.append(r)
        elif table[poly_index(codes, q, d)]:
            residues.append(Poly(field, codes))
    return residues


def witness_pair(
    place: Place,
    epsilon: FieldElem | None = None,
    rng: Random | None = None,
    degree_cap: int | None = None,
) -> WitnessPair:
    """Construct (epsilon*P, epsilon*Q) with ramification exactly {P, inf}.

    For odd deg P the companion Q is an even-degree monic prime congruent
    to the square residue 1 mod P; for even deg P it is an odd-degree monic
    prime congruent to a sampled nonsquare residue.  The ramification set
    and the pair-family membership are verified before returning; a search
    that finds no companion of degree <= degree_cap raises ValueError.
    """
    if place.is_infinite:
        raise ValueError("witness pairs are indexed by finite places")
    prime = place.prime
    field = prime.field
    _require_odd(field)
    epsilon = _check_epsilon(field, epsilon)
    rng = rng if rng is not None else Random(0xA11CE)
    deg_p = len(prime.coeffs) - 1
    cap = degree_cap if degree_cap is not None else deg_p + DEFAULT_WITNESS_DEGREE_SLACK

    if deg_p % 2 == 1:
        residues = [Poly.one(field)]
        start_parity = 0  # even companion degrees
    else:
        residues = _nonsquare_residues(prime, rng, 4)
        start_parity = 1

    inf = Place.infinite(field)
    a = RatFunc.from_poly(prime.scale(epsilon.code))
    for target in residues:
        for k in range(1, cap + 1):
            if k % 2 != start_parity:
                continue
            q_prime = find_prime_in_ap(prime, target, k, rng)
            if q_prime is None:
                continue
            b = RatFunc.from_poly(q_prime.scale(epsilon.code))
            ram = delta(a, b)
            if ram.places == frozenset({place, inf}) and gamma_check(a, b):
                return WitnessPair(a, b, place, Place(field, q_prime), epsilon)
    raise ValueError(f"no companion prime for {place} up to the degree cap {cap} (raise the cap)")


# --- membership in the polynomial ring and its infinity companion ---


def member_A_union_Ainf_semantic(x: RatFunc) -> bool:
    """Direct test: x is a polynomial (constant denominator) or is
    integral at infinity; zero belongs."""
    if x.is_zero:
        return True
    if x.den.is_constant:
        return True
    return valuation(x, Place.infinite(x.field)) >= 0


class PairEvidence(NamedTuple):
    a: RatFunc
    b: RatFunc
    source: str  # "witness" or "random"
    accepted: bool  # r_tilde membership of the tested element


class MembershipReport(NamedTuple):
    member: bool        # the semantic verdict
    agrees: bool        # theorem-side evidence matches the semantic verdict
    evidence: tuple[PairEvidence, ...]

    @property
    def passed(self) -> bool:
        return self.agrees


def sample_d_pairs(
    field: Field,
    epsilon: FieldElem,
    count: int,
    rng: Random,
) -> list[tuple[RatFunc, RatFunc, str]]:
    """Pairs from the family D: witness pairs on primes of degree <= 2 mixed
    with rejection-sampled random pairs accepted by the membership formula.

    A random pair is drawn as random_ratfunc(field, rng, 2) would draw it
    (a.num, a.den, b.num, b.den), and D is decided on the draws' code
    lists, by their classes at infinity, before anything is reduced: only
    an accepted pair is built as RatFuncs."""
    _check_epsilon(field, epsilon)  # raises for even q as well
    pairs: list[tuple[RatFunc, RatFunc, str]] = []
    while len(pairs) < count:
        if rng.random() < 0.5:
            prime = random_irreducible(field, rng, 1 + _random_codes(rng, 2, 1)[0])
            wp = witness_pair(Place(field, prime), epsilon, rng)
            pairs.append((wp.a, wp.b, "witness"))
        else:
            for _ in range(200):
                draws = [_random_poly_codes(rng, field.q, 2, nonzero=True) for _ in range(4)]
                a_num, a_den, b_num, b_den = draws
                if _in_d(_class_at_inf(field, a_num, a_den), _class_at_inf(field, b_num, b_den)):
                    a_num, a_den, b_num, b_den = (Poly(field, c, trusted=True) for c in draws)
                    pairs.append((RatFunc(a_num, a_den), RatFunc(b_num, b_den), "random"))
                    break
    return pairs


def member_A_union_Ainf_theorem(
    x: RatFunc,
    epsilon: FieldElem | None = None,
    sample_size: int = 20,
    rng: Random | None = None,
) -> MembershipReport:
    """Check x against the intersection of R~(a, b) over sampled pairs of D.

    Members must be accepted by every sampled pair; a non-member is
    falsified by one constructed witness pair at a denominator prime.
    """
    field = x.field
    _require_odd(field)
    epsilon = _check_epsilon(field, epsilon)
    if sample_size * field.q.bit_length() > MAX_SAMPLE_WORK:
        raise ValueError(f"{sample_size:,} sampled pairs over F_{field.spec} exceed MAX_SAMPLE_WORK"
                         f" = {MAX_SAMPLE_WORK:,} pairs times the bit length of q")
    rng = rng if rng is not None else Random(0x7E03)
    semantic = member_A_union_Ainf_semantic(x)
    if semantic:
        evidence = []
        for a, b, source in sample_d_pairs(field, epsilon, sample_size, rng):
            evidence.append(PairEvidence(a, b, source, r_tilde_member(x, a, b)))
        agrees = all(ev.accepted for ev in evidence)
        return MembershipReport(True, agrees, tuple(evidence))
    # pick a denominator prime with negative valuation; one witness suffices
    bad_prime = next(prime for prime, v in divisor(x) if v < 0)
    wp = witness_pair(Place(field, bad_prime), epsilon, rng)
    accepted = r_tilde_member(x, wp.a, wp.b)
    ev = PairEvidence(wp.a, wp.b, "witness", accepted)
    return MembershipReport(False, not accepted, (ev,))


class PolynomialMembershipReport(NamedTuple):
    member: bool
    agrees: bool
    union_report: MembershipReport
    degree_clause: bool

    @property
    def passed(self) -> bool:
        return self.agrees


def member_A(
    x: RatFunc,
    epsilon: FieldElem | None = None,
    sample_size: int = 20,
    rng: Random | None = None,
) -> PolynomialMembershipReport:
    """Membership of x in the polynomial ring: the union membership plus
    the clause "negative valuation at infinity, or constant"."""
    union_report = member_A_union_Ainf_theorem(x, epsilon, sample_size, rng)
    degree_clause = x.is_constant or (
        not x.is_zero and valuation(x, Place.infinite(x.field)) < 0
    )
    member = union_report.member and degree_clause
    expected = x.is_zero or x.den.is_constant
    agrees = union_report.agrees and member == expected
    return PolynomialMembershipReport(member, agrees, union_report, degree_clause)
