"""The acceptance suite: every exit criterion as a runnable check.

Each criterion returns a pass flag and a one-line detail, decided from
its identity alone; `run_all` is the one place that reads the clock, and
reports each criterion's elapsed time beside its verdict.  The CLI
`selftest` subcommand and the pytest acceptance module both drive this
registry.  All randomness flows from the caller's seed.
"""

from __future__ import annotations

import time
from random import Random
from typing import NamedTuple

from .definability import (
    member_A_union_Ainf_semantic,
    member_A_union_Ainf_theorem,
    witness_pair,
)
from .dirichlet import pi_q, uniformity_report
from .gf import field_make, smallest_nonsquare
from .places import Place, RatFunc, random_ratfunc, sorted_places, support
from .polyring import Poly, enumerate_residues, monic_irreducibles, parse_poly
from .quaternion import (
    decompose_t_element,
    delta,
    hilbert_product,
    jacobson_member,
    r_tilde_member,
    s_global_member,
    t_member,
    u_set,
)
from .symbols import local_symbol, reciprocity_sweep, residue_symbol


class CriterionResult(NamedTuple):
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.cid:2d} [{self.name}] {self.detail} ({self.elapsed:.1f}s)"


def _rng(seed: int, cid: int, tag: str = "") -> Random:
    return Random(f"{seed}:criterion{cid}:{tag}")


def criterion_1(seed: int) -> tuple[bool, str]:
    """Exhaustive reciprocity over every coprime ordered pair."""
    configs = [(3, 1, 3), (5, 1, 3), (7, 1, 2), (3, 2, 2)]
    bad = 0
    checked = 0
    for p, e, max_deg in configs:
        result = reciprocity_sweep(field_make(p, e), max_deg)
        bad += len(result.violations)
        checked += result.pairs_coprime
    return bad == 0, f"{checked} coprime ordered pairs, {bad} violations"


def criterion_2(seed: int) -> tuple[bool, str]:
    """Product of local symbols over all places equals 1, each symbol
    evaluated directly at every place of the joint support and infinity."""
    bad = 0
    for q in (3, 5, 7, 13):
        field = field_make(q)
        inf = Place.infinite(field)
        rng = _rng(seed, 2, str(q))
        for _ in range(1000):
            alpha = random_ratfunc(field, rng, 5)
            beta = random_ratfunc(field, rng, 5)
            result = hilbert_product(alpha, beta)
            places = sorted_places(support(alpha) | support(beta) | {inf})
            direct = tuple((place, local_symbol(alpha, beta, place).sign) for place in places)
            if result.product != 1 or result.per_place != direct:
                bad += 1
    return bad == 0, f"4000 random pairs, {bad} violations"


def criterion_3(seed: int) -> tuple[bool, str]:
    """(g, h/t) at infinity is -1 for nonsquare g, any nonzero h."""
    bad = 0
    total = 0
    for q in (3, 5, 7, 11, 13):
        field = field_make(q)
        inf = Place.infinite(field)
        t = Poly.t(field)
        for g in range(1, q):
            if field.is_square_code(g):
                continue
            for h in range(1, q):
                total += 1
                sym = local_symbol(
                    RatFunc.constant(field, g),
                    RatFunc(Poly.constant(field, h), t),
                    inf,
                )
                if sym.sign != -1:
                    bad += 1
    return bad == 0, f"{total} (nonsquare, unit) pairs, {bad} violations"


def criterion_4(seed: int) -> tuple[bool, str]:
    """Witness pairs ramify exactly at {P, inf} and land in the family D."""
    bad = 0
    total = 0
    for q, max_deg in ((3, 4), (5, 3)):
        field = field_make(q)
        eps = smallest_nonsquare(field)
        inf = Place.infinite(field)
        for deg in range(1, max_deg + 1):
            for prime in monic_irreducibles(field, deg):
                total += 1
                place = Place(field, prime)
                try:
                    wp = witness_pair(place, eps, _rng(seed, 4, str(prime)))
                except ValueError:  # the companion search gave up
                    bad += 1
                    continue
                if wp.ramified.places != frozenset({place, inf}):
                    bad += 1
    return bad == 0, f"{total} primes, {bad} failures"


def criterion_5(seed: int) -> tuple[bool, str]:
    """Sumsets of the irreducible-trace sets cover large fields, not F_3."""
    ok = True
    details = []
    for q, (p, e) in ((13, (13, 1)), (17, (17, 1)), (19, (19, 1)), (23, (23, 1)),
                      (25, (5, 2)), (27, (3, 3)), (29, (29, 1))):
        us = u_set(field_make(p, e))
        details.append(f"q={q}:{'covers' if us.sumset_covers else 'FAILS'}")
        ok = ok and us.sumset_covers
    u3 = u_set(field_make(3))
    f3 = field_make(3)
    sumset = {f3.add(x, y) for x in u3.members for y in u3.members}
    small_ok = not u3.sumset_covers and sumset == {0}
    ok = ok and small_ok
    return ok, "; ".join(details) + f"; q=3 sumset={sorted(sumset)}"


def criterion_6(seed: int) -> tuple[bool, str]:
    """Residue symbol vs brute-force square enumeration in each residue field."""
    bad = 0
    total = 0
    for q in (3, 5, 7):
        field = field_make(q)
        for deg in (1, 2):
            for prime in monic_irreducibles(field, deg):
                residues = list(enumerate_residues(field, deg))
                squares = {(r * r % prime).coeffs for r in residues}
                for r in residues:
                    total += 1
                    sym = residue_symbol(r, prime)
                    is_sq = r.coeffs in squares  # includes zero
                    if (sym.sign in (0, 1)) != is_sq:
                        bad += 1
                    if sym.is_zero != r.is_zero:
                        bad += 1
    return bad == 0, f"{total} residues against enumeration, {bad} disagreements"


def criterion_7(seed: int) -> tuple[bool, str]:
    """The ramification set always has even size."""
    bad = 0
    for q in (3, 5, 7):
        field = field_make(q)
        rng = _rng(seed, 7, str(q))
        for _ in range(500):
            a = random_ratfunc(field, rng, 3)
            b = random_ratfunc(field, rng, 3)
            if len(delta(a, b)) % 2:
                bad += 1
    return bad == 0, f"1500 random pairs, {bad} odd-sized sets"


def criterion_8(seed: int) -> tuple[bool, str]:
    """Union-of-valuation-rings membership equals the Jacobson dual form."""
    bad = 0
    total = 0
    for q in (3, 5, 7):
        field = field_make(q)
        eps = smallest_nonsquare(field)
        rng = _rng(seed, 8, str(q))
        primes = []
        for deg in (1, 2, 3):
            primes.extend(monic_irreducibles(field, deg))
        pairs = [
            witness_pair(Place(field, pr), eps, rng) for pr in primes[:10]
        ]
        for _ in range(500):
            x = random_ratfunc(field, rng, 3, nonzero=False)
            for wp in pairs:
                total += 1
                direct = r_tilde_member(x, wp.a, wp.b)
                dual = x.is_zero or not jacobson_member(x.inverse(), wp.a, wp.b)
                if direct != dual:
                    bad += 1
    return bad == 0, f"{total} membership checks, {bad} disagreements"


def criterion_9(seed: int) -> tuple[bool, str]:
    """Main membership identity, both directions, against sampled pairs."""
    bad = 0
    members = 0
    non_members = 0
    for q in (3, 5):
        field = field_make(q)
        eps = smallest_nonsquare(field)
        rng = _rng(seed, 9, str(q))
        want_members, want_non = 100, 100
        while want_members or want_non:
            x = random_ratfunc(field, rng, 4, nonzero=False)
            semantic = member_A_union_Ainf_semantic(x)
            if semantic and want_members:
                want_members -= 1
                members += 1
            elif not semantic and want_non:
                want_non -= 1
                non_members += 1
            else:
                continue
            report = member_A_union_Ainf_theorem(x, eps, 20, rng)
            if not report.agrees or report.member != semantic:
                bad += 1
    return bad == 0, f"{members} members + {non_members} non-members, {bad} disagreements"


def criterion_10(seed: int) -> tuple[bool, str]:
    """Prime counts: divisor-sum formula vs the sieve, plus the tail bound."""
    bad = []
    for q in (3, 5):
        field = field_make(q)
        for k in range(1, 7):
            formula = pi_q(q, k)
            enumerated = len(monic_irreducibles(field, k))  # sieve, not Moebius
            if formula != enumerated:
                bad.append(f"count q={q} k={k}")
    for q in (3, 5, 7, 9, 13):
        for k in range(1, 7):
            # |pi - q^k/k| <= 2 q^(k/2)/k, squared and times k^2: exact in integers
            if (k * pi_q(q, k) - q ** k) ** 2 > 4 * q ** k:
                bad.append(f"tail q={q} k={k}")
    return not bad, "; ".join(bad) or "formula = enumeration and tail bound hold"


def criterion_11(seed: int) -> tuple[bool, str]:
    """Equidistribution over residue classes at q = 13, k = 3, modulus t."""
    field = field_make(13)
    report = uniformity_report(parse_poly(field, "t"), 3)
    # |n / (pi/Phi) - 1| <= 1/2 for each class count n, times 2 pi: exact in integers
    within = all(abs(2 * row.count * report.phi_f - 2 * report.pi_k) <= report.pi_k
                 for row in report.rows)
    return within, f"max relative deviation {report.max_deviation:.4f} (bound 0.5)"


def criterion_12(seed: int) -> tuple[bool, str]:
    """Soundness of trace-sum decompositions; success rate is reported."""
    field = field_make(13)
    eps = smallest_nonsquare(field)
    rng = _rng(seed, 12)
    wp = witness_pair(Place.finite(parse_poly(field, "t")), eps, rng)
    unsound = 0
    succeeded = 0
    sampled = 0
    while sampled < 50:
        x = random_ratfunc(field, rng, 3, nonzero=False)
        if not t_member(x, wp.a, wp.b):
            continue
        sampled += 1
        out = decompose_t_element(x, wp.a, wp.b)
        if out is None:
            continue
        s1, s2 = out
        if s1 + s2 != x or not (s_global_member(s1, wp.a, wp.b) and s_global_member(s2, wp.a, wp.b)):
            unsound += 1
        else:
            succeeded += 1
    return unsound == 0, (f"50 sampled elements, {succeeded} decomposed, {unsound} unsound "
                          f"(success rate {succeeded / 50:.0%})")


# (name, check); a criterion's id is its position, from 1
CRITERIA = [
    ("general reciprocity", criterion_1),
    ("product formula", criterion_2),
    ("ramification at infinity", criterion_3),
    ("witness construction", criterion_4),
    ("irreducible-trace sumsets", criterion_5),
    ("symbol oracle equivalence", criterion_6),
    ("even ramification", criterion_7),
    ("dual characterization", criterion_8),
    ("main membership identity", criterion_9),
    ("prime counts", criterion_10),
    ("progression uniformity", criterion_11),
    ("trace-sum decomposition", criterion_12),
]


def run_all(seed: int = 42, only: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for cid, (name, check) in enumerate(CRITERIA, start=1):
        if only and cid not in only:
            continue
        start = time.monotonic()
        passed, detail = check(seed)
        results.append(CriterionResult(cid, name, passed, detail, time.monotonic() - start))
    return results
