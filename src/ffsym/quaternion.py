"""Ramification sets of quaternion algebras H_{a,b} over F_q(t) and the
valuation-theoretic membership predicates built on them.

Delta(a, b) is the finite even-sized set of places where H_{a,b} is
ramified, i.e. where the quadratic local symbol (a, b)_v is -1; it is
contained in the odd-valuation support of the pair.  The Hilbert product
formula says that |Delta| is even; hilbert_product is the sign vector of
the one cached Delta over the joint support.  The trace set S, its
sumset T = S + S, the unit group of T, the even-valuation classes, the
Jacobson radical and the union-of-valuation-rings set R~ all reduce to
valuation conditions over Delta(a, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .gf import Field, FieldElem
from .places import (
    Place,
    RatFunc,
    is_square_local,
    odd_support,
    residue,
    residue_inf,
    sorted_places,
    support,
    val_at_least,
    valuation,
)
from .polyring import SIEVE_CAP, Poly, enumerate_residues, invmod, power_character
from .symbols import local_symbol

SUMSET_MIN_FIELD_SIZE = 11  # trace sumsets cover the residue field only above this


class EmptyRamificationError(ValueError):
    """Raised by predicates that intersect over an empty Delta(a, b)."""


@dataclass(frozen=True)
class RamificationSet:
    """The places where H_{a,b} is ramified, with the defining pair."""

    a: RatFunc
    b: RatFunc
    places: frozenset[Place]

    @property
    def is_empty(self) -> bool:
        return not self.places

    def sorted(self) -> list[Place]:
        return sorted_places(self.places)

    def __contains__(self, place: Place) -> bool:
        return place in self.places

    def __len__(self) -> int:
        return len(self.places)

    def __repr__(self) -> str:
        inside = ", ".join(str(p) for p in self.sorted())
        return f"Delta({self.a}, {self.b}) = {{{inside}}}"


@lru_cache(maxsize=8192)
def _delta_cached(a: RatFunc, b: RatFunc) -> RamificationSet:
    candidates = set(odd_support(a)) | set(odd_support(b))
    ramified = frozenset(
        place for place in candidates if local_symbol(a, b, place).sign == -1
    )
    return RamificationSet(a, b, ramified)


def delta(a: RatFunc, b: RatFunc) -> RamificationSet:
    """Ramified places of H_{a,b}; candidates are the joint odd support."""
    if a.is_zero or b.is_zero:
        raise ValueError("ramification set needs nonzero arguments")
    if a.field.q % 2 == 0:
        raise ValueError("quaternion ramification requires odd q")
    return _delta_cached(a, b)


@dataclass(frozen=True)
class HilbertResult:
    per_place: tuple[tuple[Place, int], ...]  # canonical place order, signs
    product: int

    @property
    def passed(self) -> bool:
        return self.product == 1

    def as_dict(self) -> dict:
        return {str(place): sign for place, sign in self.per_place}


def hilbert_product(alpha: RatFunc, beta: RatFunc) -> HilbertResult:
    """Local symbols over the joint support plus infinity, and their product.

    The sign is -1 exactly on Delta(alpha, beta): outside the joint odd
    support both valuations are even and the tame symbol
    chi(-1)^{mk} chi(u_alpha)^k chi(u_beta)^m is 1 (see local_symbol)."""
    if alpha.is_zero or beta.is_zero:
        raise ValueError("product formula needs nonzero arguments")
    ramified = delta(alpha, beta).places
    places = support(alpha) | support(beta) | {Place.infinite(alpha.field)}
    rows = tuple((place, -1 if place in ramified else 1) for place in sorted_places(places))
    return HilbertResult(rows, (-1) ** len(ramified))


def _require_delta(a: RatFunc, b: RatFunc) -> RamificationSet:
    d = delta(a, b)
    if d.is_empty:
        raise EmptyRamificationError(
            "predicate is an intersection over Delta(a, b), which is empty"
        )
    return d


# --- the trace set S and friends ---


def s_local_member(eps: RatFunc, a: RatFunc, b: RatFunc, place: Place) -> bool:
    """Membership of eps in the local trace set of H_{a,b} at the place.

    Away from Delta the quaternions split and every trace occurs.  At a
    ramified place the reduced characteristic polynomial x^2 - eps*x + 1
    must be a power of an irreducible: eps = +-2, or eps is integral with
    nonsquare discriminant eps^2 - 4 in the completion.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("trace set needs a nonzero defining pair")
    if place not in delta(a, b):
        return True
    if not val_at_least(eps, place, 0):
        return False
    disc = eps * eps - RatFunc.constant(eps.field, 4)
    if disc.is_zero:
        return True  # eps = +-2, the only solutions of eps^2 = 4
    return not is_square_local(disc, place)


def s_global_member(eps: RatFunc, a: RatFunc, b: RatFunc) -> bool:
    """Global trace-set membership: local membership at every ramified place
    (local-to-global for the isotropy of the underlying quadratic form)."""
    return all(s_local_member(eps, a, b, place) for place in delta(a, b).sorted())


def t_member(x: RatFunc, a: RatFunc, b: RatFunc) -> bool:
    """x in T = S + S: integral at every place of Delta (0 included)."""
    d = _require_delta(a, b)
    return all(val_at_least(x, place, 0) for place in d.places)


def t_unit_member(x: RatFunc, a: RatFunc, b: RatFunc) -> bool:
    """Unit of T: valuation exactly 0 at every place of Delta."""
    d = _require_delta(a, b)
    if x.is_zero:
        return False
    return all(valuation(x, place) == 0 for place in d.places)


def parity_class_member(x: RatFunc, a: RatFunc, b: RatFunc) -> bool:
    """x in K^2 * T^x: even valuation at every place of Delta."""
    d = _require_delta(a, b)
    if x.is_zero:
        raise ValueError("parity class membership is undefined for zero")
    return all(valuation(x, place) % 2 == 0 for place in d.places)


def i_c_member(x: RatFunc, a: RatFunc, b: RatFunc, c: RatFunc) -> bool:
    """x in c*K^2*T^x intersect (1 - K^2*T^x), described by valuations:
    odd positive at Delta inside the odd support of c; v(x) and v(1-x)
    both even elsewhere on Delta (x = 1 fails the second clause)."""
    d = _require_delta(a, b)
    if x.is_zero or c.is_zero:
        raise ValueError("the scaled parity class needs nonzero x and c")
    odd_c = odd_support(c)
    one = RatFunc.one(x.field)
    for place in d.places:
        if place in odd_c:
            v = valuation(x, place)
            if v <= 0 or v % 2 == 0:
                return False
        else:
            if valuation(x, place) % 2:
                return False
            if x == one:  # 1 - x = 0 has no valuation; treated as failure
                return False
            if valuation(one - x, place) % 2:
                return False
    return True


def jacobson_member(x: RatFunc, a: RatFunc, b: RatFunc) -> bool:
    """x in the Jacobson radical of T: 0, or valuation >= 1 across Delta."""
    d = _require_delta(a, b)
    return all(val_at_least(x, place, 1) for place in d.places)


def r_tilde_member(x: RatFunc, a: RatFunc, b: RatFunc) -> bool:
    """x in the union of valuation rings over Delta: 0, or v >= 0 somewhere.

    Equivalent dual form: x = 0 or 1/x lies outside the Jacobson radical.
    """
    d = _require_delta(a, b)
    if x.is_zero:
        return True
    return any(valuation(x, place) >= 0 for place in d.places)


# --- the irreducible-trace sets U ---


@dataclass(frozen=True)
class USet:
    """Residue-field elements eps with x^2 - eps*x + 1 irreducible."""

    field: Field
    members: tuple[int, ...]  # element codes, ascending
    sumset_covers: bool

    def __len__(self) -> int:
        return len(self.members)


def _in_u_code(field: Field, s: int) -> bool:
    # U-membership of a field code: s^2 - 4 is a nonzero nonsquare
    disc = field.sub(field.mul(s, s), field.elem(4).code)
    return disc != 0 and not field.is_square_code(disc)


def u_set(field: Field) -> USet:
    """Enumerate U for the given (residue) field and test U + U coverage.

    eps belongs exactly when eps^2 - 4 is a nonzero nonsquare.
    """
    if field.q % 2 == 0:
        raise ValueError("irreducible-trace sets require odd characteristic")
    members = [s for s in range(field.q) if _in_u_code(field, s)]
    # each x + U adds about half the field, so stop as soon as it is covered
    sums: set[int] = set()
    for x in members:
        sums.update(field.add(x, y) for y in members)
        if len(sums) == field.q:
            break
    return USet(field, tuple(members), len(sums) == field.q)


def in_u_residue(r: Poly, prime: Poly) -> bool:
    """U-membership of a residue r in F_q[t]/(P), by the discriminant test:
    the power character of r^2 - 4 is -1 (a zero discriminant gives 0)."""
    disc = r * r - Poly.constant(r.field, 4)
    return power_character(disc, prime) == r.field.neg_one_code


# --- decomposition of T elements into S + S ---


def _crt_interpolate(targets: list[tuple[Poly, Poly]]) -> Poly:
    # targets: [(modulus P_i^1, residue r_i)] pairwise coprime moduli
    field = targets[0][0].field
    modulus = Poly.one(field)
    for m, _ in targets:
        modulus = modulus * m
    acc = Poly.zero(field)
    for m, r in targets:
        rest = modulus // m
        acc = acc + r * rest * invmod(rest % m, m)
    return acc % modulus


def _targeted_candidate(x: RatFunc, places: list[Place], rng: Random) -> RatFunc | None:
    """Build beta with red_v(beta) in U_v and red_v(x - beta) in U_v for all
    ramified places, prescribing residues by interpolation.

    Residue targets exist whenever U + U covers the residue field.  Finite
    targets are met by Chinese remaindering; the target at infinity becomes
    the constant term of beta = u_inf + N/E for a denominator E coprime to
    the finite places.
    """
    field = x.field
    finite = [pl for pl in places if not pl.is_infinite]
    has_inf = any(pl.is_infinite for pl in places)

    def pick_u_pair(place: Place) -> Poly | int | None:
        # find u with u in U and red(x) - u in U at the place
        if place.is_infinite:
            r = residue_inf(x).code
            for u in range(field.q):
                if _in_u_code(field, u) and _in_u_code(field, field.sub(r, u)):
                    return u
            return None
        prime = place.prime
        rx = residue(x, place)
        d = len(prime.coeffs) - 1
        if field.q ** d <= SIEVE_CAP:
            cands = enumerate_residues(field, d)
        else:
            cands = (
                Poly(field, [rng.randrange(field.q) for _ in range(d)]) for _ in range(SIEVE_CAP)
            )
        for u in cands:
            if in_u_residue(u, prime) and in_u_residue((rx - u) % prime, prime):
                return u
        return None

    finite_targets = []
    for pl in finite:
        u = pick_u_pair(pl)
        if u is None:
            return None
        finite_targets.append((pl.prime, u))
    u_inf = 0
    if has_inf:
        u_inf = pick_u_pair(Place.infinite(field))
        if u_inf is None:
            return None

    if not finite:
        return RatFunc.constant(field, u_inf)
    if not has_inf:
        return RatFunc.from_poly(_crt_interpolate(finite_targets))

    # beta = u_inf + N/E: E monic coprime to the finite places, deg N < deg E,
    # so red_inf(beta) = u_inf and red_{P_i}(beta) = u_inf + (u_i - u_inf).
    big_deg = sum(len(p.coeffs) - 1 for p, _ in finite_targets)
    linear_primes = {p.coeffs for p, _ in finite_targets if len(p.coeffs) == 2}
    base = next(
        Poly(field, (c, 1), trusted=True) for c in range(field.q)
        if (c, 1) not in linear_primes
    )
    e_poly = base ** big_deg
    u_inf_poly = Poly.constant(field, FieldElem(field, u_inf))
    targets = [(p, ((u - u_inf_poly) * e_poly) % p) for p, u in finite_targets]
    n_poly = _crt_interpolate(targets)
    return RatFunc.from_poly(u_inf_poly) + RatFunc(n_poly, e_poly)


def decompose_t_element(
    x: RatFunc,
    a: RatFunc,
    b: RatFunc,
    rng: Random | None = None,
) -> tuple[RatFunc, RatFunc] | None:
    """Write x in T as s1 + s2 with both parts in S, verified before return.

    Candidates: the unconditional traces +-2 first, then constants, then an
    interpolation targeting U-set residues at every ramified place.  None
    means the targeted construction found no residue pair (only possible
    above 4,096 residues, where the pairs are drawn at random), not a
    disproof.
    """
    field = x.field
    rng = rng if rng is not None else Random(0xD3C0)
    d = _require_delta(a, b)
    if not t_member(x, a, b):
        raise ValueError("decomposition input must lie in T")
    for place in d.sorted():
        if field.q ** place.residue_degree <= SUMSET_MIN_FIELD_SIZE:
            raise ValueError(
                "residue field too small for the sumset argument "
                f"(q^h = {field.q ** place.residue_degree} at {place})"
            )

    def verified(s1: RatFunc) -> tuple[RatFunc, RatFunc] | None:
        s2 = x - s1
        if s_global_member(s1, a, b) and s_global_member(s2, a, b):
            return (s1, s2)
        return None

    for shortcut in (RatFunc.constant(field, 2), RatFunc.constant(field, -2)):
        out = verified(shortcut)
        if out is not None:
            return out
    for code in range(field.q):
        out = verified(RatFunc.constant(field, FieldElem(field, code)))
        if out is not None:
            return out

    candidate = _targeted_candidate(x, d.sorted(), rng)
    return None if candidate is None else verified(candidate)
