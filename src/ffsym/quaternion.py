"""Ramification sets of quaternion algebras H_{a,b} over F_q(t) and the
valuation-theoretic membership predicates built on them.

Delta(a, b) is the finite even-sized set of places where H_{a,b} is
ramified, i.e. where the quadratic local symbol (a, b)_v is -1; it is
contained in the odd-valuation support of the pair.  The Hilbert product
formula says that |Delta| is even; hilbert_product is the sign vector of
the one cached Delta over the joint support.  The trace set S, the set T
(S + S when U + U covers the residue fields), the unit group of T, the
even-valuation classes, the Jacobson radical and the union-of-valuation-
rings set R~ all reduce to valuation conditions over Delta(a, b).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .gf import Field
from .places import (
    Place,
    RatFunc,
    divisor,
    is_square_local,
    odd_support,
    residue,
    residue_inf,
    sorted_places,
    support,
    unit_character,
    val_at_least,
    valuation,
)
from .polyring import Poly, enumerate_residues, invmod, power_character


class EmptyRamificationError(ValueError):
    """Raised by predicates that intersect over an empty Delta(a, b)."""


class RamificationSet(NamedTuple):
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

    # len() counts places, not fields, so namedtuple's _make and _replace fail
    def __len__(self) -> int:
        return len(self.places)

    def __repr__(self) -> str:
        inside = ", ".join(str(p) for p in self.sorted())
        return f"Delta({self.a}, {self.b}) = {{{inside}}}"


def _ramified_at(a: RatFunc, b: RatFunc, place: Place, m: int, k: int) -> bool:
    # (a, b)_v = -1 for m = v(a), k = v(b): the tame symbol
    # chi(-1)^{mk} chi(u_a)^k chi(u_b)^m, taking only the characters that an
    # odd exponent needs; chi(-1) = -1 exactly when q^h = 3 mod 4
    field = a.field
    code = unit_character(a, place) if k % 2 else field.one_code
    if m % 2:
        code = field.mul(code, unit_character(b, place))
        if k % 2 and pow(field.q, place.residue_degree, 4) == 3:
            code = field.neg(code)
    return code == field.neg_one_code


@lru_cache(maxsize=8192)
def _delta_cached(a: RatFunc, b: RatFunc) -> RamificationSet:
    div_a, div_b = dict(divisor(a)), dict(divisor(b))
    ramified = []
    for place in odd_support(a) | odd_support(b):
        if place.is_infinite:
            m, k = valuation(a, place), valuation(b, place)
        else:
            m, k = div_a.get(place.prime, 0), div_b.get(place.prime, 0)
        if _ramified_at(a, b, place, m, k):
            ramified.append(place)
    return RamificationSet(a, b, frozenset(ramified))


def _check_pair(a: RatFunc, b: RatFunc) -> None:
    if a.is_zero or b.is_zero:
        raise ValueError("ramification set needs nonzero arguments")
    if a.field.q % 2 == 0:
        raise ValueError("quaternion ramification requires odd q")


def delta(a: RatFunc, b: RatFunc) -> RamificationSet:
    """Ramified places of H_{a,b}; candidates are the joint odd support.

    Each candidate's tame symbol is read from the divisors that odd_support
    has cached (places.unit_character), dividing nothing; local_symbol,
    which strips P from num*den, stays its independent oracle."""
    _check_pair(a, b)
    return _delta_cached(a, b)


class HilbertResult(NamedTuple):
    per_place: tuple[tuple[Place, int], ...]  # canonical place order, signs
    product: int

    @property
    def passed(self) -> bool:
        return self.product == 1

    def as_dict(self) -> dict:
        return {str(place): sign for place, sign in self.per_place}


def hilbert_product(alpha: RatFunc, beta: RatFunc) -> HilbertResult:
    """Local symbols over the joint support plus infinity, and their product.

    The sign is -1 exactly on Delta(alpha, beta), read from the cached
    delta: outside the joint odd support both valuations are even and the
    tame symbol chi(-1)^{mk} chi(u_alpha)^k chi(u_beta)^m is 1, so no
    symbol is evaluated here."""
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
    """x in T, the valuation set: integral at every place of Delta (0 included).
    T holds S + S, and equals it when U + U covers every residue field on Delta."""
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
    one = RatFunc.constant(x.field, 1)
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

    Decided at infinity first, when (a, b)_inf = -1, i.e. when inf is in
    Delta; that symbol needs only the degrees and leading coefficients, so
    no divisor is factored.  A nonzero x with v_inf(x) >= 0 then belongs.
    So does a nonzero polynomial x: |Delta| is even by the product formula,
    so inf in Delta forces a finite place of Delta, where v(x) >= 0.  Every
    other x is tested over the whole of Delta.  Equivalent dual form:
    x = 0 or 1/x lies outside the Jacobson radical.
    """
    _check_pair(a, b)
    inf = Place.infinite(a.field)
    if (not x.is_zero and (x.den.is_constant or valuation(x, inf) >= 0)
            and _ramified_at(a, b, inf, valuation(a, inf), valuation(b, inf))):
        return True
    d = _require_delta(a, b)
    if x.is_zero:
        return True
    return any(valuation(x, place) >= 0 for place in d.places)


# --- the irreducible-trace sets U ---


class USet(NamedTuple):
    """Residue-field elements eps with x^2 - eps*x + 1 irreducible."""

    field: Field
    members: tuple[int, ...]  # element codes, ascending
    sumset_covers: bool

    # len() counts members, not fields, so namedtuple's _make and _replace fail
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


def _crt_interpolate(field: Field, targets: list[tuple[Poly, Poly]]) -> tuple[Poly, Poly]:
    # (N, M) for targets [(P_i, r_i)] with pairwise coprime P_i: M = prod P_i,
    # N = r_i mod each P_i and deg N < deg M (N = 0, M = 1 for no targets)
    modulus = Poly.one(field)
    for m, _ in targets:
        modulus = modulus * m
    acc = Poly.zero(field)
    for m, r in targets:
        rest = modulus // m
        acc = acc + r * rest * invmod(rest % m, m)
    return acc % modulus, modulus


def _u_pair(rx: Poly, prime: Poly) -> Poly | None:
    # the first residue u mod P in enumerate_residues order with u and
    # rx - u both in U, or None when U + U misses rx
    residues = enumerate_residues(prime.field, len(prime.coeffs) - 1)
    return next((u for u in residues
                 if in_u_residue(u, prime) and in_u_residue((rx - u) % prime, prime)), None)


def decompose_t_element(x: RatFunc, a: RatFunc, b: RatFunc) -> tuple[RatFunc, RatFunc] | None:
    """Write x in T as s1 + s2 with both parts in S, verified before return.

    At each ramified place v, u_v is the first residue with u_v and
    red_v(x) - u_v both in U (the infinite place is read as F_q[t]/(t)).
    Then s1 = u_inf + N/(M + 1), where M is the product of the finite
    places of Delta and N = u_v - u_inf mod each of them: M + 1 = 1 at
    every such place and deg N < deg(M + 1), so red_v(s1) = u_v on all of
    Delta.  None means exactly that U + U misses red_v(x) at some ramified
    place, so it never occurs when U + U covers every residue field on
    Delta; any residue field size is accepted.  The result depends on
    (x, a, b) alone.
    """
    field = x.field
    d = _require_delta(a, b)
    if not t_member(x, a, b):
        raise ValueError("decomposition input must lie in T")

    u_inf = Poly.zero(field)
    finite = []
    for place in d.sorted():
        if place.is_infinite:
            u_inf = _u_pair(Poly.constant(field, residue_inf(x)), Poly.t(field))
            if u_inf is None:
                return None
        else:
            u = _u_pair(residue(x, place), place.prime)
            if u is None:
                return None
            finite.append((place.prime, u))
    n_poly, m_poly = _crt_interpolate(field, [(p, u - u_inf) for p, u in finite])
    e_poly = m_poly + Poly.one(field)
    s1 = RatFunc(u_inf * e_poly + n_poly, e_poly)
    s2 = x - s1
    if s_global_member(s1, a, b) and s_global_member(s2, a, b):
        return (s1, s2)
    return None
