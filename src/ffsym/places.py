"""Places of K = F_q(t): valuations, residue maps, local square tests.

A place is a monic irreducible polynomial P (uniformizer P) or the
distinguished infinite place with uniformizer 1/t and valuation
v_inf = deg(den) - deg(num).  divisor(x) is the one factored form of x:
its finite primes with their valuations, computed once per x and cached.
support, odd_support and unit_character read it; valuation at one place
strips that prime alone, which costs less than factoring a fraction seen
once.  Completions
are never materialized: every local question used downstream reduces to a
valuation parity plus a square test in the residue field.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random
from typing import Iterable, Sequence, Union

from .gf import Field, FieldElem
from .polyring import Poly, factor, format_poly, gcd, invmod, is_irreducible, parse_poly, power_character, random_poly


class Place:
    """A finite place (monic irreducible P) or the infinite place."""

    __slots__ = ("field", "prime")

    def __init__(self, field: Field, prime: Poly | None):
        self.field = field
        self.prime = prime  # None encodes the infinite place

    @classmethod
    def finite(cls, prime: Poly) -> "Place":
        if not prime.is_monic or prime.is_constant:
            raise ValueError("finite places are monic of positive degree")
        if not is_irreducible(prime):
            raise ValueError("finite places must be irreducible")
        return cls(prime.field, prime)

    @classmethod
    def infinite(cls, field: Field) -> "Place":
        return cls(field, None)

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    @property
    def residue_degree(self) -> int:
        """h = deg P at finite places, 1 at infinity."""
        return 1 if self.prime is None else len(self.prime.coeffs) - 1

    def sort_key(self) -> tuple:
        if self.prime is None:
            return (1, ())
        return (0, self.prime.sort_key())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Place)
            and self.field == other.field
            and self.prime == other.prime
        )

    def __hash__(self) -> int:
        # () for infinity: hash(None) varies between processes before Python 3.12
        return hash((self.field.p, self.field.e, self.prime.coeffs if self.prime else ()))

    def __repr__(self) -> str:
        return "inf" if self.prime is None else format_poly(self.prime)


def parse_place(field: Field, text: str) -> Place:
    text = text.strip()
    if text == "inf":
        return Place.infinite(field)
    return Place.finite(parse_poly(field, text))


class RatFunc:
    """Reduced fraction num/den with monic denominator; zero is 0/1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, trusted: bool = False):
        field = num.field
        if den is None:
            den = Poly.one(field)
        if trusted:
            self.field, self.num, self.den = field, num, den
            return
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.field, self.num, self.den = field, Poly.zero(field), Poly.one(field)
            return
        g = gcd(num, den)
        if g.degree != 0:
            num, den = num // g, den // g
        if not den.is_monic:
            c = field.inv(den.lead_code)
            num, den = num.scale(c), den.scale(c)
        self.field, self.num, self.den = field, num, den

    # --- constructors ---

    @classmethod
    def constant(cls, field: Field, value: Union[int, FieldElem]) -> "RatFunc":
        return cls(Poly.constant(field, value), Poly.one(field), trusted=True)

    @classmethod
    def from_poly(cls, f: Poly) -> "RatFunc":
        return cls(f, Poly.one(f.field), trusted=True)

    # --- queries ---

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def lead_ratio_code(self) -> int:
        """Leading coefficient of num over leading coefficient of den."""
        if self.is_zero:
            raise ValueError("zero has no leading-coefficient ratio")
        return self.field.div(self.num.lead_code, self.den.lead_code)

    # --- arithmetic ---

    def _check(self, other: "RatFunc") -> None:
        if self.field != other.field:
            raise ValueError("mixed field descriptors")

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.e, self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        if self.den.coeffs == (self.field.one_code,):
            return format_poly(self.num)
        return f"{format_poly(self.num)}/{format_poly(self.den)}"


def parse_ratfunc(field: Field, text: str) -> RatFunc:
    """Parse "num/den" (or "num" alone) in the polynomial grammar."""
    if "/" in text:
        num_text, den_text = text.split("/", 1)
        return RatFunc(parse_poly(field, num_text), parse_poly(field, den_text))
    return RatFunc(parse_poly(field, text))


# --- valuations and residues ---


def _strip_prime(f: Poly, prime: Poly) -> tuple[int, Poly]:
    # (m, f / P^m mod P) with P^m exactly dividing the nonzero f
    mult = 0
    while True:
        q, r = divmod(f, prime)
        if not r.is_zero:
            return mult, r
        f = q
        mult += 1


# 1024 divisors keep nearly all of the reuse across a membership query's
# delta calls (fractions recurring across witness pairs) for about 0.5 MB
@lru_cache(maxsize=1024)
def divisor(x: RatFunc) -> tuple[tuple[Poly, int], ...]:
    """The finite part of the divisor of x: (P, v_P(x)) for every monic
    prime P with v_P(x) != 0, in Place.sort_key order, so that x is
    lead_ratio_code() times the product of the P^v_P(x).

    The one factored form of x: numerator and denominator (coprime, as x
    is reduced) are factored once and the result is cached, so it is an
    immutable tuple shared by every caller.
    """
    if x.is_zero:
        raise ValueError("divisor of zero is undefined")
    pairs = []
    for f, sign in ((x.num, 1), (x.den, -1)):
        if not f.is_constant:
            pairs.extend((prime, sign * mult) for prime, mult in factor(f))
    return tuple(sorted(pairs, key=lambda pv: pv[0].sort_key()))


def valuation(x: RatFunc, place: Place) -> int:
    """v_P(x); at infinity deg(den) - deg(num).  Undefined for x = 0."""
    if x.is_zero:
        raise ValueError("valuation of zero is undefined")
    if place.is_infinite:
        return len(x.den.coeffs) - len(x.num.coeffs)
    p = place.prime
    return _strip_prime(x.num, p)[0] - _strip_prime(x.den, p)[0]


def val_at_least(x: RatFunc, place: Place, bound: int) -> bool:
    """Membership-style comparison treating 0 as having valuation +inf."""
    if x.is_zero:
        return True
    return valuation(x, place) >= bound


def square_class(x: RatFunc, place: Place) -> tuple[int, Poly | int]:
    """(w, r) with w of the parity of v(x) and chi_v(r) = chi_v(u_x) for
    the unit part u_x of x: its square class in the completion.

    x = num/den = num*den / den^2 has the square class of the polynomial
    num*den, so w and r are the valuation and the unit-part residue of
    num*den: a Poly mod P at finite places, the product of the leading
    coefficients at infinity.
    """
    if x.is_zero:
        raise ValueError("zero has no unit part")
    if place.is_infinite:
        return square_class_inf(x.field, x.num.coeffs, x.den.coeffs)
    return _strip_prime(x.num * x.den, place.prime)


def square_class_inf(field: Field, num: Sequence[int], den: Sequence[int]) -> tuple[int, int]:
    """square_class at infinity of num/den given as nonzero code lists,
    reduced or not: cancelling a common factor g moves w by 2 deg g and r
    by lead(g)^2, and making den monic scales r by a square, so neither
    changes the class."""
    return 2 - len(num) - len(den), field.mul(num[-1], den[-1])


def residue(x: RatFunc, place: Place) -> Poly:
    """red_P(x) as a polynomial of degree < deg P; needs v_P(x) >= 0."""
    if place.is_infinite:
        raise ValueError("use residue_inf at the infinite place")
    p = place.prime
    d = x.den % p  # x is reduced, so v_P(x) < 0 exactly when P | den
    if d.is_zero:
        raise ValueError("negative valuation: residue undefined")
    return (x.num * invmod(d, p)) % p


def residue_inf(x: RatFunc) -> FieldElem:
    """red_inf: 0 when v_inf > 0, leading-coefficient ratio when v_inf = 0."""
    if x.is_zero:
        return x.field.zero
    v = len(x.den.coeffs) - len(x.num.coeffs)
    if v < 0:
        raise ValueError("negative valuation at infinity: residue undefined")
    return x.field.zero if v else FieldElem(x.field, x.lead_ratio_code())


def residue_character(place: Place, r: Poly | int) -> int:
    """chi_v(r) for a unit-part residue r as square_class gives it, where
    chi_v is the quadratic character of the residue field (odd q): the code
    of 1 or -1, read from the norm of r (polyring.power_character)."""
    if place.is_infinite:
        return place.field.pow_(r, (place.field.q - 1) // 2)
    return power_character(r, place.prime)


def unit_character(x: RatFunc, place: Place) -> int:
    """chi_v(u_x) for the unit part u_x of the nonzero x: the code of 1 or
    -1 that residue_character(place, square_class(x, place)[1]) gives, read
    from the degrees at infinity and from divisor(x) at a finite P.

    Outside the support u_x = x, so it is chi_P(num) chi_P(den).  Inside,
    x = c prod_Q Q^{e_Q} with c = x.lead_ratio_code(), so it is chi_P(c)
    prod_{Q != P, e_Q odd} chi_P(Q), where chi_P(c) = c^{((q - 1)/2) deg P}.
    """
    if place.is_infinite:
        return residue_character(place, square_class_inf(x.field, x.num.coeffs, x.den.coeffs)[1])
    field, prime = x.field, place.prime
    div = divisor(x)
    if all(other != prime for other, _ in div):
        return field.mul(power_character(x.num, prime), power_character(x.den, prime))
    code = field.pow_(x.lead_ratio_code(), (field.q - 1) // 2 * place.residue_degree)
    for other, e in div:
        if e % 2 and other != prime:
            code = field.mul(code, power_character(other, prime))
    return code


def support(x: RatFunc) -> frozenset[Place]:
    """All places with nonzero valuation."""
    if x.is_zero:
        raise ValueError("support of zero is undefined")
    places = {Place(x.field, pr) for pr, _ in divisor(x)}
    if len(x.num.coeffs) != len(x.den.coeffs):
        places.add(Place.infinite(x.field))
    return frozenset(places)


def odd_support(x: RatFunc) -> frozenset[Place]:
    """Places where v_P(x) is odd, including infinity."""
    if x.is_zero:
        raise ValueError("odd support of zero is undefined")
    places = {Place(x.field, pr) for pr, v in divisor(x) if v % 2}
    if (len(x.den.coeffs) - len(x.num.coeffs)) % 2:
        places.add(Place.infinite(x.field))
    return frozenset(places)


def sorted_places(places: Iterable[Place]) -> list[Place]:
    return sorted(places, key=Place.sort_key)


def is_square_local(x: RatFunc, place: Place) -> bool:
    """True iff x is a square in the completion at the place (odd q only):
    even valuation and the unit-part residue a square in the residue field."""
    if x.is_zero:
        raise ValueError("local square test is undefined for zero")
    if x.field.q % 2 == 0:
        raise ValueError("local square test requires odd q")
    w, r = square_class(x, place)
    return w % 2 == 0 and residue_character(place, r) == x.field.one_code


def random_ratfunc(
    field: Field,
    rng: Random,
    max_deg: int,
    *,
    nonzero: bool = True,
) -> RatFunc:
    num = random_poly(field, rng, max_deg, nonzero=nonzero)
    den = random_poly(field, rng, max_deg, nonzero=True)
    return RatFunc(num, den)
