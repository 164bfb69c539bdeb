"""The polynomial ring F_q[t]: arithmetic, gcd, irreducibility, factorization.

Polynomials are immutable coefficient tuples of field codes, constant term
first, with no trailing zeros; the zero polynomial is the empty tuple and
its degree is the absorbing sentinel NEG_INF (so degree bookkeeping in
valuation formulas can reject zero inputs explicitly instead of silently
producing -1).
"""

from __future__ import annotations

import itertools
import re
from array import array
from functools import lru_cache
from random import Random
from typing import Iterator, Sequence, Union

from .gf import Field, FieldElem, field_make

NEG_INF = float("-inf")

_FACTOR_SEED = 0x5EED_FACC


class Poly:
    """Univariate polynomial over a Field, canonical coefficient form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int] = (), *, trusted: bool = False):
        self.field = field
        if trusted:
            self.coeffs = tuple(coeffs)
            return
        if field.e == 1:
            cs = [c % field.p for c in coeffs]
        else:
            cs = list(coeffs)
            if any(not 0 <= c < field.q for c in cs):
                raise ValueError("extension-field coefficients must be element codes")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # --- constructors ---

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, (), trusted=True)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,), trusted=True)

    @classmethod
    def t(cls, field: Field) -> "Poly":
        return cls(field, (0, 1), trusted=True)

    @classmethod
    def constant(cls, field: Field, value: Union[int, FieldElem]) -> "Poly":
        code = field.elem(value).code
        return cls(field, (code,) if code else (), trusted=True)

    # --- basic queries ---

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead_code(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one_code

    def constant_code(self) -> int:
        """Coefficient of t^0."""
        return self.coeffs[0] if self.coeffs else 0

    # --- arithmetic ---

    def _check(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValueError("mixed field descriptors")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        fa = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(fa.add, a, b))
        out.extend(a[len(b):])
        while out and out[-1] == 0:
            out.pop()
        return Poly(fa, out, trusted=True)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, map(self.field.neg, self.coeffs), trusted=True)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        fa = self.field
        out = _mul_codes(self.coeffs, other.coeffs, fa)
        if fa.is_prime_field:
            p = fa.p
            out = [c % p for c in out]
        return Poly(fa, out, trusted=True)

    def scale(self, code: int) -> "Poly":
        fa = self.field
        if code == 0:
            return Poly.zero(fa)
        mul = fa.mul
        return Poly(fa, [mul(c, code) for c in self.coeffs], trusted=True)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        fa = self.field
        d = len(other.coeffs) - 1
        if len(self.coeffs) <= d:
            return Poly.zero(fa), self
        prod = list(self.coeffs)
        rem = _reduce_codes(prod, _reduction(other), fa)
        while rem and rem[-1] == 0:
            rem.pop()
        return Poly(fa, prod[d:], trusted=True), Poly(fa, rem, trusted=True)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.lead_code))

    def derivative(self) -> "Poly":
        fa = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            k = i % fa.p
            out.append(fa.mul(c, k) if k else 0)
        return Poly(fa, out)

    # --- identity / presentation ---

    def sort_key(self) -> tuple:
        return (len(self.coeffs), self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.e, self.coeffs))

    def __repr__(self) -> str:
        return format_poly(self)


# --- gcd / modular arithmetic ---


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0 and gcd(f, 0) = monic(f).  Euclid on code
    lists: each step keeps only the remainder of the _reduce_codes fold."""
    f._check(g)
    field = f.field
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        r = _reduce_codes(a, (b[:-1], field.inv(b[-1])), field)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    return Poly(field, a, trusted=True).monic()


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d, d the monic gcd."""
    f._check(g)
    field = f.field
    r0, r1 = f, g
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = field.inv(r0.lead_code)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def invmod(f: Poly, mod: Poly) -> Poly:
    d, u, _ = xgcd(f, mod)
    if d.degree != 0:  # xgcd output is monic, so invertible means d == 1
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return u % mod


def _mul_codes(x: Sequence[int], y: Sequence[int], field: Field) -> list[int]:
    """The schoolbook product of two code lists; in a prime field its
    entries are unreduced ints."""
    if not x or not y:
        return []
    prod = [0] * (len(x) + len(y) - 1)
    ys = [(j, c) for j, c in enumerate(y) if c]
    if field.is_prime_field:
        for i, c in enumerate(x):
            if c:
                for j, b in ys:
                    prod[i + j] += c * b
    else:
        add, mul = field.add, field.mul
        for i, c in enumerate(x):
            if c:
                for j, b in ys:
                    prod[i + j] = add(prod[i + j], mul(c, b))
    return prod


def _reduction(mod: Poly) -> tuple[tuple[int, ...], int]:
    """(low, inv) for _reduce_codes: the coefficients of P below the
    leading one, and the inverse of the leading one."""
    return mod.coeffs[:-1], mod.field.inv(mod.lead_code)


def _reduce_codes(prod: list[int], red: tuple[Sequence[int], int], field: Field) -> list[int]:
    """Long division of prod by P from the top, with red = _reduction(P):
    returns the d = deg P remainder codes, and leaves the quotient digits in
    prod[d:].  In a prime field the entries of prod may be any ints, each
    reduced mod p once."""
    low, inv = red
    d = len(low)
    if field.is_prime_field:
        p = field.p
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k] * inv % p
            prod[k] = c
            if c:
                for i, b in enumerate(low, k - d):
                    prod[i] -= c * b
        return [c % p for c in prod[:d]]
    add, mul, neg = field.add, field.mul, field.neg
    for k in range(len(prod) - 1, d - 1, -1):
        c = mul(prod[k], inv)
        prod[k] = c
        if c:
            c = neg(c)
            for i, b in enumerate(low, k - d):
                prod[i] = add(prod[i], mul(c, b))
    return prod[:d]


def powmod(f: Poly, n: int, mod: Poly) -> Poly:
    if n < 0:
        return powmod(invmod(f, mod), -n, mod)
    f._check(mod)
    field = f.field
    d = len(mod.coeffs) - 1
    # the Frobenius walk hands in residues already reduced
    base = list(f.coeffs if len(f.coeffs) <= d else (f % mod).coeffs)
    if d <= 1:  # every residue is a constant
        code = field.pow_(base[0] if base else 0, n)
        return Poly(field, (code,) if code else (), trusted=True)
    red = _reduction(mod)
    result = [field.one_code]
    while n:
        if n & 1:
            result = _reduce_codes(_mul_codes(result, base, field), red, field)
        n >>= 1
        if n:
            base = _reduce_codes(_mul_codes(base, base, field), red, field)
    while result and result[-1] == 0:
        result.pop()
    return Poly(field, result, trusted=True)


def _require_root_order(field: Field, n: int) -> None:
    """ValueError unless n >= 2 divides q - 1: the n-th roots of unity of
    F_q, where n-th power characters take their values."""
    if n < 2:
        raise ValueError("symbol order n must be >= 2")
    if (field.q - 1) % n != 0:
        raise ValueError(f"n = {n} does not divide q - 1 = {field.q - 1}")


def _require_character_modulus(prime: Poly, n: int) -> None:
    """ValueError unless n >= 2 divides q - 1 and P is monic of positive
    degree: the arguments of an n-th power character mod P."""
    _require_root_order(prime.field, n)
    if not prime.is_monic or len(prime.coeffs) < 2:
        raise ValueError("the modulus must be monic of positive degree")


def power_character(r: Poly, prime: Poly, n: int = 2) -> int:
    """The code of r^((q^d - 1)/n) mod P for a monic irreducible P of
    degree d, or 0 when P divides r: the n-th power character of r.

    As (q^d - 1)/n = ((q^d - 1)/(q - 1)) ((q - 1)/n), it is read as
    N(r)^((q - 1)/n) from the norm N(r mod P) = Res(P, r), which one
    remainder sequence gives in O(d^2) field operations whatever q is.  A
    composite monic P gives the product over its factorization (a Jacobi
    symbol).  ValueError unless n >= 2 divides q - 1 and P is monic of
    positive degree.
    """
    field = r.field
    _require_character_modulus(prime, n)
    a = list(prime.coeffs)
    b = list(r.coeffs)
    if len(b) >= len(a):
        b = _reduce_codes(b, _reduction(prime), field)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        return 0
    # Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg C) Res(B, C) for
    # C = A mod B, down to Res(A, b) = b^deg A for a constant b
    norm = field.one_code
    while len(b) > 1:
        lead = b[-1]
        c = _reduce_codes(a, (b[:-1], field.inv(lead)), field)
        while c and c[-1] == 0:
            c.pop()
        if not c:
            return 0
        da, db = len(a) - 1, len(b) - 1
        norm = field.mul(norm, field.pow_(lead, da - len(c) + 1))
        if da * db % 2:
            norm = field.neg(norm)
        a, b = b, c
    da = len(a) - 1
    norm = field.mul(norm, field.pow_(b[0], da) if da > 1 else b[0])
    return field.pow_(norm, (field.q - 1) // n)


def poly_index(coeffs: Sequence[int], q: int, width: int) -> int:
    """Position of the residue with these coefficients in
    enumerate_residues(field, width): base q, constant term most significant.
    Coefficients from position width on are ignored."""
    idx = 0
    for i in range(width):
        idx = idx * q + (coeffs[i] if i < len(coeffs) else 0)
    return idx


@lru_cache(maxsize=None)
def _root_map(field: Field, d: int) -> tuple[Field, list[int], dict[tuple[int, ...], int]]:
    """(E, embed, roots) for the monic primes of degree d over F_q: E =
    F_{q^d}, embed[c] the code in E of the element of F_q with code c, and
    roots[P.coeffs] the code of one root of P in E.

    For e > 1, F_q = F_p(y) goes into E by y -> beta, the first root of the
    field's modulus in E.  The Frobenius orbits {a, a^q, ..., a^(q^(d-1))}
    of length d are the root sets of the primes of degree d, so each orbit
    gives its prime as the product of the t - a^(q^i), expanded in E and
    read back through the inverse of embed; a is the orbit's first code.
    """
    p, q = field.p, field.q
    big = field_make(p, field.e * d)
    add, mul, neg = big.add, big.mul, big.neg
    beta = 0  # a prime field's codes are all below p
    if field.e > 1:
        beta = next(b for b in range(big.q) if not _horner_codes(field.modulus, b, big))
    embed = [0]
    for code in range(1, q):  # c0 + c1 y + ... = c0 + beta (c1 + c2 y + ...)
        embed.append(add(code % p, mul(beta, embed[code // p])))
    pull = {v: c for c, v in enumerate(embed)}
    roots: dict[tuple[int, ...], int] = {}
    seen = bytearray(big.q)
    for a in range(big.q):
        if seen[a]:
            continue
        orbit, x = [a], big.pow_(a, q)
        while x != a:
            orbit.append(x)
            x = big.pow_(x, q)
        if len(orbit) == d:
            prod = [big.one_code]
            for x in orbit:  # prod (t - x): coefficient k of prod t, minus x times coefficient k
                m = neg(x)
                prod = [add(lo, mul(m, hi)) for lo, hi in zip([0] + prod, prod + [0])]
            roots[tuple(pull[c] for c in prod)] = a
        for x in orbit:
            seen[x] = 1
    return big, embed, roots


def _horner_codes(coeffs: Sequence[int], x: int, big: Field) -> int:
    # the value at x in big of a polynomial whose codes are codes of big
    value = 0
    for c in reversed(coeffs):
        value = big.add(big.mul(value, x), c)
    return value


def _horner_step(values: list[int], alpha: int, embed: list[int], big: Field) -> list[int]:
    """The values c + alpha v, for the constants c in code order and then
    the v in values: from the values at alpha of a block of polynomials s
    (in enumerate_residues or enumerate_monic order) the values of the
    block of the c + t s, in the same order one degree up."""
    mul, add = big.mul, big.add
    shifted = [mul(alpha, v) for v in values]
    return [add(c, s) for c in embed for s in shifted]


def _residue_values(prime: Poly) -> tuple[Field, list[int], int, list[int]]:
    """(E, embed, alpha, values): alpha is the root of P in E = F_{q^d} that
    _root_map gives, and values[i] = r(alpha) for the residue r of index i
    in enumerate_residues order, a bijection onto E.  ValueError for a P
    that is not irreducible."""
    d = len(prime.coeffs) - 1
    big, embed, roots = _root_map(prime.field, d)
    alpha = roots.get(prime.coeffs)
    if alpha is None:
        raise ValueError("the modulus is not irreducible: no element of F_{q^d} is its root")
    values = [0]
    for _ in range(d):
        values = _horner_step(values, alpha, embed, big)
    return big, embed, alpha, values


def character_table(prime: Poly, n: int = 2) -> list[int]:
    """power_character(r, prime, n) for every residue r mod P, in
    enumerate_residues order.

    For a root alpha of P in E = F_{q^d}, r mod P -> r(alpha) is an
    isomorphism F_q[t]/P -> E, so r^((q^d - 1)/n) mod P is the element
    r(alpha)^((q^d - 1)/n) of F_q, read back through the embedding.
    ValueError as for power_character, for a P that is not irreducible and
    for q^d above gf.MAX_Q.
    """
    _require_character_modulus(prime, n)
    big, embed, _, values = _residue_values(prime)
    pull = {v: c for c, v in enumerate(embed)}
    power = (big.q - 1) // n
    return [pull[big.pow_(v, power)] for v in values]


# --- irreducibility and factorization ---

# Largest q^deg f that factor and is_irreducible read off the field's sieve
# table; above it they run the Frobenius walk.  A table to degree k holds
# (q^(k+1) - 1)/(q - 1) < 2 q^k monics in two 4-byte arrays: at the cap at
# most 8,191 (F_2 to degree 12), 64 KiB, built in 0.08 s; F_13 to degree 3
# takes 0.005 s and F_5 to degree 5 0.013 s under Python 3.11 on a 2-vCPU
# Xeon host.  A lookup then takes 4-16 us where the walk takes 50-300 us.
# It also bounds definability's per-prime nonsquare tables: one byte per
# residue mod P, at most 4 KiB, read where q^deg P <= SIEVE_CAP.
SIEVE_CAP = 4096


def is_irreducible(f: Poly) -> bool:
    """Whether f is irreducible: read off the field's sieve table when
    q^deg f <= SIEVE_CAP, else Ben-Or's test.  Requires deg f >= 1."""
    if f.is_zero or f.is_constant:
        raise ValueError("irreducibility is defined for positive degree only")
    sieve = _covering_sieve(f)
    if sieve is None:
        return _walk_is_irreducible(f)
    h = sieve.index(f.monic())
    return sieve.least[h] == h


def _walk_is_irreducible(f: Poly) -> bool:
    # Ben-Or: the distinct-degree walk of monic f finds no factor of degree
    # <= deg f / 2 (f need not be squarefree)
    return next(_distinct_degree(f.monic()))[1] == len(f.coeffs) - 1


def _pth_root(f: Poly) -> Poly:
    # f = g(t^p); recover g.  Coefficient roots are the inverse Frobenius.
    field = f.field
    p = field.p
    root_exp = p ** (field.e - 1)
    out = [field.pow_(c, root_exp) for c in f.coeffs[::p]]
    return Poly(field, out)


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    # monic f, deg >= 1 -> [(squarefree monic, multiplicity)], char-p safe
    field = f.field
    out: list[tuple[Poly, int]] = []
    e = 1
    while not f.is_constant:
        df = f.derivative()
        if df.is_zero:
            f = _pth_root(f)
            e *= field.p
            continue
        g = gcd(f, df)
        if g.is_constant:  # f squarefree, the common case
            return out + [(f, e)]
        w = f // g
        i = 1
        while not w.is_constant:
            y = gcd(w, g)
            z = w // y
            if not z.is_constant:
                out.append((z, i * e))
            w = y
            g = g // y
            i += 1
        f = g
    return out


def _discriminant(f: Poly) -> int:
    # c1^2 - 4 c0 of a monic quadratic; 4 % p is the code of the constant 4
    field = f.field
    c0, c1 = f.coeffs[0], f.coeffs[1]
    return field.sub(field.mul(c1, c1), field.mul(4 % field.p, c0))


def _spreads(p: int, n: int) -> bool:
    # whether x -> x^p mod a modulus of degree n is cheaper by _pth_power,
    # (n - 1)(p - 1) fold rows, than by square-and-multiply, whose
    # bit_length(p) + popcount(p) - 2 products mod P take about 2n rows each;
    # always at p = 2
    return (n - 1) * (p - 1) <= 2 * n * (p.bit_length() + bin(p).count("1") - 2)


def _pth_power(h: Poly, mod: Poly) -> Poly:
    """h^p mod P for a residue h (deg h < deg P): the p-power map sends
    sum c_i t^i to sum c_i^p t^(ip), so it spreads the coefficients and
    folds once.  A constant h goes to its p-th power too."""
    field = h.field
    p, pow_ = field.p, field.pow_
    if not h.coeffs:
        return h
    spread = [0] * (p * (len(h.coeffs) - 1) + 1)
    spread[::p] = [pow_(c, p) for c in h.coeffs]
    if len(spread) >= len(mod.coeffs):
        spread = _reduce_codes(spread, _reduction(mod), field)
        while spread and spread[-1] == 0:
            spread.pop()
    return Poly(field, spread, trusted=True)


def _qth_power(h: Poly, mod: Poly) -> Poly:
    """h^q mod P for a residue h: e applications of _pth_power for small p
    (see _spreads), else powmod."""
    field = h.field
    if not _spreads(field.p, len(mod.coeffs) - 1):
        return powmod(h, field.q, mod)
    for _ in range(field.e):
        h = _pth_power(h, mod)
    return h


def _distinct_degree(f: Poly) -> Iterator[tuple[Poly, int]]:
    # squarefree monic f -> (product of degree-d irreducibles, d); lazy in d
    q = f.field.q
    if q % 2 and len(f.coeffs) == 3:
        # a quadratic over odd q splits into linears exactly when its
        # discriminant is a square; a repeated root (discriminant 0) reads
        # as degree 1 too, so Ben-Or still rejects a square of a linear
        yield f, 1 if f.field.is_square_code(_discriminant(f)) else 2
        return
    x = h = Poly.t(f.field)
    d = 1
    while len(f.coeffs) - 1 >= 2 * d:
        h = _qth_power(h, f)
        g = gcd(h - x, f)
        if g.degree != 0:
            yield g, d
            f = f // g
            h = h % f
        d += 1
    if not f.is_constant:
        yield f, len(f.coeffs) - 1


def _equal_degree_split(f: Poly, d: int, rng: Random | None = None) -> list[Poly]:
    # f a product of >= 1 distinct monic irreducibles of degree d; a None rng
    # is seeded with _FACTOR_SEED once Cantor-Zassenhaus must draw
    field = f.field
    n = len(f.coeffs) - 1
    if n == d:
        return [f]
    q = field.q
    if q % 2 and n == 2:
        # d = 1: t - r = t + (c1 + z)/2 for the roots r = (-c1 - z)/2, z = +-s
        # and s^2 = c1^2 - 4 c0
        s, half = field.sqrt_code(_discriminant(f)), field.inv(2)
        return [Poly(field, (field.mul(field.add(f.coeffs[1], z), half), 1), trusted=True)
                for z in (s, field.neg(s))]
    if rng is None:
        rng = Random(_FACTOR_SEED)
    while True:
        u = Poly(field, _random_codes(rng, q, n))
        if u.degree is NEG_INF or u.degree == 0:
            continue
        if _spreads(field.p, n):
            # u^((q^d - 1)/2) = N^((p - 1)/2) for N = u u^p ... u^(p^(ed - 1)),
            # and in characteristic 2 the trace u + u^2 + ... + u^(2^(ed - 1))
            g = acc = u
            for _ in range(field.e * d - 1):
                acc = _pth_power(acc, f)
                g = g * acc % f if q % 2 else g + acc
            if q % 2:
                g = powmod(g, (field.p - 1) // 2, f) - Poly.one(field)
        else:
            g = powmod(u, (q ** d - 1) // 2, f) - Poly.one(field)
        w = gcd(g, f)
        if 0 < len(w.coeffs) - 1 < n:
            return _equal_degree_split(w, d, rng) + _equal_degree_split(f // w, d, rng)


def factor(f: Poly) -> tuple[tuple[Poly, int], ...]:
    """The monic prime factorization of f: (P, multiplicity) pairs in
    Poly.sort_key order, so that f is f.lead_code times the product of the
    P^m.  The same form as places.divisor.

    Read off the field's sieve table when q^deg f <= SIEVE_CAP.  Above
    it, equal-degree splitting draws from a Random with the fixed seed
    _FACTOR_SEED (no global RNG state is touched); the sorted factor
    multiset is canonical, so the output would be the same for any seed.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    sieve = _covering_sieve(f)
    if sieve is None:
        return _walk_factor(f)
    return tuple((sieve.monic(h), mult) for h, mult in sieve.factor_indices(sieve.index(f.monic())))


def _walk_factor(f: Poly) -> tuple[tuple[Poly, int], ...]:
    # squarefree parts, the Frobenius walk, then equal-degree splitting
    factors = []
    for squarefree, mult in _squarefree_parts(f.monic()):
        for prod, d in _distinct_degree(squarefree):
            factors.extend((prime, mult) for prime in _equal_degree_split(prod, d))
    return tuple(sorted(factors, key=lambda pm: pm[0].sort_key()))


# --- enumeration and random sampling ---


def enumerate_monic(field: Field, k: int, *, unit_constant: bool = False) -> Iterator[Poly]:
    """All q^k monic polynomials of degree k, lexicographic in
    (c0, ..., c_{k-1}) with the constant term most significant; with
    unit_constant, those with c0 != 0 (k >= 1), the same order without the
    leading block of the q^(k-1) multiples of t."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    ranges = [range(field.q)] * k
    if unit_constant and k:
        ranges[0] = range(1, field.q)
    for tail in itertools.product(*ranges):
        yield Poly(field, tail + (1,), trusted=True)


def enumerate_residues(field: Field, k: int) -> Iterator[Poly]:
    """All q^k polynomials of degree < k, zero first, in the order of
    enumerate_monic: lexicographic in (c0, ..., c_{k-1}) with the constant
    term most significant."""
    for tail in itertools.product(range(field.q), repeat=k):
        cs = list(tail)
        while cs and cs[-1] == 0:
            cs.pop()
        yield Poly(field, cs, trusted=True)


class MonicSieve:
    """Eratosthenes over the monics of degree <= max_deg, grown on demand.

    The monic of degree k with coefficients c has index
    start(k) + poly_index(c, q, k), start(k) = (q^k - 1)/(q - 1): one block
    per degree, each in enumerate_monic order, so index 0 is the monic 1 and
    index order is Poly.sort_key order.  least[h] is the index of the first
    prime factor of monic h in index order, a least-degree one (h itself for
    a prime, 0 for the monic 1), and cofactor[h] the index of monic h /
    least[h].  Both are int arrays; monic(h) decodes an index on demand.
    """

    __slots__ = ("field", "max_deg", "least", "cofactor")

    def __init__(self, field: Field):
        self.field = field
        self.max_deg = 0
        self.least = array("i", [0])
        self.cofactor = array("i", [0])

    def start(self, k: int) -> int:
        """The index of the first monic of degree k."""
        q = self.field.q
        return (q ** k - 1) // (q - 1)

    def index(self, f: Poly) -> int:
        """The index of the monic f, deg f <= max_deg."""
        k = len(f.coeffs) - 1
        return self.start(k) + poly_index(f.coeffs, self.field.q, k)

    def monic(self, h: int) -> Poly:
        """The monic of index h."""
        k = 0
        while self.start(k + 1) <= h:
            k += 1
        digits, q = h - self.start(k), self.field.q
        coeffs = [0] * k + [self.field.one_code]
        for i in range(k - 1, -1, -1):
            digits, coeffs[i] = divmod(digits, q)
        return Poly(self.field, coeffs, trusted=True)

    def grow(self, max_deg: int) -> None:
        """Rebuild the table to degree max_deg; no-op when it reaches that.

        Primes in index order mark P g for deg g >= deg P only: the cofactor
        of a composite by its least-degree prime factor has no prime factor
        of lower degree.  Each degree block is at most 1/q of the next, so
        growing a degree at a time costs at most q/(q-1) times one build.
        """
        if max_deg <= self.max_deg:
            return
        field, q = self.field, self.field.q
        start = [self.start(k) for k in range(max_deg + 2)]
        least = array("i", [0]) * start[max_deg + 1]
        cofactor = array("i", [0]) * start[max_deg + 1]
        prime_field, p = field.is_prime_field, field.p
        half = start[max_deg // 2 + 1]  # a prime of higher degree marks nothing
        for h in range(1, start[max_deg + 1]):
            if not least[h]:  # a prime
                least[h] = h
            if least[h] != h or h >= half:
                continue
            prime = self.monic(h).coeffs
            k = len(prime) - 1
            for j in range(k, max_deg - k + 1):
                base, g = start[k + j], start[j]
                for tail in itertools.product(range(q), repeat=j):
                    m = 0
                    for c in _mul_codes(prime, tail + (1,), field)[:-1]:
                        m = m * q + (c % p if prime_field else c)
                    if not least[base + m]:
                        least[base + m] = h
                        cofactor[base + m] = g
                    g += 1
        self.least, self.cofactor, self.max_deg = least, cofactor, max_deg

    def factor_indices(self, h: int) -> tuple[tuple[int, int], ...]:
        """The monic prime factors of monic h as (index, multiplicity),
        read off the chain of cofactors in index order."""
        out: dict[int, int] = {}
        while h:
            prime = self.least[h]
            out[prime] = out.get(prime, 0) + 1
            h = self.cofactor[h]
        return tuple(out.items())


@lru_cache(maxsize=None)
def monic_sieve(field: Field) -> MonicSieve:
    """The field's one sieve table, empty until grown."""
    return MonicSieve(field)


def _covering_sieve(f: Poly) -> MonicSieve | None:
    # the field's table grown to deg f when q^deg f <= SIEVE_CAP
    k = len(f.coeffs) - 1
    if f.field.q ** k > SIEVE_CAP:
        return None
    sieve = monic_sieve(f.field)
    sieve.grow(k)
    return sieve


def monic_irreducibles(field: Field, k: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree k, enumeration order, from the
    field's sieve table."""
    if k < 1:
        return ()
    sieve = monic_sieve(field)
    sieve.grow(k)
    return tuple(sieve.monic(h) for h in range(sieve.start(k), sieve.start(k + 1))
                 if sieve.least[h] == h)


def _random_codes(rng: Random, n: int, count: int) -> list[int]:
    """count uniform integers in [0, n) by Random._randbelow's rejection loop
    on getrandbits: the values and end state of count range draws below n."""
    if n < 1:
        raise ValueError("empty range")  # every draw would be rejected
    getrandbits = rng.getrandbits
    k = n.bit_length()
    codes = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        codes.append(r)
    return codes


def _random_poly_codes(rng: Random, q: int, max_deg: int, *, nonzero: bool = False,
                       monic: bool = False, exact_deg: bool = False) -> list[int]:
    """random_poly's draw as a code list, [] for zero.  By _random_codes'
    rejection loop it draws the degree below max_deg + 1 (unless
    exact_deg), the lower coefficients below q and the leading code below
    q - 1, plus one (unless monic); then, unless exact_deg or monic, one
    rng.random() that makes the draw zero with mass 1 / (max_deg + 2)."""
    if max_deg < 0:
        raise ValueError("negative degree bound")  # the degree range would be empty
    getrandbits = rng.getrandbits
    k_deg, k_coef, k_lead = (max_deg + 1).bit_length(), q.bit_length(), (q - 1).bit_length()
    while True:
        deg = max_deg
        if not exact_deg:
            deg = getrandbits(k_deg)
            while deg > max_deg:
                deg = getrandbits(k_deg)
        codes = []
        for _ in range(deg):
            r = getrandbits(k_coef)
            while r >= q:
                r = getrandbits(k_coef)
            codes.append(r)
        if monic:
            codes.append(1)  # the code of 1 in every field
        else:
            r = getrandbits(k_lead)
            while r >= q - 1:
                r = getrandbits(k_lead)
            codes.append(1 + r)
        if exact_deg or monic or rng.random() >= 1.0 / (max_deg + 2):
            return codes
        if not nonzero:
            return []  # the zero polynomial's mass


def random_poly(
    field: Field,
    rng: Random,
    max_deg: int,
    *,
    nonzero: bool = False,
    monic: bool = False,
    exact_deg: bool = False,
) -> Poly:
    return Poly(field, _random_poly_codes(rng, field.q, max_deg, nonzero=nonzero, monic=monic,
                                          exact_deg=exact_deg), trusted=True)


def random_irreducible(field: Field, rng: Random, deg: int) -> Poly:
    if deg < 1:
        raise ValueError("irreducibles have positive degree")
    while True:
        f = random_poly(field, rng, deg, monic=True, exact_deg=True)
        if is_irreducible(f):
            return f


# --- text grammar ---
# terms "c", "c*t", "c*t^k", "t^k", "t" joined by "+"; coefficients in
# decimal, reduced mod p; extension-field coefficients "[c0,c1,...]".

# Largest exponent parse_poly accepts, checked before the coefficient list
# is allocated.  Factoring costs about deg^3 log q: at degree 32 a random
# monic factors in 0.10-0.27 s over F_{3^10}, and the slowest command,
# witness over F_{3^10}, takes 1.3-3.3 s (by prime and seed) under Python
# 3.11 on a shared 2-vCPU Xeon host; at degree 64 it took about 40 s with
# powmod in the walk, so a higher degree is an input error, not a workload.
MAX_PARSED_DEGREE = 32

_TERM_RE = re.compile(
    r"^(?:(?P<coef>-?\d+|\[[-\d,\s]*\])(?:\*(?P<tpart1>t(?:\^(?P<k1>\d+))?))?"
    r"|(?P<tpart2>t(?:\^(?P<k2>\d+))?))$"
)


def _parse_coef(field: Field, text: str) -> int:
    if text.startswith("["):
        inner = text[1:-1].strip()
        vec = [int(v) for v in inner.split(",")] if inner else []
        return field.elem(vec).code
    return field.elem(int(text)).code


def parse_poly(field: Field, text: str) -> Poly:
    """Parse polynomial text like "t^3+2*t+1" over the given field."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, int] = {}
    for term in cleaned.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed polynomial term: {term!r}")
        if m.group("coef") is not None:
            code = _parse_coef(field, m.group("coef"))
            if m.group("tpart1"):
                k = int(m.group("k1") or 1)
            else:
                k = 0
        else:
            code = field.one_code
            k = int(m.group("k2") or 1)
        if k > MAX_PARSED_DEGREE:
            raise ValueError(f"exponent {k} exceeds MAX_PARSED_DEGREE = {MAX_PARSED_DEGREE}")
        coeffs[k] = field.add(coeffs.get(k, 0), code)
    if not coeffs:
        return Poly.zero(field)
    out = [0] * (max(coeffs) + 1)
    for k, code in coeffs.items():
        out[k] = code
    return Poly(field, out)


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    field = f.field
    parts = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(field.element_repr(c))
        elif c == field.one_code:
            parts.append("t" if k == 1 else f"t^{k}")
        else:
            parts.append(f"{field.element_repr(c)}*" + ("t" if k == 1 else f"t^{k}"))
    return "+".join(parts)
