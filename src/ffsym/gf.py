"""Exact arithmetic in finite fields F_p and F_{p^e}.

Elements are stored as integer codes in ``range(q)``.  For a prime field
the code is the residue itself; for an extension field F_{p^e} the code
packs the coefficient vector (c0, c1, ..., c_{e-1}) of the element in the
modulus basis as c0 + c1*p + ... + c_{e-1}*p^{e-1}.

Small fields (q <= _TABLE_LIMIT) precompute full add/mul/neg/inv tables so
that the polynomial layer can run tight loops over plain ints.  Larger
prime fields fall back to native modular arithmetic; larger extension
fields fall back to vector arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

_TABLE_LIMIT = 256


def is_prime(n: int) -> bool:
    """Deterministic primality check for word-sized n."""
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % d == 0:
            return n == d
    d = 37
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # Lexicographically smallest monic irreducible of degree e over F_p,
    # ordering coefficient tuples (c0, ..., c_{e-1}) constant term first.
    # Candidates with c0 = 0 are divisible by t, so they are skipped untested.
    # Imported here, not at the top, because polyring imports this module.
    from .polyring import enumerate_monic, is_irreducible

    return next(
        f.coeffs for f in enumerate_monic(field_make(p), e) if f.coeffs[0] and is_irreducible(f)
    )


class Field:
    """Descriptor of F_{p^e} plus code-level arithmetic.

    Immutable after construction; safe to share across threads.  Use
    :func:`field_make` so equal (p, e) yield the identical object.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus: tuple[int, ...] | None = None if e == 1 else _smallest_irreducible(p, e)
        self.is_prime_field = e == 1
        self.one_code = 1
        self.neg_one_code = p - 1  # constant -1, in any representation
        self._build_tables()

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        if q > _TABLE_LIMIT:
            self._mul_table = self._add_table = None
            self._neg_table = self._inv_table = None
            return
        if e == 1:
            self._add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul_table = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._neg_table = [(-a) % p for a in range(p)]
            self._inv_table = [0] + [pow(a, p - 2, p) for a in range(1, p)]
            return
        vecs = [self._decode(c) for c in range(q)]
        self._add_table = [
            [self._encode([(x + y) % p for x, y in zip(va, vb)]) for vb in vecs] for va in vecs
        ]
        self._neg_table = [self._encode([(-x) % p for x in va]) for va in vecs]
        self._mul_table = [[self._mul_vec(va, vb) for vb in vecs] for va in vecs]
        self._inv_table = [0] * q
        for a in range(1, q):
            self._inv_table[a] = self.pow_(a, q - 2)

    # --- code <-> coefficient vector ---

    def _decode(self, code: int) -> list[int]:
        p = self.p
        vec = []
        for _ in range(self.e):
            vec.append(code % p)
            code //= p
        return vec

    def _encode(self, vec: Sequence[int]) -> int:
        code = 0
        for c in reversed(list(vec)):
            code = code * self.p + c
        return code

    def _mul_vec(self, va: Sequence[int], vb: Sequence[int]) -> int:
        # code of the product of two coefficient vectors, reduced by the
        # monic modulus: y^e = -(m_0 + m_1 y + ... + m_{e-1} y^{e-1})
        p, e, mod = self.p, self.e, self.modulus
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(e):
                    prod[k - e + i] -= c * mod[i]
        return self._encode([c % p for c in prod[:e]])

    # --- code-level arithmetic ---

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        if self.is_prime_field:
            return (a + b) % self.p
        p = self.p
        return self._encode([(x + y) % p for x, y in zip(self._decode(a), self._decode(b))])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        if self.is_prime_field:
            return (-a) % self.p
        p = self.p
        return self._encode([(-x) % p for x in self._decode(a)])

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if self.is_prime_field:
            return (a * b) % self.p
        return self._mul_vec(self._decode(a), self._decode(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.is_prime_field:
            return pow(a, self.p - 2, self.p)
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if self.is_prime_field:
            return pow(a, n, self.p)
        result = self.one_code
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def is_square_code(self, a: int) -> bool:
        if a == 0:
            return True
        if self.q % 2 == 0:
            raise ValueError("square test by exponent requires odd q")
        return self.pow_(a, (self.q - 1) // 2) == self.one_code

    def sqrt_code(self, a: int) -> int | None:
        """A square root of a, or None.  Not part of the symbol contracts."""
        if a == 0:
            return 0
        if self.q % 2 == 0:
            return self.pow_(a, self.q // 2)
        if not self.is_square_code(a):
            return None
        if self.q % 4 == 3:
            return self.pow_(a, (self.q + 1) // 4)
        for r in range(self.q):  # bounded enumeration, desk-scale fields only
            if self.mul(r, r) == a:
                return r
        return None

    # --- construction / presentation ---

    def elem(self, value: Union[int, "FieldElem", Sequence[int]]) -> "FieldElem":
        if isinstance(value, FieldElem):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            # ints denote prime-subfield constants in extension fields
            return FieldElem(self, value % self.p)
        vec = [int(v) % self.p for v in value]
        if len(vec) > self.e:
            raise ValueError("coefficient vector longer than extension degree")
        vec += [0] * (self.e - len(vec))
        return FieldElem(self, self._encode(vec))

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    @property
    def neg_one(self) -> "FieldElem":
        return FieldElem(self, self.neg_one_code)

    def element_repr(self, code: int) -> str:
        if self.is_prime_field:
            return str(code)
        return "[" + ",".join(str(c) for c in self._decode(code)) + "]"

    @property
    def spec(self) -> str:
        return str(self.p) if self.e == 1 else f"{self.p}^{self.e}"

    def __repr__(self) -> str:
        return f"Field(GF({self.spec}))"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))


@lru_cache(maxsize=None)
def _field_make_cached(p: int, e: int) -> Field:
    return Field(p, e)


def field_make(p: int, e: int = 1) -> Field:
    """Deterministic F_{p^e} constructor; repeated calls share one object."""
    return _field_make_cached(p, e)


def parse_field_spec(spec: str) -> Field:
    """Parse "p" or "p^e" into a field."""
    text = spec.strip()
    if "^" in text:
        p_str, e_str = text.split("^", 1)
        return field_make(int(p_str), int(e_str))
    return field_make(int(text), 1)


class FieldElem:
    """An element of a :class:`Field`, stored as an integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    @property
    def rep(self) -> tuple[int, ...]:
        """Coefficient vector over [0, p), length e."""
        return tuple(self.field._decode(self.code))

    def _coerce(self, other: Union["FieldElem", int]) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed field descriptors")
            return other
        return self.field.elem(other)

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElem(self.field, self.field.add(self.code, other.code))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElem(self.field, self.field.sub(self.code, other.code))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElem(self.field, self.field.mul(self.code, other.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElem(self.field, self.field.div(self.code, other.code))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.code))

    def __pow__(self, n: int):
        return FieldElem(self.field, self.field.pow_(self.code, n))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field.inv(self.code))

    def is_square(self) -> bool:
        """True iff the element is 0 or a square; rejects even q otherwise."""
        return self.field.is_square_code(self.code)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.code == self.field.elem(other).code
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.e, self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        return self.field.element_repr(self.code)


def smallest_nonsquare(field: Field) -> FieldElem:
    """The first nonsquare in code order; the default quadratic twist."""
    if field.q % 2 == 0:
        raise ValueError("even-order fields have no nonsquares")
    for code in range(1, field.q):
        if not field.is_square_code(code):
            return FieldElem(field, code)
    raise AssertionError("odd field without nonsquares")  # unreachable
