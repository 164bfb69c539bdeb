"""Exact arithmetic in finite fields F_p and F_{p^e}, for q = p^e <= MAX_Q.

Elements are stored as integer codes in ``range(q)``.  For a prime field
the code is the residue itself; for an extension field F_{p^e} the code
packs the coefficient vector (c0, c1, ..., c_{e-1}) of the element in the
modulus basis as c0 + c1*p + ... + c_{e-1}*p^{e-1}.

Every field keeps O(q) tables of discrete logarithms to its smallest-code
primitive element g; extension fields add Zech logarithms log(1 + g^k), so
that sums need no coefficient vectors either.  Prime fields add, negate and
multiply natively mod p.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

# Largest supported field order; every field holds log tables of O(q) ints.
MAX_Q = 2 ** 16


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Deterministic primality check for word-sized n."""
    return n >= 2 and prime_divisors(n) == [n]


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # Lexicographically smallest monic irreducible of degree e over F_p,
    # ordering coefficient tuples (c0, ..., c_{e-1}) constant term first.
    # Candidates with c0 = 0 are divisible by t, so they are not enumerated;
    # the few others take the Frobenius walk, so that making a field builds
    # no sieve table.  Imported here, not at the top, because polyring
    # imports this module.
    from .polyring import _walk_is_irreducible, enumerate_monic

    return next(
        f.coeffs for f in enumerate_monic(field_make(p), e, unit_constant=True)
        if _walk_is_irreducible(f)
    )


class Field:
    """Descriptor of F_{p^e} plus code-level arithmetic.

    Immutable after construction; safe to share across threads.  Use
    :func:`field_make` so equal (p, e) yield the identical object.
    """

    def __init__(self, p: int, e: int = 1):
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        # checked before p ** e and is_prime(p), which a huge p or e would stall;
        # p >= 2 in any field, so 2^e <= MAX_Q bounds e before the power is taken
        if p > MAX_Q or e > MAX_Q.bit_length() or p ** e > MAX_Q:
            raise ValueError(f"q = {p}^{e} exceeds the field-size limit MAX_Q = 2^16 = {MAX_Q}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus: tuple[int, ...] | None = None if e == 1 else _smallest_irreducible(p, e)
        self.is_prime_field = e == 1
        self.one_code = 1
        self.neg_one_code = p - 1  # constant -1, in any representation
        if e == 1:  # native mod-p arithmetic in place of the table methods below
            self.add = lambda a, b: (a + b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
        self._build_tables()

    def _build_tables(self) -> None:
        # _exp[k] = g^k for 0 <= k < 2(q-1): doubled, so a sum of two logs
        # indexes it directly.  _log[0] = -1 stands for the log of zero.
        p, q, n = self.p, self.q, self.q - 1
        primes = prime_divisors(n)
        g = next(c for c in range(1, q) if all(self._pow_slow(c, n // r) != 1 for r in primes))
        exp = [1]
        if self.is_prime_field:
            for _ in range(n - 1):
                exp.append(exp[-1] * g % p)
        else:
            exp.extend(self._powers(g, n - 1))
        self._exp = exp + exp
        self._log = [-1] * q
        for k, code in enumerate(exp):
            self._log[code] = k
        self._log_neg_one = self._log[self.neg_one_code]
        # _zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0; adding 1 bumps
        # only the digit c0, so each entry costs O(1)
        self._zech = None if self.is_prime_field else [
            self._log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp
        ]

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

    # --- reference arithmetic: builds the tables, and tests check them against it ---

    def _mul_slow(self, a: int, b: int) -> int:
        # schoolbook product of the coefficient vectors, reduced by the monic
        # modulus: y^e = -(m_0 + m_1 y + ... + m_{e-1} y^{e-1})
        p, e, mod = self.p, self.e, self.modulus
        prod = [0] * (2 * e - 1)
        vb = [(j, y) for j, y in enumerate(self._decode(b)) if y]
        for i, x in enumerate(self._decode(a)):
            if x:
                for j, y in vb:
                    prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(e):
                    prod[k - e + i] -= c * mod[i]
        return self._encode([c % p for c in prod[:e]])

    def _powers(self, g: int, count: int) -> list[int]:
        # the codes of g, g^2, ..., g^count in an extension field.  A code
        # splits into halves x = lo + p^h hi of h = ceil(e/2) digits, and
        # g x = g lo + (g y^h) hi: each term is read from a table of at most
        # p^h products (by _mul_slow, kept as (hi, lo) halves), and the
        # digit-wise sum of two halves from a table of p^(2h) sums, so a step
        # costs four lookups
        p, e = self.p, self.e
        h = (e + 1) // 2
        ph = p ** h
        add = [0]  # add[a * p^k + b]: digit-wise sum of two k-digit codes
        for k in range(h):
            m, pm = p ** k, p ** (k + 1)
            add = [(a + b) % p + p * add[a // p * m + b // p]
                   for a in range(pm) for b in range(pm)]
        gy = self._mul_slow(g, ph)  # ph is the code of y^h, as h < e
        low = [divmod(self._mul_slow(g, c), ph) for c in range(ph)]
        high = [divmod(self._mul_slow(gy, c), ph) for c in range(p ** (e - h))]
        out = []
        lo, hi = 1, 0
        for _ in range(count):
            a_hi, a_lo = low[lo]
            b_hi, b_lo = high[hi]
            lo = add[a_lo * ph + b_lo]
            hi = add[a_hi * ph + b_hi]
            out.append(lo + hi * ph)
        return out

    def _pow_slow(self, a: int, n: int) -> int:
        result = self.one_code
        while n:
            if n & 1:
                result = self._mul_slow(result, a)
            a = self._mul_slow(a, a)
            n >>= 1
        return result

    # --- code-level arithmetic (a prime field's add, neg and mul: see __init__) ---

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la = self._log[a]
        # g^la + g^lb = g^la (1 + g^(lb - la)); a negative difference
        # indexes _zech from the end, which is the same class mod q - 1
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_neg_one] if a else 0

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 0 if n else self.one_code
        return self._exp[self._log[a] * n % (self.q - 1)]

    def is_square_code(self, a: int) -> bool:
        if a == 0:
            return True
        if self.q % 2 == 0:
            raise ValueError("square test by log parity requires odd q")
        return self._log[a] % 2 == 0

    def sqrt_code(self, a: int) -> int:
        """The square root g^(k/2) of a square a = g^k in odd q (0 for 0);
        ValueError for a nonsquare."""
        if not self.is_square_code(a):
            raise ValueError("square root of a nonsquare")
        return self._exp[self._log[a] // 2] if a else 0

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
        # field_make hands out one object per field, so identity settles
        # nearly every comparison; a directly built Field(p, e) still equals it
        return self is other or (isinstance(other, Field)
                                 and self.p == other.p and self.e == other.e)

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
    """A read-only element of a :class:`Field` (symbol values, residues and
    epsilon) stored as an integer code.  Arithmetic runs on codes through
    the Field methods: field.div(a.code, b.code)."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    @property
    def is_zero(self) -> bool:
        return self.code == 0

    @property
    def sign(self) -> int:
        """The element as 0, 1 or -1 (1 first, so characteristic 2 reads 1);
        ValueError for any other value, which is not quadratic."""
        if self.code == 0:
            return 0
        if self.code == self.field.one_code:
            return 1
        if self.code == self.field.neg_one_code:
            return -1
        raise ValueError("value is not quadratic")

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
