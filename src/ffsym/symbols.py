"""Power residue symbols, the general reciprocity law and local symbols at
every place of F_q(t); the product formula over all places is in quaternion.

The quadratic local symbol at a place v with residue degree h is

    (alpha, beta)_v = ((-1)^{v(alpha) v(beta)}
                        red_v(alpha^{v(beta)} / beta^{v(alpha)}))^{(q^h - 1)/2}

and equals -1 exactly when the quaternion algebra H_{alpha,beta} is
ramified at v.  It is evaluated in character form, from the valuations
and the unit-part residues alone (see local_symbol).  The n-th power
residue symbol (alpha/P)_n is the constant alpha^{(q^{deg P} - 1)/n} mod P,
extended multiplicatively over the monic prime factorization of the lower
argument (its leading coefficient is ignored by definition).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .gf import Field, FieldElem
from .places import Place, RatFunc, residue_character, square_class
from .polyring import (
    Poly,
    _horner_step,
    _require_root_order,
    _residue_values,
    character_table,
    gcd,
    monic_sieve,
    poly_index,
    power_character,
)


def residue_symbol(alpha: Poly, beta: Poly, n: int = 2) -> FieldElem:
    """The n-th power residue symbol (alpha/beta)_n: the product of
    (alpha/P)_n over the monic prime factorization of beta, read from one
    resultant as power_character(alpha, monic(beta), n), with no factoring.

    For a monic prime P it is zero when P | alpha, else the constant
    alpha^{(q^{deg P}-1)/n} mod P; P is not tested for irreducibility here
    (Place.finite tests it where text becomes a place).  The leading
    coefficient of beta is ignored, and a constant beta gives the empty
    product 1.  ValueError for a zero beta, or unless n >= 2 divides q - 1.
    """
    field = alpha.field
    _require_root_order(field, n)
    if beta.is_zero:
        raise ValueError("lower argument must be nonzero")
    if beta.is_constant:
        return field.one
    return FieldElem(field, power_character(alpha, beta.monic(), n))


def sign_n(f: Poly, n: int = 2) -> FieldElem:
    """(leading coefficient of f)^{(q-1)/n}; the reciprocity correction."""
    field = f.field
    _require_root_order(field, n)
    if f.is_zero:
        raise ValueError("sign of zero is undefined")
    return FieldElem(field, field.pow_(f.lead_code, (field.q - 1) // n))


class ReciprocityCheck(NamedTuple):
    lhs: FieldElem
    rhs: FieldElem

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def check_general_reciprocity(alpha: Poly, beta: Poly, n: int = 2) -> ReciprocityCheck:
    """Evaluate both sides of the reciprocity identity

        (alpha/beta)(beta/alpha)^{-1}
            = (-1)^{((q-1)/n) deg(alpha) deg(beta)}
              sign_n(alpha)^{deg(beta)} sign_n(beta)^{-deg(alpha)}

    for coprime nonzero alpha, beta.
    """
    field = alpha.field
    _require_root_order(field, n)
    if alpha.is_zero or beta.is_zero:
        raise ValueError("reciprocity needs nonzero arguments")
    if gcd(alpha, beta).degree != 0:
        raise ValueError("reciprocity needs coprime arguments")
    lhs_code = field.div(residue_symbol(alpha, beta, n).code, residue_symbol(beta, alpha, n).code)
    da = len(alpha.coeffs) - 1
    db = len(beta.coeffs) - 1
    rhs_code = field.one_code
    if (((field.q - 1) // n) * da * db) % 2:
        rhs_code = field.neg_one_code
    rhs_code = field.mul(rhs_code, field.pow_(sign_n(alpha, n).code, db))
    rhs_code = field.mul(rhs_code, field.inv(field.pow_(sign_n(beta, n).code, da)))
    return ReciprocityCheck(FieldElem(field, lhs_code), FieldElem(field, rhs_code))


def local_symbol(alpha: RatFunc, beta: RatFunc, place: Place) -> FieldElem:
    """The quadratic local symbol (alpha, beta)_v.

    With m == v(alpha) and k == v(beta) mod 2, and u_alpha, u_beta the
    residues of the unit parts (up to squares, from places.square_class),
    the tame symbol is chi(-1)^{mk} chi(u_alpha)^k chi(u_beta)^m for the
    quadratic character chi of the residue field (chi^{-m} = chi^m, as
    chi = +-1).  chi(-1) = -1 exactly when q^h = 3 mod 4.
    """
    field = alpha.field
    if field.q % 2 == 0:
        raise ValueError("quadratic local symbols require odd q")
    if alpha.is_zero or beta.is_zero:
        raise ValueError("local symbols need nonzero arguments")
    m, u_alpha = square_class(alpha, place)
    k, u_beta = square_class(beta, place)
    code = field.one_code
    if k % 2:
        code = field.mul(code, residue_character(place, u_alpha))
    if m % 2:
        code = field.mul(code, residue_character(place, u_beta))
        if k % 2 and pow(field.q, place.residue_degree, 4) == 3:
            code = field.neg(code)
    out = FieldElem(field, code)
    if out.sign == 0:
        raise AssertionError("local symbol of units cannot vanish")
    return out


# --- exhaustive reciprocity sweep --------------------------------------
#
# The sweep checks every coprime ordered pair (alpha, beta) of nonzero
# polynomials of degree <= max_deg.  It evaluates exactly the two sides of
# check_general_reciprocity, but batches the work: the residues of the
# monics mod each prime are walked in sieve order, their symbols are read
# from the prime's character table, and the symbols of every monic follow
# along the sieve's cofactor chain; the constant part of (a f / P) is split
# off via (a f)^E = a^E f^E.  A block of unit multiples (a f, b g) is settled
# by one comparison; only a block that fails it is enumerated pair by pair.


class SweepViolation(NamedTuple):
    alpha: Poly
    beta: Poly
    lhs: FieldElem
    rhs: FieldElem


class SweepResult(NamedTuple):
    field_spec: str
    max_deg: int
    n: int
    pairs_total: int
    pairs_coprime: int
    violations: tuple[SweepViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


# most ordered pairs a reciprocity sweep checks: F_7 to degree 3 (5,760,000
# pairs) takes about 0.085 s in-process under Python 3.11 on a 2-vCPU Xeon host
MAX_SWEEP_PAIRS = 10 ** 7


def _residue_walk(prime: Poly, max_deg: int) -> list[int]:
    """The residue index mod P (enumerate_residues order) of every monic of
    degree <= max_deg, in MonicSieve order.

    The monics of degree k in sieve order are the t g + c, c outermost, for
    the monics g of degree k - 1 in sieve order; so their values at the root
    alpha of P follow one _horner_step a degree, and the inverse of the
    residue values turns each value into its residue index.
    """
    big, embed, alpha, values = _residue_values(prime)
    index = [0] * big.q
    for i, v in enumerate(values):
        index[v] = i
    level = [big.one_code]
    out = [index[big.one_code]]
    for _ in range(max_deg):
        level = _horner_step(level, alpha, embed, big)
        out.extend([index[v] for v in level])
    return out


def reciprocity_sweep(field: Field, max_deg: int, n: int = 2) -> SweepResult:
    _require_root_order(field, n)
    # (q - 1)(1 + q + ... + q^max_deg) = q^(max_deg+1) - 1 polynomials; an
    # exponent above 64 only makes a count that is already too large larger
    pairs = (field.q ** min(max_deg + 1, 64) - 1) ** 2
    if pairs > MAX_SWEEP_PAIRS:
        raise ValueError(f"a sweep to degree {max_deg} over F_{field.spec} checks about "
                         f"10^{2 * (max_deg + 1) * math.log10(field.q):.1f} ordered pairs, "
                         f"above MAX_SWEEP_PAIRS = {MAX_SWEEP_PAIRS:,}")
    q = field.q

    # monic parts from the sieve: sieve.least[h] is the least prime factor of
    # monic h and sieve.cofactor[h] < h the rest, so each table multiplicative
    # in f_h is filled in index order as its cofactor's entry times its least
    # prime's entry, and a prime power steps the chain once per power
    sieve = monic_sieve(field)
    sieve.grow(max_deg)
    monics = [sieve.monic(h) for h in range(sieve.start(max_deg + 1))]
    degs = [len(f.coeffs) - 1 for f in monics]

    mul, div, neg = field.mul, field.div, field.neg
    one = field.one_code
    # chi[p][h] = (monics[h] / P)_n for the prime P = monics[p], read from the
    # character table of P at the walked residue, and const_sym[p][a] the
    # entry of the constant a; masks[h] has bit p for each prime P | f_h,
    # const_part[h][a] = (a / f_h)_n and rows[h][i] = (f_i / f_h)_n
    chi: dict[int, list[int]] = {}
    const_sym: dict[int, list[int]] = {}
    masks = [0]
    const_part = [[one] * q]
    rows = [[one] * len(monics)]
    for h in range(1, len(monics)):
        p, c = sieve.least[h], sieve.cofactor[h]
        if p == h:
            table = character_table(monics[h], n)
            chi[h] = [table[r] for r in _residue_walk(monics[h], max_deg)]
            const_sym[h] = [table[poly_index((a,), q, degs[h])] for a in range(q)]
        masks.append(masks[c] | 1 << p)
        const_part.append(list(map(mul, const_part[c], const_sym[p])))
        rows.append(list(map(mul, rows[c], chi[p])))

    units = list(range(1, q))
    # eps = -1 for the pair (i, j) exactly when ((q - 1)/n) deg f_i deg f_j is
    # odd, that is when odd[i] and odd[j]
    odd = [(q - 1) // n * deg % 2 == 1 for deg in degs]
    # sgn_pow[d][a] = sign(a)^d = a^(d (q - 1)/n)
    sgn_pow = [[field.pow_(a, d * ((q - 1) // n)) for a in range(q)] for d in range(max_deg + 1)]

    # On the block (a f_i, b g_j) the identity reads u_j(a) s_ij = eps s_ji u_i(b)
    # with u_h(a) = const_part[h][a] / sign(a)^deg h and s_ij = (f_i / g_j).
    # Every table maps 1 to 1, so u_h(1) = 1, and the identity holds for
    # every unit pair exactly when it holds at a = b = 1 and u_i = u_j = 1:
    # plain[h] says (a / f_h) = sign(a)^deg f_h for every unit a
    plain = [all(cp[a] == sgn_pow[degs[h]][a] for a in units)
             for h, cp in enumerate(const_part)]

    pair_block = len(units) * len(units)
    coprime = 0
    violations = []
    for i in range(len(monics)):
        mask_i = masks[i]
        cp_i = const_part[i]
        sgn_i = sgn_pow[degs[i]]
        partners = [j for j, mask in enumerate(masks) if not mask_i & mask]
        coprime += len(partners) * pair_block
        if plain[i]:
            col = [row[i] for row in rows]
            rhs_row = rows[i]
            if odd[i]:
                rhs_row = [neg(x) if o else x for x, o in zip(rhs_row, odd)]
            partners = [j for j in partners if not (plain[j] and col[j] == rhs_row[j])]
        # enumerate each block that failed the check, pair by pair
        for j in partners:
            # monic-part symbols (f_i / g_j) and (g_j / f_i), from the rows
            s_ij = rows[j][i]
            s_ji = rows[i][j]
            eps = field.neg_one_code if odd[i] and odd[j] else one
            cp_j = const_part[j]
            sgn_j = sgn_pow[degs[j]]
            for a in units:
                for b in units:
                    lhs = div(mul(cp_j[a], s_ij), mul(cp_i[b], s_ji))
                    rhs = div(mul(eps, sgn_j[a]), sgn_i[b])
                    if lhs != rhs:
                        violations.append(SweepViolation(
                            monics[i].scale(a),
                            monics[j].scale(b),
                            FieldElem(field, lhs),
                            FieldElem(field, rhs),
                        ))
    return SweepResult(
        field_spec=field.spec,
        max_deg=max_deg,
        n=n,
        pairs_total=len(monics) ** 2 * pair_block,
        pairs_coprime=coprime,
        violations=tuple(violations),
    )
