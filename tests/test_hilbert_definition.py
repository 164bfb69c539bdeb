"""Delta(a, b) and local_symbol against the definition of ramification.

H_{a,b} ramifies at a place v exactly when z^2 = a x^2 + b y^2 has no
nonzero solution over the completion K_v, and (a, b)_v = 1 exactly when it
has one.  At a place of degree 1 with uniformizer s (t - r, or 1/t at
infinity) and odd q, scale a and b by even powers of s so that v(a), v(b)
lie in {0, 1}.  Then a nonzero solution exists exactly when a primitive one
(x, y, z not all divisible by s) exists mod s^2:
- v(a) = v(b) = 0: the conic has a point mod s (Chevalley), smooth as q is
  odd, and Hensel's lemma lifts it;
- v(a) = 0, v(b) = 1 (or the reverse): a solution mod s with s not
  dividing x needs a square residue of a, and one with s | x has s | z,
  so z^2 - a x^2 = 0 mod s^2 and s | y;
- v(a) = v(b) = 1: s | z, and a x^2 + b y^2 = 0 mod s^2 with s^-1 a,
  s^-1 b units needs -a/b to have a square residue, which also lifts.
The search decides this in O_v / s^2 = F_q[s]/(s^2) by enumeration and
uses no character or symbol formula.
"""

from random import Random

import pytest

from ffsym.gf import field_make
from ffsym.places import Place, RatFunc, random_ratfunc
from ffsym.polyring import Poly, random_poly
from ffsym.quaternion import delta
from ffsym.symbols import local_symbol

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def _expand(field, coeffs, r):
    # the coefficients of f(s + r), low degree first; of s^deg f f(1/s)
    # when r is None
    if r is None:
        return list(reversed(coeffs))
    out = []
    for c in reversed(coeffs):  # Horner: out * (s + r) + c
        out = [field.add(hi, field.mul(r, lo)) for hi, lo in zip([0] + out, out + [0])]
        out[0] = field.add(out[0], c)
    return out


def _scaled_mod_s2(field, x, r):
    # x s^(-2 floor(v(x)/2)) mod s^2 as (c0, c1), meaning c0 + c1 s
    num, den = _expand(field, x.num.coeffs, r), _expand(field, x.den.coeffs, r)
    vn = next(i for i, c in enumerate(num) if c)
    vd = next(i for i, c in enumerate(den) if c)
    v = vn - vd + (len(x.den.coeffs) - len(x.num.coeffs) if r is None else 0)
    n0, n1 = num[vn], (num + [0])[vn + 1]
    d0, d1 = den[vd], (den + [0])[vd + 1]
    inv = field.inv(d0)
    u0 = field.mul(n0, inv)
    u1 = field.mul(field.sub(field.mul(n1, d0), field.mul(n0, d1)), field.mul(inv, inv))
    return (0, u0) if v % 2 else (u0, u1)


def _has_primitive_zero(field, a, b):
    # is there (x, y, z), not all in sO, with z^2 = a x^2 + b y^2 mod s^2?
    def mul(u, w):
        return field.mul(u[0], w[0]), field.add(field.mul(u[0], w[1]), field.mul(u[1], w[0]))

    ring = [(c0, c1) for c0 in range(field.q) for c1 in range(field.q)]
    squares = {mul(z, z) for z in ring}
    unit_squares = {mul(z, z) for z in ring if z[0]}
    one = (field.one_code, 0)
    # a primitive zero times a unit is one: make its first unit coordinate 1
    cases = ([(one, y, squares) for y in ring]
             + [((0, c), one, squares) for c in range(field.q)]
             + [((0, c), (0, d), unit_squares) for c in range(field.q) for d in range(field.q)])
    for x, y, targets in cases:
        ax2, by2 = mul(a, mul(x, x)), mul(b, mul(y, y))
        if (field.add(ax2[0], by2[0]), field.add(ax2[1], by2[1])) in targets:
            return True
    return False


def _pairs(field, rng):
    # random pairs of degree <= 3, and pairs sharing a linear prime, where
    # both valuations are odd
    pairs = [(random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)) for _ in range(20)]
    for _ in range(20):
        linear = random_poly(field, rng, 1, monic=True, exact_deg=True)
        a, b = (RatFunc(linear * random_poly(field, rng, 2, nonzero=True),
                        random_poly(field, rng, 3, nonzero=True)) for _ in range(2))
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("p, e", FIELDS, ids=[f"F{p ** e}" for p, e in FIELDS])
def test_delta_and_local_symbol_match_the_definition(p, e):
    field = field_make(p, e)
    places = [(None, Place.infinite(field))] + [
        (r, Place.finite(Poly(field, (field.neg(r), field.one_code)))) for r in range(field.q)]
    seen = set()
    for a, b in _pairs(field, Random(f"hilbert-definition:{field.spec}")):
        ram = delta(a, b)
        for r, place in places:
            split = _has_primitive_zero(field, _scaled_mod_s2(field, a, r),
                                        _scaled_mod_s2(field, b, r))
            assert split == (place not in ram), (a, b, place)
            assert local_symbol(a, b, place).sign == (1 if split else -1), (a, b, place)
            seen.add(split)
    assert seen == {True, False}
