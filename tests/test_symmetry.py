"""Delta(a, b) against two symmetries of F_q(t), with no symbol formula.

Transport.  sigma: t -> (alpha t + beta)/(gamma t + delta), with
alpha delta - beta gamma != 0, is an F_q-automorphism of F_q(t).  The
valuation of a o sigma at a place w is that of a at the place under the
point sigma(w), so the places move by sigma*: infinity goes to the root of
gamma t + delta (it stays when gamma = 0), and a finite P goes to the monic
of its homogenization at (alpha t + beta, gamma t + delta), or to infinity
when the degree drops.  Completions correspond, so
Delta(a o sigma, b o sigma) = sigma*(Delta(a, b)), each local symbol moves
with its place, and every valuation predicate over Delta is equivariant.

Base change.  Take a and b over F_p and read their codes in F_{p^k}.  A
place of degree d splits into gcd(d, k) places of local degree
k / gcd(d, k), and the local invariant is multiplied by that degree (Serre,
*Local Fields*, ch. XIII).  So a place above P is ramified exactly when P
is and k / gcd(d, k) is odd; infinity is a place of degree 1.
"""

from math import gcd
from random import Random

import pytest

from ffsym.gf import field_make
from ffsym.places import Place, RatFunc, random_ratfunc
from ffsym.polyring import Poly, factor
from ffsym.quaternion import delta, jacobson_member, r_tilde_member, t_member
from ffsym.symbols import local_symbol
from powers import power


def _random_sigma(field, rng):
    # (alpha, beta, gamma, delta) codes with alpha delta - beta gamma != 0
    while True:
        al, be, ga, de = (rng.randrange(field.q) for _ in range(4))
        if field.sub(field.mul(al, de), field.mul(be, ga)):
            return al, be, ga, de


def _homogenize(f, sigma, n):
    # sum c_i (alpha t + beta)^i (gamma t + delta)^(n - i), for n >= deg f
    field = f.field
    al, be, ga, de = sigma
    top, bottom = Poly(field, (be, al)), Poly(field, (de, ga))
    out = Poly.zero(field)
    for i, c in enumerate(f.coeffs):
        out = out + (power(top, i) * power(bottom, n - i)).scale(c)
    return out


def _compose(x, sigma):
    # x o sigma: num and den homogenized to one common degree
    if x.is_zero:
        return x
    n = max(x.num.degree, x.den.degree)
    return RatFunc(_homogenize(x.num, sigma, n), _homogenize(x.den, sigma, n))


def _transport(place, sigma):
    field = place.field
    _, _, ga, de = sigma
    if place.is_infinite:
        return place if ga == 0 else Place.finite(Poly(field, (de, ga)).monic())
    h = _homogenize(place.prime, sigma, place.prime.degree)
    return Place.infinite(field) if h.degree < place.prime.degree else Place.finite(h.monic())


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (13, 1), (257, 1), (3, 2), (3, 5), (5, 4)])
def test_delta_and_symbols_move_with_the_places(p, e):
    field = field_make(p, e)
    inf = Place.infinite(field)
    rng = Random(f"transport:{field.q}")
    moved_inf = verdicts = 0
    for _ in range(40):
        a, b = random_ratfunc(field, rng, 3), random_ratfunc(field, rng, 3)
        sigma = _random_sigma(field, rng)
        a2, b2 = _compose(a, sigma), _compose(b, sigma)
        d = delta(a, b).places
        assert delta(a2, b2).places == {_transport(v, sigma) for v in d}
        for v in d | {inf}:
            assert local_symbol(a2, b2, _transport(v, sigma)) == local_symbol(a, b, v)
        moved_inf += inf in d and not _transport(inf, sigma).is_infinite
        if not d:
            continue
        for _ in range(3):
            x = random_ratfunc(field, rng, 2, nonzero=False)
            x2 = _compose(x, sigma)
            for member in (t_member, r_tilde_member, jacobson_member):
                assert member(x2, a2, b2) == member(x, a, b)
            verdicts += 3
    assert moved_inf and verdicts


@pytest.mark.parametrize("p, k", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_base_change_keeps_places_of_odd_local_degree(p, k):
    low, up = field_make(p), field_make(p, k)

    def lift(x):
        # a code of F_p is the same code in F_{p^k}
        return RatFunc(Poly(up, x.num.coeffs), Poly(up, x.den.coeffs))

    rng = Random(f"base-change:{p}^{k}")
    kept = lost = 0
    for _ in range(120):
        a, b = random_ratfunc(low, rng, 4), random_ratfunc(low, rng, 4)
        expected = set()
        for place in delta(a, b).places:
            g = gcd(place.residue_degree, k)
            if (k // g) % 2 == 0:
                lost += 1
                continue
            kept += 1
            if place.is_infinite:
                expected.add(Place.infinite(up))
                continue
            parts = factor(Poly(up, place.prime.coeffs))
            assert sorted((f.degree, m) for f, m in parts) == [(place.residue_degree // g, 1)] * g
            expected.update(Place.finite(f) for f, _ in parts)
        assert delta(lift(a), lift(b)).places == expected
    assert kept and (lost if k % 2 == 0 else not lost)
