"""random_poly, random_irreducible and random_ratfunc as written on
random.Random's randrange and randint: the reference streams that the
library's getrandbits drawers are held to, draw for draw."""

from ffsym.places import RatFunc
from ffsym.polyring import Poly, is_irreducible


def randrange_random_poly(field, rng, max_deg, *, nonzero=False, monic=False, exact_deg=False):
    while True:
        deg = max_deg if exact_deg else rng.randint(0, max_deg)
        codes = [rng.randrange(field.q) for _ in range(deg)]
        codes.append(field.one_code if monic else rng.randrange(1, field.q))
        f = Poly(field, codes, trusted=True)
        if not exact_deg and not monic and rng.random() < 1.0 / (max_deg + 2):
            f = Poly.zero(field)
        if nonzero and f.is_zero:
            continue
        return f


def randrange_random_irreducible(field, rng, deg):
    while True:
        f = randrange_random_poly(field, rng, deg, monic=True, exact_deg=True)
        if is_irreducible(f):
            return f


def randrange_random_ratfunc(field, rng, max_deg):
    num = randrange_random_poly(field, rng, max_deg, nonzero=True)
    return RatFunc(num, randrange_random_poly(field, rng, max_deg, nonzero=True))
