"""Integer powers of a Poly or RatFunc for the tests, by repeated
multiplication: the value types have no power operator."""

from ffsym.places import RatFunc
from ffsym.polyring import Poly


def power(x, n):
    """x^n for a Poly or RatFunc x; a negative n inverts the RatFunc x first."""
    if n < 0:
        x, n = x.inverse(), -n
    result = RatFunc.constant(x.field, 1) if isinstance(x, RatFunc) else Poly.one(x.field)
    for _ in range(n):
        result = result * x
    return result
