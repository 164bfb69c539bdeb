"""The value types carry only what the library runs.

Poly, RatFunc and Place are pinned to explicit member lists: the public
names each class defines, and the dunder methods it defines (operators,
equality, hash, repr, constructor).  Adding a convenience, such as a power
or division operator that only tests would call, fails here, so it is a
visible decision rather than a drift.
"""

import inspect

import pytest

from ffsym.places import Place, RatFunc
from ffsym.polyring import Poly

MEMBERS = {
    Poly: (
        "__add__", "__divmod__", "__eq__", "__floordiv__", "__hash__", "__init__", "__mod__",
        "__mul__", "__neg__", "__repr__", "__sub__",
        "coeffs", "constant", "constant_code", "degree", "derivative", "field", "is_constant",
        "is_monic", "is_zero", "lead_code", "monic", "one", "scale", "sort_key", "t", "zero",
    ),
    RatFunc: (
        "__add__", "__eq__", "__hash__", "__init__", "__mul__", "__repr__", "__sub__",
        "constant", "den", "field", "from_poly", "inverse", "is_constant", "is_zero",
        "lead_ratio_code", "num",
    ),
    Place: (
        "__eq__", "__hash__", "__init__", "__repr__",
        "field", "finite", "infinite", "is_infinite", "prime", "residue_degree", "sort_key",
    ),
}


def _members(cls):
    """The public names cls defines itself, and its own dunder methods."""
    return tuple(sorted(
        name for name, value in vars(cls).items()
        if not name.startswith("_") or (name.startswith("__") and callable(value))
    ))


@pytest.mark.parametrize("cls", list(MEMBERS), ids=lambda cls: cls.__name__)
def test_members_are_pinned(cls):
    assert _members(cls) == MEMBERS[cls]


def test_finite_place_has_one_spelling():
    # Place(field, P) builds a place unchecked; Place.finite always checks
    assert list(inspect.signature(Place.finite).parameters) == ["prime"]
