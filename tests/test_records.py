"""The result records keep one contract: immutable tuples whose equal copies
hash equal, with a ``Name(field=value, ...)`` repr in field order (except
RamificationSet, which prints Delta(a, b) = {...}).  Every record is built by
the library call that returns it."""

import inspect
from random import Random

import pytest

from ffsym import definability, dirichlet, quaternion, selftest, symbols
from ffsym.gf import field_make
from ffsym.places import Place, parse_ratfunc
from ffsym.polyring import parse_poly, poly_index

F3 = field_make(3)
F5 = field_make(5)
MODULES = (symbols, quaternion, definability, dirichlet, selftest)


def _violation(monkeypatch):
    # a sweep lists a violation only when a symbol is wrong: negate the
    # character of the residue t mod one prime
    table, target = symbols.character_table, parse_poly(F3, "t^2+t+2")
    index = poly_index((0, 1), 3, 2)

    def corrupted(prime, n=2):
        codes = list(table(prime, n))
        if prime == target:
            codes[index] = F3.neg(codes[index])
        return codes

    monkeypatch.setattr(symbols, "character_table", corrupted)
    return symbols.reciprocity_sweep(F3, 2).violations[0]


def _membership():
    x = parse_ratfunc(F3, "t^2+1/t")
    return definability.member_A(x, sample_size=4, rng=Random(5))


BUILDERS = {
    "ReciprocityCheck": lambda mp: symbols.check_general_reciprocity(
        parse_poly(F5, "t^2+2"), parse_poly(F5, "t^3+t+1")),
    "SweepViolation": _violation,
    "SweepResult": lambda mp: symbols.reciprocity_sweep(F3, 2),
    "RamificationSet": lambda mp: quaternion.delta(
        parse_ratfunc(F3, "2*t"), parse_ratfunc(F3, "2*t^2+2")),
    "HilbertResult": lambda mp: quaternion.hilbert_product(
        parse_ratfunc(F5, "t/t+1"), parse_ratfunc(F5, "2*t^3+1")),
    "USet": lambda mp: quaternion.u_set(F5),
    "WitnessPair": lambda mp: definability.witness_pair(
        Place.finite(parse_poly(F3, "t^2+1")), rng=Random(2)),
    "PairEvidence": lambda mp: _membership().union_report.evidence[0],
    "MembershipReport": lambda mp: _membership().union_report,
    "PolynomialMembershipReport": lambda mp: _membership(),
    "APQuery": lambda mp: dirichlet.APQuery(parse_poly(F3, "t^2+1"), parse_poly(F3, "t"), 3),
    "UniformityRow": lambda mp: dirichlet.uniformity_report(parse_poly(F3, "t+1"), 4).rows[0],
    "UniformityReport": lambda mp: dirichlet.uniformity_report(parse_poly(F3, "t+1"), 4),
    "CriterionResult": lambda mp: selftest.run_all(seed=42, only=[3])[0],
}


def test_every_record_is_covered():
    records = {name for module in MODULES for name, obj in vars(module).items()
               if inspect.isclass(obj) and issubclass(obj, tuple) and hasattr(obj, "_fields")
               and not name.startswith("_") and obj.__module__ == module.__name__}
    assert records == set(BUILDERS)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_record_contract(name, monkeypatch):
    record = BUILDERS[name](monkeypatch)
    cls = type(record)
    assert cls.__name__ == name
    values = tuple(getattr(record, field) for field in cls._fields)
    assert tuple(record) == values and record == values

    for field, value in zip(cls._fields, values):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1

    copy = cls(*values)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)

    if cls is quaternion.RamificationSet:
        inside = ", ".join(str(p) for p in record.sorted())
        assert repr(record) == f"Delta({record.a}, {record.b}) = {{{inside}}}"
    else:
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(cls._fields, values))
        assert repr(record) == f"{name}({shown})"
