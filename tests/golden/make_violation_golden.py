"""Write ``sweep_violations.json``: the violations ``reciprocity_sweep`` lists
when one character-table entry is corrupted.

No correct sweep lists a violation, so this fixture is the only check of the
path that enumerates a failing block.  Each case negates one entry of the
character table of ``P = t^2+t+2`` (prime over F_3 and F_5): at the constant
residue 2, which breaks the reciprocity law for constants, or at the residue
``t``, which breaks the symbols of the monics congruent to ``t`` mod ``P``.
Each violation is stored as ``[alpha, beta, lhs, rhs]``, printed as in
``reciprocity-sweep --json``.  Regenerate only from a commit whose sweep is
the reference:

    python tests/golden/make_violation_golden.py --src src --out tests/golden

``tests/test_symbols.py`` runs ``violation_cases`` on the tree under test and
compares it with the stored file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PRIME = "t^2+t+2"
# residue coefficients (c0, c1) of the corrupted entry, by name
RESIDUES = {"const2": (2,), "t": (0, 1)}
# (q, max degree, residue name); F_3 to degree 3 adds pairs of odd degrees
# with P dividing one side, where the sign (-1)^{deg a deg b} is -1
CASES = [(3, 2, "const2"), (3, 2, "t"), (5, 2, "const2"), (5, 2, "t"), (3, 3, "t")]


def violation_cases(symbols) -> dict:
    """Run every case against the module ``symbols`` (``ffsym.symbols``),
    with its ``character_table`` corrupted for the duration of each sweep."""
    from ffsym.gf import field_make
    from ffsym.polyring import parse_poly, poly_index

    original = symbols.character_table
    out = {}
    for q, max_deg, name in CASES:
        field = field_make(q)
        target = parse_poly(field, PRIME)
        index = poly_index(RESIDUES[name], q, 2)

        def corrupted(prime, n=2, target=target, index=index):
            table = original(prime, n)
            if prime == target:
                table = list(table)
                table[index] = prime.field.neg(table[index])
            return table

        symbols.character_table = corrupted
        try:
            res = symbols.reciprocity_sweep(field, max_deg)
        finally:
            symbols.character_table = original
        out[f"q{q}_d{max_deg}_{name}"] = [
            [str(v.alpha), str(v.beta), repr(v.lhs), repr(v.rhs)] for v in res.violations
        ]
    return out


def dumps(cases: dict) -> str:
    """One case per block and one violation per line."""
    blocks = [f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows)
              + "\n ]" for name, rows in cases.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src/ directory to run")
    ap.add_argument("--out", required=True, help="directory for the fixture")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from ffsym import symbols

    cases = violation_cases(symbols)
    (Path(args.out) / "sweep_violations.json").write_text(dumps(cases))
    for name, rows in cases.items():
        print(f"{name}: {len(rows)} violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
