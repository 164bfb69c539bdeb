"""Acceptance suite: one test per exit criterion, plus the wall-time budgets.

Each test prints its one-line PASS/FAIL summary (visible with pytest -s and
in failure reports) and asserts the criterion's pass flag, which is decided
from its identity alone.  Five criteria also have a wall-time budget, which
is asserted here, apart from the pass flag: the selftest verdict and its exit
code read no clock.  The same registry backs the CLI `selftest` subcommand.
"""

import ast
import itertools
from pathlib import Path

import pytest

import ffsym
from ffsym import selftest
from ffsym.cli import main

SEED = 42

_NAMES = [
    "01 general reciprocity, exhaustive coprime pairs",
    "02 product formula over all places, random pairs",
    "03 ramification at infinity for nonsquare constants",
    "04 witness pairs ramified exactly at {P, inf}",
    "05 irreducible-trace sumsets cover large fields",
    "06 residue symbol vs brute-force square oracle",
    "07 ramification sets have even size",
    "08 union-of-rings vs Jacobson dual form",
    "09 main membership identity, both directions",
    "10 prime counts: formula, enumeration, tail bound",
    "11 progression uniformity at q=13, k=3",
    "12 trace-sum decomposition soundness",
]

# wall-time budget in seconds, by criterion id
BUDGETS = {1: 60.0, 2: 60.0, 4: 120.0, 9: 120.0, 11: 10.0}


@pytest.mark.parametrize("cid", range(1, len(selftest.CRITERIA) + 1), ids=_NAMES)
def test_criterion(cid):
    (result,) = selftest.run_all(SEED, [cid])
    print(result.line)
    assert result.passed, result.line
    if cid in BUDGETS:
        assert result.elapsed < BUDGETS[cid], f"over the {BUDGETS[cid]} s budget: {result.line}"


def test_verdict_reads_no_clock(monkeypatch, capsys):
    # every clock read advances 1,000 s, far past every budget
    ticks = itertools.count(1000.0, 1000.0)
    monkeypatch.setattr(selftest.time, "monotonic", lambda: next(ticks))
    (result,) = selftest.run_all(SEED, [11])
    assert result.passed, result.line
    assert result.elapsed >= 1000.0
    assert main(["selftest", "--criteria", "11"]) == 0
    assert "PASS criterion 11" in capsys.readouterr().out


def test_only_the_front_ends_import_time():
    importers = set()
    for path in Path(ffsym.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "time" in names:
                importers.add(path.stem)
    assert importers == {"cli", "selftest"}
