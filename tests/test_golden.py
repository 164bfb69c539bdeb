"""Golden CLI transcripts: each stored --json document and exit code must be
reproduced byte for byte (regenerate with tests/golden/make_goldens.py)."""

import json
from pathlib import Path

import pytest

from ffsym.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_transcript(name, capsys):
    case = MANIFEST[name]
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
