import argparse
import csv
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from ffsym import cli
from ffsym.cli import main
from ffsym.gf import parse_field_spec
from ffsym.places import parse_ratfunc
from ffsym.polyring import is_irreducible, parse_poly, random_irreducible, random_poly
from ffsym.quaternion import (
    i_c_member, jacobson_member, parity_class_member, r_tilde_member, s_global_member, t_member,
    t_unit_member,
)

F3_SYMBOL = ["symbol", "--q", "3", "--alpha", "t", "--prime", "t+1", "--n", "2"]


def _readme_examples():
    # the argv of each line of the README's CLI block, without the output
    # format flags; selftest has its own CI step
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = [arg for arg in shlex.split(line)[1:] if arg not in ("--json", "--csv")]
        if argv[0] != "selftest":
            examples.append(argv)
    return examples


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, line", [
    (F3_SYMBOL, "(t / t+1)_2 = -1"),
    (["symbol", "--q", "13", "--alpha", "t^2+3", "--prime", "t+5", "--n", "4"],
     "(t^2+3 / t+5)_4 = 8"),
    (["symbol", "--q", "3^2", "--alpha", "t+[0,1]", "--prime", "t+[1]", "--n", "4"],
     "(t+[0,1] / t+[1,0])_4 = [0,1]"),
], ids=["F3", "F13", "F9"])
def test_symbol_example(capsys, argv, line):
    # a quadratic value prints as its sign, any other as its field element
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == line + "\n"


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_readme_example_runs_in_text_mode(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.strip()


def test_symbol_json_envelope(capsys):
    code, out, _ = run(capsys, F3_SYMBOL + ["--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "field", "inputs", "result", "evidence"}
    assert doc["command"] == "symbol" and doc["field"] == "3"
    assert doc["result"]["sign"] == -1


def test_hilbert_example(capsys):
    code, out, _ = run(capsys, ["hilbert", "--q", "3", "--alpha", "t", "--beta", "t+1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["product"] == 1
    assert doc["result"]["per_place"] == {"t": 1, "t+1": -1, "inf": -1}


def test_local_symbol(capsys):
    code, out, _ = run(capsys, ["local-symbol", "--q", "3", "--alpha", "2",
                                "--beta", "1/t", "--place", "inf"])
    assert code == 0 and "-1" in out


def test_reciprocity_sweep(capsys):
    code, out, _ = run(capsys, ["reciprocity-sweep", "--q", "3", "--degree-max", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pass"] is True
    assert doc["result"]["violations"] == []


def test_delta_and_member(capsys):
    code, out, _ = run(capsys, ["delta", "--q", "3", "--a", "t", "--b", "t+1", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["places"] == ["t+1", "inf"]
    code, out, _ = run(capsys, ["member", "--q", "3", "--set", "Rtilde", "--x", "t",
                                "--a", "t", "--b", "t+1", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["member"] is True
    code, _, err = run(capsys, ["member", "--q", "3", "--set", "Ic", "--x", "t",
                                "--a", "t", "--b", "t+1"])
    assert code == 2 and "--c" in err


_MEMBER_PREDICATES = {
    "S": lambda x, a, b, c: s_global_member(x, a, b),
    "T": lambda x, a, b, c: t_member(x, a, b),
    "Tx": lambda x, a, b, c: t_unit_member(x, a, b),
    "parity": lambda x, a, b, c: parity_class_member(x, a, b),
    "Ic": i_c_member,
    "J": lambda x, a, b, c: jacobson_member(x, a, b),
    "Rtilde": lambda x, a, b, c: r_tilde_member(x, a, b),
}
# (a, b, c) per field: Delta is {t+1, inf}, {t, t+1} and {t, inf}
_MEMBER_PAIRS = {"3": ("t", "t+1", "t"), "5": ("2", "t^2+t", "t^2+t"), "3^2": ("[1,1]", "t", "t^2+2")}
_MEMBER_XS = ["0", "2", "t", "1/t", "t+1/t^2", "t^2+2", "t^2/t+1", "t^2+1/t", "1/t^2+1", "t^2+t",
              "1/t^2+t"]


@pytest.mark.parametrize("name", sorted(_MEMBER_PREDICATES))
@pytest.mark.parametrize("q", sorted(_MEMBER_PAIRS))
def test_member_cli_matches_library(capsys, q, name):
    # the JSON verdict of every --set is its quaternion predicate, and a
    # ValueError there (zero x for parity and Ic) is exit 2; both verdicts occur
    field = parse_field_spec(q)
    a, b, c = _MEMBER_PAIRS[q]
    ab_c = [parse_ratfunc(field, text) for text in (a, b, c)]
    verdicts = set()
    for x in _MEMBER_XS:
        code, out, _ = run(capsys, ["member", "--q", q, "--set", name, "--x", x, "--a", a, "--b", b,
                                    "--c", c, "--json"])
        try:
            expected = _MEMBER_PREDICATES[name](parse_ratfunc(field, x), *ab_c)
        except ValueError:
            assert code == 2
            continue
        assert code == 0 and json.loads(out)["result"]["member"] is expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_u_set_cli(capsys):
    code, out, _ = run(capsys, ["u-set", "--q", "13", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["size"] == 6 and doc["result"]["sumset_covers"] is True


def test_witness_cli(capsys):
    code, out, _ = run(capsys, ["witness", "--q", "3", "--prime", "t", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["delta"] == ["t", "inf"]
    assert doc["result"]["gamma"] is True


def test_membership_cli(capsys):
    code, out, _ = run(capsys, ["membership", "--q", "3", "--target", "A",
                                "--x", "t^2/t+1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["member"] is False and doc["result"]["agrees"] is True
    code, out, _ = run(capsys, ["membership", "--q", "3", "--target", "const",
                                "--x", "2*t+2/t+1"])
    assert code == 0 and "True" in out


def test_ap_primes_cli(capsys):
    code, out, _ = run(capsys, ["ap-primes", "--q", "3", "--f", "t", "--c", "1",
                                "--k", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 1 and doc["result"]["example"] == "t^2+1"


def test_ap_primes_constant_modulus(capsys):
    # a constant modulus gets the seeded probes, so the example is a
    # random monic prime of degree k
    start = time.perf_counter()
    code, out, _ = run(capsys, ["ap-primes", "--q", "257", "--f", "3", "--c", "1", "--k", "4",
                                "--json"])
    assert time.perf_counter() - start < 2.0
    example = parse_poly(parse_field_spec("257"), json.loads(out)["result"]["example"])
    assert code == 0 and example.degree == 4 and example.is_monic and is_irreducible(example)


def test_uniformity_cli_csv(capsys):
    code, out, _ = run(capsys, ["uniformity", "--q", "3", "--f", "t", "--k", "2", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,count,deviation"
    assert len(lines) == 3
    # the README example, byte for byte
    code, out, _ = run(capsys, ["uniformity", "--q", "13", "--f", "t", "--k", "3", "--csv"])
    golden = Path(__file__).parent / "golden" / "uniformity_13_t3.csv"
    assert code == 0 and out.encode() == golden.read_bytes()


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, ["selftest", "--criteria", "3,5", "--seed", "42"])
    assert code == 0
    assert "PASS criterion  3" in out and "PASS criterion  5" in out
    code, out, _ = run(capsys, ["selftest", "--criteria", "3,5", "--seed", "42", "--csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and rows[0] == ["cid", "name", "passed", "detail"]
    assert [(row[0], row[2]) for row in rows[1:]] == [("3", "True"), ("5", "True")]


def test_seed_and_csv_only_where_read(capsys):
    # --seed on the commands that draw random numbers, --csv on the table
    # commands; anywhere else either flag is a usage error
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions for flag in action.option_strings}
             for name, sub in subs.choices.items()}
    assert {name for name in flags if "--seed" in flags[name]} == {
        "witness", "membership", "ap-primes", "selftest"}
    assert {name for name in flags if "--csv" in flags[name]} == {"uniformity", "selftest"}
    for extra in (["--seed", "1"], ["--csv"]):
        with pytest.raises(SystemExit) as exc:
            main(["delta", "--a", "t", "--b", "t+1"] + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "ffsym", "selftest", "--criteria", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS criterion  3" in proc.stdout


def test_json_determinism(capsys):
    argv = ["membership", "--q", "5", "--target", "AorAinf", "--x", "t^2+1/t",
            "--seed", "7", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("argv, named", [
    (["selftest", "--criteria", "99"], "criterion"),
    (["reciprocity-sweep", "--degree-max", "-1"], "--degree-max"),
    (["uniformity", "--f", "t", "--k", "0"], "--k"),
    (["membership", "--target", "A", "--x", "t", "--samples", "0"], "--samples"),
    (["u-set", "--q", "3^40"], "MAX_Q"),
    (["u-set", "--q", "2^17"], "MAX_Q"),
    (["u-set", "--q", "65537"], "MAX_Q"),
    (["symbol", "--alpha", "t^99999999", "--prime", "t+1"], "MAX_PARSED_DEGREE"),
    # degree 33, one above MAX_PARSED_DEGREE, on the commands that factor it
    (["delta", "--a", "t^33+t+2", "--b", "t"], "MAX_PARSED_DEGREE"),
    (["hilbert", "--alpha", "t", "--beta", "t^33+t+2"], "MAX_PARSED_DEGREE"),
    (["member", "--set", "T", "--x", "t", "--a", "t^33+t+2", "--b", "t"], "MAX_PARSED_DEGREE"),
    (["symbol", "--alpha", "t", "--prime", "t^33+t+2"], "MAX_PARSED_DEGREE"),
    (["reciprocity-sweep", "--q", "257", "--degree-max", "1"], "MAX_SWEEP_PAIRS"),
    (["reciprocity-sweep", "--degree-max", "1000000000"], "MAX_SWEEP_PAIRS"),
    (["uniformity", "--f", "t", "--k", "100000"], "MAX_AP_WORK"),
    (["uniformity", "--q", "13", "--f", "t^7+2", "--k", "8"], "MAX_AP_WORK"),
    (["uniformity", "--f", "t^32", "--k", "1"], "MAX_AP_WORK"),  # the largest parsed degree
    (["ap-primes", "--f", "t", "--c", "1", "--k", "100000"], "MAX_AP_WORK"),
    (["ap-primes", "--f", "t", "--c", "1", "--k", "100"], "MAX_AP_WORK"),
    (["ap-primes", "--q", "3", "--f", "0", "--c", "1", "--k", "2"], "modulus must be nonzero"),
    (["witness", "--q", "3", "--prime", "t^2+1", "--degree-max", "0"], "degree cap 0"),
    (["membership", "--target", "A", "--x", "1/t", "--samples", "10000000"], "MAX_SAMPLE_WORK"),
    # 25,000 pairs over F_3 (2 bits) is the largest accepted request
    (["membership", "--target", "AorAinf", "--x", "t", "--samples", "25001"], "MAX_SAMPLE_WORK"),
    # the CLI parses --epsilon as a constant and the library rejects a square
    (["witness", "--q", "5", "--prime", "t", "--epsilon", "t"], "--epsilon must be a constant"),
    (["witness", "--q", "5", "--prime", "t", "--epsilon", "1"], "nonsquare"),
    (["membership", "--q", "5", "--target", "A", "--x", "t", "--epsilon", "0"], "nonsquare"),
], ids=["criteria", "degree-max", "k", "samples", "q-3^40", "q-2^17", "q-65537", "alpha-degree",
        "delta-degree", "hilbert-degree", "member-degree", "prime-degree", "sweep-q257",
        "sweep-degree", "uniformity-k", "uniformity-q13-deg7", "uniformity-deg",
        "ap-primes-k", "ap-primes-search", "ap-primes-zero", "witness-cap", "samples-limit",
        "samples-limit-edge", "epsilon-variable", "epsilon-square", "epsilon-zero"])
def test_out_of_range_input_exits_2(capsys, argv, named):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and named in err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken_handler(args):
        raise AssertionError("unreachable state\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "symbol", broken_handler)
    code, out, err = run(capsys, F3_SYMBOL)
    assert code == 3 and out == ""
    assert err == "internal error: AssertionError: unreachable state second line\n"


def test_usage_errors(capsys):
    code, _, err = run(capsys, F3_SYMBOL[:-2] + ["--n", "4"])
    assert code == 2 and "divide" in err
    code, _, err = run(capsys, ["symbol", "--q", "3", "--alpha", "t&", "--prime", "t+1"])
    assert code == 2 and "malformed" in err
    code, _, err = run(capsys, ["symbol", "--q", "3", "--alpha", "t", "--prime", "t^2+2*t"])
    assert code == 2 and "irreducible" in err
    code, _, err = run(capsys, ["local-symbol", "--q", "2", "--alpha", "t",
                                "--beta", "t", "--place", "t"])
    assert code == 2 and "odd" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


_FUZZ_Q = ["2", "3", "2^2", "5", "3^2", "13", "5^2", "257"]


def _fuzz_argv(rng):
    # one seeded argv of small inputs for a random non-selftest command
    q = rng.choice(_FUZZ_Q)
    field = parse_field_spec(q)

    def poly(max_deg=3, nonzero=False):
        return str(random_poly(field, rng, max_deg, nonzero=nonzero))

    def frac():
        return f"{poly(2, True)}/{poly(2, True)}"

    def prime():
        return str(random_irreducible(field, rng, rng.randint(1, 2)))

    command = rng.choice(["symbol", "local-symbol", "hilbert", "reciprocity-sweep", "delta", "member",
                          "u-set", "witness", "membership", "ap-primes", "uniformity"])
    args = {
        "symbol": lambda: ["--alpha", poly(), "--prime", prime(), "--n", str(rng.randint(2, 4))],
        "local-symbol": lambda: ["--alpha", frac(), "--beta", frac(),
                                 "--place", rng.choice(["inf", prime()])],
        "hilbert": lambda: ["--alpha", frac(), "--beta", frac()],
        "reciprocity-sweep": lambda: ["--degree-max", str(rng.randint(0, 1 if field.q <= 5 else 0)),
                                      "--n", str(rng.randint(2, 3))],
        "delta": lambda: ["--a", frac(), "--b", frac()],
        "member": lambda: ["--set", rng.choice(sorted(_MEMBER_PREDICATES)), "--x", frac(),
                           "--a", frac(), "--b", frac(), "--c", frac()],
        "u-set": lambda: [],
        "witness": lambda: ["--prime", prime(), "--seed", str(rng.randrange(100))],
        "membership": lambda: ["--target", rng.choice(["A", "AorAinf", "const"]), "--x", frac(),
                               "--samples", str(rng.randint(1, 4)), "--seed", str(rng.randrange(100))],
        "ap-primes": lambda: ["--f", poly(2, True), "--c", poly(2), "--k", str(rng.randint(1, 4)),
                              "--seed", str(rng.randrange(100))],
        "uniformity": lambda: ["--f", poly(2, True), "--k", str(rng.randint(1, 3))],
    }[command]()
    return [command, "--q", q, *args]


# constant moduli, degree-0 arguments, and even q for the quadratic commands
_EDGE_ARGV = [
    ["ap-primes", "--q", "257", "--f", "3", "--c", "1", "--k", "4"],
    ["ap-primes", "--q", "3", "--f", "2", "--c", "t", "--k", "3"],
    ["uniformity", "--q", "5", "--f", "3", "--k", "2"],
    ["symbol", "--q", "5", "--alpha", "3", "--prime", "t"],
    ["symbol", "--q", "5", "--alpha", "t", "--prime", "3"],
    ["local-symbol", "--q", "5", "--alpha", "2", "--beta", "3", "--place", "inf"],
    ["hilbert", "--q", "3", "--alpha", "1", "--beta", "2"],
    ["delta", "--q", "3", "--a", "2", "--b", "2"],
    ["member", "--q", "3", "--set", "J", "--x", "1", "--a", "2", "--b", "2"],
    ["witness", "--q", "3", "--prime", "2"],
    ["membership", "--q", "3", "--target", "A", "--x", "0"],
    ["membership", "--q", "3", "--target", "AorAinf", "--x", "2"],
    ["reciprocity-sweep", "--q", "257", "--degree-max", "0"],
    *[[command, "--q", q, *args] for q in ("2", "2^2") for command, args in [
        ("local-symbol", ["--alpha", "t", "--beta", "t+1", "--place", "inf"]),
        ("hilbert", ["--alpha", "t", "--beta", "t+1"]),
        ("delta", ["--a", "t", "--b", "t+1"]),
        ("member", ["--set", "T", "--x", "t", "--a", "t", "--b", "t+1"]),
        ("u-set", []),
        ("witness", ["--prime", "t"]),
        ("membership", ["--target", "A", "--x", "t"]),
    ]],
]


class _Hang(BaseException):
    # not an Exception, so main's exit-3 handler cannot swallow it
    pass


def _raise_hang(signum, frame):
    raise _Hang


def test_seeded_argv_exit_0_or_2(capsys):
    # admitted input succeeds and refused input exits 2: never a failed
    # identity (1), a traceback (3) or a run past 10 s
    rng = Random("cli-robustness")
    cases = [_fuzz_argv(rng) for _ in range(100)] + _EDGE_ARGV
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    start = time.perf_counter()
    try:
        for argv in cases:
            signal.alarm(10)
            try:
                code, _, err = run(capsys, argv)
            except _Hang:
                pytest.fail(f"no exit within 10 s: {shlex.join(argv)}")
            finally:
                signal.alarm(0)
            assert code in (0, 2), (shlex.join(argv), err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 5.0
