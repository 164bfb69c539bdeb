"""Command-line front end.

Every subcommand takes --q "p^e" and --json, and where relevant --seed (the
commands that draw), --csv (table commands), --degree-max, --samples and
--epsilon.  JSON output is one document per invocation with the fixed
envelope {command, field, inputs, result, evidence}, serialized with sorted
keys so identical (argv, seed) runs are byte-identical.  Exit codes: 0
success/verified, 1 a verified identity failed, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from random import Random

from . import selftest as selftest_mod
from .definability import (
    gamma_check,
    member_A,
    member_A_union_Ainf_semantic,
    member_A_union_Ainf_theorem,
    witness_pair,
)
from .dirichlet import APQuery, check_search_work, find_prime_in_ap, pi_ap, uniformity_report
from .gf import Field, FieldElem, parse_field_spec
from .places import Place, parse_place, parse_ratfunc, valuation
from .polyring import parse_poly
from .quaternion import (
    delta,
    hilbert_product,
    i_c_member,
    jacobson_member,
    parity_class_member,
    r_tilde_member,
    s_global_member,
    t_member,
    t_unit_member,
    u_set,
)
from .symbols import local_symbol, reciprocity_sweep, residue_symbol


class UsageError(ValueError):
    pass


def _field(args) -> Field:
    return parse_field_spec(args.q)


def _epsilon(field: Field, args) -> FieldElem | None:
    # the constant --epsilon names, or None for the library's default; the
    # library rejects a square
    if args.epsilon is None:
        return None
    f = parse_poly(field, args.epsilon)
    if not f.is_constant:
        raise UsageError("--epsilon must be a constant")
    return FieldElem(field, f.constant_code())


def _valuations(x, ram) -> dict:
    # v(x) at each ramified place; None for x = 0
    return {str(pl): (None if x.is_zero else valuation(x, pl)) for pl in ram.sorted()}


def _sym_json(sym: FieldElem) -> dict:
    # a quadratic value prints as its sign, any other as the field element
    out = {"zero": sym.is_zero, "value": repr(sym)}
    try:
        out["sign"] = sym.sign
    except ValueError:
        return out
    out["value"] = str(out["sign"])
    return out


# --- subcommand handlers: return (inputs, result, evidence, ok, text_lines) ---


def cmd_symbol(args):
    field = _field(args)
    alpha = parse_poly(field, args.alpha)
    prime = Place.finite(parse_poly(field, args.prime)).prime
    sym = residue_symbol(alpha, prime, args.n)
    inputs = {"alpha": str(alpha), "prime": str(prime), "n": args.n}
    result = _sym_json(sym)
    return inputs, result, {}, True, [f"({alpha} / {prime})_{args.n} = {result['value']}"]


def cmd_local_symbol(args):
    field = _field(args)
    alpha = parse_ratfunc(field, args.alpha)
    beta = parse_ratfunc(field, args.beta)
    place = parse_place(field, args.place)
    sym = local_symbol(alpha, beta, place)
    inputs = {"alpha": str(alpha), "beta": str(beta), "place": str(place)}
    return inputs, _sym_json(sym), {}, True, [f"({alpha}, {beta})_{place} = {sym.sign}"]


def cmd_hilbert(args):
    field = _field(args)
    alpha = parse_ratfunc(field, args.alpha)
    beta = parse_ratfunc(field, args.beta)
    res = hilbert_product(alpha, beta)
    inputs = {"alpha": str(alpha), "beta": str(beta)}
    result = {"per_place": res.as_dict(), "product": res.product, "pass": res.passed}
    lines = [f"({alpha}, {beta})_{place} = {sign}" for place, sign in res.per_place]
    lines.append(f"product = {res.product} ({'ok' if res.passed else 'VIOLATION'})")
    return inputs, result, {}, res.passed, lines


def cmd_reciprocity_sweep(args):
    field = _field(args)
    start = time.monotonic()
    res = reciprocity_sweep(field, args.degree_max, args.n)
    elapsed = time.monotonic() - start
    inputs = {"degree_max": args.degree_max, "n": args.n}
    result = {
        "pairs_total": res.pairs_total,
        "pairs_coprime": res.pairs_coprime,
        "violations": [
            {"alpha": str(v.alpha), "beta": str(v.beta), "lhs": repr(v.lhs), "rhs": repr(v.rhs)}
            for v in res.violations
        ],
        "pass": res.passed,
    }
    lines = [
        f"checked {res.pairs_coprime} coprime ordered pairs "
        f"(of {res.pairs_total} total) up to degree {args.degree_max}",
        f"violations: {len(res.violations)} ({elapsed:.2f}s)",
    ]
    return inputs, result, {}, res.passed, lines


def cmd_delta(args):
    field = _field(args)
    a = parse_ratfunc(field, args.a)
    b = parse_ratfunc(field, args.b)
    ram = delta(a, b)
    inputs = {"a": str(a), "b": str(b)}
    places = [str(p) for p in ram.sorted()]
    result = {"places": places, "size": len(places)}
    return inputs, result, {}, True, [f"Delta = {{{', '.join(places) or ''}}}"]


_MEMBER_SETS = {
    "S": lambda x, a, b, c: s_global_member(x, a, b),
    "T": lambda x, a, b, c: t_member(x, a, b),
    "Tx": lambda x, a, b, c: t_unit_member(x, a, b),
    "parity": lambda x, a, b, c: parity_class_member(x, a, b),
    "Ic": lambda x, a, b, c: i_c_member(x, a, b, c),
    "J": lambda x, a, b, c: jacobson_member(x, a, b),
    "Rtilde": lambda x, a, b, c: r_tilde_member(x, a, b),
}


def cmd_member(args):
    field = _field(args)
    x = parse_ratfunc(field, args.x)
    a = parse_ratfunc(field, args.a)
    b = parse_ratfunc(field, args.b)
    c = parse_ratfunc(field, args.c) if args.c else None
    if args.set == "Ic" and c is None:
        raise UsageError("--set Ic requires --c")
    verdict = _MEMBER_SETS[args.set](x, a, b, c)
    ram = delta(a, b)
    traces = _valuations(x, ram)
    inputs = {"set": args.set, "x": str(x), "a": str(a), "b": str(b)}
    if c is not None:
        inputs["c"] = str(c)
    result = {"member": verdict, "delta": [str(p) for p in ram.sorted()], "valuations": traces}
    lines = [f"{x} in {args.set}({a}, {b}) = {verdict}",
             f"Delta = {result['delta']}, v(x) = {traces}"]
    return inputs, result, {}, True, lines


def cmd_u_set(args):
    field = _field(args)
    us = u_set(field)
    inputs = {}
    result = {
        "members": [field.element_repr(c) for c in us.members],
        "size": len(us),
        "sumset_covers": us.sumset_covers,
    }
    lines = [f"U has {len(us)} members over GF({field.spec}): {result['members']}",
             f"U + U covers the field: {us.sumset_covers}"]
    return inputs, result, {}, True, lines


def cmd_witness(args):
    field = _field(args)
    eps = _epsilon(field, args)
    prime = parse_poly(field, args.prime)
    place = Place.finite(prime)
    rng = Random(f"{args.seed}:witness")
    wp = witness_pair(place, eps, rng, degree_cap=args.degree_max)
    ram = wp.ramified
    gamma_ok = gamma_check(wp.a, wp.b)
    inputs = {"prime": str(prime), "epsilon": repr(wp.epsilon)}
    result = {
        "a": str(wp.a),
        "b": str(wp.b),
        "companion": str(wp.companion),
        "delta": [str(p) for p in ram.sorted()],
        "gamma": gamma_ok,
    }
    ok = gamma_ok and ram.places == frozenset({place, Place.infinite(field)})
    lines = [f"a = {wp.a}, b = {wp.b} (companion prime {wp.companion})",
             f"Delta = {result['delta']}, pair-family membership: {gamma_ok}"]
    return inputs, result, {}, ok, lines


def cmd_membership(args):
    field = _field(args)
    x = parse_ratfunc(field, args.x)
    inputs = {"target": args.target, "x": str(x)}
    if args.target == "const":
        verdict = x.is_constant
        return inputs, {"member": verdict}, {}, True, [f"constant: {verdict}"]
    eps = _epsilon(field, args)
    rng = Random(f"{args.seed}:membership")
    if args.target == "A":
        report = member_A(x, eps, args.samples, rng)
        union_report = report.union_report
        result = {"member": report.member, "agrees": report.agrees,
                  "degree_clause": report.degree_clause}
    else:
        union_report = member_A_union_Ainf_theorem(x, eps, args.samples, rng)
        result = {"member": union_report.member, "agrees": union_report.agrees,
                  "semantic": member_A_union_Ainf_semantic(x)}
    evidence = {"pairs": []}
    for ev in union_report.evidence:
        ram = delta(ev.a, ev.b)
        evidence["pairs"].append(
            {
                "a": str(ev.a),
                "b": str(ev.b),
                "source": ev.source,
                "accepted": ev.accepted,
                "delta": [str(p) for p in ram.sorted()],
                "valuations": _valuations(x, ram),
            }
        )
    ok = result["agrees"]
    lines = [f"member: {result['member']} (evidence from {len(union_report.evidence)} pairs, "
             f"theorem agreement: {ok})"]
    return inputs, result, evidence, ok, lines


def cmd_ap_primes(args):
    field = _field(args)
    f = parse_poly(field, args.f)
    c = parse_poly(field, args.c)
    query = APQuery(f, c, args.k)
    check_search_work(f, args.k)
    count = pi_ap(query)
    rng = Random(f"{args.seed}:ap")
    example = find_prime_in_ap(f, c, args.k, rng) if count else None
    inputs = {"f": str(f), "c": str(c), "k": args.k}
    result = {"count": count, "example": None if example is None else str(example)}
    lines = [f"{count} monic irreducibles of degree {args.k} congruent to {c} mod {f}",
             f"example: {result['example']}"]
    return inputs, result, {}, True, lines


def cmd_uniformity(args):
    field = _field(args)
    f = parse_poly(field, args.f)
    report = uniformity_report(f, args.k)
    inputs = {"f": str(f), "k": args.k}
    result = {
        "pi_k": report.pi_k,
        "phi_f": report.phi_f,
        "expected": report.expected,
        "max_deviation": report.max_deviation,
        "in_stated_range": report.in_stated_range,
        "rows": report.as_rows(),
    }
    lines = [f"pi_q({args.k}) = {report.pi_k}, Phi({f}) = {report.phi_f}, "
             f"expected per class {report.expected:.3f}"]
    if not report.in_stated_range:
        lines.append("warning: ||f|| exceeds q^(k-4); the prediction is uncalibrated here")
    lines += [f"  c = {row['c']}: {row['count']} (dev {row['deviation']})" for row in result["rows"]]
    lines.append(f"max relative deviation: {report.max_deviation:.4f}")
    return inputs, result, {}, True, lines


def cmd_selftest(args):
    only = [int(c) for c in args.criteria.split(",")] if args.criteria else None
    unknown = sorted(set(only or ()) - set(range(1, len(selftest_mod.CRITERIA) + 1)))
    if unknown:
        raise UsageError(f"unknown criterion ids {unknown} "
                         f"(known: 1-{len(selftest_mod.CRITERIA)})")
    results = selftest_mod.run_all(args.seed, only)
    ok = all(r.passed for r in results)
    inputs = {"seed": args.seed, "criteria": only or "all"}
    result = {
        "criteria": [
            {"cid": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "pass": ok,
    }
    lines = [r.line for r in results]
    lines.append(f"{'ALL PASS' if ok else 'FAILURES PRESENT'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    return inputs, result, {}, ok, lines


_HANDLERS = {
    "symbol": cmd_symbol,
    "local-symbol": cmd_local_symbol,
    "hilbert": cmd_hilbert,
    "reciprocity-sweep": cmd_reciprocity_sweep,
    "delta": cmd_delta,
    "member": cmd_member,
    "u-set": cmd_u_set,
    "witness": cmd_witness,
    "membership": cmd_membership,
    "ap-primes": cmd_ap_primes,
    "uniformity": cmd_uniformity,
    "selftest": cmd_selftest,
}


def _add_common(sub, *, seed=False, csv=False, samples=None, degree_max=None, epsilon=False):
    sub.add_argument("--q", default="3", help='field spec "p" or "p^e" (default 3)')
    if seed:
        sub.add_argument("--seed", type=int, default=42, help="seed for all randomized behavior")
    sub.add_argument("--json", action="store_true", help="emit a JSON document")
    if csv:
        sub.add_argument("--csv", action="store_true", help="emit the table as CSV")
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples, help="sample size")
    if degree_max is not None:
        sub.add_argument("--degree-max", dest="degree_max", type=int, default=degree_max,
                         help="degree bound")
    if epsilon:
        sub.add_argument("--epsilon", default=None,
                         help="nonsquare constant (default: smallest nonsquare)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffsym",
        description="Symbols, reciprocity, ramification and definability over F_q(t).",
    )
    parser.set_defaults(csv=False)  # --csv exists on the table commands only
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("symbol", help="n-th power residue symbol (alpha/P)_n")
    s.add_argument("--alpha", required=True)
    s.add_argument("--prime", required=True)
    s.add_argument("--n", type=int, default=2)
    _add_common(s)

    s = subs.add_parser("local-symbol", help="quadratic local symbol at a place")
    s.add_argument("--alpha", required=True)
    s.add_argument("--beta", required=True)
    s.add_argument("--place", required=True, help='polynomial text or "inf"')
    _add_common(s)

    s = subs.add_parser("hilbert", help="local symbols at all places and their product")
    s.add_argument("--alpha", required=True)
    s.add_argument("--beta", required=True)
    _add_common(s)

    s = subs.add_parser("reciprocity-sweep", help="exhaustive reciprocity check")
    s.add_argument("--n", type=int, default=2)
    _add_common(s, degree_max=3)

    s = subs.add_parser("delta", help="ramified places of the quaternion algebra H_{a,b}")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    _add_common(s)

    s = subs.add_parser("member", help="membership in S/T/Tx/parity/Ic/J/Rtilde")
    s.add_argument("--set", required=True, choices=sorted(_MEMBER_SETS))
    s.add_argument("--x", required=True)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--c", default=None, help="scaling element for --set Ic")
    _add_common(s)

    s = subs.add_parser("u-set", help="irreducible-trace set U and its sumset")
    _add_common(s)

    s = subs.add_parser("witness", help="pair ramified exactly at {P, inf}")
    s.add_argument("--prime", required=True)
    _add_common(s, seed=True, degree_max=None, epsilon=True)
    s.add_argument("--degree-max", dest="degree_max", type=int, default=None,
                   help="companion degree cap (default deg P + 6)")

    s = subs.add_parser("membership", help="membership in A, A-or-Ainf, or the constants")
    s.add_argument("--target", required=True, choices=["A", "AorAinf", "const"])
    s.add_argument("--x", required=True)
    _add_common(s, seed=True, samples=20, epsilon=True)

    s = subs.add_parser("ap-primes", help="count/find primes in an arithmetic progression")
    s.add_argument("--f", required=True, help="modulus polynomial")
    s.add_argument("--c", required=True, help="residue polynomial")
    s.add_argument("--k", type=int, required=True, help="target degree")
    _add_common(s, seed=True)

    s = subs.add_parser("uniformity", help="per-class prime counts vs the expected value")
    s.add_argument("--f", required=True, help="modulus polynomial")
    s.add_argument("--k", type=int, required=True, help="target degree")
    _add_common(s, csv=True)

    s = subs.add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--criteria", default=None,
                   help='comma-separated criterion ids, e.g. "3,5" (default: all)')
    _add_common(s, seed=True, csv=True)
    return parser


def _emit_csv(command: str, result: dict, out) -> None:
    writer = csv.writer(out)
    if command == "uniformity":
        writer.writerow(["c", "count", "deviation"])
        for row in result["rows"]:
            writer.writerow([row["c"], row["count"], row["deviation"]])
    else:  # selftest
        writer.writerow(["cid", "name", "passed", "detail"])
        for row in result["criteria"]:
            writer.writerow([row["cid"], row["name"], row["passed"], row["detail"]])


# lower bounds of the integer flags, checked before any handler runs
_MINIMUM = {"degree_max": 0, "k": 1, "samples": 1}


def _check_ranges(args) -> None:
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        _check_ranges(args)
        inputs, result, evidence, ok, lines = handler(args)
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: neither bad input nor a failed identity
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    field_spec = parse_field_spec(args.q).spec
    if args.json:
        doc = {
            "command": args.command,
            "field": field_spec,
            "inputs": inputs,
            "result": result,
            "evidence": evidence,
        }
        print(json.dumps(doc, sort_keys=True))
    elif args.csv:
        buf = io.StringIO()
        _emit_csv(args.command, result, buf)
        sys.stdout.write(buf.getvalue())
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
