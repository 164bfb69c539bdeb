#!/usr/bin/env python3
"""Run every workload, one fresh process each, and print every metric.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1]

Prints one line per metric (workload, name, value, unit) and the
fail_ratio (failed / attempted) of each workload.  Exits 1 if any
workload's run failed or reported a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str):
    """(exit code, parsed result line or None, stderr) of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", size],
        cwd=RUN.parent.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run every ffsym benchmark workload.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        code, result, stderr = run_workload(workload, args.seed, args.seconds, args.trace, "full")
        if result is None:
            print(f"{workload:11s} run failed with exit code {code}\n{stderr}", flush=True)
            ok = False
            continue
        for name, metric in result["metrics"].items():
            print(f"{workload:11s} {name:46s} {metric['value']:14.6g} {metric['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:11s} {'fail_ratio':46s} {ratio:14.6g} ratio "
              f"({result['failed']} of {result['attempted']} ops)", flush=True)
        ok = ok and code == 0 and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
