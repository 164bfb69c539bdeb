#!/usr/bin/env python3
"""The benchmark's own checks, on smoke-sized inputs (about a minute).

    python3 perfbench/selfcheck.py

* BENCHMARK.json names exactly the workloads and metrics the code reports;
* every workload finishes a smoke run quickly, correct, with the metric
  names and units of BENCHMARK.json, traced and untraced;
* another seed changes the inputs but not the metric names;
* traced and untraced runs of one seed give identical library outputs;
* without the library sources the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans
from run import END_TO_END, OUT, ROOT
from suite import run_workload
from workloads import WORKLOADS

SMOKE_SECONDS = 1
SMOKE_LIMIT_S = 60
SEED_A, SEED_B = 101, 202


def record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(declared[0] == dict(END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    expect(declared[1] == dict(spans.PER_LAYER), "BENCHMARK.json per_layer matches spans.py")
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads match")

    for workload in WORKLOADS:
        for seed, trace in ((SEED_A, 0), (SEED_A, 1), (SEED_B, 0)):
            t0 = time.monotonic()
            code, result, stderr = run_workload(workload, seed, SMOKE_SECONDS, trace, "smoke")
            took = time.monotonic() - t0
            tag = f"{workload} seed {seed} trace {trace}"
            expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{tag}: correct, exit 0 ({took:.1f} s)" + ("" if code == 0 else f"\n{stderr}"))
            expect(took < SMOKE_LIMIT_S, f"{tag}: smoke run under {SMOKE_LIMIT_S} s")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared[trace], f"{tag}: metric names and units match BENCHMARK.json")
        if failures:
            continue
        a0, a1, b0 = record(workload, SEED_A, 0), record(workload, SEED_A, 1), record(workload, SEED_B, 0)
        expect(a0["inputs"] != b0["inputs"], f"{workload}: another seed changes the inputs")
        n = min(len(a0["digests"]), len(a1["digests"]))
        expect(n > 0 and a0["digests"][:n] == a1["digests"][:n] == a1["traced_digests"][:n],
               f"{workload}: traced and untraced outputs identical ({n} ops)")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in Path(__file__).resolve().parent.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, check=False,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ the run exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
