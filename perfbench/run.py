#!/usr/bin/env python3
"""ffsym benchmark: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,primes,local,membership} \\
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

The library is imported from ``src/`` next to this directory.  Set-up
(import, ``field_make`` table builds, seeded input generation) is repeated
in fresh module imports and its median is ``setup_s``.

``--trace 0`` runs the workload for ``--seconds`` and reports the
end-to-end metrics: medians of set-up and block times (one block is one
whole job, or one fixed mix of queries), and throughput and latency
percentiles over every op of the run.  Other tenants of a shared host slow
its CPU by up to 40%, in bursts from under a second to minutes, which moved raw
medians by 20-30% between runs; the slowdown shows in CPU time as much as
in wall time.  So a fixed slice of pure-Python work, independent of
ffsym, runs before the first and after every set-up, every op of a batch
workload and every block of a query workload.  Each such stretch is scaled
by ``REFERENCE_S`` over the mean of the slices around it (an op in a
query block by its block's factor), so it is reported at one fixed host
speed, as measured next to it.  Block times are sums of scaled op times.
The raw values and the slice times are kept in the run record.

``--trace 1`` replays a fixed number of ops twice, untraced and then
traced, with the library caches cleared before each pass; ``--seconds``
does not apply.  It reports the per-layer metrics, including the traced /
untraced time ratio, and requires both passes to produce identical
outputs.

Every op is checked by its oracle.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
0 only if every output passed.  A run record with the seed, nproc, Python
version, git sha and the raw samples behind every median is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Reference-slice time on an idle core of the 2-vCPU host (Python 3.11.7)
# the bounds were set on; end-to-end times are scaled to that speed.
REFERENCE_S = 0.015

# peak_rss_mb is the peak through set-up and this many blocks (or the whole
# run, if shorter): the library caches grow with every op, so a peak over
# all the ops that fit in --seconds would follow the host's speed.
RSS_BLOCKS = 12

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own checks")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def drop_ffsym() -> None:
    """Forget any earlier import of ffsym and collect its garbage."""
    for name in [m for m in sys.modules if m == "ffsym" or m.startswith("ffsym.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    """Import ffsym from src/; call ``drop_ffsym`` first."""
    ff = importlib.import_module("ffsym")
    if Path(ff.__file__).resolve().parent != SRC / "ffsym":
        raise ImportError(f"ffsym imported from {ff.__file__}, not from {SRC}")
    return ff


def reference() -> float:
    """Time of one fixed slice of pure-Python work (a dense product of two
    polynomials mod 7, repeated), independent of ffsym."""
    a, b = list(range(1, 30)), list(range(3, 32))
    t0 = time.perf_counter()
    for _ in range(180):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % 7
    return time.perf_counter() - t0


def speed_scales(refs: list[float]) -> list[float]:
    """Scale factor of the i-th timed stretch, whose neighbouring reference
    slices are ``refs[i]`` and ``refs[i + 1]``.  The host's speed wanders
    on a scale of 0.1 s, so one slice on each side is a poor estimate for
    a stretch of tenths of a second; the mean of two slices on each side
    (one at the ends of the run) gave steadier figures."""
    return [REFERENCE_S / statistics.mean(refs[max(i - 1, 0):i + 3]) for i in range(len(refs) - 1)]


def setup(cls, seed: int, size: str):
    """Set up ``setup_reps`` times; returns the last set-up, the raw times
    and the reference slices around them."""
    samples, refs = [], [reference()]
    for _ in range(cls.setup_reps[size]):
        ff = wl = None
        drop_ffsym()
        t0 = time.perf_counter()
        ff = fresh_import()
        wl = cls(ff, seed, size)
        samples.append(time.perf_counter() - t0)
        refs.append(reference())
    return ff, wl, samples, refs


def library_caches(ff) -> list:
    """Every lru_cache in the layer modules except gf's, whose field tables
    are set-up."""
    caches = []
    for layer in spans.LAYERS[1:]:
        for obj in vars(getattr(ff, layer)).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                caches.append(obj)
    return caches


def clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


class Tally:
    """Latencies, outputs and oracle verdicts of the ops run in one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.items = 0
        self.failed = 0
        self.digests: list[str] = []

    def run(self, wl, op, recorder=None) -> float:
        if recorder is not None:
            recorder.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        self.latencies.append(dt)
        digest = None
        if out is not None:
            try:
                if wl.check(op, out):
                    self.items += wl.items(op, out)
                    digest = wl.digest(op, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if digest is None:
            self.failed += 1
            print(f"oracle failed on op {len(self.latencies) - 1} of {wl.name}", file=sys.stderr)
        self.digests.append(digest or "failed")
        return dt


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, caches, seconds: float):
    """Run blocks until the next block would end after ``seconds``, with a
    reference slice before the first op and after every op of a batch
    workload (whose ops take tenths of a second) or every block of a query
    workload.  Returns the tally, the number of ops in each block, the
    slices and the peak RSS after ``RSS_BLOCKS`` blocks."""
    tally, sizes = Tally(), []
    clear(caches)
    gc.collect()
    start = time.perf_counter()
    refs = [reference()]
    while True:
        block = wl.next_block()
        if wl.batch:
            clear(caches)
        for op in block:
            tally.run(wl, op)
            if wl.batch:
                refs.append(reference())
        if not wl.batch:
            refs.append(reference())
        sizes.append(len(block))
        if len(sizes) == RSS_BLOCKS:
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if elapsed * (len(sizes) + 1) / len(sizes) > seconds:
            if len(sizes) < RSS_BLOCKS:
                rss = peak_rss_mb()
            return tally, sizes, refs, rss


def block_sums(values: list[float], sizes: list[int]) -> list[float]:
    sums, i = [], 0
    for size in sizes:
        sums.append(sum(values[i:i + size]))
        i += size
    return sums


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(setup_s, blocks, lat, items, rss) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(blocks),
        "ops_per_s": items / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
        "peak_rss_mb": rss,
    }


def end_to_end(args, wl, caches, setup_samples, setup_refs, record) -> tuple[dict, int, int]:
    tally, sizes, refs, rss = measure(wl, caches, args.seconds)
    final_ok = wl.final_check()
    failed = tally.failed if final_ok else len(tally.latencies)
    lat = tally.latencies
    # Times at the host speed where the reference slice takes REFERENCE_S.
    op_scales = speed_scales(refs)
    if not wl.batch:
        op_scales = [scale for scale, size in zip(op_scales, sizes) for _ in range(size)]
    scaled = [t * c for t, c in zip(lat, op_scales)]
    setup_scaled = [t * c for t, c in zip(setup_samples, speed_scales(setup_refs))]
    raw = summarize(setup_samples, block_sums(lat, sizes), lat, tally.items, rss)
    values = summarize(setup_scaled, block_sums(scaled, sizes), scaled, tally.items, rss)
    record["samples"].update(block_ops=sizes, op_s=lat, setup_reference_s=setup_refs, reference_s=refs)
    record.update(final_check=final_ok, items=tally.items, digests=tally.digests, raw_metrics=raw)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, len(lat), failed


def traced(args, ff, wl, caches, record) -> tuple[dict, int, int]:
    probe_values, probe_samples = spans.gf_probes(ff, wl.fields_for(args.size), args.seed)
    blocks = [wl.next_block() for _ in range(wl.trace_blocks[args.size])]
    quaternion_caches = [c for c in caches if c.__module__ == "ffsym.quaternion"]

    def replay(recorder=None) -> Tally:
        tally = Tally()
        clear(caches)
        gc.collect()
        for block in blocks:
            if wl.batch:
                clear(caches)
            for op in block:
                tally.run(wl, op, recorder)
        return tally

    plain = replay()
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        with_spans = replay(recorder)
        cache_stats = (
            sum(c.cache_info().hits for c in quaternion_caches),
            sum(c.cache_info().misses for c in quaternion_caches),
        )
    finally:
        recorder.uninstall()

    final_ok = wl.final_check()
    mismatched = sum(a != b for a, b in zip(plain.digests, with_spans.digests))
    if mismatched:
        print(f"{mismatched} ops gave different outputs traced and untraced", file=sys.stderr)
    attempted = len(plain.latencies) + len(with_spans.latencies)
    failed = attempted if not final_ok else plain.failed + with_spans.failed + mismatched

    values, per_function = spans.layer_metrics(recorder, cache_stats)
    values.update(probe_values)
    values["trace.overhead_ratio"] = sum(with_spans.latencies) / sum(plain.latencies)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    recorder.write(span_file)

    record["samples"].update(probe_samples, untraced_op_s=plain.latencies, traced_op_s=with_spans.latencies)
    record.update(
        final_check=final_ok, traced_ops=len(plain.latencies), spans=len(recorder.fid),
        span_file=str(span_file.relative_to(ROOT)), per_function=per_function,
        cache_stats={"hits": cache_stats[0], "misses": cache_stats[1]},
        digests=plain.digests, traced_digests=with_spans.digests,
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    return metrics, attempted, failed


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the library sources, to identify the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ffsym").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ffsym" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    ff, wl, setup_samples, setup_refs = setup(cls, args.seed, args.size)
    caches = library_caches(ff)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_sha": git_sha(), "src_sha256": src_digest(),
        "inputs": wl.input_digest(), "samples": {"setup_s": setup_samples},
    }
    if args.trace:
        metrics, attempted, failed = traced(args, ff, wl, caches, record)
    else:
        metrics, attempted, failed = end_to_end(args, wl, caches, setup_samples, setup_refs, record)
    record.update(metrics=metrics, attempted=attempted, failed=failed, fail_ratio=failed / attempted)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
