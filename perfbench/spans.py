"""Layer-boundary spans for the traced benchmark run, and the gf probes.

A span is recorded for every call of a public module-level function of a
layer module (gf, polyring, places, symbols, quaternion, definability,
dirichlet).  The recorder rebinds those names in every ffsym module that
holds them, the defining module included, so a call is traced however it
is reached: through an import, a lazy import inside a function, or a call
from the same module (``witness_pair`` and ``gamma_check`` are only ever
reached that way).  Private helpers and methods of ``Poly``, ``Field``,
``RatFunc`` and ``Place`` are not wrapped because they are too hot; their
time counts toward the self time of the span that called them.  Nothing
under ``src/`` is edited: the rebinding lives in this process only and is
undone by ``uninstall``.

Spans are ``(name, start, end, parent)`` kept in flat arrays; parents
always precede their children, so one forward pass derives self times and
nesting.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
import types
from array import array
from random import Random

LAYERS = ("gf", "polyring", "places", "symbols", "quaternion", "definability", "dirichlet")

# (name, unit); BENCHMARK.json lists the same names and units.
PER_LAYER = [
    ("polyring.is_irreducible.calls", "count"),
    ("polyring.powmod.calls", "count"),
    ("polyring.powmod.self_s", "s"),
    ("polyring.factor.self_s", "s"),
    ("polyring.gcd.calls", "count"),
    ("symbols.reciprocity_sweep.self_s", "s"),
    ("symbols.local_symbol.calls", "count"),
    ("symbols.local_symbol.self_s", "s"),
    ("quaternion.delta.calls", "count"),
    ("quaternion.delta.hit_ratio", "ratio"),
    ("dirichlet.find_prime_in_ap.tests_per_prime", "ratio"),
    ("dirichlet.pi_ap.calls", "count"),
    ("definability.witness_pair.searches_per_pair", "ratio"),
    ("definability.gamma_check.self_s", "s"),
    ("gf.mul_ns.prime", "ns"),
    ("gf.mul_ns.table", "ns"),
    ("gf.mul_ns.vector", "ns"),
    ("gf.field_make_s", "s"),
]
for _layer in LAYERS:
    PER_LAYER += [(f"{_layer}.calls", "count"), (f"{_layer}.self_s", "s")]
PER_LAYER.append(("trace.overhead_ratio", "ratio"))

# One field per gf arithmetic path: native prime field (q > 256), full
# tables (q <= 256), vector fallback (extension field with q > 256).
MUL_PROBES = {"prime": (257, 1, 200000), "table": (3, 5, 200000), "vector": (5, 4, 5000)}


class SpanRecorder:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nonnull = array("b")  # the call returned something other than None
        self.active = False
        self._stack = [-1]
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, fid: int):
        perf = time.perf_counter
        fids, parents, starts, ends, nonnull = self.fid, self.parent, self.start, self.end, self.nonnull
        stack = self._stack
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            nonnull.append(0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                nonnull[idx] = out is not None
                return out
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every public layer function in every loaded ffsym module."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"ffsym.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self.names.append(f"{layer}.{name}")
                wrappers[id(obj)] = self._wrap(obj, len(self.names) - 1)
        for modname, mod in list(sys.modules.items()):
            if modname != "ffsym" and not modname.startswith("ffsym."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._rebound):
            setattr(mod, name, obj)
        self._rebound.clear()

    # --- derived numbers ---

    def per_function(self) -> dict[str, dict]:
        n = len(self.fid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.fid[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return table

    def searches_per_result(self, outer: str, inner: str) -> float:
        """``inner`` spans nested in ``outer`` spans, per ``outer`` span that
        returned a value."""
        if outer not in self.names or inner not in self.names:
            return 0.0
        outer_id, inner_id = self.names.index(outer), self.names.index(inner)
        # parents precede children, so one pass marks every span inside an outer span
        inside = [False] * len(self.fid)
        inner_calls = results = 0
        for i in range(len(self.fid)):
            p = self.parent[i]
            inside[i] = self.fid[i] == outer_id or (p >= 0 and inside[p])
            if self.fid[i] == inner_id and p >= 0 and inside[p]:
                inner_calls += 1
            if self.fid[i] == outer_id and self.nonnull[i]:
                results += 1
        return inner_calls / results if results else 0.0

    def write(self, path) -> None:
        """Spans as gzip CSV: name, start and end in microseconds from the
        first span, parent row (-1 for a root)."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_us,end_us,parent\n")
            names = self.names
            for i in range(len(self.fid)):
                fh.write(
                    f"{names[self.fid[i]]},{(self.start[i] - base) * 1e6:.1f},"
                    f"{(self.end[i] - base) * 1e6:.1f},{self.parent[i]}\n"
                )


def layer_metrics(rec: SpanRecorder, cache_stats: tuple[int, int]) -> tuple[dict, dict]:
    """The span-derived per-layer metrics, and the per-function table."""
    table = rec.per_function()

    def get(name: str, key: str):
        return table.get(name, {}).get(key, 0)

    hits, misses = cache_stats
    out = {
        "polyring.is_irreducible.calls": get("polyring.is_irreducible", "calls"),
        "polyring.powmod.calls": get("polyring.powmod", "calls"),
        "polyring.powmod.self_s": get("polyring.powmod", "self_s"),
        "polyring.factor.self_s": get("polyring.factor", "self_s"),
        "polyring.gcd.calls": get("polyring.gcd", "calls"),
        "symbols.reciprocity_sweep.self_s": get("symbols.reciprocity_sweep", "self_s"),
        "symbols.local_symbol.calls": get("symbols.local_symbol", "calls"),
        "symbols.local_symbol.self_s": get("symbols.local_symbol", "self_s"),
        "quaternion.delta.calls": get("quaternion.delta", "calls"),
        "quaternion.delta.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dirichlet.find_prime_in_ap.tests_per_prime": rec.searches_per_result(
            "dirichlet.find_prime_in_ap", "polyring.is_irreducible"),
        "dirichlet.pi_ap.calls": get("dirichlet.pi_ap", "calls"),
        "definability.witness_pair.searches_per_pair": rec.searches_per_result(
            "definability.witness_pair", "dirichlet.find_prime_in_ap"),
        "definability.gamma_check.self_s": get("definability.gamma_check", "self_s"),
    }
    for layer in LAYERS:
        rows = [row for name, row in table.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(row["calls"] for row in rows)
        out[f"{layer}.self_s"] = sum(row["self_s"] for row in rows)
    return out, table


def gf_probes(ff: types.ModuleType, fields: list[tuple[int, int]], seed: int) -> tuple[dict, dict]:
    """Timed ``Field.mul`` on each arithmetic path and fresh construction of
    the workload's fields; medians of five rounds, raw rounds returned."""
    rng = Random(seed)
    metrics, samples = {}, {}
    for path, (p, e, n) in MUL_PROBES.items():
        field = ff.field_make(p, e)
        xs = [rng.randrange(field.q) for _ in range(n)]
        ys = [rng.randrange(field.q) for _ in range(n)]
        mul = field.mul
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for a, b in zip(xs, ys):
                mul(a, b)
            rounds.append((time.perf_counter() - t0) / n * 1e9)
        metrics[f"gf.mul_ns.{path}"] = statistics.median(rounds)
        samples[f"gf.mul_ns.{path}"] = rounds
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        for p, e in fields:
            ff.gf.Field(p, e)
        rounds.append(time.perf_counter() - t0)
    metrics["gf.field_make_s"] = statistics.median(rounds)
    samples["gf.field_make_s"] = rounds
    return metrics, samples
