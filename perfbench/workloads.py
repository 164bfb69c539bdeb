"""The four benchmark workloads.

Every workload builds its inputs from the benchmark seed; the library sees
only the generated inputs.  A workload hands out its ops in blocks:

* batch workloads (``sweep``, ``primes``): a block is the whole job, one
  ``reciprocity_sweep`` or one ``uniformity_report`` per shape.  The
  library's caches are cleared before each job, so every repetition is a
  time to solution.
* query workloads (``local``, ``membership``): a block is a fixed mix of
  fresh random queries, shuffled.  Fixing the mix per block keeps the
  share of each field and input kind the same for every seed and run
  length.  Caches stay warm across queries, as in a long-lived caller.

``check`` is the oracle for one op, run outside the timed call;
``final_check`` is the expensive oracle run once after the timed phase.
"""

from __future__ import annotations

import hashlib
import types
from random import Random


def _mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def mobius_prime_count(q: int, k: int) -> int:
    """Monic irreducibles of degree k over F_q: (1/k) sum_{d|k} mu(d) q^(k/d)."""
    return sum(_mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    batch = False
    setup_reps = {"full": 25, "smoke": 2}  # about 50 ms each
    trace_blocks = {"full": 6, "smoke": 1}  # blocks replayed by the traced run

    def __init__(self, ff: types.ModuleType, seed: int, size: str):
        self.ff = ff
        self.rng = Random(seed)
        self.size = size
        for p, e in self.fields_for(size):
            ff.field_make(p, e)
        self._pending = self.make_block()

    def fields_for(self, size: str) -> list[tuple[int, int]]:
        """The (p, e) fields made during set-up."""
        raise NotImplementedError

    def next_block(self) -> list:
        block, self._pending = self._pending, None
        return block if block is not None else self.make_block()

    def make_block(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def items(self, op, out) -> int:
        """Work units in one op, for ``ops_per_s``."""
        return 1

    def digest(self, op, out) -> str:
        raise NotImplementedError

    def input_digest(self) -> str:
        return _digest(repr(self._pending))

    def final_check(self) -> bool:
        return True


class Sweep(Workload):
    """One exhaustive ``reciprocity_sweep`` over all coprime pairs of
    nonzero polynomials of degree <= d."""

    name = "sweep"
    batch = True
    # q, max degree, re-checked pairs.  F_5 at degree 3 (312,496 coprime
    # pairs, about 0.5 s) rather than F_7 at degree 3 (4,941,252 pairs, 6-9 s):
    # a run must hold enough repetitions for a steady 10th-percentile time.
    SIZES = {"full": (5, 3, 200), "smoke": (3, 2, 20)}

    def fields_for(self, size):
        return [(self.SIZES[size][0], 1)]

    def __init__(self, ff, seed, size):
        super().__init__(ff, seed, size)
        q, self.deg, count = self.SIZES[size]
        self.field = ff.field_make(q)
        # seeded coprime pairs for the direct-path re-check after timing
        self.sample = []
        while len(self.sample) < count:
            a = ff.random_poly(self.field, self.rng, self.deg, nonzero=True)
            b = ff.random_poly(self.field, self.rng, self.deg, nonzero=True)
            if ff.gcd(a, b).degree == 0:
                self.sample.append((a, b))

    def make_block(self):
        return ["sweep"]

    def input_digest(self):
        return _digest(repr(self.sample))

    def run(self, op):
        return self.ff.reciprocity_sweep(self.field, self.deg)

    def expected_counts(self) -> tuple[int, int]:
        q = self.field.q
        s = sum(q ** k for k in range(self.deg + 1))
        return (q - 1) ** 2 * s * s, (q - 1) ** 2 * (s * s - (s - 1) ** 2 // q)

    def check(self, op, out):
        return out.passed and (out.pairs_total, out.pairs_coprime) == self.expected_counts()

    def items(self, op, out):
        return out.pairs_coprime

    def digest(self, op, out):
        return _digest(f"{out.pairs_total} {out.pairs_coprime} {len(out.violations)}")

    def final_check(self):
        return all(self.ff.check_general_reciprocity(a, b).passed for a, b in self.sample)


class Primes(Workload):
    """``uniformity_report`` over fixed (q, deg f, k) shapes; the seed picks
    the monic irreducible modulus f of each shape.  All irreducible f of one
    degree are related by an affine substitution, so the work per shape is
    the same for every seed."""

    name = "primes"
    batch = True
    # (q, deg f, k): (5, 2, 4) and (13, 1, 3) lie outside the stated range
    # deg f <= k - 4; (3, 1, 5), (3, 1, 6) and (3, 1, 7) lie inside it.
    # About 1.1 s in all, so a run holds some twenty jobs.  Each shape is one
    # op; with an odd number of shapes the median op falls inside the group
    # of the middle shape rather than in the gap between two groups.
    SIZES = {
        "full": [(5, 2, 4), (13, 1, 3), (3, 1, 5), (3, 1, 6), (3, 1, 7)],
        "smoke": [(5, 1, 3), (3, 1, 5)],
    }

    def fields_for(self, size):
        return sorted({(q, 1) for q, _, _ in self.SIZES[size]})

    def make_block(self):
        ff, rng = self.ff, self.rng
        return [(ff.random_irreducible(ff.field_make(q), rng, d), k) for q, d, k in self.SIZES[self.size]]

    def run(self, op):
        f, k = op
        return self.ff.uniformity_report(f, k)

    def check(self, op, out):
        f, k = op
        q, d = f.field.q, f.degree
        pi_k = mobius_prime_count(q, k)
        # f is irreducible: Phi(f) = q^d - 1 classes, and f is the only
        # prime dividing f, so it drops out of the total only when d == k
        return (
            out.pi_k == pi_k
            and len(out.rows) == q ** d - 1
            and sum(row.count for row in out.rows) == pi_k - (d == k)
            and out.in_stated_range == (d <= k - 4)
        )

    def items(self, op, out):
        # candidates classified: every monic of degree k in a unit class
        f, k = op
        return (f.field.q ** f.degree - 1) * f.field.q ** (k - f.degree)

    def digest(self, op, out):
        return _digest(repr((str(out.f), out.k, out.pi_k, [row.count for row in out.rows])))


class Local(Workload):
    """``hilbert_product(a, b)`` then ``delta(a, b)`` on a fresh random pair.

    The mix covers all three gf arithmetic paths: native prime-field
    arithmetic (F_257), table lookup (F_3 ... F_13, F_9, F_{3^5}) and the
    vector fallback (F_{5^4}, a small share at low degree)."""

    name = "local"
    # (p, e, max degree, queries per block).  op_p99_ms falls among the
    # F_{5^4} queries, whose costs spread widely; at 3 per block it moved by
    # 15% between seeds, and 6 per block (6% of the queries, about a third
    # of the time) brings the p99 where that group's samples are dense.
    MIX = {
        "full": [(3, 1, 5, 14), (5, 1, 5, 14), (7, 1, 5, 14), (13, 1, 5, 14), (257, 1, 5, 14),
                 (3, 2, 5, 14), (3, 5, 5, 13), (5, 4, 2, 6)],
        "smoke": [(3, 1, 3, 2), (257, 1, 3, 1), (3, 2, 3, 1), (3, 5, 2, 1), (5, 4, 1, 1)],
    }
    setup_reps = {"full": 9, "smoke": 2}  # the F_{3^5} tables take about 0.5 s
    trace_blocks = {"full": 8, "smoke": 1}

    def fields_for(self, size):
        return [(p, e) for p, e, _, _ in self.MIX[size]]

    def make_block(self):
        ff, rng = self.ff, self.rng
        block = []
        for p, e, deg, count in self.MIX[self.size]:
            field = ff.field_make(p, e)
            # (numerator, denominator) degrees spread evenly over the grid
            # {0..deg}^2, so every block carries the same amount of work
            # and only the coefficients are random
            grid = sorted(((i, j) for i in range(deg + 1) for j in range(deg + 1)), key=sum)
            start = rng.random()
            degrees = [grid[int((start + k / (2 * count)) * len(grid)) % len(grid)]
                       for k in range(2 * count)]
            rng.shuffle(degrees)
            fracs = [
                ff.RatFunc(ff.random_poly(field, rng, dn, nonzero=True, exact_deg=True),
                           ff.random_poly(field, rng, dd, nonzero=True, exact_deg=True))
                for dn, dd in degrees
            ]
            block.extend(zip(fracs[::2], fracs[1::2]))
        rng.shuffle(block)
        return block

    def run(self, op):
        a, b = op
        return self.ff.hilbert_product(a, b), self.ff.delta(a, b)

    def check(self, op, out):
        hil, ram = out
        signs = [s for _, s in hil.per_place]
        if any(s not in (1, -1) for s in signs):
            return False
        product = 1
        for s in signs:
            product *= s
        minus = frozenset(place for place, s in hil.per_place if s == -1)
        return product == 1 == hil.product and minus == ram.places and len(ram.places) % 2 == 0

    def digest(self, op, out):
        hil, ram = out
        return _digest(repr((hil.per_place, sorted(map(str, ram.places)))))


class Membership(Workload):
    """``member_A(x, eps, 20, rng)`` on polynomials (members) and fractions
    with a nonconstant denominator (non-members) over F_3, F_5 and F_7."""

    name = "membership"
    QS = (3, 5, 7)
    MAX_DEG = 4
    PER_KIND = {"full": 4, "smoke": 1}  # queries per (q, kind) in one block
    trace_blocks = {"full": 20, "smoke": 1}

    def fields_for(self, size):
        return [(q, 1) for q in self.QS]

    def make_block(self):
        ff, rng = self.ff, self.rng
        block = []
        for q in self.QS:
            field = ff.field_make(q)
            for _ in range(self.PER_KIND[self.size]):
                poly = ff.RatFunc.from_poly(ff.random_poly(field, rng, self.MAX_DEG, nonzero=True))
                block.append((poly, rng.getrandbits(64)))
                while True:
                    frac = ff.random_ratfunc(field, rng, self.MAX_DEG)
                    if not frac.den.is_constant:
                        break
                block.append((frac, rng.getrandbits(64)))
        rng.shuffle(block)
        return block

    def run(self, op):
        x, query_seed = op
        return self.ff.member_A(x, None, 20, Random(query_seed))

    def check(self, op, out):
        x, _ = op
        return out.agrees and out.member == x.den.is_constant

    def digest(self, op, out):
        ev = [(str(e.a), str(e.b), e.source, e.accepted) for e in out.union_report.evidence]
        return _digest(repr((out.member, out.agrees, out.degree_clause, ev)))


WORKLOADS = {cls.name: cls for cls in (Sweep, Primes, Local, Membership)}
