"""Independent verification sweeps over the kernel and the constructions.

Each suite returns an AuditReport with exact counterexamples (a correct
implementation produces none).  Sweeps are deterministic given their seed;
random rationals use small fixed denominators so exact arithmetic stays
bounded.
"""

import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import factorial

from .construct import unit_interval_check
from .exact import ZERO, frac, iterate_entry_bound, log_upper, render
from .kernel import (
    KernelCache,
    apply_iterate,
    apply_iterate_oracle,
    convexity_expansion,
    default_cache,
)
from .sequences import IterateWalker, RunSeq, pieces
from .space import Space, padd, pcombine, pscale, pzero

MAX_STORED_COUNTEREXAMPLES = 25


@dataclass
class AuditReport:
    """Outcome of one sweep; failed == len(counterexamples) unless truncated."""

    suite: str
    params: dict
    checked: int = 0
    passed: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)
    wall_time_ms: float | None = None

    def record(self, ok: bool, detail=None) -> None:
        """Count one check; a failed one stores its detail, written by ``render``."""
        self.checked += 1
        if ok:
            self.passed += 1
            return
        self.failed += 1
        if detail is not None and len(self.counterexamples) < MAX_STORED_COUNTEREXAMPLES:
            self.counterexamples.append(render(detail))

    def to_json(self, include_timing: bool = False) -> dict:
        # timing is opt-in so that identical (config, seed) runs serialize
        # byte-identically
        out = render({f.name: getattr(self, f.name) for f in fields(self)})
        if not include_timing or self.wall_time_ms is None:
            del out["wall_time_ms"]
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "AuditReport":
        return cls(
            suite=raw["suite"], params=raw["params"], checked=raw["checked"],
            passed=raw["passed"], failed=raw["failed"],
            counterexamples=list(raw["counterexamples"]),
            wall_time_ms=raw.get("wall_time_ms"),
        )


def random_fraction(rng: random.Random, lo: int = -8, hi: int = 8,
                    max_den: int = 64) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.wall_time_ms = (time.perf_counter() - t0) * 1000.0
        return report
    return wrapper


@_timed
def audit_kernel(k_max: int, n_max: int, cache: KernelCache | None = None) -> AuditReport:
    """Exhaustive row checks plus the lower-bound, ratio and expansion sweeps.

    Row sum / monotonicity / tail bound / log bound run over every cached
    (k <= k_max, n <= n_max).  The cubic lower-bound sweeps are dense up to
    n = 60 and strided beyond; the ratio-chain sweep uses deterministic
    strides and compares integer cross-products of the entries' numerators
    and denominators, so a zero or negative entry fails it.  The log-bound
    comparison is one-sided (certified upper bound on log n), so a pass is
    sound; a miss is re-checked at higher precision before being recorded.
    """
    cache = cache or default_cache()
    report = AuditReport("kernel", {"k_max": k_max, "n_max": n_max})
    log_cache = {}

    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            row = cache.row(k, n)
            row_sum = sum(row, ZERO)
            report.record(row_sum == 1, {
                "check": "row_sum", "k": k, "n": n, "sum": row_sum,
            })
            report.record(
                all(row[m] >= row[m + 1] for m in range(n - 1)),
                {"check": "row_monotone", "k": k, "n": n},
            )
            half_bound = Fraction(2, n)
            report.record(
                all(row[m - 1] <= half_bound for m in range(n // 2 + 1, n + 1)),
                {"check": "upper_half", "k": k, "n": n},
            )
            if n not in log_cache:
                log_cache[n] = log_upper(n)
            bound = iterate_entry_bound(k, n, log_cache[n])
            ok = row[0] <= bound  # row maximum is the first entry
            if not ok:
                tighter = iterate_entry_bound(k, n, log_upper(n, Fraction(1, 10**18)))
                ok = row[0] <= tighter
            report.record(ok, {
                "check": "log_bound", "k": k, "n": n,
                "entry": row[0], "bound": bound,
            })

    # lower bounds for tail segments, deduplicated: for a fixed row, every
    # (lam, i) with the same column col = row - lam + i yields the identical
    # entry inequality, and the per-lam sums are plain suffix sums
    for k in range(1, k_max + 1):
        fk1 = factorial(k - 1)
        fk = factorial(k)
        for total in range(2, n_max + 1):
            row = cache.row(k, total)
            nk = total**k
            ok_each = True
            for col in range(2, total + 1):
                entry = row[col - 1]
                if entry.numerator * nk * fk1 < (total - col + 1) ** (k - 1) * entry.denominator:
                    ok_each = False
            report.record(ok_each, {"check": "tail_entry_lower", "k": k, "row": total})
            suffix = ZERO
            ok_sums = True
            for lam in range(1, total):
                suffix += row[total - lam]
                if suffix.numerator * nk * fk < lam**k * suffix.denominator:
                    ok_sums = False
            report.record(ok_sums, {"check": "tail_sum_lower", "k": k, "row": total})

    # ratio chains 2 >= a_1 >= ... >= a_lam > 0 for lam < LAM <= n
    for k in range(1, k_max + 1):
        for n in range(2, n_max + 1, max(1, n_max // 24)):
            lam_step = max(1, n // 12)
            for lam in range(1, n, lam_step):
                for big in range(lam + 1, n + 1, lam_step):
                    if n + big > n_max:
                        continue
                    row_small = cache.row(k, n + lam)
                    row_big = cache.row(k, n + big)
                    # ratio = num/den over positive integers; prev starts at 2
                    prev_num, prev_den = 2, 1
                    ok = True
                    for t in range(n, n + lam):
                        small, large = row_small[t], row_big[t]
                        num = small.numerator * large.denominator
                        den = small.denominator * large.numerator
                        if not (num > 0 and den > 0 and num * prev_den <= prev_num * den):
                            ok = False
                            break
                        prev_num, prev_den = num, den
                    report.record(ok, {
                        "check": "ratio_chain", "k": k, "n": n, "lam": lam, "LAM": big,
                    })

    # columns thin out along the tail (spot check, not a limit statement)
    for k in range(1, k_max + 1):
        for m in (1, 2, 3):
            mid = max(2 * m, n_max // 4)
            if mid >= n_max:
                continue
            report.record(
                cache.entry(k, n_max, m) < cache.entry(k, mid, m),
                {"check": "column_tail", "k": k, "m": m},
            )

    # convex-combination expansion of a later iterate over earlier state
    rng = random.Random(20240)
    for k in range(1, min(3, k_max) + 1):
        for n in (3, 7):
            for a in range(1, 5):
                if n + a > n_max:
                    continue
                weights = convexity_expansion(k, n, a)
                ok = all(w >= 0 for w in weights.values()) and sum(weights.values()) == 1
                prefix = [(random_fraction(rng),) for _ in range(n + a)]
                acc = pcombine((
                    (w, apply_iterate(basis[1], prefix, n, cache) if basis[0] == "T"
                     else prefix[basis[1] - 1])
                    for basis, w in weights.items()
                ), 1)
                ok = ok and acc == apply_iterate(k, prefix, n + a, cache)
                report.record(ok, {"check": "convex_expansion", "k": k, "n": n, "a": a})
    return report


@_timed
def audit_oracle(instances: int = 1000, seed: int = 0, k_max: int = 4,
                 n_max: int = 50, d_max: int = 3,
                 cache: KernelCache | None = None) -> AuditReport:
    """apply_iterate must equal apply_iterate_oracle exactly on random prefixes."""
    cache = cache or default_cache()
    rng = random.Random(seed)
    report = AuditReport("oracle", {
        "instances": instances, "seed": seed, "k_max": k_max,
        "n_max": n_max, "d_max": d_max,
    })
    for _ in range(instances):
        k = rng.randint(1, k_max)
        n = rng.randint(1, n_max)
        d = rng.randint(1, d_max)
        prefix = [tuple(random_fraction(rng) for _ in range(d)) for _ in range(n)]
        lhs = apply_iterate(k, prefix, n, cache)
        rhs = apply_iterate_oracle(k, prefix, n)
        report.record(lhs == rhs, {
            "check": "oracle", "k": k, "n": n, "d": d,
            "kernel": lhs,
            "oracle": rhs,
        })
    return report


@_timed
def audit_abel(samples: int = 200, seed: int = 0, dimension: int = 2,
               lam_max: int = 12) -> AuditReport:
    """Partial sums of a_t b_t stay within a_1 * M when a is decreasing, a_1 <= 2."""
    rng = random.Random(seed)
    space = Space(dimension)
    report = AuditReport("abel", {
        "samples": samples, "seed": seed, "dimension": dimension, "lam_max": lam_max,
    })
    for _ in range(samples):
        lam = rng.randint(1, lam_max)
        coeffs = sorted(
            (Fraction(rng.randint(1, 128), 64) for _ in range(lam)), reverse=True
        )
        vectors = [tuple(random_fraction(rng) for _ in range(dimension)) for _ in range(lam)]
        partial = [vectors[0]]
        for b in vectors[1:]:
            partial.append(padd(partial[-1], b))
        ok = True
        for rho in range(1, dimension + 1):
            bound = max(space.seminorm(rho, p) for p in partial)
            acc = pzero(dimension)
            for a_t, b_t in zip(coeffs, vectors):
                acc = padd(acc, pscale(a_t, b_t))
                if space.seminorm(rho, acc) > coeffs[0] * bound:
                    ok = False
        report.record(ok, {
            "check": "abel", "lam": lam,
            "coeffs": coeffs,
        })
    return report


@_timed
def audit_unit_interval(samples: int = 500, n_max: int = 100, seed: int = 0,
                  cache: KernelCache | None = None) -> AuditReport:
    """Random [0,1] prefixes: [T]_n < 1/8 forces [T^2]_n < 15/16 (plus sub-facts)."""
    cache = cache or default_cache()
    rng = random.Random(seed)
    report = AuditReport("prop412", {"samples": samples, "n_max": n_max, "seed": seed})
    report.params["triggered"] = 0
    report.params["vacuous"] = 0
    for _ in range(samples):
        length = rng.randint(1, n_max)
        values = [Fraction(rng.randint(0, 64), 64) for _ in range(length)]
        walker = IterateWalker(1, 1)
        for n in range(1, length + 1):
            walker.push((values[n - 1],))
            t1 = walker.value(1)[0]
            if t1 < Fraction(1, 8):
                sub = unit_interval_check(values, n, cache)
                ok = (
                    sub["triggered"]
                    and frac(sub["t2"]) < Fraction(15, 16)
                    and sub["small_count"] >= (n + 1) // 2
                    and frac(sub["tail_mass"]) >= Fraction(1, 8)
                )
                report.params["triggered"] += 1
                report.record(ok, {"check": "prop412", "n": n, "t1": t1})
            else:
                report.params["vacuous"] += 1
    return report


def audit_density(prefix, targets, ks, space: Space, checkpoints=None) -> list:
    """Minimum iterate-to-target distances as the prefix grows.

    Returns rows {length, k, target_id, min_metric, at_index}: for each entry
    of ks and each target, the smallest metric distance over indices up to
    `length` and the first index where it occurs; the minimum is a running
    one, so it is nonincreasing in `length` by construction.  One walker
    holds every requested level, and the prefix is walked as the ``pieces``
    of the highest one, which refine those of every lower level, with the
    checkpoints as marks; ``RunProbes.search`` with the box bound
    ``Space.box_metric`` evaluates only the indices whose distance could
    still be the minimum.  This is an empirical closeness measurement, not a
    density proof.
    """
    seq = prefix if isinstance(prefix, RunSeq) else RunSeq([(p, 1) for p in prefix])
    total = len(seq)
    if checkpoints is None:
        step = max(1, total // 10)
        checkpoints = sorted(set(list(range(step, total + 1, step)) + [total]))
    marks = set(int(c) for c in checkpoints if 1 <= int(c) <= total)
    if min(ks, default=1) < 1:
        raise ValueError("need k >= 1")
    walker = IterateWalker(max(ks, default=1), space.dimension)
    # best[pos][t] is the lexicographic minimum of (metric, index) so far, so
    # a tie keeps the earlier index; rows stay grouped by entry of ks
    best = [[(Fraction(1), 0)] * len(targets) for _ in ks]  # every metric is below 1
    rows = [[] for _ in ks]
    for run, l, r in pieces(walker, seq.runs, walker.k, marks):
        for pos, k in enumerate(ks):
            for t, target in enumerate(targets):
                best[pos][t] = run.search(
                    l, r, lambda lo, hi: space.box_metric(lo.value(k), hi.value(k), target),
                    best[pos][t])
                if r in marks:
                    rows[pos].append({
                        "length": r, "k": k, "target_id": t,
                        "min_metric": best[pos][t][0],
                        "at_index": best[pos][t][1],
                    })
    return render([row for group in rows for row in group])
