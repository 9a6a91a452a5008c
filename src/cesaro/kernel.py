"""Exact lower-triangular kernels of the iterated averaging operator.

T maps a sequence to its running arithmetic means; T^k is the k-fold
composition.  T^k is represented by a lower-triangular matrix whose row n
holds the weights that average the first n sequence terms.  Every entry
comes from one formula, the closed form

    T^k_(n,m) = h_(k-1)(1/m, ..., 1/n) / n

where h_j is the complete homogeneous symmetric polynomial (Hardy,
*Divergent Series*, section 5).  ``row_tail`` evaluates it by a downward
sweep over m, which yields any segment of any row in O(width * k)
operations and O(width) memory, with no earlier rows.  The sweep takes one
of three paths by level: level 1 is the constant 1/n, level 2 the harmonic
tail (sum of 1/(n*i) for i = m..n), and levels >= 3 an integer sweep over
the common denominator lcm(m, ..., n), so that each entry costs one gcd.
The constructions use segments directly; whole rows (``row``, ``entry``,
``apply_iterate``, the audits) are the segment from column 1, memoized by
the cache within its budget.

Every entry is an exact, normalized ``Fraction``.

Concurrency: rows are published as immutable tuples.  A missing row is
built and published under a single lock; readers never need it once a row
is visible.
"""

import os
import threading
from fractions import Fraction
from math import gcd

from .errors import BudgetExceededError, certify
from .exact import ZERO
from .space import padd, pcombine, pscale, pzero

DEFAULT_K_MAX = 6
DEFAULT_N_MAX = 400
BUDGET_ENV_VAR = "CESARO_CACHE_BUDGET"


class KernelCache:
    """Memo table of kernel rows, bounded by a (k_max, n_max) budget."""

    def __init__(self, k_max: int = DEFAULT_K_MAX, n_max: int = DEFAULT_N_MAX):
        if k_max < 1 or n_max < 1:
            raise ValueError("budget must allow k>=1 and n>=1")
        self.k_max = k_max
        self.n_max = n_max
        self._rows: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls) -> "KernelCache":
        """Budget from CESARO_CACHE_BUDGET='K_MAX,N_MAX' if set."""
        raw = os.environ.get(BUDGET_ENV_VAR)
        if not raw:
            return cls()
        try:
            k_max, n_max = (int(part) for part in raw.split(","))
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must look like 'K_MAX,N_MAX', got {raw!r}"
            ) from None
        return cls(k_max=k_max, n_max=n_max)

    def _check_budget(self, k: int, n: int) -> None:
        if k > self.k_max or n > self.n_max:
            raise BudgetExceededError(
                "kernel_cache",
                "requested kernel row exceeds the cache budget",
                k=k, n=n, k_max=self.k_max, n_max=self.n_max,
            )

    def row(self, k: int, n: int) -> tuple[Fraction, ...]:
        """Row n of T^k: entries for columns 1..n.  Sums exactly to 1."""
        if k < 1 or n < 1:
            raise ValueError("row indices are 1-based naturals")
        self._check_budget(k, n)
        got = self._rows.get((k, n))
        if got is not None:
            return got
        with self._lock:
            got = self._rows.get((k, n))
            if got is None:
                got = self._rows[(k, n)] = tuple(self.row_tail(k, n, 1))
        return got

    def entry(self, k: int, n: int, m: int) -> Fraction:
        """T^k_(n,m); zero above the diagonal (m > n)."""
        if k < 1 or n < 1 or m < 1:
            raise ValueError("kernel indices are 1-based naturals")
        if m > n:
            return ZERO
        return self.row(k, n)[m - 1]

    def row_tail(self, k: int, n: int, m_from: int) -> list[Fraction]:
        """Entries T^k_(n,m) for m = m_from..n, computed without the cache.

        Sweeps m down from n; each level takes its own path.  Level 1 is
        the constant 1/n.  Level 2 is the harmonic tail, e += 1/(n*m),
        whose addend has a small denominator.  Levels k >= 3 run on plain
        integers: with D = lcm(m, ..., n), H_j = D^j * h_j(1/m, ..., 1/n)
        is an integer, and when m brings a new factor g = m // gcd(D, m),
        D grows by g and each H_j by g^j.  Then H_j += H_(j-1) * (D // m)
        for j = 1..k-1 from H_0 = 1, and the entry at column m is
        H_(k-1) / (n * D^(k-1)), normalized by its one gcd.  Reaches row
        indices far beyond the cache budget.
        """
        if k < 1 or not (1 <= m_from <= n):
            raise ValueError("need k >= 1 and 1 <= m_from <= n")
        if k == 1:
            return [Fraction(1, n)] * (n - m_from + 1)
        out = []
        if k == 2:
            e = ZERO
            for m in range(n, m_from - 1, -1):
                e += Fraction(1, n * m)
                out.append(e)
        else:
            d = 1
            scale = n  # n * D^(k-1)
            h = [1] + [0] * (k - 1)
            for m in range(n, m_from - 1, -1):
                g = m // gcd(d, m)
                if g > 1:
                    d *= g
                    power = 1
                    for j in range(1, k):
                        power *= g
                        h[j] *= power
                    scale *= power
                step = d // m
                for j in range(1, k):
                    h[j] += h[j - 1] * step
                out.append(Fraction(h[-1], scale))
        out.reverse()
        return out


_default_cache: KernelCache | None = None
_default_lock = threading.Lock()


def default_cache() -> KernelCache:
    """Process-wide cache (budget from the environment on first use)."""
    global _default_cache
    if _default_cache is None:
        with _default_lock:
            if _default_cache is None:
                _default_cache = KernelCache.from_env()
    return _default_cache


def apply_iterate(k, prefix, n, cache: KernelCache | None = None):
    """[T^k(theta)]_n as the kernel-row weighted sum of the first n terms.

    ``prefix`` is a sequence of coordinate tuples; k=0 returns the term itself.
    """
    if n < 1 or n > len(prefix):
        raise ValueError(f"index n={n} outside prefix of length {len(prefix)}")
    if k == 0:
        return prefix[n - 1]
    cache = cache or default_cache()
    return pcombine(zip(cache.row(k, n), prefix), len(prefix[0]))


def apply_iterate_oracle(k, prefix, n):
    """[T^k(theta)]_n by literally averaging k times; the independent check path."""
    if n < 1 or n > len(prefix):
        raise ValueError(f"index n={n} outside prefix of length {len(prefix)}")
    values = list(prefix[:n])
    d = len(values[0])
    for _ in range(k):
        acc = pzero(d)
        out = []
        for j, v in enumerate(values, start=1):
            acc = padd(acc, v)
            out.append(pscale(Fraction(1, j), acc))
        values = out
    return values[n - 1]


def phi(v: int, lambdas, i: int, cache: KernelCache | None = None) -> Fraction:
    """Kernel mass that block i of a partition contributes at its end index.

    phi_i = sum_{j=1}^{lambda_i} T^(k+1-i)_(v+lambda_1+..+lambda_i, v+..+lambda_{i-1}+j)
    with k = len(lambdas).  Always strictly between 0 and 1.
    """
    k = len(lambdas)
    if not (1 <= i <= k) or v < 1 or any(l < 1 for l in lambdas):
        raise ValueError("need v>=1, all lambdas>=1, 1<=i<=k")
    cache = cache or default_cache()
    end = v + sum(lambdas[:i])
    start = end - lambdas[i - 1]
    return sum(cache.row_tail(k + 1 - i, end, start + 1), ZERO)


class CheckResult:
    """Truthy on success; carries both sides of a failed identity."""

    def __init__(self, ok: bool, detail: dict | None = None):
        self.ok = ok
        self.detail = detail or {}

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"CheckResult(ok={self.ok}, detail={self.detail})"


def recurrence_check(k, prefix, n, a, cache: KernelCache | None = None) -> CheckResult:
    """Verify [T^k]_(n+a) = (n/(n+a)) [T^k]_n + ([T^(k-1)]_(n+1)+..+[T^(k-1)]_(n+a))/(n+a).

    Exact; False indicates an implementation bug, not bad input.
    """
    if n < 1 or a < 1 or n + a > len(prefix):
        raise ValueError("need n, a >= 1 and n + a within the prefix")
    cache = cache or default_cache()
    lhs = apply_iterate(k, prefix, n + a, cache)
    acc = pzero(len(prefix[0]))
    for j in range(1, a + 1):
        acc = padd(acc, apply_iterate(k - 1, prefix, n + j, cache))
    rhs = padd(
        pscale(Fraction(n, n + a), apply_iterate(k, prefix, n, cache)),
        pscale(Fraction(1, n + a), acc),
    )
    if lhs == rhs:
        return CheckResult(True)
    return CheckResult(False, {"k": k, "n": n, "a": a, "lhs": lhs, "rhs": rhs})


def convexity_expansion(k: int, n: int, a: int) -> dict:
    """Weights expressing [T^k]_(n+a) over {[T^j]_n : j<=k} and theta_(n+1..n+a).

    Repeated application of the one-step recurrence; the result is an exact
    convex combination (weights >= 0, summing to 1).  Keys are ("T", j, n)
    and ("theta", index).
    """
    if k < 1 or n < 1 or a < 0:
        raise ValueError("need k, n >= 1 and a >= 0")
    memo: dict[tuple[int, int], dict] = {}

    def expand(level: int, off: int) -> dict:
        if off == 0:
            return {("T", level, n): Fraction(1)}
        if level == 0:
            return {("theta", n + off): Fraction(1)}
        key = (level, off)
        got = memo.get(key)
        if got is not None:
            return got
        total = n + off
        out: dict = {("T", level, n): Fraction(n, total)}
        unit = Fraction(1, total)
        for i in range(1, off + 1):
            for basis, w in expand(level - 1, i).items():
                out[basis] = out.get(basis, ZERO) + unit * w
        memo[key] = out
        return out

    weights = expand(k, a)
    certify(all(w >= 0 for w in weights.values()), "expansion has a negative weight")
    certify(sum(weights.values()) == 1, "expansion weights do not sum to 1")
    return weights
