"""Output checks that do not call the code under test.

Iterate values come from the closed form of the kernel,

    T^k_(n,m) = h_(k-1)(1/m, ..., 1/n) / n,

with h_j the complete homogeneous symmetric polynomial, evaluated by the
downward sweep h_j <- h_j + h_(j-1)/m.  The sweep runs on integers scaled
by L = lcm(1..n), so no step needs a gcd: H_j = h_j * L^j.  The metric is
re-derived from its definition.  Every check raises CheckFailed on a wrong
output and returns nothing otherwise.
"""

import hashlib
import json
from fractions import Fraction
from math import lcm


class CheckFailed(Exception):
    """An op produced an output the benchmark could not confirm."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def digest(text) -> str:
    """SHA-256 of an op's canonical output (text or bytes)."""
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point(raw):
    return tuple(Fraction(c) for c in raw)


def metric(weights, x, y) -> Fraction:
    """d(x, y) = sum_i 2^-i u_i / (1 + u_i) with u_i = w_i |x_i - y_i|."""
    total = Fraction(0)
    for i, w in enumerate(weights, start=1):
        u = Fraction(w) * abs(x[i - 1] - y[i - 1])
        total += u / (1 + u) / (1 << i)
    return total


def _clip(runs, n):
    """(point, first index, last index) for the runs that cover 1..n."""
    out = []
    pos = 0
    for p, c in runs:
        if pos >= n:
            break
        out.append((tuple(p), pos + 1, min(pos + c, n)))
        pos += c
    require(pos >= n, f"sequence of length {pos} is shorter than index {n}")
    return out


def _kernel_column(k, n):
    """Scale L^(k-1) n with L = lcm(1..n), and (m, T^k_(n,m) * scale) for m = n..1."""
    big_l = 1
    for m in range(2, n + 1):
        big_l = lcm(big_l, m)

    def sweep():
        h = [1] + [0] * (k - 1)
        for m in range(n, 0, -1):
            q = big_l // m
            for j in range(1, k):
                h[j] += h[j - 1] * q
            yield m, h[k - 1]

    return big_l ** (k - 1) * n, sweep()


def iterate_value(k, runs, n):
    """[T^k(theta)]_n for a sequence given as (point, count) runs."""
    require(k >= 1 and n >= 1, "iterate needs k >= 1 and n >= 1")
    pieces = _clip(runs, n)
    d = len(pieces[0][0])
    acc = [Fraction(0)] * d
    if k == 1:
        for p, lo, hi in pieces:
            for i in range(d):
                acc[i] += p[i] * (hi - lo + 1)
        return tuple(a / n for a in acc)
    scale, weights = _kernel_column(k, n)
    idx = len(pieces) - 1
    mass = 0
    for m, weight in weights:
        mass += weight
        p, lo, _ = pieces[idx]
        if m == lo:
            for i in range(d):
                acc[i] += p[i] * mass
            mass = 0
            idx -= 1
    return tuple(a / scale for a in acc)


def kernel_row(k, n):
    """Row n of T^k (entries for columns 1..n) from the closed form."""
    scale, weights = _kernel_column(k, n)
    row = [None] * n
    for m, weight in weights:
        row[m - 1] = Fraction(weight, scale)
    return row


def admissible(n, stride):
    """Membership in the progression stride, 2*stride, ... (stride 1: all n)."""
    return n >= stride and n % stride == 0


def check_distances(trace, weights, epsilon, runs=None):
    """Every recorded final distance: value recomputed, metric below epsilon."""
    if runs is None:
        runs = [(point(p), c) for p, c in trace["terms_runs"]]
    n = trace["final_index"]
    require(sum(c for _, c in runs) == n, "terms_runs do not end at the final index")
    for entry, level, target in zip(trace["distances"], trace["ks"], trace["targets"]):
        value = iterate_value(level, runs, n)
        require(point(entry["value"]) == value,
                f"level {level}: recorded value differs from the closed form")
        dist = metric(weights, value, point(target))
        require(Fraction(entry["metric"]) == dist,
                f"level {level}: recorded metric {entry['metric']} != {dist}")
        require(dist < epsilon, f"level {level}: distance {dist} not below {epsilon}")
    require(len(trace["distances"]) == len(trace["ks"]), "a level has no distance")
