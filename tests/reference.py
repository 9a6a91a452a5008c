"""Per-index references: one ``push`` and one exact evaluation per index.

Each function recomputes a quantity that the library reads off monotone
pieces, by visiting every index, so a test or ``sweep.py`` can compare the
two.  None of them calls ``RunProbes``, ``pieces`` or ``push_run``.
"""

from fractions import Fraction

from cesaro.exact import fracstr
from cesaro.sequences import IterateWalker, RunSeq


def per_index(walker, runs):
    """Push the runs one index at a time, yielding the walker after each push."""
    for p, count in runs:
        for _ in range(count):
            walker.push(p)
            yield walker


def first_hit_scan(walker, runs, levels, target, tol, space):
    """``construct._first_hit`` by a scan: (j, state at j), or (None, state at the end)."""
    walker = walker.copy()
    for state in per_index(walker, runs):
        if all(space.metric(state.value(c), target) < tol for c in levels):
            return state.j, state
    return None, walker


def lemma33_scan(prefix, cycle, k, x_prime, tol, space):
    """The repeated tuple ``cycle`` appended to the prefix index by index until [T^k] is within tol.

    Returns (terms, metrics): the appended terms and the metric to x' after each.
    """
    scan = IterateWalker(k, space.dimension)
    for p in prefix:
        scan.push(p)
    terms, metrics = [], []
    while True:
        terms.append(cycle[len(terms) % len(cycle)])
        scan.push(terms[-1])
        metrics.append(space.metric(scan.value(k), x_prime))
        if metrics[-1] < tol:
            return terms, metrics


def stabilize_per_index(prefix, a, k, tol, sp):
    """The first index from the prefix's end on with every level within tol of a, step by step."""
    walker = IterateWalker(k, sp.dimension)
    walker.push_seq(RunSeq([(p, 1) for p in prefix]))
    while not all(sp.metric(walker.value(c), a) < tol for c in range(1, k + 1)):
        walker.push(a)
    return walker.j


def stabilize_exit_reference(prefix, a, k, tol, sp, cap):
    """``construct._stabilize`` under a term cap, by a scan: (v1, None) or (None, exit details).

    The level-1 length is the first index from the prefix's end on with
    level 1 within tol of a; a cap below it exits with that length, and a
    cap below v1 exits with the worst level's metric at the cap index.
    """
    walker = IterateWalker(k, sp.dimension)
    walker.push_seq(RunSeq([(p, 1) for p in prefix]))
    level1 = None
    while True:
        if level1 is None and sp.metric(walker.value(1), a) < tol:
            level1 = walker.j
            if level1 > cap:
                return None, {"phase": "stabilization", "required_v1_at_level1": level1,
                              "term_cap": cap}
        if level1 is not None and all(sp.metric(walker.value(c), a) < tol
                                      for c in range(1, k + 1)):
            return walker.j, None
        if level1 is not None and walker.j == cap:
            worst = max(sp.metric(walker.value(c), a) for c in range(1, k + 1))
            return None, {"phase": "stabilization", "appended": cap - len(prefix),
                          "term_cap": cap, "current_metric": fracstr(worst)}
        walker.push(a)


def block_max_reference(walker, runs, level, rhos, space):
    """``construct._block_seminorm_max`` by a scan: (maxima, end walker)."""
    twin = walker.copy()
    expected = {rho: Fraction(0) for rho in rhos}
    for state in per_index(twin, runs):
        for rho in rhos:
            expected[rho] = max(expected[rho], space.seminorm(rho, state.value(level)))
    return expected, twin


def density_reference(prefix, targets, ks, space, checkpoints=None):
    """audit_density by one push and one exact metric per index and target."""
    seq = prefix if isinstance(prefix, RunSeq) else RunSeq([(p, 1) for p in prefix])
    total = len(seq)
    if checkpoints is None:
        step = max(1, total // 10)
        checkpoints = sorted(set(list(range(step, total + 1, step)) + [total]))
    marks = set(int(c) for c in checkpoints if 1 <= int(c) <= total)
    walker = IterateWalker(max(ks, default=1), space.dimension)
    best = [[(None, None)] * len(targets) for _ in ks]
    rows = [[] for _ in ks]
    for p in seq.iter_points():
        walker.push(p)
        for pos, k in enumerate(ks):
            value = walker.value(k)
            for t, target in enumerate(targets):
                dist = space.metric(value, target)
                if best[pos][t][0] is None or dist < best[pos][t][0]:
                    best[pos][t] = (dist, walker.j)
            if walker.j in marks:
                for t in range(len(targets)):
                    rows[pos].append({
                        "length": walker.j, "k": k, "target_id": t,
                        "min_metric": fracstr(best[pos][t][0]),
                        "at_index": best[pos][t][1],
                    })
    return [row for group in rows for row in group]
