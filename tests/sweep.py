"""Seeded sweep of the piece readers against the per-index references.

    python tests/sweep.py --seconds 60
    python tests/sweep.py --rounds 20

Each round draws, from its own seed, first-hit problems, lemma 3.3
extensions with caps short of n0, stabilizations with caps, block maxima,
density audits and k = 1 Theorem 4.2 constructions.  Every output is
compared with the per-index reference of ``reference.py``: first hits and
their end states, n0 with the appended terms, v1, the cap-exit details,
block maxima and density rows; lemma 3.3's and Theorem 4.2's whole traces
go into the hash, and each Theorem 4.2 trace must replay.  Once per run,
before the rounds, the criterion-6 plan's exit details are compared with
its level-1 length in closed form.  Rounds run until the time is spent (or
``--rounds`` is reached).
The last line gives the rounds run, the mismatches, the walker states made
(``IterateWalker.copy`` calls, references excluded) and one SHA-256 over
every output, so two trees can be compared by running the same number of
rounds in each.  The exit status is 1 on any mismatch.  Not collected by
pytest; it imports ``cesaro`` from the ``src`` next to this directory.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction as F
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cesaro import (  # noqa: E402
    BudgetExceededError,
    ConvexWitness,
    KernelCache,
    audit_density,
    replay_trace,
    run_target_plan,
    simultaneous_construct,
    single_target_extend,
)
from cesaro.construct import _block_seminorm_max, _first_hit, _stabilize  # noqa: E402
from cesaro.exact import fracstr  # noqa: E402
from cesaro.sequences import IterateWalker, RunSeq, iterate_at  # noqa: E402
from cesaro.space import GroundSet, IndexSet, Space, delta, point  # noqa: E402
from reference import (  # noqa: E402
    block_max_reference,
    density_reference,
    first_hit_scan,
    lemma33_scan,
    stabilize_exit_reference,
)

STATES = [0]  # IterateWalker.copy calls made by the library


def _counted(copy):
    def counting(self):
        STATES[0] += 1
        return copy(self)
    return counting


def _uncounted(fn):
    """Run a reference without counting its walker copies."""
    def run(*args):
        before = STATES[0]
        try:
            return fn(*args)
        finally:
            STATES[0] = before
    return run


def _coord(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _walker(k, d, prefix):
    walker = IterateWalker(k, d)
    for p in prefix:
        walker.push(p)
    return walker


def first_hit_problem(rng):
    k, d = rng.randint(1, 4), rng.randint(1, 2)
    prefix = [tuple(_coord(rng) for _ in range(d)) for _ in range(rng.randint(0, 4))]
    runs = [(tuple(_coord(rng) for _ in range(d)), rng.randint(1, 60))
            for _ in range(rng.randint(1, 5))]
    levels = sorted(rng.sample(range(1, k + 1), rng.randint(1, k)))
    seq = RunSeq([(p, 1) for p in prefix] + runs)
    target = iterate_at(rng.choice(levels), seq, rng.randint(len(prefix) + 1, len(seq)))
    tol, space = F(1, rng.randint(4, 40)), Space(d)
    j, end = _first_hit(_walker(k, d, prefix), runs, levels, target, tol, space)
    want, want_end = _uncounted(first_hit_scan)(_walker(k, d, prefix), runs, levels, target,
                                                tol, space)
    got = [j, end.j, [[fracstr(x) for x in v] for v in end.values]]
    return got, [want, want_end.j, [[fracstr(x) for x in v] for v in want_end.values]]


def lemma33_problem(rng):
    k, d = rng.randint(1, 3), rng.randint(1, 2)
    space = Space(d, tuple(rng.choice([F(1, 2), F(1), F(3, 2)]) for _ in range(d)))
    grid = [tuple(F(c) for c in p) for p in product((-1, 0, 1), repeat=d)]
    raw = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
    witness = ConvexWitness(tuple((F(r, sum(raw)), p)
                                  for r, p in zip(raw, rng.sample(grid, len(raw)))))
    prefix = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
              for _ in range(rng.randint(0, 3))]
    eps = rng.choice([F(1, 4), F(1, 5), F(2, 5)])
    ground = GroundSet.lattice(d)
    res = single_target_extend(prefix, witness, eps, k, space, ground)
    cycle = [p for (_, p), c in zip(witness.atoms, res.trace["counts"]) for _ in range(c)]
    terms, metrics = _uncounted(lemma33_scan)(prefix, cycle, k, point(*res.trace["x_prime"]),
                                              eps / 3, space)
    got = [res.n0, res.new_terms == terms, res.trace]
    want = [len(prefix) + len(terms), True, res.trace]
    for cap in sorted({1, len(terms) // 2, len(terms) - 1} - {0, len(terms)}):
        try:
            single_target_extend(prefix, witness, eps, k, space, ground, term_cap=cap)
            got.append(None)
        except BudgetExceededError as exc:
            got.append(exc.details)
        want.append({"appended": cap, "term_cap": cap,
                     "current_metric": fracstr(metrics[cap - 1])})
    return got, want


def stabilize_problem(rng):
    d, k = rng.randint(1, 2), rng.randint(2, 3)
    prefix = [tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d))
              for _ in range(rng.randint(1, 5))]
    a = tuple(F(rng.randint(-1, 1), 2) for _ in range(d))
    tol, space = F(1, rng.choice([4, 6, 8, 10])), Space(d)
    v1, _ = _uncounted(stabilize_exit_reference)(prefix, a, k, tol, space, 10**6)
    got, want = [], []
    for cap in sorted({10**6, len(prefix) + 1, (len(prefix) + v1) // 2, v1 - 1, v1}):
        if cap < max(len(prefix), 1):
            continue
        try:
            got.append([_stabilize(RunSeq([(p, 1) for p in prefix]), a, k, tol, space, cap),
                        None])
        except BudgetExceededError as exc:
            got.append([None, exc.details])
        want.append(list(_uncounted(stabilize_exit_reference)(prefix, a, k, tol, space, cap)))
    return got, want


def block_max_problem(rng):
    d, level = rng.randint(1, 2), rng.randint(1, 4)
    space = Space(d, tuple(rng.choice([F(1), F(1, 2), F(7, 3)]) for _ in range(d)))
    prefix = [(tuple(_coord(rng) for _ in range(d)), rng.randint(1, 60))
              for _ in range(rng.randint(1, 3))]
    atoms = [tuple(_coord(rng) for _ in range(d)) for _ in range(rng.randint(1, 3))]
    runs = [(rng.choice(atoms), rng.randint(1, 300)) for _ in range(rng.randint(1, 4))]
    walker = IterateWalker(4, d)
    for p, count in prefix:
        walker.push_run(p, count)
    rhos = range(1, d + 1)
    block_max, end = _block_seminorm_max(walker, runs, level, rhos, space)
    want, twin = _uncounted(block_max_reference)(walker, runs, level, rhos, space)

    def out(maxima, state):
        return [{str(r): fracstr(v) for r, v in maxima.items()}, state.j,
                [[fracstr(x) for x in v] for v in state.values]]
    return out(block_max, end), out(want, twin)


def density_problem(rng):
    d = rng.randint(1, 2)
    space = Space(d, tuple(rng.choice([F(1), F(1, 2), F(3)]) for _ in range(d)))
    points = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
              for _ in range(rng.randint(1, 3))]
    seq = RunSeq((rng.choice(points), rng.randint(1, 300)) for _ in range(rng.randint(1, 4)))
    ks = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    targets = [rng.choice(points),
               iterate_at(rng.randint(1, 2), seq, rng.randint(1, len(seq)))]
    checkpoints = sorted(rng.sample(range(1, len(seq) + 1), min(3, len(seq))))
    return (audit_density(seq, targets, ks, space, checkpoints),
            _uncounted(density_reference)(seq, targets, ks, space, checkpoints))


def thm42_problem(rng):
    d = rng.randint(1, 2)
    space, ground = Space(d), GroundSet.lattice(d)
    prefix = [tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(rng.randint(0, 3))]
    target = tuple(F(rng.randint(-4, 4), 2) for _ in range(d))
    eps = rng.choice([F(1, 4), F(3, 10)])
    res = simultaneous_construct(prefix, [target], eps, IndexSet("all"), space, ground,
                                 KernelCache())
    return ([res.trace, replay_trace(res.trace, space, KernelCache())["matches"]],
            [res.trace, True])


PLAN = [[(F(1),)], [(F(-1),), (F(2),)]]  # the criterion-6 plan of test_acceptance.py


def criterion6_exit():
    """The plan's exit details, and the level-1 length they should report.

    Entry 2 stabilizes entry 1's sequence (length L, sum S) with the term 0,
    so level 1 at n >= L is S/n, whose metric to 0 falls as n grows; the
    first n within the stabilization tolerance is found by bisection.
    """
    space, ground, fives = Space(1), GroundSet.lattice(1), IndexSet("progression", 5, 5)
    try:
        run_target_plan(PLAN, fives, space, ground, KernelCache())
        got = None
    except BudgetExceededError as exc:
        got = exc.details
    eps = F(49, 100)  # min(1/lambda, 49/100) at both entries
    seq = simultaneous_construct([], PLAN[0], eps, fives, space, ground, KernelCache()).seq
    total = sum(p[0] * count for p, count in seq.runs)
    tol = delta(eps / 6) / (4 * len(PLAN[1]))

    def within(n):
        return space.metric((total / n,), (F(0),)) < tol

    lo, hi = len(seq) - 1, len(seq)  # lo is never within: it precedes the sequence's end
    while not within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if within(mid) else (mid, hi)
    return got, {"phase": "stabilization", "required_v1_at_level1": hi, "term_cap": 10**6}


KINDS = [(first_hit_problem, 6), (lemma33_problem, 3), (stabilize_problem, 2),
         (block_max_problem, 4), (density_problem, 1), (thm42_problem, 2)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    IterateWalker.copy = _counted(IterateWalker.copy)
    digest = hashlib.sha256()
    start = time.perf_counter()
    rounds = problems = mismatches = 0

    def compare(name, got, want):
        nonlocal problems, mismatches
        text = json.dumps(got, sort_keys=True, default=str)
        digest.update(text.encode())
        problems += 1
        if got != want:
            mismatches += 1
            print(f"MISMATCH round {rounds} {name}:\n  got  {text[:300]}\n"
                  f"  want {json.dumps(want, sort_keys=True, default=str)[:300]}")

    compare("criterion6_exit", *criterion6_exit())
    while (args.rounds is None and time.perf_counter() - start < args.seconds) or \
            (args.rounds is not None and rounds < args.rounds):
        rng = random.Random(f"sweep/{rounds}")
        for make, count in KINDS:
            for _ in range(count):
                compare(make.__name__, *make(rng))
        rounds += 1
    print(f"rounds {rounds} problems {problems} mismatches {mismatches} states {STATES[0]} "
          f"seconds {time.perf_counter() - start:.1f} sha256 {digest.hexdigest()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
