"""Seeded sweep of the piece readers against the per-index references.

    python tests/sweep.py --seconds 60
    python tests/sweep.py --rounds 20

Each round draws, from its own seed, first-hit problems, lemma 3.3
extensions with caps short of n0, stabilizations with caps, block maxima
and density audits.  Every output is compared with the per-index
reference of ``reference.py``: first hits and their end states, n0 with
the appended terms, v1, the cap-exit details, block maxima and density
rows; lemma 3.3's whole trace goes into the hash.  Rounds run until the time is spent (or ``--rounds`` is reached).
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

from cesaro import BudgetExceededError, ConvexWitness, audit_density, single_target_extend  # noqa: E402
from cesaro.construct import _block_seminorm_max, _first_hit, _stabilize  # noqa: E402
from cesaro.exact import fracstr  # noqa: E402
from cesaro.sequences import IterateWalker, RunSeq, iterate_at  # noqa: E402
from cesaro.space import GroundSet, Space, point  # noqa: E402
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


KINDS = [(first_hit_problem, 6), (lemma33_problem, 3), (stabilize_problem, 2),
         (block_max_problem, 4), (density_problem, 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    IterateWalker.copy = _counted(IterateWalker.copy)
    digest = hashlib.sha256()
    start = time.perf_counter()
    rounds = problems = mismatches = 0
    while (args.rounds is None and time.perf_counter() - start < args.seconds) or \
            (args.rounds is not None and rounds < args.rounds):
        rng = random.Random(f"sweep/{rounds}")
        for make, count in KINDS:
            for _ in range(count):
                got, want = make(rng)
                text = json.dumps(got, sort_keys=True, default=str)
                digest.update(text.encode())
                problems += 1
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH round {rounds} {make.__name__}:\n  got  {text[:300]}\n"
                          f"  want {json.dumps(want, sort_keys=True, default=str)[:300]}")
        rounds += 1
    print(f"rounds {rounds} problems {problems} mismatches {mismatches} states {STATES[0]} "
          f"seconds {time.perf_counter() - start:.1f} sha256 {digest.hexdigest()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
