"""A catalogue of named mutants of the library, each with the tests that must kill it.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
    python tests/mutants.py --list

A mutant is one literal edit (file, old text, new text) of ``src/cesaro``.
For each one the runner copies ``src/``, ``tests/``, ``configs/`` and
``pyproject.toml`` under ``.mutants/NAME/``, applies the edit there and runs
the mutant's tests with ``-x -q``.  It prints ``killed`` or ``survived`` with
the seconds taken; an edit whose old text does not occur exactly once in the
current file stops the runner with an error, so the catalogue has to follow
the code.  The exit status is 1 if a mutant survived.  This is a finding
tool, not part of the test suite: pytest does not collect it.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".mutants"
COPIED = ("src", "tests", "configs", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str        # relative to src/cesaro
    old: str
    new: str
    tests: tuple     # pytest ids, relative to the repository root


MUTANTS = [
    # the written form of exact records
    Mutant("render-int-keys", "exact.py",
           "return {str(k): render(v) for k, v in value.items()}",
           "return {k: render(v) for k, v in value.items()}",
           ("tests/test_audit.py::test_render_writes_exact_records",
            "tests/test_cli.py::test_kernel_output_bytes_pinned")),
    Mutant("render-keeps-tuples", "exact.py",
           "return [render(v) for v in value]",
           "return type(value)(render(v) for v in value)",
           ("tests/test_audit.py::test_render_writes_exact_records",
            "tests/test_audit.py::test_oracle_counterexample_written")),
    Mutant("render-ints-as-strings", "exact.py",
           "        return {str(k): render(v) for k, v in value.items()}\n    return value\n",
           "        return {str(k): render(v) for k, v in value.items()}\n"
           "    return str(value) if type(value) is int else value\n",
           ("tests/test_audit.py::test_render_writes_exact_records",
            "tests/test_cli.py::test_construct_output_bytes_pinned")),
    # the in-block maxima: the block's first index once, then the piece ends
    Mutant("block-max-right-ends-only", "construct.py",
           "sorted({l + 1, r} if l == walker.j else {r})",
           "sorted({r})",
           ("tests/test_construct.py::test_block_seminorm_max_matches_per_index",)),
    Mutant("block-max-first-index-per-run", "construct.py",
           "sorted({l + 1, r} if l == walker.j else {r})",
           "sorted({l + 1, r} if l == run.a else {r})",
           ("tests/test_construct.py::test_assign_two_levels",)),
    # the first-hit search
    Mutant("first-hit-bound-right-end-only", "construct.py",
           "any(space.box_metric(lo.value(c), hi.value(c), target) >= tol",
           "any(space.metric(hi.value(c), target) >= tol",
           ("tests/test_construct.py::test_first_hit_matches_per_index_scan",)),
    Mutant("first-hit-cuts-at-level-1", "construct.py",
           "for run, l, r in pieces(walker, runs, walker.k):",
           "for run, l, r in pieces(walker, runs, 1):",
           ("tests/test_construct.py::test_first_hit_matches_per_index_scan",)),
    Mutant("first-hit-never-skips", "construct.py",
           "run.search(l, r, misses, (True, 0))",
           "run.search(l, r, lambda lo, hi: lo is hi and misses(lo, hi), (True, 0))",
           ("tests/test_construct.py::test_extend_k3_midpoint_trace_pinned",)),
    Mutant("first-hit-miss-at-tol", "construct.py",
           "hi.value(c), target) >= tol for c in levels)",
           "hi.value(c), target) > tol for c in levels)",
           ("tests/test_construct.py::test_first_hit_is_strict_at_tol",)),
    # boundary flips in the certified checks
    Mutant("final-distance-at-epsilon", "construct.py",
           'if not frac(record["metric"]) < epsilon:',
           'if not frac(record["metric"]) <= epsilon:',
           ("tests/test_certify.py::test_final_distance_at_epsilon_is_not_certified",)),
    Mutant("quota-loop-strict", "construct.py",
           "while gammas[j] <= quota:",
           "while gammas[j] < quota:",
           ("tests/test_cli.py::test_construct_output_bytes_pinned",)),
    # caller input and scheduling limits, rejected before any certified claim
    Mutant("push-dimension-unchecked", "sequences.py",
           "zip(self.values[c], acc, strict=True)",
           "zip(self.values[c], acc)",
           ("tests/test_sequences.py::test_mixed_dimensions_rejected",)),
    Mutant("chain-k-unchecked", "construct.py",
           "if len(self.intervals) != self.k or len(self.sets) != self.k + 1:",
           "if False:",
           ("tests/test_construct.py::test_chain_k_must_match_sets_and_intervals",)),
    Mutant("round-bound-weakened", "construct.py",
           "if slackr <= 0:",
           "if slackr < -1:",
           ("tests/test_construct.py::test_assign_stabilizer_too_short_for_round_bound",)),
    # the piece walk, the box bound and the run weights
    Mutant("pieces-release-past-r", "sequences.py",
           "run.release(r)",
           "run.release(r + 1)",
           ("tests/test_construct.py::test_extend_k3_midpoint_trace_pinned",
            "tests/test_construct.py::test_stabilize_window_search_pinned",
            "tests/test_construct.py::test_assign_two_levels")),
    Mutant("box-metric-swapped-clamp", "space.py",
           "min(max(zi, min(xi, yi)), max(xi, yi))",
           "min(max(zi, max(xi, yi)), min(xi, yi))",
           ("tests/test_construct.py::test_first_hit_matches_per_index_scan",
            "tests/test_audit.py::test_density_matches_per_index_reference")),
    Mutant("run-weights-index-shift", "sequences.py",
           "poly = _falling_product(a + 1, b, m)",
           "poly = _falling_product(a + 2, b + 1, m)",
           ("tests/test_sequences.py",)),
]


def prepare(mutant: Mutant) -> Path:
    """A fresh copy of the tree under .mutants/NAME with the mutant's edit applied."""
    target = ROOT / "src" / "cesaro" / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutant {mutant.name}: its old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}, not once")
    copy = WORK / mutant.name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, copy / name)
    (copy / "src" / "cesaro" / mutant.file).write_text(text.replace(mutant.old, mutant.new))
    return copy


def run(mutant: Mutant) -> bool:
    """Run the mutant's tests on its copy; True if one of them failed (killed)."""
    copy = prepare(mutant)
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode not in (0, 1):  # 0: all passed, 1: a test failed
        sys.stdout.write(proc.stdout[-2000:])
        raise SystemExit(f"mutant {mutant.name}: pytest exited {proc.returncode}")
    killed = proc.returncode == 1
    print(f"{'killed' if killed else 'survived':<9} {mutant.name:<32} {seconds:6.1f} s", flush=True)
    return killed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:<32} {m.file}")
        return 0
    chosen = [by_name[n] for n in args.names] if args.names else MUTANTS
    survivors = [m.name for m in chosen if not run(m)]
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
