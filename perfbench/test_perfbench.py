"""Self-tests for the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cesaro import errors  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_round_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _record(op):
    return run.run_op(op, 0, 0, None)


def _iterate_op():
    return workloads._iterate_op(random.Random(0), 2, 60, impulse=False)


def test_checker_accepts_correct_outputs():
    assert _record(_iterate_op()).error is None
    assert _record(workloads._criterion6_exit()).error is None


def test_checker_counts_a_perturbed_fraction():
    op = _iterate_op()
    value = op.run()
    op.run = lambda: (value[0] + Fraction(1, 10**12),)
    assert "closed form" in _record(op).error


def test_checker_counts_a_wrong_loud_exit_requirement():
    op = workloads._criterion6_exit()
    key, value = op.expect_exit
    op.expect_exit = (key, value + 1)
    assert f"{key}={value}" in _record(op).error


def test_checker_counts_a_missing_loud_exit():
    op = workloads._criterion6_exit()
    op.run = lambda: None
    assert "expected BudgetExceededError" in _record(op).error


def test_checker_counts_an_unexpected_exception():
    op = _iterate_op()

    def boom():
        raise ValueError("injected")

    op.run = boom
    assert "unexpected ValueError" in _record(op).error
    budget = _iterate_op()

    def exit_early():
        raise errors.BudgetExceededError("term_cap", "injected", term_cap=1)

    budget.run = exit_early
    assert "unexpected BudgetExceededError" in _record(budget).error


def _averaged(k, terms, n):
    values = list(terms[:n])
    for _ in range(k):
        total = Fraction(0)
        out = []
        for j, v in enumerate(values, start=1):
            total += v
            out.append(total / j)
        values = out
    return values[n - 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_form_matches_repeated_averaging(k):
    rng = random.Random(k)
    runs = [((Fraction(rng.randint(-5, 5), rng.randint(1, 4)),), rng.randint(1, 6))
            for _ in range(12)]
    terms = [p[0] for p, c in runs for _ in range(c)]
    for n in (1, 2, 7, len(terms)):
        assert checks.iterate_value(k, runs, n) == (_averaged(k, terms, n),)
        impulse = [Fraction(1)] + [Fraction(0)] * (n - 1)
        assert checks.kernel_row(k, n)[0] == _averaged(k, impulse, n)


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _bench("--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
