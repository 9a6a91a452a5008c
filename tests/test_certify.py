import ast
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cesaro import construct
from cesaro.construct import ConvexWitness, replay_trace, single_target_extend
from cesaro.errors import CertificationError, certify
from cesaro.kernel import KernelCache
from cesaro.space import GroundSet, Space

SRC = Path(__file__).resolve().parents[1] / "src" / "cesaro"


def test_certify_raises_with_details():
    certify(True, "never raised")
    with pytest.raises(CertificationError, match=r"^weight too big \(stage=2, w=3/4\)$"):
        certify(False, "weight too big", w="3/4", stage=2)


def test_no_assert_in_library():
    # certification must not depend on asserts, which python -O strips
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


# Names a module imports without using them; perfbench's tracer wraps
# construct.iterate_at, so that import is the documented exception.
_IMPORT_HOOKS = {("construct.py", "iterate_at")}


def test_no_unused_import_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public API
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (path.name, name) not in _IMPORT_HOOKS:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found


def test_certify_survives_optimize_flag():
    code = (
        "import sys\n"
        "from cesaro.errors import CertificationError, certify\n"
        "print('optimize:', sys.flags.optimize)\n"
        "try:\n"
        "    certify(False, 'stripped?')\n"
        "except CertificationError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "optimize: 1\nraised: stripped?\n"


# k=1 simultaneous construction (configs/simultaneous.json) and the v=300
# two-level block assignment, serialized; run with and without -O
_CONSTRUCTIONS = """
import json, sys
from fractions import Fraction as F
from cesaro import KernelCache, phi
from cesaro.construct import (CoveringChain, Partition, assign_block_terms,
                              simultaneous_construct)
from cesaro.sequences import RunSeq
from cesaro.space import FinitePointSet, GroundSet, IndexSet, Space, cube_corners, delta

line, lattice = Space(1), GroundSet.lattice(1)
res = simultaneous_construct([], [(F(7, 2),)], F(1, 4), IndexSet("all"), line, lattice,
                             KernelCache(6, 400))
eps, v, lambdas = F(3, 10), 300, (60, 40)
x1, x2 = (F(1, 4),), (F(1, 8),)
cache = KernelCache()
slack = delta(eps / 6)
part = Partition(v=v, lambdas=lambdas)
m0 = FinitePointSet(((F(-1),), (F(1),)), corner_radius=F(1))
m1 = cube_corners(lattice, (x2[0] + slack) / phi(v, lambdas, 1, cache) + 1, line).union(m0)
worst = F(lambdas[0], part.m) * m1.corner_radius
r2 = (x1[0] + worst + slack) / phi(v, lambdas, 2, cache) + 1
chain = CoveringChain(sets=(m0, m1, cube_corners(lattice, r2, line).union(m1)),
                      intervals=((F(1, 100), F(2, 100)), (F(1, 250), F(2, 250))),
                      epsilon=eps, k=2)
stages, seq = assign_block_terms(RunSeq([((F(0),), v)]), chain, part, [x1, x2], eps,
                                 line, cache)
print(sys.flags.optimize)
print(json.dumps({"thm42": res.trace, "stages": [s.to_json() for s in stages],
                  "runs": [[str(p[0]), c] for p, c in seq.runs]}, sort_keys=True))
"""


def test_constructions_identical_under_optimize_flag():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    outs = [subprocess.run([sys.executable, *flags, "-c", _CONSTRUCTIONS], env=env,
                           capture_output=True, text=True, timeout=120)
            for flags in ([], ["-O"])]
    for out in outs:
        assert out.returncode == 0, out.stderr
    (flag_plain, json_plain), (flag_opt, json_opt) = (o.stdout.split("\n", 1) for o in outs)
    assert (flag_plain, flag_opt) == ("0", "1")
    assert json_opt == json_plain
    assert '"kind": "thm42"' in json_plain


def test_replay_kernel_row_second_opinion(monkeypatch):
    # n0 = 394 fits the cache budget n_max = 400, so replay also takes the
    # level-2 value from the kernel rows, which must agree with the walker
    line = Space(1)
    witness = ConvexWitness(((F(2, 3), (F(-1),)), (F(1, 3), (F(0),))))
    trace = single_target_extend([], witness, F(1, 10), 2, line, GroundSet.lattice(1)).trace
    assert trace["final_index"] == 394
    original = construct.apply_iterate
    calls = []
    monkeypatch.setattr(construct, "apply_iterate",
                        lambda k, *args: calls.append(k) or original(k, *args))
    assert replay_trace(trace, line, KernelCache(6, 400))["matches"]
    assert calls == [2]
    monkeypatch.setattr(construct, "apply_iterate",
                        lambda *args: tuple(c + F(1, 10**9) for c in original(*args)))
    with pytest.raises(CertificationError, match="kernel-row replay disagrees"):
        replay_trace(trace, line, KernelCache(6, 400))


def test_final_distance_at_epsilon_is_not_certified(monkeypatch):
    # the claim is d < epsilon: a final record whose metric equals epsilon fails it
    original = construct._distance_record
    monkeypatch.setattr(construct, "_distance_record",
                        lambda *args: {**original(*args), "metric": "1/10"})
    witness = ConvexWitness(((F(1, 2), (F(0),)), (F(1, 2), (F(1),))))
    with pytest.raises(CertificationError, match="not below epsilon"):
        single_target_extend([], witness, F(1, 10), 2, Space(1), GroundSet.lattice(1))
