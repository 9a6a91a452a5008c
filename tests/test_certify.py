import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cesaro.errors import CertificationError, certify

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
