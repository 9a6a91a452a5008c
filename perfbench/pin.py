"""Regenerate pinned.json: the `checked` count of every audit the audit workload runs.

    python3 perfbench/pin.py

Run it only when a change to cesaro.audit deliberately changes what a suite
checks; the audit workload fails any op whose count differs from its pin.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    for seed in range(workloads.AUDIT_SEEDS):
        for key, call in workloads.audit_calls(seed):
            if key in pins:
                continue
            report = call()
            if report.failed:
                sys.exit(f"{key}: {report.failed} failed checks; refusing to pin")
            pins[key] = report.checked
    (HERE / "pinned.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
