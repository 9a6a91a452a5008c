"""Benchmark for cesaro: one closed-loop client running a workload's seeded ops.

    python3 perfbench/run.py --workload certify|walk|audit --seed N \\
        --seconds S --trace 0|1

One process, one thread, one client: each op starts when the previous one
has finished and been checked.  Rounds of ops run back to back until the
timed op time reaches --seconds; only whole rounds run.  Checks are untimed.

Times are quoted at a reference machine speed.  The speed of a shared
machine drifts by up to 2x within seconds (process CPU time drifts with it),
so a fixed stdlib loop that runs no cesaro code is timed between every two
ops, and each op's wall time is scaled by REFERENCE_S over the loop's time
around it.  Raw wall-clock figures are kept in the result file.

The last stdout line is the JSON result: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
The full result (environment, op tail percentile, per-op output digests,
the ROADMAP anchor comparison) goes to .perfbench/results/, and the spans of
a traced run to .perfbench/spans/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "walk", "audit")
SETUP_PROBES = 9
TAIL_ABOVE = 10      # samples that must lie above the reported tail percentile
COUNT_ROUNDS = 8     # counts are per-round means over this many leading rounds
REFERENCE_S = 0.002  # reference loop time at the speed all times are quoted at

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

# (name, unit); a ".s" metric is seconds per round inside the outermost spans
# of that name, a count is a per-round mean over the first COUNT_ROUNDS rounds
ITERATE_SIZES = [f"sequences.iterate_at.k{k}.n{n}.s" for k, n in
                 ((2, 2000), (2, 4000), (2, 8000), (3, 600), (3, 1200), (3, 2400), (3, 4000))]
PER_LAYER = (
    [("kernel.phi.s", "s"), ("kernel.phi.calls", "count"), ("kernel.row_tail.s", "s"),
     ("kernel.segment_entries", "count"), ("kernel.row.s", "s"), ("kernel.row.entries", "count"),
     ("kernel.max_bits", "bits"), ("sequences.max_bits", "bits"),
     ("sequences.iterate_at.s", "s"), ("sequences.iterate_at.level_steps", "count")]
    + [(name, "s") for name in ITERATE_SIZES]
    + [("sequences.iterate_at.k3.exponent", "slope"),
       ("space.hull_contains.s", "s"), ("space.hull_contains.calls", "count"),
       ("space.hull_contains.corner_share", "ratio"),
       ("construct.simultaneous_construct.s", "s"), ("construct.replay_trace.s", "s"),
       ("construct.terms", "count"), ("construct.budget_exits", "count"),
       ("construct.assign_block_terms.s", "s"), ("construct.single_target_extend.s", "s"),
       ("audit.audit_kernel.s", "s"), ("audit.audit_oracle.s", "s"),
       ("audit.audit_unit_interval.s", "s"), ("audit.audit_abel.s", "s"),
       ("audit.checks", "count"), ("audit.checks_per_s", "1/s"),
       ("cli.main.s", "s"), ("cli.output_bytes", "bytes"),
       ("trace.ops_per_s", "1/s"), ("trace.spanned_share_min", "ratio")]
)

# hand measurements from the ROADMAP re-anchor: (point, seconds, workload,
# op label, op params that must match, note)
ANCHORS = [
    ("thm42 k=1 (7/2, eps=1/4)", 0.21, "certify", "cli.thm42", {},
     "construct --mode thm42 on configs/simultaneous.json; the op also replays "
     "the trace and writes trace.json and trajectory.csv"),
    ("lemma33 k=3 (eps=1/10)", 0.48, "walk", "lemma33.k3",
     {"atoms": [0, 1], "weight": "1/2"}, "seeded witness 1/2*(0) + 1/2*(1)"),
    ("triangle k<=5, n<=300", 1.8, "audit", None, None,
     "not measured: the audit workload builds T^5 up to n=130"),
    ("walker k=3, n=10^4", 7.2, "walk", None, None,
     "not measured: the walk ladder stops at n=4000 for k=3"),
]


@dataclass
class Record:
    op_id: int
    label: str
    round: int
    wall: float
    error: str | None
    digest: str | None
    params: dict
    scale: float = 1.0   # REFERENCE_S over the reference loop time around the op

    @property
    def time(self) -> float:
        """The op's wall time at the reference speed."""
        return self.wall * self.scale


def reference_time() -> float:
    """Best of three runs of a fixed stdlib Fraction loop: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for m in range(1, 700):
            total += Fraction(1, m)
        best = min(best, time.perf_counter() - t0)
    return best


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare_environment():
    """Refuse to run without the sources or under -O; unset the cache budget."""
    if not (ROOT / "src" / "cesaro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cesaro sources under {ROOT / 'src'}")
    if sys.flags.optimize:
        sys.exit("perfbench: python -O strips the library's certification asserts")
    budget = os.environ.pop("CESARO_CACHE_BUDGET", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return budget


def environment(args, budget) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cesaro").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "commit": commit,
        "src_sha256": sources.hexdigest(),
        "cesaro_cache_budget_env": "unset" if budget is None else f"removed ({budget})",
        "optimize": sys.flags.optimize,
    }


def measure_setup(args) -> list:
    """(wall s, scale) from spawning a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    samples = []
    before = reference_time()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{done.stderr}")
        ready = float(done.stdout.strip().splitlines()[-1])
        after = reference_time()
        samples.append((ready - t0, REFERENCE_S * 2 / (before + after)))
        before = after
    return samples


def run_op(op, op_id, round_index, tracer):
    from checks import CheckFailed, digest
    from workloads import expect_exit

    if tracer is not None:
        tracer.start_op(op_id, round_index)
    t0 = time.perf_counter()
    try:
        out, exc = op.run(), None
    except Exception as caught:  # an op may fail in any way; it counts as failed
        out, exc = None, caught
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    text = error = None
    try:
        if op.expect_exit is not None:
            expect_exit(op, exc)
            text = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.add("construct.budget_exits")
        elif exc is not None:
            raise CheckFailed(f"{op.label}: unexpected {exc!r}")
        else:
            text = op.check(out)
    except Exception as failed:  # CheckFailed, or a check crashing on bad output
        error = f"{type(failed).__name__}: {failed}"
    return Record(op_id, op.label, round_index, wall, error,
                  digest(text) if text is not None else None, op.params)


def run_rounds(rounds, seconds, tracer):
    records = []
    measured = 0.0
    index = 0
    before = reference_time()
    while measured < seconds:
        for op in rounds[index % len(rounds)]:
            record = run_op(op, len(records), index, tracer)
            after = reference_time()
            record.scale = REFERENCE_S * 2 / (before + after)
            before = after
            records.append(record)
            measured += record.wall
        index += 1
    return records, index


def tail(times):
    """(seconds, percentile) at the highest percentile with TAIL_ABOVE samples above it."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_ABOVE, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(records, setup, scaled=True):
    times = [r.time if scaled else r.wall for r in records]
    failed = sum(r.error is not None for r in records)
    tail_s, _ = tail(times)
    return {
        "setup_s": statistics.median(w * s if scaled else w for w, s in setup),
        "ops_per_s": len(records) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "success_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(records, rounds_run, tracer):
    from tracing import loglog_slope

    out = {name: 0.0 for name, _ in PER_LAYER}
    scales = {r.op_id: r.scale for r in records}
    times = tracer.self_times(scales)
    for name, (_, inclusive, _) in times.items():
        if name + ".s" in out:
            out[name + ".s"] = inclusive / rounds_run
    counted = min(rounds_run, COUNT_ROUNDS)
    totals = defaultdict(int)
    for r in range(counted):
        for name, value in tracer.counts[r].items():
            if name.endswith("max_bits"):
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    for name, value in totals.items():
        if name in out:
            out[name] = value if name.endswith("max_bits") else value / counted
    calls = totals["space.hull_contains.calls"]
    out["space.hull_contains.corner_share"] = (
        totals["space.hull_contains.corner_calls"] / calls if calls else 0.0)
    all_checks = sum(c.get("audit.checks", 0) for c in tracer.counts.values())
    audit_s = sum(v[1] for k, v in times.items() if k.startswith("audit.audit_"))
    out["audit.checks_per_s"] = all_checks / audit_s if audit_s else 0.0

    top = tracer.top_level_time(scales)
    by_size = defaultdict(list)
    for r in records:
        if r.label.startswith("iterate."):
            by_size[f"sequences.iterate_at.{r.label[len('iterate.'):]}.s"].append(top[r.op_id])
    for name, values in by_size.items():
        out[name] = statistics.median(values)
    k3 = [(int(name.split(".n")[1][:-2]), out[name]) for name in ITERATE_SIZES
          if ".k3." in name and out[name] > 0]
    if len(k3) >= 2:
        out["sequences.iterate_at.k3.exponent"] = loglog_slope(k3)
    out["trace.ops_per_s"] = len(records) / sum(r.time for r in records)
    out["trace.spanned_share_min"] = min(top[r.op_id] / r.time for r in records)
    return out, times


def anchors(records, workload):
    rows = []
    for point, hand, where, label, params, note in ANCHORS:
        row = {"point": point, "roadmap_s": hand, "workload": where, "note": note}
        matched = [r for r in records if label is not None and r.label == label
                   and all(r.params.get(k) == v for k, v in params.items())]
        if label is None:
            row["harness_s"] = None
        elif where != workload or not matched:
            row["harness_s"] = None
            row["note"] = f"not measured in this run ({where} workload); " + note
        else:
            value = statistics.median(r.time for r in matched)
            row.update(harness_s=value, ratio=value / hand,
                       harness_wall_s=statistics.median(r.wall for r in matched),
                       flag="more than 2x off" if not 0.5 <= value / hand <= 2 else None)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    budget = prepare_environment()
    import workloads

    rounds = workloads.build(args.workload, args.seed, ROOT)
    if args.setup_probe:
        print(repr(time.perf_counter()), flush=True)
        return 0
    env = environment(args, budget)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    origin = time.perf_counter()
    records, rounds_run = run_rounds(rounds, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()

    failures = [f"op {r.op_id} ({r.label}, round {r.round}): {r.error}"
                for r in records if r.error is not None]
    result = {"env": env, "rounds": rounds_run, "ops": len(records),
              "failures": failures[:50],
              "digests": [[r.op_id, r.label, r.digest] for r in records],
              "anchors": anchors(records, args.workload)}
    first_round = hashlib.sha256(
        "".join(str(r.digest) for r in records if r.round == 0).encode()).hexdigest()
    result["first_round_sha256"] = first_round
    if args.trace:
        metrics, layers = per_layer(records, rounds_run, tracer)
        units = dict(PER_LAYER)
        spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        ops = [[r.op_id, r.label, r.round, r.wall, r.scale] for r in records]
        tracer.write(spans, ops, origin)
        result["span_file"] = str(spans.relative_to(ROOT))
        result["layers"] = {name: {"calls": c, "inclusive_s": i, "self_s": s}
                            for name, (c, i, s) in sorted(layers.items())}
    else:
        setup = measure_setup(args)
        metrics = end_to_end(records, setup)
        units = dict(END_TO_END)
        _, pct = tail([r.time for r in records])
        result["wall_clock"] = end_to_end(records, setup, scaled=False)
        result["setup_samples"] = [{"wall_s": w, "scale": s} for w, s in setup]
        result["op_tail"] = {"percentile": pct, "samples": len(records),
                             "above": min(TAIL_ABOVE, len(records) - 1)}
        labels = defaultdict(list)
        for r in records:
            labels[r.label].append(r)
        result["op_median_s"] = {k: statistics.median(r.time for r in v)
                                 for k, v in sorted(labels.items())}
        result["op_median_wall_s"] = {k: statistics.median(r.wall for r in v)
                                      for k, v in sorted(labels.items())}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}

    out = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} ops in {rounds_run} rounds, {len(failures)} failed")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# reference loop: median {statistics.median(REFERENCE_S / r.scale for r in records):.5f} s"
          f" (times are quoted at {REFERENCE_S} s)")
    if "wall_clock" in result:
        print("# wall clock " + json.dumps(result["wall_clock"], sort_keys=True))
    if "op_tail" in result:
        tail_info = result["op_tail"]
        print(f"# op_tail_s is p{tail_info['percentile']:.2f} of {tail_info['samples']} ops "
              f"({tail_info['above']} above)")
    for row in result["anchors"]:
        got = "not measured" if row["harness_s"] is None else f"{row['harness_s']:.3f} s"
        print(f"# anchor {row['point']}: roadmap {row['roadmap_s']} s, harness {got}"
              + (f" [{row['flag']}]" if row.get("flag") else ""))
    for line in failures[:10]:
        print("# FAILED " + line)
    print(f"# first-round output sha256 {first_round}; full result in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": len(records), "failed": len(failures),
        "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
