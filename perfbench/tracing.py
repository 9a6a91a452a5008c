"""Spans around the public calls into each cesaro layer, recorded from outside.

Only the traced run installs these wrappers.  Each wrapper replaces a public
name in every module that holds a reference to it, so calls the benchmark
makes and calls one layer makes into another are both recorded.  A span is
(id, name, start, end, parent id, op id, outermost); spans stay in memory and
are written once, when the run ends.  Counts are taken at the same
boundaries and derived only from call arguments and results.
"""

import json
import math
from collections import defaultdict
from itertools import count
from pathlib import Path
from time import perf_counter

from cesaro import audit, cli, construct, kernel, sequences, space


def _denominator_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # open span ids
        self.open_names = defaultdict(int)
        self.ids = count(1)
        self.op = None           # id of the op in flight
        self.round = 0
        self.counts = defaultdict(lambda: defaultdict(int))   # round -> name -> value
        self.returned = {}       # (name, id) -> values whose bits are counted after the op
        self._saved = []

    # -- recording ---------------------------------------------------------

    def start_op(self, op_id, round_index):
        self.op = op_id
        self.round = round_index

    def keep_bits(self, name, values):
        self.returned[(name, id(values))] = values   # a cached row counts once

    def end_op(self):
        """Count the bits of the values the op's calls returned, outside its timing."""
        for (name, _), values in self.returned.items():
            self.raise_to(name, _denominator_bits(values))
        self.returned.clear()

    def add(self, name, value=1):
        self.counts[self.round][name] += value

    def raise_to(self, name, value):
        bucket = self.counts[self.round]
        bucket[name] = max(bucket[name], value)

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            sid = next(tracer.ids)
            outermost = tracer.open_names[name] == 0
            tracer.stack.append(sid)
            tracer.open_names[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.open_names[name] -= 1
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op, outermost))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries; every module holding a name gets the wrapper."""
        for name, owners, attr, hook in _BOUNDARIES:
            original = getattr(owners[0], attr)
            wrapped = self._wrap(name, original, hook)
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path, ops, origin):
        """Spans as JSON lines (times relative to origin), after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": ops, "counts": {
                str(r): dict(c) for r, c in sorted(self.counts.items())}}) + "\n")
            for sid, name, t0, t1, parent, op, _ in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0 - origin,
                                     "end": t1 - origin, "parent": parent, "op": op}) + "\n")

    def self_times(self, scales) -> dict:
        """name -> (calls, inclusive s, self s); self time excludes child spans.

        Span durations are multiplied by their op's entry in `scales`.
        """
        child = defaultdict(float)
        for _, _, t0, t1, parent, op, _ in self.spans:
            if parent is not None:
                child[parent] += (t1 - t0) * scales[op]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, t0, t1, _, op, outermost in self.spans:
            row = out[name]
            duration = (t1 - t0) * scales[op]
            row[0] += 1
            if outermost:
                row[1] += duration
            row[2] += duration - child[sid]
        return {name: tuple(v) for name, v in out.items()}

    def top_level_time(self, scales) -> dict:
        """op id -> seconds covered by the op's top-level spans, times its scale."""
        out = defaultdict(float)
        for _, _, t0, t1, parent, op, _ in self.spans:
            if parent is None:
                out[op] += (t1 - t0) * scales[op]
        return out


# -- count hooks: arguments and results only -----------------------------------

def _row_hook(tracer, args, row):
    tracer.add("kernel.row.entries", args[2])
    tracer.keep_bits("kernel.max_bits", row)


def _row_tail_hook(tracer, args, tail):
    _, k, n, m_from = args[:4]
    width = n - m_from + 1
    tracer.add("kernel.segment_entries", (k - 1) * width * (width + 1) // 2)
    tracer.keep_bits("kernel.max_bits", tail)


def _phi_hook(tracer, args, value):
    tracer.add("kernel.phi.calls")
    tracer.keep_bits("kernel.max_bits", (value,))


def _iterate_hook(tracer, args, value):
    k, _, n = args[:3]
    tracer.add("sequences.iterate_at.level_steps", k * n)
    tracer.keep_bits("sequences.max_bits", value)


def _hull_hook(tracer, args, _):
    tracer.add("space.hull_contains.calls")
    if args[0].corner_radius is not None:
        tracer.add("space.hull_contains.corner_calls")


_CONSTRUCTIONS = ("construct.simultaneous_construct", "construct.assign_block_terms",
                  "construct.single_target_extend", "construct.run_target_plan")


def _terms_hook(terms):
    def hook(tracer, args, result):
        # a construction inside another one is counted by the outer call
        if not any(tracer.open_names[name] for name in _CONSTRUCTIONS):
            tracer.add("construct.terms", terms(result))
    return hook


def _audit_hook(tracer, args, report):
    tracer.add("audit.checks", report.checked)


def _cli_hook(tracer, args, code):
    argv = args[0]
    if "--out-dir" in argv:
        out_dir = Path(argv[argv.index("--out-dir") + 1])
        tracer.add("cli.output_bytes", sum(p.stat().st_size for p in out_dir.iterdir()))


_BOUNDARIES = [
    ("kernel.row", [kernel.KernelCache], "row", _row_hook),
    ("kernel.row_tail", [kernel.KernelCache], "row_tail", _row_tail_hook),
    ("kernel.phi", [kernel], "phi", _phi_hook),
    ("sequences.iterate_at", [sequences, construct], "iterate_at", _iterate_hook),
    ("space.hull_contains", [space, construct], "hull_contains", _hull_hook),
    ("space.cube_corners", [space, construct], "cube_corners", None),
    ("construct.simultaneous_construct", [construct, cli], "simultaneous_construct",
     _terms_hook(lambda r: r.n)),
    ("construct.replay_trace", [construct, cli], "replay_trace", None),
    ("construct.assign_block_terms", [construct], "assign_block_terms",
     _terms_hook(lambda r: len(r[1]))),
    ("construct.single_target_extend", [construct, cli], "single_target_extend",
     _terms_hook(lambda r: r.n0)),
    ("construct.run_target_plan", [construct, cli], "run_target_plan",
     _terms_hook(lambda r: len(r.seq))),
    ("audit.audit_kernel", [audit], "audit_kernel", _audit_hook),
    ("audit.audit_oracle", [audit], "audit_oracle", _audit_hook),
    ("audit.audit_unit_interval", [audit], "audit_unit_interval", _audit_hook),
    ("audit.audit_abel", [audit], "audit_abel", _audit_hook),
    ("cli.main", [cli], "main", _cli_hook),
]


def loglog_slope(points) -> float:
    """Least-squares slope of log t against log n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
