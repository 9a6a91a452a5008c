"""Command-line front end: kernel dumps, audit suites, construction runs.

Exit codes (stable): 0 success / all checks pass, 1 usage or config error,
2 budget or coverage limit, 3 audit found failures, 4 internal certification
failure (implementation bug).  All output files are deterministic for a
fixed config + seed; wall-clock timing goes to stdout only.
"""

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import audit as audit_mod
from .construct import (
    ConvexWitness,
    DEFAULT_TERM_CAP,
    dense_example,
    single_target_extend,
    replay_trace,
    take_prefix,
    run_target_plan,
    simultaneous_construct,
)
from .errors import BudgetExceededError, CertificationError, CesaroError, CoverageError
from .exact import decstr, frac, fracstr, render
from .kernel import DEFAULT_K_MAX, DEFAULT_N_MAX, KernelCache
from .space import GroundSet, IndexSet, Space, point

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_AUDIT_FAILED = 3
EXIT_CERTIFICATION = 4

CONFIG_SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_text(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# top-level config keys every construct mode reads; `seed` is accepted and
# ignored, since the constructions draw no random numbers.  Each mode's own
# keys are registered with its handler by `_mode`.
_SHARED_KEYS = {"schema", "space", "ground_set", "index_set", "budgets", "seed"}
_MODES = {}


def _mode(name: str, *keys: str):
    """Register a construct handler for mode `name`, which reads `keys` of the config."""
    def register(handler):
        _MODES[name] = (frozenset(keys), handler)
        return handler
    return register


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    if cfg.get("schema") != CONFIG_SCHEMA:
        raise ValueError(f"config schema must be {CONFIG_SCHEMA}")
    return cfg


def check_config_keys(cfg: dict, mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    unknown = sorted(set(cfg) - _SHARED_KEYS - _MODES[mode][0])
    if unknown:
        raise ValueError(f"unknown config keys for mode {mode}: {', '.join(unknown)}")


# A config value of the wrong JSON type is a config error (exit 1), like a
# malformed one; these readers raise a ValueError that names its key.

def _object(raw, key: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"config key {key!r} must be an object")
    return raw


def _section(cfg: dict, key: str, default: dict) -> dict:
    return _object(cfg.get(key, default), key)


def _required(section: dict, key: str):
    if key not in section:
        raise ValueError(f"config key {key!r} is missing")
    return section[key]


def _list(raw, key: str) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"config key {key!r} must be a list, got {raw!r}")
    return raw


def _rational(raw, key: str) -> Fraction:
    """An exact number: an integer or a string such as '1/4' (a JSON float is refused)."""
    try:
        return frac(raw)
    except TypeError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _integer(raw, key: str) -> int:
    """An integer or an integer string (a JSON float or boolean is refused)."""
    if isinstance(raw, (bool, float)):
        raise ValueError(f"config key {key!r}: refusing to coerce {type(raw).__name__} {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r} must be an integer, got {raw!r}") from None


def _point(raw, key: str):
    return point(*(_rational(c, key) for c in _list(raw, key)))


def _points(raw, key: str) -> list:
    return [_point(p, key) for p in _list(raw, key)]


def space_from_config(cfg: dict) -> Space:
    sp = _section(cfg, "space", {})
    d = _integer(sp.get("dimension", 1), "dimension")
    weights = tuple(_rational(w, "seminorm_weights")
                    for w in _list(sp.get("seminorm_weights", ["1"] * d), "seminorm_weights"))
    return Space(d, weights)


def ground_from_config(cfg: dict, d: int) -> GroundSet:
    g = _section(cfg, "ground_set", {"kind": "lattice", "scale": "1"})
    kind = _required(g, "kind")
    if kind == "explicit":
        return GroundSet.explicit(_points(_required(g, "points"), "points"))
    return GroundSet(kind, d, scale=_rational(g.get("scale", "1"), "scale"))


def index_set_from_config(cfg: dict) -> IndexSet:
    idx = _section(cfg, "index_set", {"kind": "all"})
    if _required(idx, "kind") == "progression":
        return IndexSet("progression", _integer(idx.get("offset", 1), "offset"),
                        _integer(idx.get("stride", 1), "stride"))
    return IndexSet(idx["kind"])


def budgets_from_config(cfg: dict) -> tuple[KernelCache, int]:
    b = _section(cfg, "budgets", {})
    if "kernel_k_max" in b or "kernel_n_max" in b:
        cache = KernelCache(_integer(b.get("kernel_k_max", DEFAULT_K_MAX), "kernel_k_max"),
                            _integer(b.get("kernel_n_max", DEFAULT_N_MAX), "kernel_n_max"))
    else:
        cache = KernelCache.from_env()
    term_cap = _integer(b.get("term_cap", DEFAULT_TERM_CAP), "term_cap")
    if term_cap < 1:
        raise ValueError(f"config key 'term_cap' must be at least 1, got {term_cap}")
    return cache, term_cap


def growth_from_config(raw) -> callable:
    raw = raw or {"kind": "power", "base": 4}
    if not isinstance(raw, dict):
        raise ValueError(f"growth must be an object with a kind, got {raw!r}")
    kind = raw.get("kind", "power")
    if kind == "power":
        base = _integer(raw.get("base", 4), "base")
        return lambda n: base**n
    if kind == "constant":
        value = _integer(raw.get("value", 1), "value")
        return lambda n: value
    if kind == "linear":
        return lambda n: n
    raise ValueError(f"unknown growth kind {kind!r}")


# ---------------------------------------------------------------------------
# kernel subcommand
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    cache = KernelCache.from_env()
    rows = [cache.row(args.k, n) for n in range(1, args.n + 1)]
    if args.format == "csv":
        lines = []
        for n, row in enumerate(rows, start=1):
            lines.append(",".join([str(n)] + render(row)))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "k": args.k,
            "rows": dict(enumerate(rows, 1)),
        }
        text = _json_text(render(payload))
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit subcommand
# ---------------------------------------------------------------------------

# suite name -> its run on the parsed arguments and a kernel cache; each entry
# looks its function up in ``audit`` at call time, so a wrapper installed there runs
_SUITES = {
    "abel": lambda args, cache: audit_mod.audit_abel(args.samples, args.seed),
    "kernel": lambda args, cache: audit_mod.audit_kernel(args.k_max, args.n_max, cache),
    "oracle": lambda args, cache: audit_mod.audit_oracle(args.samples, args.seed, cache=cache),
    "prop412": lambda args, cache: audit_mod.audit_unit_interval(
        args.samples, args.n_max, args.seed, cache),
}


def cmd_audit(args) -> int:
    report = _SUITES[args.suite](args, KernelCache.from_env())
    if args.out:
        _write_text(args.out, _json_text(report.to_json(include_timing=args.timing)))
        print(f"wrote {args.out}")
    print(
        f"suite={report.suite} checked={report.checked} passed={report.passed} "
        f"failed={report.failed} wall_ms={report.wall_time_ms:.1f}"
    )
    for ce in report.counterexamples:
        print(f"  counterexample: {ce}")
    return EXIT_OK if report.failed == 0 else EXIT_AUDIT_FAILED


# ---------------------------------------------------------------------------
# construct subcommand
# ---------------------------------------------------------------------------

def _trajectory_rows(trace: dict):
    n = trace["final_index"]
    rows = []
    for idx, (k, dist) in enumerate(zip(trace["ks"], trace["distances"], strict=True)):
        row = {"n": n, "k": k}
        for i, c in enumerate(dist["value"], start=1):
            row[f"coord_{i}"] = c
            row[f"coord_{i}_dec"] = decstr(frac(c))
        row["target_id"] = idx
        row["metric_distance"] = dist["metric"]
        row["metric_distance_dec"] = dist["metric_dec"]
        rows.append(row)
    return rows


def _write_trajectory(path, rows, d: int) -> None:
    fields = ["n", "k"]
    for i in range(1, d + 1):
        fields += [f"coord_{i}", f"coord_{i}_dec"]
    fields += ["target_id", "metric_distance", "metric_distance_dec"]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _print_summary(trace: dict, epsilon) -> None:
    print(f"certified epsilon: {fracstr(frac(epsilon))} ({decstr(frac(epsilon))})")
    print("level  n        metric_distance        seminorm_distances")
    for dist in trace["distances"]:
        semis = " ".join(dist["seminorms"])
        print(
            f"{dist['level']:<6} {trace['final_index']:<8} "
            f"{dist['metric']} ({dist['metric_dec']})  [{semis}]"
        )


@_mode("thm42", "epsilon", "k", "targets")
def _construct_thm42(cfg, space, ground, index_set, cache, term_cap, out_dir) -> int:
    targets = _points(_required(cfg, "targets"), "targets")
    if "k" in cfg and _integer(cfg["k"], "k") != len(targets):
        raise ValueError(f"config k={cfg['k']} but {len(targets)} targets are given")
    epsilon = _rational(_required(cfg, "epsilon"), "epsilon")
    result = simultaneous_construct(
        [], targets, epsilon, index_set, space, ground, cache, term_cap
    )
    trace = result.trace
    _write_text(out_dir / "trace.json", _json_text(trace))
    _write_trajectory(out_dir / "trajectory.csv", _trajectory_rows(trace), space.dimension)
    _print_summary(trace, epsilon)
    replay = replay_trace(trace, space, cache)
    print(f"replay matches recorded distances: {replay['matches']}")
    print(f"n = {result.n} (admissible: {index_set.contains(result.n)})")
    return EXIT_OK


@_mode("lemma33", "epsilon", "k", "witness")
def _construct_lemma33(cfg, space, ground, index_set, cache, term_cap, out_dir) -> int:
    epsilon = _rational(_required(cfg, "epsilon"), "epsilon")
    atoms = [_list(atom, "atoms")
             for atom in _list(_required(_section(cfg, "witness", {}), "atoms"), "atoms")]
    for atom in atoms:
        if len(atom) != 2:
            raise ValueError(f"config key 'atoms': an atom must be a [weight, point] pair, "
                             f"got {atom!r}")
    witness = ConvexWitness(tuple((_rational(c, "atoms"), _point(p, "atoms")) for c, p in atoms))
    result = single_target_extend(
        [], witness, epsilon, _integer(_required(cfg, "k"), "k"), space, ground, term_cap
    )
    trace = result.trace
    _write_text(out_dir / "trace.json", _json_text(trace))
    _write_trajectory(out_dir / "trajectory.csv", _trajectory_rows(trace), space.dimension)
    print(f"n0 = {result.n0}")
    _print_summary(trace, epsilon)
    return EXIT_OK


@_mode("thm41", "plan")
def _construct_thm41(cfg, space, ground, index_set, cache, term_cap, out_dir) -> int:
    plan = [_points(_required(_object(entry, "plan"), "targets"), "targets")
            for entry in _list(_required(cfg, "plan"), "plan")]
    result = run_target_plan(plan, index_set, space, ground, cache, term_cap)
    payload = {"schema": 1, "kind": "thm41", "schedule": result.schedule,
               "entries": result.traces}
    _write_text(out_dir / "trace.json", _json_text(payload))
    rows = []
    for trace in result.traces:
        rows.extend(_trajectory_rows(trace))
    _write_trajectory(out_dir / "trajectory.csv", rows, space.dimension)
    print(f"schedule: {result.schedule}")
    for lam, trace in enumerate(result.traces, start=1):
        _print_summary(trace, Fraction(1, lam))
    return EXIT_OK


@_mode("dense", "dense")
def _construct_dense(cfg, space, ground, index_set, cache, term_cap, out_dir) -> int:
    dense_cfg = _section(cfg, "dense", {})
    enumeration = _points(_required(dense_cfg, "enumeration"), "enumeration")
    growth = growth_from_config(dense_cfg.get("growth"))
    terms = _integer(dense_cfg.get("terms", 2000), "terms")
    ks = [_integer(k, "ks") for k in _list(dense_cfg.get("ks", [1, 2]), "ks")]
    target_count = _integer(dense_cfg.get("target_count", min(5, len(enumeration))),
                            "target_count")
    if not 1 <= target_count <= len(enumeration):
        raise ValueError(f"config key 'target_count' must be in 1..{len(enumeration)}, "
                         f"got {target_count}")
    targets = enumeration[:target_count]
    seq = take_prefix(dense_example(enumeration, growth), terms)
    table = audit_mod.audit_density(seq, targets, ks, space)
    payload = {
        "schema": 1,
        "kind": "dense",
        "note": ("empirical closeness audit at desk-scale growth; "
                 "not a density proof"),
        "terms": len(seq),
        "table": table,
    }
    _write_text(out_dir / "density.json", _json_text(payload))
    rows = []
    for entry in table:
        if entry["length"] != len(seq):
            continue
        rows.append(entry)
    print(f"dense example: {len(seq)} terms (empirical audit, not a density proof)")
    print("k      target  min_metric             at_index")
    for entry in rows:
        print(f"{entry['k']:<6} {entry['target_id']:<7} "
              f"{entry['min_metric']} ({decstr(frac(entry['min_metric']))})  {entry['at_index']}")
    return EXIT_OK


def cmd_construct(args) -> int:
    cfg = load_config(args.config)
    check_config_keys(cfg, args.mode)
    space = space_from_config(cfg)
    ground = ground_from_config(cfg, space.dimension)
    index_set = index_set_from_config(cfg)
    cache, term_cap = budgets_from_config(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    handler = _MODES[args.mode][1]
    return handler(cfg, space, ground, index_set, cache, term_cap, out_dir)


def build_parser() -> _Parser:
    parser = _Parser(prog="cesaro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="dump kernel rows of T^k")
    p_kernel.add_argument("--k", type=int, required=True)
    p_kernel.add_argument("--n", type=int, required=True, help="rows 1..n")
    p_kernel.add_argument("--format", choices=("csv", "json"), default="csv")
    p_kernel.add_argument("--out", default=None)
    p_kernel.set_defaults(func=cmd_kernel)

    p_audit = sub.add_parser("audit", help="run a verification suite")
    p_audit.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p_audit.add_argument("--k-max", dest="k_max", type=int, default=4)
    p_audit.add_argument("--n-max", dest="n_max", type=int, default=120)
    p_audit.add_argument("--samples", type=int, default=500)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--timing", action="store_true",
                         help="include wall time in the report file")
    p_audit.set_defaults(func=cmd_audit)

    p_con = sub.add_parser("construct", help="run a construction from a config")
    p_con.add_argument("--mode", choices=("dense", "lemma33", "thm42", "thm41"),
                       required=True)
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--out-dir", dest="out_dir", default=".")
    p_con.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceededError, CoverageError) as exc:
        print(f"budget/coverage: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificationError as exc:
        print(f"certification failure (bug): {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (ValueError, KeyError, OSError, CesaroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
