"""Seeded op lists for the three workloads.

A workload is a list of rounds; a round is a fixed list of ops whose inputs
are drawn from the workload seed.  The runner repeats rounds back to back.
Each op has a timed body that calls the public functions of ``cesaro`` and
an untimed check that confirms the output with ``checks`` and returns the
op's canonical output text, whose SHA-256 lets two commits be compared for
byte-identical outputs.

Why these workloads:

* certify -- the paper's constructions as users run them.  Block assignment
  on segment kernels (``row_tail``) dominates its two-level ops.
* walk    -- high-level iterates over long run-length sequences.  Per-index
  walker steps dominate; no op touches the kernel cache.
* audit   -- verification sweeps on a fresh ``KernelCache`` per op, which uses
  the kernel as a dense memo triangle instead of sparse segments.
"""

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cesaro import audit, cli, construct, errors, kernel, sequences, space

import checks
from checks import CheckFailed, canonical, require

ROUNDS = 16          # distinct rounds generated per run; the runner cycles them
TERM_CAP = 10**6     # the library default, which every construction here uses
# First-block sizes accepted for the seeded thm42 draws of a round: one
# small and two large.  The block's segment kernel is a width^2 triangle, so
# the block bounds both time and memory; 3840 is the block of
# configs/simultaneous.json, which therefore sets peak memory.  Narrow bands
# keep a run's op mix independent of its seed, and put a fixed-size op
# (two_level.v525) at the median of every round.
THM42_BLOCKS = {"small": (800, 1000), "large": (3000, 3840)}
THM42_EPSILONS = (Fraction(1, 4), Fraction(3, 10), Fraction(1, 5))
# v, lambda_1 = v/5, lambda_2 = 2v/15; block ends at or below the cache
# budget n_max=400 only for v=300, so both kernel paths run.
TWO_LEVEL_V = (300, 525, 1050)
# level-1 and level-2 targets, drawn up to sign; a level-2 target beyond 1/8
# makes the v=300 stabilizer too short for the round bound (SchedulingError)
TWO_LEVEL_X1 = Fraction(1, 4)
TWO_LEVEL_X2 = Fraction(1, 8)
# k=3 at n=4000 costs about as much as the dense CLI run, so the walk round
# has two ops of the largest kind and its tail percentile falls inside them
ITERATE_LADDER = ((2, 2000), (2, 4000), (2, 8000), (3, 600), (3, 1200), (3, 2400), (3, 4000))
LEMMA33_EPSILON = Fraction(1, 10)
LEMMA33_ATOMS = ((0, 1), (-1, 0))
# At k=3 the cost of a witness grows like n0^3 and n0 swings widely (from
# 0.3 s to minutes for atoms within [-2, 2]), so k=3 draws only the sign of
# the midpoint witness; k=2 draws its weight.
LEMMA33_WEIGHTS = {2: (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5),
                       Fraction(2, 3)),
                   3: (Fraction(1, 2),)}
AUDIT_SEEDS = 16
# The kernel sweep is the audit round's largest op by about 1.25x and runs
# twice per round, so the ten samples above the tail percentile are all
# kernel sweeps.  The round has nine ops; its median op is the T^5 triangle.
AUDIT_KERNEL = (3, 70)
ORACLE_INSTANCES = 150
UNIT_SAMPLES, UNIT_N_MAX = 200, 100
ABEL_SAMPLES = 300
TRIANGLES = ((2, 250), (3, 200), (4, 160), (5, 130))

# the two documented loud exits and their exact requirements
TWO_LEVEL_CONFIG_EXIT = ("m_required", 431355450463257600)
CRITERION6_EXIT = ("required_v1_at_level1", 37466445)
CRITERION6_PLAN = [[(Fraction(1),)], [(Fraction(-1),), (Fraction(2),)]]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str] = None
    expect_exit: tuple = None        # (detail key, value) of a BudgetExceededError
    params: dict = field(default_factory=dict)


def build(workload: str, seed: int, root: Path) -> list:
    """ROUNDS rounds of ops for a workload, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir = root / ".perfbench" / "out"
    if workload == "certify":
        sizes = {}
        return [_certify_round(rng, root, out_dir, sizes) for _ in range(ROUNDS)]
    if workload == "walk":
        return [_walk_round(rng, r, root, out_dir) for r in range(ROUNDS)]
    if workload == "audit":
        pins = json.loads((root / "perfbench" / "pinned.json").read_text())
        return [_audit_round(rng, pins) for _ in range(ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certify_round(rng, root, out_dir, sizes):
    ops = [_thm42_op(rng, d, size, sizes) for d, size in ((1, "small"), (1, "large"),
                                                          (2, "large"))]
    ops += [_two_level_op(rng, v) for v in TWO_LEVEL_V]
    configs = root / "configs"
    ops += [
        _cli_op("thm42", configs / "simultaneous.json", out_dir),
        _cli_op("lemma33", configs / "single-target.json", out_dir),
        _cli_op("thm41", configs / "plan.json", out_dir),
        _two_level_config_exit(configs / "simultaneous-two-level.json"),
        _criterion6_exit(),
    ]
    return ops


def _thm42_draw(rng, d, blocks, sizes):
    """A seeded k=1 problem whose certified index stays inside the term cap.

    The covering seed mirrors the library's (cube corners over 0 and the
    target, norms at least 1); partition_min_m on its chain gives m exactly,
    and the first block has ceil(c_1 m) terms.  The chain depends only on
    (d, epsilon, seed radius), so `sizes` memoizes it across draws.
    """
    sp = space.Space(d)
    ground = space.GroundSet.lattice(d)
    while True:
        target = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(d))
        epsilon = rng.choice(THM42_EPSILONS)
        stride = rng.randint(1, 7)
        index_set = (space.IndexSet("all") if stride == 1
                     else space.IndexSet("progression", stride, stride))
        radius = max([Fraction(1)] + [abs(c) for c in target]
                     + [1 / sp.weights[r - 1] for r in sp.important_rhos(epsilon / 3)])
        key = (d, epsilon, radius)
        if key not in sizes:
            seed_set = space.cube_corners(ground, radius, sp).union(
                space.FinitePointSet((ground.nearest_to_zero(sp),)))
            chain = construct.build_covering_chain(seed_set, epsilon, 1, sp, ground)
            _, m_needed = construct.partition_min_m(chain, 1, sp)  # v1 = 1: empty prefix
            sizes[key] = (m_needed, chain.intervals[0][0])
        m_needed, c_1 = sizes[key]
        m = index_set.next_after(m_needed - 1)
        block = -((-c_1.numerator * m) // c_1.denominator)
        if m <= TERM_CAP and blocks[0] <= block <= blocks[1]:
            return sp, ground, target, epsilon, index_set, stride, m


def _thm42_op(rng, d, size, sizes):
    sp, ground, target, epsilon, index_set, stride, m = _thm42_draw(
        rng, d, THM42_BLOCKS[size], sizes)

    def run():
        cache = kernel.KernelCache()
        result = construct.simultaneous_construct(
            [], [target], epsilon, index_set, sp, ground, cache, TERM_CAP)
        return result, construct.replay_trace(result.trace, sp, cache)

    def check(out):
        result, replay = out
        trace = result.trace
        require(replay["matches"] is True, "replay does not match the recorded distances")
        require(result.n == trace["final_index"] == len(result.seq) == m,
                f"final index {result.n} differs from the predicted {m}")
        require(checks.admissible(result.n, stride), f"n={result.n} is not admissible")
        runs = [(p, c) for p, c in result.seq.runs]
        checks.check_distances(trace, sp.weights, epsilon, runs)
        return canonical({"trace": trace, "replay": replay})

    return Op(f"thm42.d{d}.{size}", run, check, params={
        "target": [str(c) for c in target], "epsilon": str(epsilon),
        "stride": stride, "m": m})


def _two_level_op(rng, v):
    """Two-level block assignment on a hand-built covering chain sized by phi."""
    x1 = (rng.choice((-1, 1)) * TWO_LEVEL_X1,)
    x2 = (rng.choice((-1, 1)) * TWO_LEVEL_X2,)
    lambdas = (v // 5, 2 * v // 15)
    eps = Fraction(3, 10)
    line = space.Space(1)
    ground = space.GroundSet.lattice(1)
    part = construct.Partition(v=v, lambdas=lambdas)
    slack = space.delta(eps / 6)

    def run():
        cache = kernel.KernelCache()
        m0 = space.FinitePointSet(((Fraction(-1),), (Fraction(1),)), corner_radius=Fraction(1))
        phi1 = kernel.phi(v, lambdas, 1, cache)
        r1 = (abs(x2[0]) + slack) / phi1
        m1 = space.cube_corners(ground, r1 + 1, line).union(m0)
        phi2 = kernel.phi(v, lambdas, 2, cache)
        worst = Fraction(lambdas[0], part.m) * m1.corner_radius
        m2 = space.cube_corners(ground, (abs(x1[0]) + worst + slack) / phi2 + 1, line).union(m1)
        chain = construct.CoveringChain(
            sets=(m0, m1, m2),
            intervals=((Fraction(1, 100), Fraction(2, 100)), (Fraction(1, 250), Fraction(2, 250))),
            epsilon=eps, k=2)
        seq = sequences.RunSeq([((Fraction(0),), v)])
        return construct.assign_block_terms(seq, chain, part, [x1, x2], eps, line, cache)

    def check(out):
        stages, seq = out
        require(len(seq) == part.m, "assignment did not fill the partition")
        require([s.level for s in stages] == [2, 1], "stages out of order")
        runs = [(p, c) for p, c in seq.runs]
        two_over_v = Fraction(2, v)
        for s in stages:
            require(all(abs(r) < two_over_v for r in s.final_residuals),
                    f"stage {s.stage}: a residual is not below 2/v")
            value = checks.iterate_value(s.level, runs, s.end)
            require(value == s.endpoint_value, f"stage {s.stage}: endpoint differs")
            require(abs(value[0] - s.x_target[0]) < eps / 3, f"stage {s.stage}: endpoint misses")
        return canonical({"stages": [s.to_json() for s in stages],
                          "runs": [[str(p[0]), c] for p, c in runs]})

    return Op(f"two_level.v{v}", run, check,
              params={"x1": str(x1[0]), "x2": str(x2[0])})


def _cli_op(mode, config, out_dir):
    target_dir = out_dir / f"cli-{mode}"
    argv = ["construct", "--mode", mode, "--config", str(config), "--out-dir", str(target_dir)]
    cfg = json.loads(config.read_text())

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(out):
        code, stdout, stderr = out
        files = ({p.name: p.read_bytes() for p in sorted(target_dir.iterdir())}
                 if target_dir.is_dir() else {})
        shutil.rmtree(target_dir, ignore_errors=True)  # the next run must write afresh
        require(code == 0, f"cesaro {' '.join(argv[:3])} exited {code}: {stderr.strip()}")
        weights = [Fraction(w) for w in cfg.get("space", {}).get("seminorm_weights", ["1"])]
        if mode == "dense":
            _check_dense(json.loads(files["density.json"]), cfg, weights)
        else:
            trace = json.loads(files["trace.json"])
            entries = trace["entries"] if mode == "thm41" else [trace]
            for lam, entry in enumerate(entries, start=1):
                bound = Fraction(1, lam) if mode == "thm41" else Fraction(cfg["epsilon"])
                checks.check_distances(entry, weights, bound)
            if mode == "thm41":
                schedule = trace["schedule"]
                require(schedule == sorted(set(schedule)), "schedule is not increasing")
        return stdout + "".join(
            f"\n--- {name}\n" + data.decode() for name, data in files.items())

    return Op(f"cli.{mode}", run, check, params={"config": config.name})


def _check_dense(payload, cfg, weights):
    """Rebuild the block sequence from the config and confirm each final minimum's witness."""
    dense = cfg["dense"]
    base = int(dense["growth"]["base"])
    terms = int(dense["terms"])
    runs = []
    total = 0
    for j, raw in enumerate(dense["enumeration"], start=1):
        count = 1 if j == 1 else base**j
        count = min(count, terms - total)
        runs.append((checks.point(raw), count))
        total += count
        if total == terms:
            break
    require(payload["terms"] == terms, "dense prefix has the wrong length")
    finals = [row for row in payload["table"] if row["length"] == terms]
    require(len(finals) == len(dense["ks"]) * int(dense["target_count"]),
            "dense table misses final rows")
    for row in finals:
        target = checks.point(dense["enumeration"][row["target_id"]])
        value = checks.iterate_value(row["k"], runs, row["at_index"])
        require(checks.metric(weights, value, target) == Fraction(row["min_metric"]),
                f"dense k={row['k']} target {row['target_id']}: minimum not at its index")


def _two_level_config_exit(config):
    cfg = cli.load_config(config)
    sp = cli.space_from_config(cfg)
    ground = cli.ground_from_config(cfg, sp.dimension)
    index_set = cli.index_set_from_config(cfg)
    targets = [checks.point(t) for t in cfg["targets"]]
    epsilon = Fraction(cfg["epsilon"])

    def run():
        cache, term_cap = cli.budgets_from_config(cfg)
        return construct.simultaneous_construct(
            [], targets, epsilon, index_set, sp, ground, cache, term_cap)

    return Op("exit.two_level_config", run, expect_exit=TWO_LEVEL_CONFIG_EXIT)


def _criterion6_exit():
    line = space.Space(1)
    ground = space.GroundSet.lattice(1)
    fives = space.IndexSet("progression", 5, 5)

    def run():
        return construct.run_target_plan(
            CRITERION6_PLAN, fives, line, ground, kernel.KernelCache(), TERM_CAP)

    return Op("exit.criterion6_plan", run, expect_exit=CRITERION6_EXIT)


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------

def _walk_round(rng, index, root, out_dir):
    # even rounds walk the unit impulse, odd rounds seeded random runs
    impulse = index % 2 == 0
    ops = [_iterate_op(rng, k, n, impulse) for k, n in ITERATE_LADDER]
    # two k=2 draws make the round eleven ops long, with iterate.k2.n4000 at
    # its median
    ops += [_lemma33_op(rng, 3), _lemma33_op(rng, 2), _lemma33_op(rng, 2)]
    ops.append(_cli_op("dense", root / "configs" / "dense.json", out_dir))
    return ops


def _iterate_op(rng, k, n, impulse):
    if impulse:
        runs = [((Fraction(1),), 1), ((Fraction(0),), n - 1)]
    else:
        runs = []
        total = 0
        while total < n:
            count = min(rng.randint(1, 50), n - total)
            runs.append(((Fraction(rng.randint(-3, 3)),), count))
            total += count
    seq = sequences.RunSeq(runs)

    def run():
        return sequences.iterate_at(k, seq, n)

    def check(value):
        require(value == checks.iterate_value(k, runs, n),
                f"[T^{k}]_{n} differs from the closed form")
        return ",".join(str(c) for c in value)

    kind = "impulse" if impulse else "runs"
    return Op(f"iterate.k{k}.n{n}", run, check, params={"k": k, "n": n, "kind": kind})


def _lemma33_op(rng, k):
    a, b = rng.choice(LEMMA33_ATOMS)
    c = rng.choice(LEMMA33_WEIGHTS[k])
    witness = construct.ConvexWitness(((c, (Fraction(a),)), (1 - c, (Fraction(b),))))
    line = space.Space(1)
    ground = space.GroundSet.lattice(1)

    def run():
        return construct.single_target_extend(
            [], witness, LEMMA33_EPSILON, k, line, ground, TERM_CAP)

    def check(result):
        trace = result.trace
        require(result.n0 == trace["final_index"] == len(result.seq), "n0 is inconsistent")
        checks.check_distances(trace, line.weights, LEMMA33_EPSILON)
        return canonical(trace)

    return Op(f"lemma33.k{k}", run, check, params={
        "atoms": [a, b], "weight": str(c), "epsilon": str(LEMMA33_EPSILON)})


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def audit_key(suite, **params) -> str:
    return suite + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def audit_calls(seed):
    """(pin key, call) for every audit the workload can run with this audit seed."""
    k_max, n_max = AUDIT_KERNEL
    return [
        (audit_key("kernel", k_max=k_max, n_max=n_max),
         lambda: audit.audit_kernel(k_max, n_max, kernel.KernelCache())),
        (audit_key("oracle", instances=ORACLE_INSTANCES, seed=seed),
         lambda: audit.audit_oracle(ORACLE_INSTANCES, seed, cache=kernel.KernelCache())),
        (audit_key("prop412", samples=UNIT_SAMPLES, n_max=UNIT_N_MAX, seed=seed),
         lambda: audit.audit_unit_interval(UNIT_SAMPLES, UNIT_N_MAX, seed, kernel.KernelCache())),
        (audit_key("abel", samples=ABEL_SAMPLES, seed=seed),
         lambda: audit.audit_abel(ABEL_SAMPLES, seed)),
    ]


def _audit_round(rng, pins):
    calls = audit_calls(rng.randrange(AUDIT_SEEDS))
    ops = [_audit_op(key, call, pins) for key, call in calls[:1] + calls]
    ops += [_triangle_op(k, n) for k, n in TRIANGLES]
    return ops


def _audit_op(key, call, pins):
    def check(report):
        require(report.failed == 0, f"{key}: {report.failed} failed checks")
        require(report.checked == pins[key],
                f"{key}: checked {report.checked}, pinned {pins[key]}")
        return canonical(report.to_json(include_timing=False))

    return Op("audit." + key.split(":")[0], call, check, params={"pin": key})


def _triangle_op(k, n):
    """Rows 1..n of T^k from a cold cache, as `cesaro kernel --k K --n N` builds them."""
    def run():
        cache = kernel.KernelCache(k_max=k, n_max=n)
        return [cache.row(k, m) for m in range(1, n + 1)]

    def check(rows):
        for m in range(10, n + 1, 10):
            require(list(rows[m - 1]) == checks.kernel_row(k, m),
                    f"row {m} of T^{k} differs from the closed form")
        return "\n".join(",".join(str(e) for e in row) for row in rows)

    return Op(f"triangle.k{k}.n{n}", run, check, params={"k": k, "n": n})


def expect_exit(op, exc) -> None:
    """Raise CheckFailed unless exc is the op's documented loud exit."""
    key, value = op.expect_exit
    if not isinstance(exc, errors.BudgetExceededError):
        raise CheckFailed(f"{op.label}: expected BudgetExceededError({key}={value}), got {exc!r}")
    got = exc.details.get(key)
    if got != value:
        raise CheckFailed(f"{op.label}: requirement {key}={got}, expected {value}")
