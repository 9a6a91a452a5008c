"""Constructive approximation along iterated averages.

The pieces, bottom to top:

* ``dense_example``          -- the explicit block sequence whose averages
                                sweep an enumeration of targets.
* ``single_target_extend``   -- extend a prefix so one iterate level hits one
                                hull target within epsilon.
* ``build_covering_chain``   -- nested covering sets M^0 <= ... <= M^k plus
                                the coefficient intervals [c_i, d_i].
* ``choose_partition``       -- split an admissible length m into a stabilizer
                                prefix v and block lengths lambda_1..lambda_k.
* ``assign_block_terms``     -- round-robin term assignment making each
                                iterate level hit its own target at its block
                                end.
* ``simultaneous_construct`` -- full pipeline: one admissible index n at which
                                all k iterate levels are within epsilon of
                                their targets, every step certified exactly.
* ``run_target_plan``        -- repeats the pipeline over a finite target plan.
* ``unit_interval_check``    -- the boundedness obstruction for [0,1]-valued
                                sequences.

Every inequality the pipeline relies on is re-checked in exact arithmetic at
run time; a failed check raises instead of producing an uncertified result.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import cycle
from math import factorial

from .errors import (
    BudgetExceededError,
    CertificationError,
    CoverageError,
    SchedulingError,
    certify,
)
from .exact import ZERO, ceil_frac, decstr, floor_frac, frac, fracstr, render
from .kernel import KernelCache, apply_iterate, default_cache
# iterate_at is not called here; perfbench's tracer wraps it as construct.iterate_at
from .sequences import IterateWalker, RunSeq, iterate_at, pieces  # noqa: F401
from .space import (
    FinitePointSet,
    GroundSet,
    IndexSet,
    Point,
    Space,
    cube_corners,
    delta,
    hull_contains,
    padd,
    pcombine,
    point,
    pscale,
    psub,
    pzero,
)

DEFAULT_TERM_CAP = 10**6


def _distance_record(level: int, value: Point, target: Point, space: Space) -> dict:
    """The trace record of [T^level]_n = value against its target x."""
    dist = space.metric(value, target)
    return render({
        "level": level,
        "target": target,
        "value": value,
        "metric": dist,
        "metric_dec": decstr(dist),
        "seminorms": [
            space.seminorm(rho, psub(value, target))
            for rho in range(1, space.dimension + 1)
        ],
    })


def _certified_result(walker: IterateWalker, seq: RunSeq, ks, targets, epsilon,
                      space: Space) -> dict:
    """The final trace fields: d([T^k]_n, x_k) < epsilon for each level k, at the cursor n.

    Each distance is certified exactly before the record is handed out; the
    fields are the ones ``replay_trace`` re-derives from the terms.
    """
    distances = []
    for level, target in zip(ks, targets, strict=True):
        record = _distance_record(level, walker.value(level), target, space)
        if not frac(record["metric"]) < epsilon:
            raise CertificationError(f"final metric distance for level {level} not below epsilon")
        distances.append(record)
    return render({
        "terms_runs": seq.runs,
        "final_index": walker.j,
        "targets": targets,
        "ks": list(ks),
        "distances": distances,
    })


# ---------------------------------------------------------------------------
# dense example (explicit block sequence)
# ---------------------------------------------------------------------------

def dense_example(enumeration, growth):
    """Yield q_1 once, then q_j repeated growth(j) times for j = 2, 3, ...

    ``enumeration`` is an injective list of points with max|coord| of q_j at
    most j; ``growth`` maps block index to a positive nondecreasing length.
    """
    points = [point(*p) for p in enumeration]
    if len(set(points)) != len(points):
        raise ValueError("enumeration must be injective")
    for j, p in enumerate(points, start=1):
        if max(abs(c) for c in p) > j:
            raise ValueError(f"enumeration entry {j} exceeds the |q_j| <= j growth bound")
    prev_len = 1
    for j, p in enumerate(points, start=1):
        if j == 1:
            yield p
            continue
        length = growth(j)
        if length < 1 or length < prev_len:
            raise ValueError("growth must be nondecreasing and >= 1")
        prev_len = length
        for _ in range(length):
            yield p


def take_prefix(gen, count: int) -> RunSeq:
    """Materialize the first `count` generator terms as a run sequence."""
    if count < 1:
        raise ValueError(f"a prefix needs at least one term, got {count}")
    seq = RunSeq()
    for p in gen:
        seq.append(p)
        if len(seq) >= count:
            break
    return seq


# ---------------------------------------------------------------------------
# convex witnesses (targets inside conv A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexWitness:
    """A target expressed as a positive convex combination of ground points."""

    atoms: tuple  # ((coefficient, point), ...)

    def __post_init__(self):
        atoms = tuple((frac(c), point(*p)) for c, p in self.atoms)
        if not atoms:
            raise ValueError("a convex witness needs at least one atom")
        if any(not (0 < c <= 1) for c, _ in atoms):
            raise ValueError("coefficients must lie in (0, 1]")
        if sum(c for c, _ in atoms) != 1:
            raise ValueError("coefficients must sum exactly to 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def value(self) -> Point:
        return pcombine(self.atoms, len(self.atoms[0][1]))

    def check_ground(self, ground: GroundSet) -> None:
        for _, p in self.atoms:
            if not ground.contains(p):
                raise ValueError(f"witness atom {p} is not in the ground set")


# ---------------------------------------------------------------------------
# certified first hits
# ---------------------------------------------------------------------------

def _first_hit(walker: IterateWalker, runs, levels, target: Point, tol, space: Space):
    """The first index past the cursor, along ``runs``, with every level in ``levels`` within tol.

    Returns (j, walker at j), or (None, walker at the end of the runs) when no
    index hits.  The runs are walked as the ``pieces`` of the walker's top
    level, and ``RunProbes.search`` descends only into parts where no level's
    box stays at distance >= tol.
    """
    def misses(lo, hi):  # every index between the states lo and hi fails some level
        return any(space.box_metric(lo.value(c), hi.value(c), target) >= tol for c in levels)

    for run, l, r in pieces(walker, runs, walker.k):
        missed, j = run.search(l, r, misses, (True, 0))  # no miss (True, j) beats (True, 0)
        if not missed:
            return j, run.at(j)
        walker = run.at(r)
    return None, walker


def _doubling(p: Point, j: int, last: int):
    """Runs of p taking the cursor from j to last through the windows (j, 2j]."""
    while j < last:
        count = min(max(j, 1), last - j)
        yield p, count
        j += count


def _repeat(pattern, j: int, last: int):
    """Runs of the cycled ``pattern`` taking the cursor from j to last.

    A one-run pattern is one point, which goes by doubling windows instead.
    """
    if len(pattern) == 1:
        yield from _doubling(pattern[0][0], j, last)
        return
    for p, count in cycle(pattern):
        if j == last:
            return
        count = min(count, last - j)
        yield p, count
        j += count


# ---------------------------------------------------------------------------
# single-target extension by a repeating tuple
# ---------------------------------------------------------------------------

@dataclass
class ExtendResult:
    seq: RunSeq            # full sequence theta_1..theta_n0
    new_terms: list        # the appended terms
    n0: int
    trace: dict


def single_target_extend(prefix, target: ConvexWitness, epsilon, k: int,
                         space: Space, ground: GroundSet | None = None,
                         term_cap: int = DEFAULT_TERM_CAP) -> ExtendResult:
    """Append a repeating block pattern until [T^k]_{n0} is within epsilon of the target.

    Picks the tuple length m so each atom's seminorms shrink below
    eps/(3v), rounds the coefficients to multiplicities m_i (floor, then
    top-up by largest fractional part), and repeats the m-tuple until the
    first index whose iterate is metric-within eps/3 of the rounded target
    x'; the triangle inequality then certifies the distance to x itself.
    """
    epsilon = frac(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if term_cap < 1:
        raise ValueError("term_cap must be at least 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if ground is not None:
        target.check_ground(ground)
    seq = prefix.copy() if isinstance(prefix, RunSeq) else RunSeq([(p, 1) for p in prefix])
    v = target.size
    rhos = space.important_rhos(epsilon / 3)

    # tuple length: every atom seminorm over m drops below eps/(3v)
    m = 1
    for _, p in target.atoms:
        for rho in rhos:
            bound = 3 * v * space.seminorm(rho, p) / epsilon
            m = max(m, floor_frac(bound) + 1)

    # multiplicities: floor then top-up by largest fractional part (ties by index)
    floors = [floor_frac(c * m) for c, _ in target.atoms]
    deficit = m - sum(floors)
    fractional = sorted(
        range(v), key=lambda i: (-(target.atoms[i][0] * m - floors[i]), i)
    )
    counts = list(floors)
    for i in fractional[:deficit]:
        counts[i] += 1
    certify(sum(counts) == m, "multiplicities do not sum to the tuple length", m=m)
    for (coeff, _), c in zip(target.atoms, counts):
        certify(abs(coeff - Fraction(c, m)) <= Fraction(1, m),
                "multiplicity strayed past 1/m from its weight", m=m, count=c)

    x = target.value()
    x_prime = pcombine(
        ((Fraction(c, m), p) for (_, p), c in zip(target.atoms, counts)), space.dimension
    )
    for rho in rhos:
        certify(space.seminorm(rho, psub(x, x_prime)) < epsilon / 3,
                "rounded target left the eps/3 seminorm ball", rho=rho)
    certify(space.metric(x, x_prime) < 2 * epsilon / 3,
            "rounded target left the 2eps/3 metric ball")

    pattern = [(p, c) for (_, p), c in zip(target.atoms, counts) if c]
    walker = IterateWalker(k, space.dimension)
    walker.push_seq(seq)
    rho0 = walker.j
    # n0 is always past the given prefix: at least one term is appended
    n0, walker = _first_hit(walker, _repeat(pattern, rho0, rho0 + term_cap), [k], x_prime,
                            epsilon / 3, space)
    if n0 is None:
        raise BudgetExceededError(
            "term_cap", "iterate did not enter the eps/3 ball before the cap",
            appended=walker.j - rho0, term_cap=term_cap,
            current_metric=fracstr(space.metric(walker.value(k), x_prime)),
        )
    new_terms = []
    for p, count in _repeat(pattern, rho0, n0):
        seq.append(p, count)
        new_terms += [p] * count

    dist_xprime = space.metric(walker.value(k), x_prime)
    result = _certified_result(walker, seq, [k], [x], epsilon, space)
    trace = render({
        "schema": 1,
        "kind": "lemma33",
        "epsilon": epsilon,
        "k": k,
        "m": m,
        "counts": counts,
        "atoms": target.atoms,
        "x": x,
        "x_prime": x_prime,
        "n0": n0,
        "metric_to_x_prime": dist_xprime,
        "metric_to_x": result["distances"][0]["metric"],
        **result,
    })
    return ExtendResult(seq=seq, new_terms=new_terms, n0=n0, trace=trace)


# ---------------------------------------------------------------------------
# covering chains and partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringChain:
    """Nested covering sets with their coefficient intervals."""

    sets: tuple            # M^0 .. M^k (FinitePointSet)
    intervals: tuple       # ((c_1, d_1), ..., (c_k, d_k))
    epsilon: Fraction
    k: int

    def __post_init__(self):
        if len(self.intervals) != self.k or len(self.sets) != self.k + 1:
            raise ValueError(f"a chain with k={self.k} needs k+1 sets and k intervals, "
                             f"got {len(self.sets)} and {len(self.intervals)}")
        for lo, hi in zip(self.sets, self.sets[1:]):
            if not lo.issubset(hi):
                raise ValueError("chain sets must be nested")
        gaps = [d - c for c, d in self.intervals]
        for g1, g2 in zip(gaps, gaps[1:]):
            if g1 < g2:
                raise ValueError("interval gaps must be nonincreasing")
        if sum(d for _, d in self.intervals) >= self.epsilon:
            raise ValueError("interval upper bounds must sum below epsilon")
        for c, d in self.intervals:
            if not (0 < c < d < 1):
                raise ValueError("intervals must sit strictly inside (0, 1)")


def build_covering_chain(M0: FinitePointSet, epsilon, k: int, space: Space,
                         ground: GroundSet) -> CoveringChain:
    """Grow M^i = cube_corners(radius_i) | M^(i-1) and certify the covering.

    radius_i = [k/eps * (10 |M^(i-1)|_max + 2)]^(k+1-i) * (k+1-i)! * 2 |M^(i-1)|_inf,
    which makes conv(M^i) (+) B(0, delta(eps/6)/4) contain the worst-case
    rescaling of conv(2 M^(i-1) u -2 M^(i-1)); membership is certified per
    extreme point with exact hull witnesses.
    """
    epsilon = frac(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise ValueError("epsilon must lie in (0, 1/2)")
    if k < 1:
        raise ValueError("k must be >= 1")
    for p in M0.points:
        if not ground.contains(p):
            raise ValueError(f"chain seed point {p} is outside the ground set")
    for rho in space.important_rhos(epsilon / 3):
        if M0.norm(rho, space) < 1:
            raise ValueError("seed set norms must be >= 1 for the important seminorms")
    slack = delta(epsilon / 6) / 4
    sets = [M0]
    intervals = []
    for i in range(1, k + 1):
        prev = sets[-1]
        norm_max = prev.norm_max(epsilon / 3, space)
        c_i = (epsilon / k) / (10 * norm_max + 2)
        d_i = (epsilon / k) / (5 * norm_max + 1)
        power = k + 1 - i
        scale_factor = ((Fraction(k) / epsilon) * (10 * norm_max + 2)) ** power * factorial(power)
        radius = scale_factor * 2 * prev.norm_inf()
        if ground.kind == "lattice":
            current = cube_corners(ground, radius, space).union(prev)
        else:
            # an explicit ground set must already hold covering points
            current = FinitePointSet(ground.points).union(prev)
        for p in prev.points:
            for sign in (2, -2):
                extreme = pscale(scale_factor * sign, p)
                if hull_contains(current, extreme, slack, space) is None:
                    if ground.kind == "explicit":
                        raise CoverageError(
                            f"explicit ground set cannot cover stage {i}",
                            required_radius=radius,
                        )
                    raise CertificationError(
                        f"chain covering failed at stage {i} for extreme point {extreme}"
                    )
        sets.append(current)
        intervals.append((c_i, d_i))
    return CoveringChain(sets=tuple(sets), intervals=tuple(intervals), epsilon=epsilon, k=k)


@dataclass(frozen=True)
class Partition:
    """m = v + lambda_1 + ... + lambda_k with v > m/2."""

    v: int
    lambdas: tuple

    @property
    def m(self) -> int:
        return self.v + sum(self.lambdas)

    def block_bounds(self, i: int) -> tuple[int, int]:
        """(start, end) of block i: terms start+1 .. end."""
        start = self.v + sum(self.lambdas[: i - 1])
        return start, start + self.lambdas[i - 1]


def partition_min_m(chain: CoveringChain, v1: int, space: Space) -> tuple[int, int]:
    """(m0, m_needed): the documented minimum and the exactly sufficient one.

    m0 is the classical threshold: m0 > 2/(d_k - c_k), m0 > 2 v1 and
    m0 > (4/3) * 6 #M^k * |M^k|_rho.  That last bound is too weak to force
    the stabilizer-size condition 2|M^k|_rho / v < eps/(6 #M^k) once
    eps < 3/2, so the second value additionally requires
    m >= 24 #M^k |M^k|_rho / eps; constructions use max of both and report
    both on failure rather than shrinking any constant.
    """
    c_k, d_k = chain.intervals[-1]
    top = chain.sets[-1]
    count = len(top)
    norm = top.norm_max(chain.epsilon / 3, space)
    m0 = max(
        floor_frac(Fraction(2) / (d_k - c_k)) + 1,
        2 * v1 + 1,
        floor_frac(Fraction(4, 3) * 6 * count * norm) + 1,
    )
    m_needed = max(m0, ceil_frac(24 * count * norm / chain.epsilon))
    return m0, m_needed


def choose_partition(m: int, chain: CoveringChain, v1: int, space: Space) -> Partition:
    """Backward greedy split of m with each gamma_i inside its interval."""
    m0, _ = partition_min_m(chain, v1, space)
    if m < m0:
        raise ValueError(f"m={m} is below the partition threshold m0={m0}")
    lambdas = [0] * chain.k
    remainder = m
    for i in range(chain.k, 0, -1):
        c_i, d_i = chain.intervals[i - 1]
        lam = ceil_frac(c_i * remainder)
        if lam < 1 or Fraction(lam, remainder) > d_i:
            raise CertificationError(
                f"no block length fits [c_{i}, d_{i}] at remainder {remainder}"
            )
        lambdas[i - 1] = lam
        remainder -= lam
    v = remainder
    part = Partition(v=v, lambdas=tuple(lambdas))
    certify(part.m == m, "partition does not add up to m", m=m)
    if not v > Fraction(m, 2):
        raise CertificationError("partition lost the v > m/2 guarantee")
    for i in range(1, chain.k + 1):
        _, end = part.block_bounds(i)
        gamma = Fraction(part.lambdas[i - 1], end)
        c_i, d_i = chain.intervals[i - 1]
        if not (c_i <= gamma <= d_i):
            raise CertificationError(f"gamma_{i} = {gamma} escaped [{c_i}, {d_i}]")
    return part


# ---------------------------------------------------------------------------
# round-robin assignment (the multi-level targeting step)
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    stage: int
    level: int
    start: int
    end: int
    phi: Fraction
    s_value: Point
    x_target: Point
    x_prime: Point
    atom_points: tuple
    g: tuple
    rounds: int
    assignment_runs: list          # [(atom index, count), ...]
    round_gammas: list             # coefficient snapshot at each round end
    final_residuals: tuple
    endpoint_value: Point
    block_seminorm_max: dict       # rho -> max over in-block indices

    def to_json(self) -> dict:
        return render({f.name: getattr(self, f.name) for f in fields(self)})


def _block_seminorm_max(walker: IterateWalker, runs, level: int, rhos, space: Space):
    """Walk a block's runs; return each seminorm's in-block maximum and the end walker.

    The maximum of |[T^level]_j|_rho runs over every index j of the block.
    Each coordinate is monotone on a piece, so it peaks at an end: r, or on
    the block's first piece, whose l is the block's start, l + 1.
    """
    block_max = {rho: ZERO for rho in rhos}
    for run, l, r in pieces(walker, runs, level):
        for j in sorted({l + 1, r} if l == walker.j else {r}):
            value = run.at(j).value(level)
            for rho in rhos:
                block_max[rho] = max(block_max[rho], space.seminorm(rho, value))
    return block_max, run.at(r)


def assign_block_terms(seq: RunSeq, chain: CoveringChain, part: Partition,
                       targets, epsilon, space: Space,
                       cache: KernelCache | None = None):
    """Assign the block terms so level k+1-i lands on target x_(k+1-i) at block i's end.

    Returns (stage records, extended sequence).  The sequence must already
    hold exactly part.v terms.  Every hypothesis and both postconditions --
    (a) endpoint seminorm distance below eps/3, and (b) in-block seminorm
    bound 5 |M^(i-1)|_rho + 1 -- are certified exactly; any miss raises.
    """
    epsilon = frac(epsilon)
    cache = cache or default_cache()
    k = chain.k
    d = space.dimension
    if len(seq) != part.v:
        raise ValueError(f"sequence holds {len(seq)} terms, partition wants v={part.v}")
    if len(targets) != k:
        raise ValueError("need one target per level")
    if not part.v > Fraction(part.m, 2):
        raise ValueError("partition must keep v > m/2 (kernel weight bound needs it)")
    dl = delta(epsilon / 6)
    rhos = list(space.important_rhos(epsilon / 3))
    M0 = chain.sets[0]

    for x in (pzero(d), *targets):
        if hull_contains(M0, x, dl / 4, space) is None:
            raise ValueError(f"{x} is not within delta/4 of conv(M^0); hypotheses violated")
    walker = IterateWalker(k, d)
    walker.push_seq(seq)
    for level in range(1, k + 1):
        if hull_contains(M0, walker.value(level), dl / (4 * k), space) is None:
            raise ValueError(
                f"[T^{level}]_v is not within delta/(4k) of conv(M^0); prefix unsuitable"
            )

    stages = []
    two_over_v = Fraction(2, part.v)
    for i in range(1, k + 1):
        level = k + 1 - i
        start, end = part.block_bounds(i)
        lam = part.lambdas[i - 1]
        x_target = targets[level - 1]
        M_i = chain.sets[i]
        M_prev = chain.sets[i - 1]

        weights = cache.row_tail(level, end, start + 1)
        phi_i = sum(weights, ZERO)
        gamma_i = Fraction(lam, end)
        certify(all(w < two_over_v for w in weights),
                "segment weight reached 2/v", stage=i)
        certify(ZERO < phi_i < 1, "block mass outside (0, 1)", stage=i)
        certify(phi_i <= 2 * gamma_i,
                "block mass above its upper bound 2 gamma", stage=i)
        certify(phi_i >= gamma_i**level / factorial(level),
                "block mass below its lower bound gamma^k/k!", stage=i)

        padded = walker.copy()  # the walker sits at index start
        padded.push_run(pzero(d), lam)
        s_value = padded.value(level)
        need = psub(x_target, s_value)
        witness = hull_contains(M_i.scaled(phi_i), need, dl, space)
        if witness is None:
            raise CertificationError(
                f"stage {i}: x - S escaped conv(phi * M^{i}) + B(0, delta(eps/6))"
            )
        x_prime = psub(x_target, witness.residual)
        certify(space.metric(x_prime, x_target) < dl,
                "x' left the delta ball around the target", stage=i)
        for rho in rhos:
            certify(space.seminorm(rho, psub(x_prime, x_target)) < epsilon / 6,
                    "x' left the eps/6 seminorm ball", stage=i, rho=rho)
            certify(space.seminorm(rho, psub(x_prime, s_value)) < (
                2 * M_prev.norm(rho, space) + epsilon / 3
            ), "x' - S broke the 2|M^(i-1)| + eps/3 bound", stage=i, rho=rho)

        atom_idx = [j for j, g in enumerate(witness.coefficients) if g > 0]
        atoms = [M_i.points[j] for j in atom_idx]
        g = [witness.coefficients[j] for j in atom_idx]
        mu = len(atoms)

        # rounds: smallest N with (phi/N + 2 mu / v) |M^i|_rho < 1/3 throughout
        rounds = 1
        for rho in rhos:
            norm = M_i.norm(rho, space)
            slackr = Fraction(1, 3) - 2 * mu * norm / Fraction(part.v)
            if slackr <= 0:
                raise SchedulingError(
                    "stabilizer too short for the round bound", stage=i,
                    state={"rho": rho, "norm": fracstr(norm)},
                )
            rounds = max(rounds, floor_frac(phi_i * norm / slackr) + 1)

        gammas = [ZERO] * mu
        assignment = []
        round_gammas = []
        t = 0

        def assign(j):
            nonlocal t
            gammas[j] += weights[t]
            if assignment and assignment[-1][0] == j:
                assignment[-1][1] += 1
            else:
                assignment.append([j, 1])
            t += 1

        for rnd in range(1, rounds):
            for j in range(mu):
                quota = Fraction(rnd) * g[j] * phi_i / rounds
                while gammas[j] <= quota:
                    if t == lam:
                        raise SchedulingError(
                            "terms exhausted before the final round", stage=i,
                            state={"round": rnd, "atom": j, "assigned": t},
                        )
                    assign(j)
                certify(gammas[j] < quota + two_over_v,
                        "round overshot its quota by 2/v", stage=i, round=rnd, atom=j)
            round_gammas.append(tuple(gammas))
        for j in range(mu):  # final round fills from below, never past the target
            goal = g[j] * phi_i
            while t < lam and gammas[j] + weights[t] <= goal:
                assign(j)
            certify(goal - gammas[j] < two_over_v,
                    "final round left a gap of 2/v", stage=i, atom=j)
        while t < lam:  # distribute leftovers by largest deficit
            deficits = [g[j] * phi_i - gammas[j] for j in range(mu)]
            j = max(range(mu), key=lambda jj: (deficits[jj], -jj))
            if deficits[j] <= 0:
                raise SchedulingError(
                    "no positive deficit left but terms remain", stage=i,
                    state={"assigned": t, "lam": lam},
                )
            assign(j)
        round_gammas.append(tuple(gammas))

        certify(sum(gammas, ZERO) == phi_i,
                "assigned weights do not sum to the block mass", stage=i)
        residuals = tuple(gammas[j] - g[j] * phi_i for j in range(mu))
        if not all(abs(r) < two_over_v for r in residuals):
            raise CertificationError(f"stage {i}: final coefficients drifted past 2/v")

        # append the block; the walker ends at the block's end
        runs = [(atoms[aj], count) for aj, count in assignment]
        for p, count in runs:
            seq.append(p, count)
        block_max, walker = _block_seminorm_max(walker, runs, level, rhos, space)

        # postcondition (a): endpoint lands within eps/3 per important seminorm
        endpoint = walker.value(level)
        recon = padd(s_value, pcombine(zip(gammas, atoms), d))
        if endpoint != recon:
            raise CertificationError(f"stage {i}: weight bookkeeping disagrees with the iterate")
        for rho in rhos:
            if not space.seminorm(rho, psub(endpoint, x_target)) < epsilon / 3:
                raise CertificationError(f"stage {i}: endpoint missed target at seminorm {rho}")

        # postcondition (b): every in-block iterate stays below 5|M^(i-1)|_rho + 1
        for rho in rhos:
            if not block_max[rho] <= 5 * M_prev.norm(rho, space) + 1:
                raise CertificationError(f"stage {i}: in-block bound failed at seminorm {rho}")

        stages.append(StageRecord(
            stage=i, level=level, start=start, end=end, phi=phi_i,
            s_value=s_value, x_target=x_target, x_prime=x_prime,
            atom_points=tuple(atoms), g=tuple(g), rounds=rounds,
            assignment_runs=[tuple(r) for r in assignment],
            round_gammas=round_gammas, final_residuals=residuals,
            endpoint_value=endpoint, block_seminorm_max=block_max,
        ))
    return stages, seq


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class SimultaneousResult:
    n: int
    seq: RunSeq
    new_terms_start: int    # terms 1..new_terms_start were the given prefix
    trace: dict


def _stabilize(seq: RunSeq, a: Point, k: int, tol, space: Space, term_cap: int) -> int:
    """Append copies of `a` until every level's iterate is metric-within tol of a.

    Returns v1 (the certified length), the first index at which every level
    passes.  No shorter length can pass at level 1, and a level-1 walker
    absorbs a run of any length at the same cost, so ``_first_hit`` first
    finds the level-1 length over doubling windows (j, 2j] of `a` with no
    cap, and a hopeless prefix fails loudly before any level-k walking.
    From that length the same search runs on every level up to the cap.
    """
    rho0 = len(seq)

    def first_pass(walker, levels, last):  # the cursor itself, then _first_hit past it
        if walker.j and all(space.metric(walker.value(c), a) < tol for c in levels):
            return walker.j, walker
        return _first_hit(walker, _doubling(a, walker.j, last), levels, a, tol, space)

    walker = IterateWalker(1, space.dimension)
    walker.push_seq(seq)
    level1_v, _ = first_pass(walker, [1], 2**63)
    if level1_v is None:
        raise BudgetExceededError(
            "term_cap", "stabilization length overflows any plausible budget", prefix=rho0,
        )
    if level1_v > term_cap:
        raise BudgetExceededError(
            "term_cap", "stabilization needs more terms than the cap",
            phase="stabilization", required_v1_at_level1=level1_v, term_cap=term_cap,
        )
    walker = IterateWalker(k, space.dimension)
    walker.push_seq(seq)
    walker.push_run(a, level1_v - rho0)
    levels = range(1, k + 1)
    v1, walker = first_pass(walker, levels, term_cap)
    if v1 is None:
        worst = max(space.metric(walker.value(c), a) for c in levels)
        raise BudgetExceededError(
            "term_cap", "stabilization did not converge before the cap",
            phase="stabilization", appended=walker.j - rho0, term_cap=term_cap,
            current_metric=fracstr(worst),
        )
    seq.append(a, v1 - rho0)
    return v1


def _build_m0(targets, a: Point, epsilon, space: Space, ground: GroundSet) -> FinitePointSet:
    """Covering seed: cube corners large enough to hull 0 and every target,
    with all important seminorms forced to at least 1, plus the stabilizer."""
    radius = Fraction(1)
    for rho in space.important_rhos(epsilon / 3):
        radius = max(radius, 1 / space.weights[rho - 1])
    for x in targets:
        for c in x:
            radius = max(radius, abs(c))
    corners = cube_corners(ground, radius, space)
    M0 = corners.union(FinitePointSet((a,)))
    dl4 = delta(epsilon / 6) / 4
    for x in (pzero(space.dimension), *targets):
        if hull_contains(M0, x, dl4, space) is None:
            raise CertificationError("seed set failed to cover a target")
    for rho in space.important_rhos(epsilon / 3):
        if M0.norm(rho, space) < 1:
            raise CertificationError("seed set norm below 1")
    return M0


def simultaneous_construct(prefix, targets, epsilon, index_set: IndexSet,
                           space: Space, ground: GroundSet,
                           cache: KernelCache | None = None,
                           term_cap: int = DEFAULT_TERM_CAP) -> SimultaneousResult:
    """Extend the prefix to an admissible index n with every [T^i]_n within epsilon.

    Follows the stabilize / cover / partition / assign pipeline and certifies
    d([T^i]_n, x_i) < epsilon exactly for i = 1..k before returning.  If the
    covering constants push the needed length past the term cap, the run
    fails loudly carrying the computed thresholds; constants are never
    relaxed to force an answer.
    """
    epsilon = frac(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise ValueError("epsilon must lie in (0, 1/2)")
    if term_cap < 1:
        raise ValueError("term_cap must be at least 1")
    targets = [space.check_point(point(*x)) for x in targets]
    k = len(targets)
    if k < 1:
        raise ValueError("need at least one target")
    cache = cache or default_cache()
    seq = prefix.copy() if isinstance(prefix, RunSeq) else RunSeq([(p, 1) for p in prefix])
    rho0 = len(seq)
    for p, _ in seq.runs:
        if not ground.contains(p):
            raise ValueError(f"prefix term {p} is outside the ground set")

    a = ground.nearest_to_zero(space)
    tol = delta(epsilon / 6) / (4 * k)
    v1 = _stabilize(seq, a, k, tol, space, term_cap)

    M0 = _build_m0(targets, a, epsilon, space, ground)
    chain = build_covering_chain(M0, epsilon, k, space, ground)
    m0, m_needed = partition_min_m(chain, v1, space)
    m = index_set.next_after(m_needed - 1)  # m_needed already exceeds 2*v1
    if m > term_cap:
        raise BudgetExceededError(
            "term_cap",
            "certified index would exceed the term cap; constants were not relaxed",
            phase="partition", m0=m0, m_required=m_needed, m_selected=m,
            term_cap=term_cap,
        )
    part = choose_partition(m, chain, v1, space)
    top = chain.sets[-1]
    for rho in space.important_rhos(epsilon / 3):
        if not 2 * top.norm(rho, space) / Fraction(part.v) < epsilon / (6 * len(top)):
            raise CertificationError("stabilizer share too small for the top covering set")
    seq.append(a, part.v - len(seq))

    stages, seq = assign_block_terms(seq, chain, part, targets, epsilon, space, cache)
    n = len(seq)
    if n != m or not index_set.contains(n):
        raise CertificationError("final index left the admissible set")
    walker = IterateWalker(k, space.dimension)
    walker.push_seq(seq)
    trace = render({
        "schema": 1,
        "kind": "thm42",
        "epsilon": epsilon,
        "k": k,
        "space": {"dimension": space.dimension,
                  "weights": space.weights},
        "stabilizer": a,
        "prefix_length": rho0,
        "v1": v1,
        "m0": m0,
        "m_required": m_needed,
        "m": m,
        "partition": {"v": part.v, "lambdas": part.lambdas},
        "chain_intervals": chain.intervals,
        "chain_sizes": [len(s) for s in chain.sets],
        "stages": [s.to_json() for s in stages],
        **_certified_result(walker, seq, range(1, k + 1), targets, epsilon, space),
    })
    return SimultaneousResult(n=n, seq=seq, new_terms_start=rho0, trace=trace)


@dataclass
class DriverResult:
    seq: RunSeq
    schedule: list
    traces: list


def run_target_plan(plan, index_set: IndexSet, space: Space, ground: GroundSet,
                    cache: KernelCache | None = None,
                    term_cap: int = DEFAULT_TERM_CAP) -> DriverResult:
    """Run the pipeline over a finite plan of target tuples at precisions 1/lambda.

    Entry lambda approximates its targets within 1/lambda (the working
    epsilon is clamped below 1/2, which only tightens the guarantee);
    indices are strictly increasing and admissible by construction.
    """
    if not plan:
        raise ValueError("need at least one plan entry")
    seq = RunSeq()
    schedule = []
    traces = []
    for lam, targets in enumerate(plan, start=1):
        eps_eff = min(Fraction(1, lam), Fraction(49, 100))
        result = simultaneous_construct(
            seq, targets, eps_eff, index_set, space, ground, cache, term_cap
        )
        seq = result.seq
        if schedule and result.n <= schedule[-1]:
            raise CertificationError("driver schedule failed to increase")
        precision = Fraction(1, lam)
        for dist in result.trace["distances"]:
            if not frac(dist["metric"]) < precision:
                raise CertificationError("driver entry missed its 1/lambda precision")
        schedule.append(result.n)
        traces.append(result.trace)
    return DriverResult(seq=seq, schedule=schedule, traces=traces)


# ---------------------------------------------------------------------------
# boundedness obstruction
# ---------------------------------------------------------------------------

def unit_interval_check(values, n: int, cache: KernelCache | None = None) -> dict:
    """For [0,1]-valued terms: if [T]_n < 1/8 then [T^2]_n < 15/16, plus sub-facts.

    Returns a report dict; 'triggered' is False when the hypothesis fails
    (the check is then vacuous).  Violations raise, since they would falsify
    the implementation.
    """
    vals = [frac(x) for x in values]
    if any(not (0 <= x <= 1) for x in vals):
        raise ValueError("all terms must lie in [0, 1]")
    if not (1 <= n <= len(vals)):
        raise ValueError("index outside the prefix")
    cache = cache or default_cache()
    walker = IterateWalker(2, 1)
    for x in vals[:n]:
        walker.push((x,))
    t1 = walker.value(1)[0]
    report = {"n": n, "t1": t1, "triggered": bool(t1 < Fraction(1, 8))}
    if not report["triggered"]:
        return render(report)
    t2 = walker.value(2)[0]
    small = sum(1 for x in vals[:n] if x < Fraction(1, 4))
    tail = sum(cache.row_tail(2, n, n // 2 + 1), ZERO)
    report.update({
        "t2": t2,
        "small_count": small,
        "tail_mass": tail,
    })
    if not t2 < Fraction(15, 16):
        raise CertificationError(f"[T^2]_{n} = {t2} breaches 15/16")
    if not small >= (n + 1) // 2:
        raise CertificationError("fewer than half the terms are below 1/4")
    if not tail >= Fraction(1, 8):
        raise CertificationError("upper-half kernel mass fell below 1/8")
    return render(report)


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------

def seq_from_trace(trace: dict) -> RunSeq:
    return RunSeq((point(*p), count) for p, count in trace["terms_runs"])


def replay_trace(trace: dict, space: Space, cache: KernelCache | None = None) -> dict:
    """Rebuild the recorded distance records from the recorded terms; they must match whole.

    One walker over the terms gives every level's value at the final index,
    and ``_distance_record`` rebuilds each record from it: ``matches`` is
    True only if every rebuilt record (value, metric and seminorms alike)
    equals the recorded one.  Whenever the final index fits the cache
    budget, the kernel-row path is a second opinion on each value.
    """
    cache = cache or default_cache()
    seq = seq_from_trace(trace)
    n = trace["final_index"]
    walker = IterateWalker(max(trace["ks"]), seq.dimension)
    walker.push_seq(seq, n)
    records = []
    for k, target in zip(trace["ks"], trace["targets"], strict=True):
        value = walker.value(k)
        if n <= cache.n_max and k <= cache.k_max:
            direct = apply_iterate(k, list(seq.iter_points()), n, cache)
            if direct != value:
                raise CertificationError("kernel-row replay disagrees with the oracle path")
        records.append(_distance_record(k, value, point(*target), space))
    return {"final_index": n, "matches": records == trace["distances"],
            "distances": [r["metric"] for r in records]}
