import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro import (
    BudgetExceededError,
    ConvexWitness,
    CoverageError,
    CoveringChain,
    Partition,
    SchedulingError,
    apply_iterate,
    build_covering_chain,
    choose_partition,
    dense_example,
    single_target_extend,
    assign_block_terms,
    phi,
    unit_interval_check,
    replay_trace,
    take_prefix,
    run_target_plan,
    simultaneous_construct,
)
from cesaro.construct import _block_seminorm_max, _first_hit, _stabilize, partition_min_m
from cesaro.exact import ceil_frac, frac, fracstr
from cesaro.sequences import IterateWalker, RunSeq, iterate_at
from cesaro.space import (
    FinitePointSet,
    GroundSet,
    IndexSet,
    Space,
    cube_corners,
    delta,
    point,
)
from reference import block_max_reference, first_hit_scan, lemma33_scan, stabilize_per_index

F = Fraction


# --- dense example -----------------------------------------------------------

def test_dense_example_unit_blocks():
    gen = dense_example([point(0), point(1), point(-1)], lambda n: 1)
    assert list(gen) == [(0,), (1,), (-1,)]


def test_dense_example_linear_growth():
    gen = dense_example([point("1/2"), point(2), point(-3)], lambda n: n)
    assert list(gen) == [(F(1, 2),), (2,), (2,), (-3,), (-3,), (-3,)]


def test_dense_example_validation():
    with pytest.raises(ValueError):
        list(dense_example([point(1), point(1)], lambda n: 1))
    with pytest.raises(ValueError):
        list(dense_example([point(5)], lambda n: 1))  # |q_1| > 1
    gen = dense_example([point(0), point(1), point(-1)], lambda n: 3 - n)
    with pytest.raises(ValueError):
        list(gen)


def test_take_prefix_block_structure():
    seq = take_prefix(dense_example([point(0), point(1), point(2)], lambda n: 4**n), 30)
    assert len(seq) == 30
    assert seq.runs == [[(0,), 1], [(1,), 16], [(2,), 13]]


# --- single-target extension ---------------------------------------------------

def test_extend_single_atom(line, lattice1):
    w = ConvexWitness(((F(1), (F(2),)),))
    for k in (1, 2, 3):
        res = single_target_extend([], w, F(1, 7), k, line, lattice1)
        assert res.n0 == 1
        assert frac(res.trace["metric_to_x"]) == 0


def test_extend_half_target(line, lattice1):
    w = ConvexWitness(((F(1, 2), (F(0),)), (F(1, 2), (F(1),))))
    for k in (1, 2, 3):
        for eps in (F(1, 4), F(1, 10)):
            res = single_target_extend([], w, eps, k, line, lattice1)
            value = iterate_at(k, res.seq, res.n0)
            assert line.metric(value, (F(1, 2),)) < eps
            # the certified index only depends on the first n0 terms
            longer = res.seq.copy()
            longer.append((F(7),), 5)
            assert iterate_at(k, longer, res.n0) == value
            m = res.trace["m"]
            for (coeff, _), count in zip(w.atoms, res.trace["counts"]):
                assert abs(coeff - F(count, m)) <= F(1, m)
            assert sum(res.trace["counts"]) == m


def test_extend_constant_prefix_needs_one_term(line, lattice1):
    # prefix already constant at the atom: one appended term certifies at rho+1
    w = ConvexWitness(((F(1), (F(3),)),))
    prefix = [(F(3),)] * 4
    for k in (1, 2):
        res = single_target_extend(prefix, w, F(1, 8), k, line, lattice1)
        assert res.n0 == 5
        assert len(res.new_terms) == 1
        assert frac(res.trace["metric_to_x"]) == 0


def test_extend_respects_prefix(line, lattice1):
    w = ConvexWitness(((F(1, 3), (F(-1),)), (F(2, 3), (F(2),))))
    prefix = [(F(4),), (F(-3),), (F(0),)]
    res = single_target_extend(prefix, w, F(1, 5), 2, line, lattice1)
    assert res.n0 > 3
    assert list(res.seq.iter_points())[:3] == prefix
    assert line.metric(iterate_at(2, res.seq, res.n0), w.value()) < F(1, 5)


def test_extend_term_cap(line, lattice1):
    w = ConvexWitness(((F(1, 2), (F(0),)), (F(1, 2), (F(1),))))
    with pytest.raises(BudgetExceededError):
        single_target_extend([], w, F(1, 10), 3, line, lattice1, term_cap=50)
    # caps inside runs of the repeated 61-term tuple (31 zeros, 30 ones; no
    # cap is a run end) exit exactly as a per-index loop does, with the metric
    # at the cap index; SHA-256 of that metric
    pinned = {
        100: "2d8dbe413386536a52ee981fc983230befbf7d5b6c623176eed15c95ad9b8969",
        1000: "aac7b8155adcb527f75a9660ab74c595c2ffbb96bb429f75dc94872b007e4829",
        1510: "8c64f12f8f8a47027a2de9e945016b58dbfbb6c06e70b6edf9837e3d206dec65",
        2000: "5352678487b845adb8c6d7663f496cfb44313e170d38ba9b40e271dc5b38f6d1",
    }
    for cap, digest in pinned.items():
        with pytest.raises(BudgetExceededError) as exc:
            single_target_extend([], w, F(1, 10), 3, line, lattice1, term_cap=cap)
        details = dict(exc.value.details)
        metric = details.pop("current_metric")
        assert details == {"appended": cap, "term_cap": cap}
        assert hashlib.sha256(metric.encode()).hexdigest() == digest


def test_extend_k3_midpoint_trace_pinned(line, lattice1, monkeypatch):
    w = ConvexWitness(((F(1, 2), (F(0),)), (F(1, 2), (F(1),))))
    # a search that evaluates every index still finds 2064, so only the count
    # of walker states it makes guards its cost (141 when this was written)
    copies = []
    original = IterateWalker.copy
    monkeypatch.setattr(IterateWalker, "copy", lambda self: copies.append(self.j) or original(self))
    res = single_target_extend([], w, F(1, 10), 3, line, lattice1)
    monkeypatch.undo()
    assert len(copies) <= 160
    assert res.n0 == 2064
    digest = hashlib.sha256(json.dumps(res.trace, sort_keys=True).encode()).hexdigest()
    assert digest == "b065d22647b2d186c0aa7585c654633af1253375c6312bfe43b6d93f17134adc"


def _witness_cases():
    """Seeded lemma 3.3 problems: k = 1..3, dimensions 1 and 2, weighted, prefix or none."""
    rng = random.Random(33)
    for k in (1, 2, 3):
        for d in (1, 2):
            for prefix_len in (0, 3):
                space = Space(d, tuple(rng.choice([F(1, 2), F(3, 2)]) for _ in range(d)))
                grid = [tuple(F(c) for c in p) for p in product((-1, 0, 1), repeat=d)]
                atoms = rng.sample(grid, 2)
                weight = F(rng.randint(1, 3), 4)
                witness = ConvexWitness(((weight, atoms[0]), (1 - weight, atoms[1])))
                prefix = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
                          for _ in range(prefix_len)]
                yield k, space, witness, prefix, rng.choice([F(1, 4), F(2, 5)])
    # three atoms: a cycle of three runs, so hits fall inside and between runs
    rng = random.Random(333)
    for k in (1, 2, 3):
        for d in (1, 2):
            for prefix_len in (0, 2):
                grid = [tuple(F(c) for c in p) for p in product((-1, 0, 1), repeat=d)]
                raw = [rng.randint(1, 4) for _ in range(3)]
                witness = ConvexWitness(tuple((F(r, sum(raw)), p)
                                              for r, p in zip(raw, rng.sample(grid, 3))))
                prefix = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
                          for _ in range(prefix_len)]
                yield k, Space(d), witness, prefix, rng.choice([F(1, 4), F(1, 5)])


def test_extend_first_hit_matches_per_index_scan():
    # n0 is the first index past the prefix at which [T^k] is within eps/3 of
    # x'; an independent scan pushes the repeated tuple one index at a time.
    # A cap short of n0 exits with the metric at the cap index.
    for k, space, witness, prefix, eps in _witness_cases():
        ground = GroundSet.lattice(space.dimension)
        res = single_target_extend(prefix, witness, eps, k, space, ground)
        x_prime = point(*res.trace["x_prime"])
        cycle = [p for (_, p), c in zip(witness.atoms, res.trace["counts"]) for _ in range(c)]
        terms, metrics = lemma33_scan(prefix, cycle, k, x_prime, eps / 3, space)
        n0 = len(prefix) + len(terms)
        assert res.n0 == n0 < 1500
        assert res.new_terms == terms
        assert res.seq.runs == RunSeq([(p, 1) for p in prefix + terms]).runs
        assert space.metric(iterate_at(k, res.seq, n0), x_prime) < eps / 3
        for cap in {1, len(terms) // 2, len(terms) - 1} - {0, len(terms)}:
            with pytest.raises(BudgetExceededError) as exc:
                single_target_extend(prefix, witness, eps, k, space, ground, term_cap=cap)
            assert exc.value.details == {"appended": cap, "term_cap": cap,
                                         "current_metric": fracstr(metrics[cap - 1])}


# two first hits inside runs, each on a piece that only the cuts of the top
# level (3) separate from its run's ends: cut at level 1, both searches miss
FIRST_HITS = [
    ([F(1, 2)], [(F(-5, 2), 5), (F(1), 55), (F(-1), 12), (F(-1), 21)], F(-1), F(1, 20), [3], 11),
    ([F(5, 2), F(-1), F(-3, 4)], [(F(-6), 1), (F(3), 47), (F(3, 2), 29)], F(0), F(1, 4),
     [1, 2, 3], 7),
]


def _first_hit_cases():
    """Seeded problems: k = 2..4, d = 1, 2, prefix of 0-4 terms, 1-5 runs of 1-60 terms."""
    rng = random.Random(44)

    def coord():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(40):
        k, d = rng.randint(2, 4), rng.randint(1, 2)
        prefix = [tuple(coord() for _ in range(d)) for _ in range(rng.randint(0, 4))]
        runs = [(tuple(coord() for _ in range(d)), rng.randint(1, 60))
                for _ in range(rng.randint(1, 5))]
        levels = sorted(rng.sample(range(1, k + 1), rng.randint(1, k)))
        # the target is one level's value at one index past the prefix, so
        # that level passes through it
        seq = RunSeq([(p, 1) for p in prefix] + runs)
        target = iterate_at(rng.choice(levels), seq, rng.randint(len(prefix) + 1, len(seq)))
        yield k, Space(d), prefix, runs, target, F(1, rng.randint(4, 40)), levels


def test_first_hit_matches_per_index_scan():
    cases = [(3, Space(1), [(x,) for x in prefix], [((p,), c) for p, c in runs], (target,), tol,
              levels) for prefix, runs, target, tol, levels, _ in FIRST_HITS]
    found = []
    for k, space, prefix, runs, target, tol, levels in [*cases, *_first_hit_cases()]:
        walker = IterateWalker(k, space.dimension)
        for p in prefix:
            walker.push(p)
        expected, end = first_hit_scan(walker, runs, levels, target, tol, space)
        j, state = _first_hit(walker.copy(), runs, levels, target, tol, space)
        assert (j, state.j, state.values) == (expected, end.j, end.values)
        found.append(j)
    assert found[:2] == [hit for *_, hit in FIRST_HITS]
    assert found.count(None) < len(found) // 2


def test_first_hit_is_strict_at_tol():
    # after a term 2, zeros give [T]_j = 2/j at metric 1/(j + 2): tol = 1/5 is
    # attained at j = 3, which is not a hit, so the first hit is j = 4
    walker = IterateWalker(1, 1)
    walker.push((F(2),))
    j, state = _first_hit(walker, [((F(0),), 10)], [1], (F(0),), F(1, 5), Space(1))
    assert (j, state.j) == (4, 4)


# --- chains and partitions ---------------------------------------------------

def test_build_covering_chain_intervals(line, lattice1):
    M0 = FinitePointSet((point(-1), point(1)), corner_radius=F(1))
    chain = build_covering_chain(M0, F(1, 4), 1, line, lattice1)
    assert chain.intervals == ((F(1, 48), F(1, 24)),)
    assert chain.sets[0].issubset(chain.sets[1])
    # radius (1/eps * 12)^1 * 1! * 2 = 96
    assert chain.sets[1].corner_radius == 96


def test_build_covering_chain_nesting_k3(line, lattice1):
    M0 = FinitePointSet((point(-1), point(1)), corner_radius=F(1))
    chain = build_covering_chain(M0, F(1, 3), 3, line, lattice1)
    for lo, hi in zip(chain.sets, chain.sets[1:]):
        assert lo.issubset(hi)
    gaps = [d - c for c, d in chain.intervals]
    assert gaps == sorted(gaps, reverse=True)
    assert sum(d for _, d in chain.intervals) < F(1, 3)


def test_build_covering_chain_explicit_ground_fails(line):
    M0 = FinitePointSet((point(-1), point(1)))
    ground = GroundSet.explicit([point(-1), point(1)])
    with pytest.raises(CoverageError) as exc:
        build_covering_chain(M0, F(1, 4), 1, line, ground)
    assert exc.value.required_radius == 96


def test_build_covering_chain_explicit_ground_big_enough(line):
    M0 = FinitePointSet((point(-1), point(1)))
    ground = GroundSet.explicit([point(-1), point(1), point(-100), point(100)])
    chain = build_covering_chain(M0, F(1, 4), 1, line, ground)
    assert point(100) in chain.sets[1]
    assert chain.intervals == ((F(1, 48), F(1, 24)),)


def test_choose_partition_example(line):
    sets = (FinitePointSet((point(-1), point(1))),) * 2
    chain = CoveringChain(sets=sets, intervals=((F(1, 48), F(1, 24)),), epsilon=F(1, 4), k=1)
    part = choose_partition(192, chain, 1, line)
    assert part.lambdas == (4,)
    assert part.v == 188
    assert part.v > F(part.m, 2)


def test_choose_partition_rejects_small_m(line):
    sets = (FinitePointSet((point(-1), point(1))),) * 2
    chain = CoveringChain(sets=sets, intervals=((F(1, 48), F(1, 24)),), epsilon=F(1, 4), k=1)
    m0, _ = partition_min_m(chain, 1, line)
    with pytest.raises(ValueError):
        choose_partition(m0 - 1, chain, 1, line)


def test_choose_partition_deterministic_and_in_interval(line, lattice1):
    M0 = FinitePointSet((point(-1), point(1)), corner_radius=F(1))
    chain = build_covering_chain(M0, F(1, 3), 2, line, lattice1)
    _, m_needed = partition_min_m(chain, 1, line)
    part1 = choose_partition(m_needed, chain, 1, line)
    part2 = choose_partition(m_needed, chain, 1, line)
    assert part1 == part2
    for i in range(1, 3):
        start, end = part1.block_bounds(i)
        gamma = F(part1.lambdas[i - 1], end)
        c_i, d_i = chain.intervals[i - 1]
        assert c_i <= gamma <= d_i


def test_chain_k_must_match_sets_and_intervals():
    M0 = FinitePointSet((point(-1), point(1)), corner_radius=F(1))
    M1 = FinitePointSet((point(-2), point(2)), corner_radius=F(2)).union(M0)
    M2 = FinitePointSet((point(-3), point(3)), corner_radius=F(3)).union(M1)
    one, two = (F(1, 100), F(2, 100)), (F(1, 250), F(2, 250))
    CoveringChain(sets=(M0, M1), intervals=(one,), epsilon=F(3, 10), k=1)
    with pytest.raises(ValueError, match="k=2 needs"):  # k above the sets and intervals
        CoveringChain(sets=(M0, M1), intervals=(one,), epsilon=F(3, 10), k=2)
    with pytest.raises(ValueError, match="k=1 needs"):  # k below them
        CoveringChain(sets=(M0, M1, M2), intervals=(one, two), epsilon=F(3, 10), k=1)
    with pytest.raises(ValueError, match="k=2 needs"):  # sets and intervals disagree
        CoveringChain(sets=(M0, M1), intervals=(one, two), epsilon=F(3, 10), k=2)


# --- round-robin assignment, hand-built two-level chain ----------------------

def two_level_chain(part, x1, x2, eps, line, lattice1, cache):
    """M^0 = {-1, 1} and cube corners M^1, M^2 wide enough for the targets, sized by phi."""
    lam1, lam2 = part.lambdas
    M0 = FinitePointSet((point(-1), point(1)), corner_radius=F(1))
    phi1 = phi(part.v, [lam1, lam2], 1, cache)
    r1 = ceil_frac((abs(x2[0]) + delta(eps / 6)) / phi1) + 1
    M1 = cube_corners(lattice1, r1, line).union(M0)
    phi2 = phi(part.v, [lam1, lam2], 2, cache)
    worst_s2 = F(lam1 * r1, part.m)
    r2 = ceil_frac((abs(x1[0]) + worst_s2 + delta(eps / 6)) / phi2) + 1
    M2 = cube_corners(lattice1, r2, line).union(M1)
    return CoveringChain(
        sets=(M0, M1, M2),
        intervals=((F(1, 100), F(2, 100)), (F(1, 250), F(2, 250))),
        epsilon=eps, k=2,
    )


def test_assign_two_levels(line, lattice1, cache, monkeypatch):
    eps = F(3, 10)
    v, lam1, lam2 = 2100, 420, 280
    part = Partition(v=v, lambdas=(lam1, lam2))
    x1, x2 = (F(1, 4),), (F(1, 8),)   # level-1 and level-2 targets
    assert phi(v, [lam1, lam2], 2, cache) == F(lam2, part.m)
    chain = two_level_chain(part, x1, x2, eps, line, lattice1, cache)
    M0, M1, M2 = chain.sets

    seq = RunSeq([((F(0),), v)])
    # the in-block maxima read each block's first index once, then only the
    # piece ends: the walker states they make guard that (38 when this was written)
    copies = []
    original = IterateWalker.copy
    monkeypatch.setattr(IterateWalker, "copy", lambda self: copies.append(self.j) or original(self))
    stages, seq = assign_block_terms(seq, chain, part, [x1, x2], eps, line, cache)
    monkeypatch.undo()
    assert len(copies) <= 38

    assert len(seq) == part.m
    assert [s.level for s in stages] == [2, 1]
    two_over_v = F(2, v)
    for s in stages:
        assert all(abs(r) < two_over_v for r in s.final_residuals)
        assert sum(s.g) == 1
        # endpoint recheck through the independent evaluator
        endpoint = iterate_at(s.level, seq, s.end)
        assert endpoint == s.endpoint_value
        assert line.seminorm(1, (endpoint[0] - s.x_target[0],)) < eps / 3
    # in-block ceilings recorded against the previous covering set
    assert stages[0].block_seminorm_max[1] <= 5 * M0.norm(1, line) + 1
    assert stages[1].block_seminorm_max[1] <= 5 * M1.norm(1, line) + 1
    # the two blocks drew their terms from their own covering sets
    terms = list(seq.iter_points())
    assert all(t in M1 for t in terms[v:v + lam1])
    assert all(t in M2 for t in terms[v + lam1:])


def test_assign_stabilizer_too_short_for_round_bound(line, lattice1, cache):
    # at v = 300 a level-2 target of 3/16 needs M^2 so wide that 2 mu |M^2| / v
    # leaves no room below 1/3 for any number of rounds
    eps = F(3, 10)
    part = Partition(v=300, lambdas=(60, 40))
    x1, x2 = (F(1, 4),), (F(3, 16),)
    chain = two_level_chain(part, x1, x2, eps, line, lattice1, cache)
    with pytest.raises(SchedulingError) as caught:
        assign_block_terms(RunSeq([((F(0),), part.v)]), chain, part, [x1, x2], eps, line, cache)
    assert caught.value.stage == 2
    assert str(caught.value) == "stage 2: stabilizer too short for the round bound"
    assert caught.value.state == {"rho": 1, "norm": "25"}


@st.composite
def assignment_runs(draw):
    """A prefix, a weighted space and a block of runs over a few atoms."""
    d = draw(st.integers(1, 2))
    coord = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
    pt = st.tuples(*[coord] * d)
    prefix = draw(st.lists(st.tuples(pt, st.integers(1, 60)), min_size=1, max_size=3))
    atoms = draw(st.lists(pt, min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(atoms), st.integers(1, 300)),
                         min_size=1, max_size=4))
    weights = draw(st.lists(st.sampled_from([F(1), F(1, 2), F(7, 3)]), min_size=d, max_size=d))
    return prefix, runs, Space(d, tuple(weights))


@settings(max_examples=40, deadline=None)
@given(assignment_runs(), st.integers(1, 4))
def test_block_seminorm_max_matches_per_index(data, level):
    prefix, runs, space = data
    walker = IterateWalker(4, space.dimension)
    for p, count in prefix:
        walker.push_run(p, count)
    rhos = range(1, space.dimension + 1)
    block_max, end = _block_seminorm_max(walker, runs, level, rhos, space)
    expected, twin = block_max_reference(walker, runs, level, rhos, space)
    assert block_max == expected
    assert (end.j, end.values) == (twin.j, twin.values)


def test_assign_rejects_bad_prefix(line, lattice1, cache):
    M0 = FinitePointSet((point(-1), point(1)), corner_radius=F(1))
    chain = CoveringChain(sets=(M0, M0), intervals=((F(1, 48), F(1, 24)),),
                   epsilon=F(1, 4), k=1)
    part = Partition(v=40, lambdas=(4,))
    seq = RunSeq([((F(50),), 40)])  # iterates sit far outside conv(M^0)
    with pytest.raises(ValueError):
        assign_block_terms(seq, chain, part, [(F(0),)], F(1, 4), line, cache)


# --- simultaneous pipeline ----------------------------------------------------

def test_simultaneous_k1(line, lattice1, cache):
    res = simultaneous_construct([], [(F(7, 2),)], F(1, 4), IndexSet("all"),
                              line, lattice1, cache)
    trace = res.trace
    assert trace["final_index"] == res.n
    value = iterate_at(1, res.seq, res.n)
    assert line.metric(value, (F(7, 2),)) < F(1, 4)
    replay = replay_trace(trace, line, cache)
    assert replay["matches"]
    # byte-level determinism of the full trace
    res2 = simultaneous_construct([], [(F(7, 2),)], F(1, 4), IndexSet("all"),
                               line, lattice1, cache)
    assert json.dumps(trace, sort_keys=True) == json.dumps(res2.trace, sort_keys=True)


def test_simultaneous_respects_index_set(line, lattice1, cache):
    sevens = IndexSet("progression", 7, 7)
    res = simultaneous_construct([], [(F(1, 2),)], F(1, 4), sevens, line, lattice1, cache)
    assert res.n % 7 == 0
    assert line.metric(iterate_at(1, res.seq, res.n), (F(1, 2),)) < F(1, 4)


def test_simultaneous_with_prefix(line, lattice1, cache):
    prefix = [(F(3),), (F(-2),)]
    res = simultaneous_construct(prefix, [(F(1, 2),)], F(1, 4), IndexSet("all"),
                              line, lattice1, cache)
    assert list(res.seq.iter_points())[:2] == prefix
    assert res.trace["v1"] > 2
    assert line.metric(iterate_at(1, res.seq, res.n), (F(1, 2),)) < F(1, 4)


def test_simultaneous_dimension_two(cache):
    sp = Space(2)
    ground = GroundSet.lattice(2)
    target = (F(1, 2), F(-1, 2))
    res = simultaneous_construct([], [target], F(1, 4), IndexSet("all"), sp, ground, cache)
    assert sp.metric(iterate_at(1, res.seq, res.n), target) < F(1, 4)


def test_simultaneous_k2_fails_loudly(line, lattice1, cache):
    with pytest.raises(BudgetExceededError) as exc:
        simultaneous_construct([], [(F(0),), (F(5),)], F(3, 10),
                            IndexSet("progression", 7, 7), line, lattice1, cache)
    err = exc.value
    assert err.kind == "term_cap"
    assert err.details["m0"] > 10**6
    assert err.details["m_required"] >= err.details["m0"]
    # relaxation never happens silently: the message carries the numbers
    assert str(err.details["m0"]) in str(err)


def test_stabilize_multilevel_from_prefix():
    # v1 is the first index at which every level passes, walked index by index;
    # the two fixed cases pass at exactly the padded level-1 length
    cases = [([(F(-1),), (F(2),)], (F(0),), k, F(1, 10)) for k in (2, 3)]
    rng = random.Random(21)
    for _ in range(12):
        d = rng.randint(1, 2)
        prefix = [tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d))
                  for _ in range(rng.randint(1, 5))]
        a = tuple(F(rng.randint(-1, 1), 2) for _ in range(d))
        cases.append((prefix, a, rng.randint(2, 3), F(1, rng.choice([4, 6, 8, 10]))))
    for prefix, a, k, tol in cases:
        sp = Space(len(a))
        seq = RunSeq([(p, 1) for p in prefix])
        v1 = _stabilize(seq, a, k, tol, sp, 10**6)
        assert v1 < 500
        assert seq.runs == RunSeq([(p, 1) for p in prefix] + [(a, v1 - len(prefix))]).runs
        assert v1 == stabilize_per_index(prefix, a, k, tol, sp)
    # caps before the first hit exit exactly as a per-index loop does, with
    # the metric at the cap index
    exits = [
        (5, 22, {"appended": 17,
                 "current_metric": "1425880334888149571/5059226054982646788"}),
        (6, 12, {"appended": 7, "current_metric": "20248858543/95822401886"}),
        (6, 30, {"appended": 25, "current_metric":
                 "198545297613751037300794489/1373529069705403200492788978"}),
    ]
    for case, cap, expected in exits:
        prefix, a, k, tol = cases[case]
        with pytest.raises(BudgetExceededError) as exc:
            _stabilize(RunSeq([(p, 1) for p in prefix]), a, k, tol, Space(len(a)), cap)
        assert exc.value.details == {"phase": "stabilization", "term_cap": cap, **expected}


def test_stabilize_window_search_pinned(monkeypatch):
    # k = 3 in the plane: the level-1 length is 63, and the doubling windows
    # (63, 126], ..., (2016, 4032] of the search hold the first hit at 2202
    prefix, a, k, tol = [(F(3, 2), F(-2))], (F(-1, 2), F(1, 2)), 3, F(1, 40)
    sp = Space(2)
    # a search that descends into pieces holding no hit still finds 2202,
    # so only the count of walker states it makes guards its cost
    copies = []
    original = IterateWalker.copy
    monkeypatch.setattr(IterateWalker, "copy", lambda self: copies.append(self.j) or original(self))
    v1 = _stabilize(RunSeq([(p, 1) for p in prefix]), a, k, tol, sp, 10**6)
    assert len(copies) <= 40
    monkeypatch.undo()
    assert v1 == stabilize_per_index(prefix, a, k, tol, sp) == 2202
    # caps inside a window, on a window edge and one short of the hit exit
    # with the metric at the cap index; SHA-256 of that metric
    pinned = {
        1000: "48b7af5ed06c0321c6ccd617f6ad20c9b38aed34b90fed8af1b7182336fb95af",
        2016: "d11531e22e22da922174f24e17bb83b32188d420b31b6430adae430207310ee4",
        2201: "de7d09ff789fa3e2166bf9e3527dbf3079a78653ce70c8c3d1ceab23975b0458",
    }
    for cap, digest in pinned.items():
        with pytest.raises(BudgetExceededError) as exc:
            _stabilize(RunSeq([(p, 1) for p in prefix]), a, k, tol, sp, cap)
        details = dict(exc.value.details)
        metric = details.pop("current_metric")
        assert details == {"phase": "stabilization", "appended": cap - 1, "term_cap": cap}
        assert hashlib.sha256(metric.encode()).hexdigest() == digest


def test_stabilize_level1_overflow():
    # after the prefix (1,) and copies of 0, [T^1]_v = 1/v, so no length up
    # to 2^63 comes within 10^-30 of 0: the level-1 search exits loudly
    with pytest.raises(BudgetExceededError,
                       match="stabilization length overflows any plausible budget") as exc:
        _stabilize(RunSeq([((F(1),), 1)]), (F(0),), 2, F(1, 10**30), Space(1), 10**6)
    assert exc.value.details == {"prefix": 1}


def test_term_cap_below_one_rejected(line, lattice1):
    w = ConvexWitness(((F(1), (F(0),)),))
    for cap in (0, -3):
        with pytest.raises(ValueError, match="term_cap"):
            single_target_extend([], w, F(1, 10), 1, line, lattice1, term_cap=cap)
        with pytest.raises(ValueError, match="term_cap"):
            simultaneous_construct([], [(F(0),)], F(1, 4), IndexSet("all"), line, lattice1,
                                   term_cap=cap)


def test_simultaneous_rejects_bad_epsilon(line, lattice1):
    with pytest.raises(ValueError):
        simultaneous_construct([], [(F(0),)], F(1, 2), IndexSet("all"), line, lattice1)


# --- target-plan driver ------------------------------------------------------

def test_driver_single_entry_matches_direct_run(line, lattice1, cache):
    res = run_target_plan([[(F(1),)]], IndexSet("all"), line, lattice1, cache)
    assert len(res.schedule) == 1
    assert line.metric(iterate_at(1, res.seq, res.schedule[0]), (F(1),)) < 1
    # a one-entry plan is exactly one pipeline run at the clamped epsilon
    direct = simultaneous_construct([], [(F(1),)], F(49, 100), IndexSet("all"),
                                    line, lattice1, cache)
    assert res.schedule[0] == direct.n
    assert res.traces[0] == direct.trace


def test_driver_two_entries_single_level(line, lattice1, cache):
    sevens = IndexSet("progression", 7, 7)
    plan = [[(F(0),)], [(F(1, 2),)]]
    res = run_target_plan(plan, sevens, line, lattice1, cache, term_cap=2 * 10**7)
    assert res.schedule[0] < res.schedule[1]
    assert all(n % 7 == 0 for n in res.schedule)
    assert line.metric(iterate_at(1, res.seq, res.schedule[0]), (F(0),)) < 1
    assert line.metric(iterate_at(1, res.seq, res.schedule[1]), (F(1, 2),)) < F(1, 2)


# --- boundedness obstruction -------------------------------------------------

def test_unit_interval_zeros(cache):
    report = unit_interval_check([F(0)] * 12, 12, cache)
    assert report["triggered"]
    assert frac(report["t2"]) == 0


def test_unit_interval_ones_vacuous(cache):
    report = unit_interval_check([F(1)] * 12, 12, cache)
    assert not report["triggered"]


def test_unit_interval_random_conditioned(cache):
    rng = random.Random(10)
    triggered = 0
    for _ in range(150):
        n = rng.randint(1, 60)
        values = [F(rng.randint(0, 64), 64) for _ in range(n)]
        report = unit_interval_check(values, n, cache)
        if report["triggered"]:
            triggered += 1
            assert frac(report["t2"]) < F(15, 16)
            assert report["small_count"] >= (n + 1) // 2
            assert frac(report["tail_mass"]) >= F(1, 8)
    assert triggered > 0


def test_unit_interval_values_stay_inside(cache):
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 40)
        prefix = [(F(rng.randint(0, 32), 32),) for _ in range(n)]
        for k in (1, 2, 3):
            value = apply_iterate(k, prefix, n, cache)[0]
            assert 0 <= value <= 1
