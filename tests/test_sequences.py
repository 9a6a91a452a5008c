from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro.kernel import apply_iterate_oracle
from cesaro.sequences import IterateWalker, RunProbes, RunSeq, iterate_at, pieces
from cesaro.space import padd, psub

F = Fraction

small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def runs_and_cuts(draw):
    """Runs of one dimension, plus cut points that include offsets inside runs."""
    d = draw(st.integers(1, 2))
    runs = draw(st.lists(
        st.tuples(st.tuples(*[small_fraction] * d), st.integers(1, 80)),
        min_size=1, max_size=5,
    ))
    cuts = set()
    seen = 0
    for _, count in runs:
        cuts.add(seen + draw(st.integers(0, count)))
        seen += count
    return d, runs, sorted(cuts)


@settings(max_examples=80, deadline=None)
@given(runs_and_cuts(), st.integers(1, 4))
def test_push_seq_resumed_matches_oracle(data, k):
    d, runs, cuts = data
    seq = RunSeq(runs)
    points = list(seq.iter_points())
    walker = IterateWalker(k, d)
    for cut in cuts:
        walker.push_seq(seq, cut)
        assert walker.j == cut
        for level in range(1, k + 1):
            if cut:
                assert walker.value(level) == apply_iterate_oracle(level, points, cut)
    walker.push_seq(seq)
    assert walker.j == len(seq)
    for level in range(1, k + 1):
        assert walker.value(level) == apply_iterate_oracle(level, points, len(seq))
        assert iterate_at(level, seq, len(seq)) == walker.value(level)


def test_copy_leaves_original_unchanged():
    seq = RunSeq([((F(1),), 3), ((F(-2),), 2)])
    walker = IterateWalker(3, 1)
    walker.push_seq(seq)
    before = (walker.j, [walker.value(c) for c in (1, 2, 3)])
    twin = walker.copy()
    twin.push_run((F(0),), 4)
    twin.push((F(5),))
    assert (walker.j, [walker.value(c) for c in (1, 2, 3)]) == before
    padded = seq.copy()
    padded.append((F(0),), 4)
    padded.append((F(5),))
    for level in (1, 2, 3):
        assert twin.value(level) == iterate_at(level, padded, len(padded))


def test_push_seq_rejects_out_of_range():
    seq = RunSeq([((F(1),), 4), ((F(2),), 3)])
    walker = IterateWalker(2, 1)
    walker.push_seq(seq, 5)
    with pytest.raises(ValueError):
        walker.push_seq(seq, 4)
    with pytest.raises(ValueError):
        walker.push_seq(seq, len(seq) + 1)
    assert walker.j == 5
    assert walker.value(2) == iterate_at(2, seq, 5)


@st.composite
def walker_and_runs(draw):
    """A walker resumed at some cursor (0 included) and runs of up to ~400 terms."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    point = st.tuples(*[small_fraction] * d)
    prefix = draw(st.lists(st.tuples(point, st.integers(1, 30)), max_size=3))
    runs = draw(st.lists(st.tuples(point, st.integers(0, 400)), min_size=1, max_size=3))
    if prefix and draw(st.booleans()):
        # resume in the middle of the prefix's last run
        runs[0] = (prefix[-1][0], runs[0][1])
    return k, d, prefix, runs


@settings(max_examples=60, deadline=None)
@given(walker_and_runs())
def test_push_run_matches_single_pushes(data):
    k, d, prefix, runs = data
    walker = IterateWalker(k, d)
    for p, count in prefix:
        for _ in range(count):
            walker.push(p)
    twin = walker.copy()
    for p, count in runs:
        walker.push_run(p, count)
        for _ in range(count):
            twin.push(p)
        assert walker.j == twin.j
        assert walker.values == twin.values


def harmonic(n, power=1):
    total = Fraction(0)
    for j in range(1, n + 1):
        total += Fraction(1, j ** power)
    return total


def test_impulse_iterates_in_closed_form():
    # for the unit impulse, [T^c]_n = h_(c-1)(1/1, ..., 1/n) / n
    n = 10**4
    seq = RunSeq([((F(1),), 1), ((F(0),), n - 1)])
    h1, h2 = harmonic(n), harmonic(n, 2)
    assert iterate_at(2, seq, n) == (h1 / n,)
    assert iterate_at(3, seq, n) == ((h1 * h1 + h2) / (2 * n),)


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        padd((F(1),), (F(1), F(2)))
    with pytest.raises(ValueError):
        psub((F(1), F(2)), (F(1),))
    walker = IterateWalker(2, 2)
    with pytest.raises(ValueError):
        walker.push((F(1),))
    with pytest.raises(ValueError):
        walker.push_run((F(1),), 3)
    assert walker.j == 0 and walker.values == [(F(0), F(0))] * 2
    with pytest.raises(ValueError):
        RunSeq([((F(1),), 1), ((F(2), F(5)), 3)])
    seq = RunSeq([((F(1),), 1)])
    with pytest.raises(ValueError):
        seq.append((F(2), F(5)), 3)
    assert len(seq) == 1


@st.composite
def walker_and_run(draw):
    """A walker past a prefix, resumed inside a run of p or not, and one run of p."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[small_fraction] * d)
    prefix = draw(st.lists(st.tuples(point, st.integers(1, 40)), min_size=1, max_size=3))
    p = prefix[-1][0] if draw(st.booleans()) else draw(point)
    return d, prefix, p, draw(st.integers(1, 300))


def is_monotone(values):
    pairs = list(zip(values, values[1:]))
    return all(x <= y for x, y in pairs) or all(x >= y for x, y in pairs)


@settings(max_examples=60, deadline=None)
@given(walker_and_run(), st.integers(1, 5))
def test_run_cuts_bound_monotone_pieces(data, level):
    d, prefix, p, count = data
    walker = IterateWalker(5, d)
    for q, c in prefix:
        walker.push_run(q, c)
    a, before = walker.j, walker.values
    twin = walker.copy()
    states = {a: list(twin.values)}
    for _ in range(count):
        twin.push(p)
        states[twin.j] = list(twin.values)
    run = RunProbes(walker, p, count)
    cuts = run.cuts(level)
    assert cuts[0] == a and cuts[-1] == a + count
    assert all(s < t for s, t in zip(cuts, cuts[1:]))
    # at most one turn per coordinate on each piece of the level below
    assert len(cuts) <= 2 + d * (2 ** (level - 1) - 1)
    for s, t in zip(cuts, cuts[1:]):
        for c in range(level):
            for i in range(d):
                assert is_monotone([states[j][c][i] for j in range(s, t + 1)])
    for j in cuts:
        assert run.at(j).values == states[j]
    assert walker.j == a and walker.values == before


def test_run_cuts_pinned_level_three():
    # [T^2] falls from 6 to 7 and [T^3] from 6 to 8; both rise toward 4 after
    walker = IterateWalker(3, 1)
    walker.push_run((F(2),), 5)
    walker.push((F(-1),))
    run = RunProbes(walker, (F(4),), 40)
    assert run.cuts(3) == [6, 7, 8, 46]
    assert run.cuts(2) == [6, 7, 46]
    assert run.cuts(1) == [6, 46]
    # p = 7*[T^2]_6 - 6*[T^1]_6 makes the step of [T^2] into 7 exactly 0; it
    # rises after, and [T^3] falls from 6 to 8 before following it
    flat = RunProbes(walker, (7 * walker.value(2)[0] - 6 * walker.value(1)[0],), 40)
    assert flat.cuts(2) == [6, 46]
    assert flat.cuts(3) == [6, 8, 46]
    with pytest.raises(ValueError):
        RunProbes(IterateWalker(2, 1), (F(1),), 3)
    with pytest.raises(ValueError):
        run.at(47)


@st.composite
def walker_runs_marks(draw):
    """A walker at some cursor (0 included), runs of up to 60 terms, a level and marks."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    point = st.tuples(*[small_fraction] * d)
    prefix = draw(st.lists(st.tuples(point, st.integers(1, 20)), max_size=3))
    runs = draw(st.lists(st.tuples(point, st.integers(0, 60)), min_size=1, max_size=4))
    total = sum(c for _, c in prefix) + sum(c for _, c in runs)
    marks = draw(st.sets(st.integers(0, total + 2), max_size=6))
    return k, d, prefix, runs, draw(st.integers(1, k)), marks


@settings(max_examples=40, deadline=None)
@given(walker_runs_marks())
def test_pieces_cover_the_runs_monotonically(data):
    k, d, prefix, runs, level, marks = data
    walker = IterateWalker(k, d)
    for p, count in prefix:
        walker.push_run(p, count)
    cursor = walker.j
    twin = walker.copy()
    states = {cursor: list(twin.values)}
    for p, count in runs:
        for _ in range(count):
            twin.push(p)
            states[twin.j] = list(twin.values)
    seen = []
    for run, l, r in pieces(walker, runs, level, marks):
        assert l == (seen[-1][1] if seen else cursor) < r
        assert run.at(r).values == states[r]
        seen.append((l, r))
    # (l, r] follow each other from the cursor to the end: each index once, in order
    ends = [r for _, r in seen]
    assert (ends[-1] if seen else cursor) == twin.j
    if cursor == 0 and seen:
        assert seen[0] == (0, 1)
    assert {m for m in marks if cursor < m <= twin.j} <= set(ends)
    for l, r in seen:
        for c in range(level):
            for i in range(d):
                assert is_monotone([states[j][c][i] for j in range(max(l, 1), r + 1)])
