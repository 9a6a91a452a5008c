from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro.kernel import apply_iterate_oracle
from cesaro.sequences import IterateWalker, RunSeq, iterate_at

F = Fraction

small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def runs_and_cuts(draw):
    """Runs of one dimension, plus cut points that include offsets inside runs."""
    d = draw(st.integers(1, 2))
    runs = draw(st.lists(
        st.tuples(st.tuples(*[small_fraction] * d), st.integers(1, 6)),
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
    before = (walker.j, list(walker.sums), [walker.value(c) for c in (1, 2, 3)])
    twin = walker.copy()
    twin.push_run((F(0),), 4)
    twin.push((F(5),))
    assert (walker.j, list(walker.sums), [walker.value(c) for c in (1, 2, 3)]) == before
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
