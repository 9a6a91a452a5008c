import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesaro import (
    AuditReport,
    KernelCache,
    audit_abel,
    audit_density,
    audit_kernel,
    audit_oracle,
    audit_unit_interval,
    dense_example,
    take_prefix,
)
from cesaro import audit as audit_mod
from cesaro.exact import frac, render
from cesaro.sequences import RunSeq, iterate_at
from cesaro.space import Space, point, pscale
from reference import density_reference

F = Fraction


def test_audit_kernel_small(cache):
    report = audit_kernel(3, 40, cache)
    assert report.failed == 0
    assert report.counterexamples == []
    assert report.checked == report.passed


class EditedRowCache(KernelCache):
    """A cache that serves one row (k, n) with a single entry replaced."""

    def __init__(self, k, n, column, value):
        super().__init__()
        self.edit = (k, n, column, value)

    def row(self, k, n):
        row = super().row(k, n)
        ek, en, column, value = self.edit
        if (k, n) != (ek, en):
            return row
        return row[:column - 1] + (value,) + row[column:]


def test_audit_kernel_ratio_chain_can_fail():
    # raising T^2_(5,5) to T^2_(5,4) makes a_2 = T^2_(5,4)/T^2_(6,5) exceed
    # a_1 = T^2_(5,4)/T^2_(6,4) in the chain n = 3, lam = 2, LAM = 3
    report = audit_kernel(2, 12, EditedRowCache(2, 5, 5, KernelCache().entry(2, 5, 4)))
    assert report.failed >= 1
    assert {"check": "ratio_chain", "k": 2, "n": 3, "lam": 2, "LAM": 3} in report.counterexamples


@pytest.mark.parametrize("row", [4, 3], ids=["larger-row", "smaller-row"])
def test_audit_kernel_ratio_chain_rejects_zero_entry(row):
    # a zero at column 3 of either row of the chain n = 2, lam = 1, LAM = 2
    report = audit_kernel(2, 12, EditedRowCache(2, row, 3, F(0)))
    assert report.failed >= 1
    assert {"check": "ratio_chain", "k": 2, "n": 2, "lam": 1, "LAM": 2} in report.counterexamples


def test_audit_kernel_k1_tail_equalities(cache):
    # at level 1 the tail lower bound 1/n is attained with equality everywhere
    report = audit_kernel(1, 30, cache)
    assert report.failed == 0
    for n in range(2, 31):
        row = cache.row(1, n)
        for lam in range(1, n):
            for i in range(1, lam + 1):
                assert row[n - lam + i - 1] == F(1, n)


def test_audit_oracle(cache):
    report = audit_oracle(instances=150, seed=3, cache=cache)
    assert report.failed == 0
    assert report.checked == 150


def test_audit_abel():
    report = audit_abel(samples=80, seed=5)
    assert report.failed == 0
    # degenerate shapes: constant coefficients and a single term
    flat = audit_abel(samples=20, seed=6, lam_max=1)
    assert flat.failed == 0


def test_audit_unit_interval(cache):
    report = audit_unit_interval(samples=60, n_max=40, seed=7, cache=cache)
    assert report.failed == 0
    assert report.params["triggered"] > 0
    assert report.params["vacuous"] > 0


def test_audit_determinism(cache):
    a = audit_unit_interval(samples=30, n_max=25, seed=11, cache=cache)
    b = audit_unit_interval(samples=30, n_max=25, seed=11, cache=cache)
    assert a.to_json() == b.to_json()
    c = audit_abel(samples=25, seed=11)
    d = audit_abel(samples=25, seed=11)
    assert c.to_json() == d.to_json()


def test_report_serialization_roundtrip():
    report = AuditReport("demo", {"x": 1}, checked=3, passed=2, failed=1,
                         counterexamples=[{"check": "demo", "lhs": "1/2"}])
    raw = json.dumps(report.to_json(), sort_keys=True)
    back = AuditReport.from_json(json.loads(raw))
    assert back.to_json() == report.to_json()
    # timing is kept out of the serialized form unless asked for
    report.wall_time_ms = 12.5
    assert "wall_time_ms" not in report.to_json()
    assert report.to_json(include_timing=True)["wall_time_ms"] == 12.5


def test_render_writes_exact_records():
    raw = {1: (F(1, 2), [F(-3), 3]), "t": ((F(0),), {2: None}), "ok": True}
    assert render(raw) == {"1": ["1/2", ["-3", 3]], "t": [["0"], {"2": None}], "ok": True}
    assert render(3) == 3 and render(F(3)) == "3"
    assert render(True) is True and render(None) is None


# Each suite whose counterexamples hold exact values, forced to fail once:
# the stored detail is pinned whole, in its written form.

def test_oracle_counterexample_written(monkeypatch):
    original = audit_mod.apply_iterate_oracle
    monkeypatch.setattr(audit_mod, "apply_iterate_oracle",
                        lambda *args: tuple(c + 1 for c in original(*args)))
    report = audit_oracle(1, seed=5, k_max=2, n_max=3, d_max=2, cache=KernelCache())
    assert report.counterexamples == [{
        "check": "oracle", "k": 2, "n": 3, "d": 2,
        "kernel": ["997/864", "355/3024"], "oracle": ["1861/864", "3379/3024"],
    }]


def test_kernel_log_bound_counterexample_written(monkeypatch):
    monkeypatch.setattr(audit_mod, "iterate_entry_bound", lambda k, n, log_n: F(1, 2 * n))
    report = audit_kernel(1, 2, KernelCache())
    assert report.failed == 2
    assert report.counterexamples == [
        {"check": "log_bound", "k": 1, "n": 1, "entry": "1", "bound": "1/2"},
        {"check": "log_bound", "k": 1, "n": 2, "entry": "1/2", "bound": "1/4"},
    ]


def test_abel_counterexample_written(monkeypatch):
    monkeypatch.setattr(audit_mod, "pscale", lambda c, p: pscale(100 * c, p))
    report = audit_abel(1, seed=5, dimension=1, lam_max=4)
    assert report.counterexamples == [
        {"check": "abel", "lam": 3, "coeffs": ["15/8", "23/16", "1/8"]},
    ]


def test_prop412_counterexample_written(monkeypatch):
    monkeypatch.setattr(audit_mod, "frac", lambda value: F(1))  # every [T^2]_n reads 1
    report = audit_unit_interval(1, n_max=8, seed=15, cache=KernelCache())
    assert report.counterexamples == [
        {"check": "prop412", "n": 1, "t1": "1/64"},
        {"check": "prop412", "n": 2, "t1": "5/128"},
    ]


def test_density_constant_prefix():
    sp = Space(1)
    prefix = [(F(3),)] * 10
    rows = audit_density(prefix, [(F(3),)], [1, 2], sp, checkpoints=[10])
    for row in rows:
        assert frac(row["min_metric"]) == 0
        assert row["at_index"] == 1


def test_density_alternating():
    sp = Space(1)
    prefix = [((-1) ** n * F(1),) for n in range(1, 41)]
    rows = audit_density(prefix, [(F(0),)], [1], sp, checkpoints=[40])
    assert frac(rows[0]["min_metric"]) == 0
    assert rows[0]["at_index"] == 2


def test_density_running_min_nonincreasing():
    sp = Space(1)
    enum = [point(F(j, 10)) for j in range(8)]
    seq = take_prefix(dense_example(enum, lambda n: 4**n), 400)
    rows = audit_density(seq, enum[:3], [1, 2], sp, checkpoints=[100, 200, 300, 400])
    for k in (1, 2):
        for t in range(3):
            series = [frac(r["min_metric"]) for r in rows
                      if r["k"] == k and r["target_id"] == t]
            assert all(a >= b for a, b in zip(series, series[1:]))


def test_density_levels_share_one_walk():
    # rows follow the order of ks, repeated levels included
    sp = Space(1)
    enum = [point(F(j, 10)) for j in range(6)]
    seq = take_prefix(dense_example(enum, lambda n: 3**n), 150)
    targets, marks = enum[:3], [40, 90, 150]
    rows = audit_density(seq, targets, [2, 1, 2], sp, checkpoints=marks)
    singles = [audit_density(seq, targets, [k], sp, checkpoints=marks) for k in (2, 1, 2)]
    assert rows == singles[0] + singles[1] + singles[2]


@st.composite
def density_cases(draw):
    """Runs of 1-300 terms in d <= 3; targets on run points, iterate values and midpoints."""
    d = draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([F(1), F(1, 2), F(3), F(2, 5)]),
                            min_size=d, max_size=d))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(points), st.integers(1, 300)),
                         min_size=1, max_size=4))
    seq = RunSeq(runs)
    ks = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["point", "iterate", "midpoint", "free"]))
        if kind == "point":
            targets.append(draw(st.sampled_from(points)))
        elif kind == "iterate":
            n = draw(st.integers(1, len(seq)))
            targets.append(iterate_at(draw(st.integers(1, 2)), seq, n))
        elif kind == "midpoint":  # two neighbours at the same distance
            n, level = draw(st.integers(1, len(seq))), draw(st.integers(1, 2))
            ends = iterate_at(level, seq, n), iterate_at(level, seq, min(n + 1, len(seq)))
            targets.append(tuple((x + y) / 2 for x, y in zip(*ends)))
        else:
            targets.append(draw(st.tuples(*[coord] * d)))
    checkpoints = None
    if draw(st.booleans()):
        checkpoints = draw(st.lists(st.integers(1, len(seq)), min_size=1, max_size=6))
    return seq, targets, ks, Space(d, tuple(weights)), checkpoints


# [T^2] has a trough at 7 inside the run of 4 and [T^3] one at 8, each below
# the ends of the lower level's piece around it, with no checkpoint there
TROUGHS = RunSeq([((F(2),), 5), ((F(-1),), 1), ((F(4),), 40)])


@settings(max_examples=40, deadline=None)
@given(density_cases())
@example((TROUGHS, [iterate_at(2, TROUGHS, 7), iterate_at(3, TROUGHS, 8)], [2, 3], Space(1),
          [46]))
def test_density_matches_per_index_reference(case):
    seq, targets, ks, space, checkpoints = case
    assert (audit_density(seq, targets, ks, space, checkpoints)
            == density_reference(seq, targets, ks, space, checkpoints))


def test_density_plateau_keeps_first_index():
    # along the run of 0 the level-2 iterate peaks at 1/10 on the two equal
    # neighbours 9 and 10 (x_1, x_2 solve for f(9) = B/10), so the nearest
    # index to 1/10 and to 1/5 is 9, not 10
    sp = Space(1)
    seq = RunSeq([((F(-2341, 2520),), 1), ((F(4861, 2520),), 1), ((F(0),), 60)])
    assert iterate_at(2, seq, 9) == iterate_at(2, seq, 10) == (F(1, 10),)
    targets = [(F(1, 10),), (F(1, 5),)]
    rows = audit_density(seq, targets, [2], sp, checkpoints=[62])
    assert rows == density_reference(seq, targets, [2], sp, checkpoints=[62])
    assert [(frac(r["min_metric"]) == 0, r["at_index"]) for r in rows] == [(True, 9), (False, 9)]
