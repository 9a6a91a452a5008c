import json
from fractions import Fraction

from cesaro import (
    AuditReport,
    audit_abel,
    audit_density,
    audit_kernel,
    audit_oracle,
    audit_unit_interval,
    dense_example,
    take_prefix,
)
from cesaro.exact import frac
from cesaro.space import Space, point

F = Fraction


def test_audit_kernel_small(cache):
    report = audit_kernel(3, 40, cache)
    assert report.failed == 0
    assert report.counterexamples == []
    assert report.checked == report.passed


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
