import random
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro import (
    BudgetExceededError,
    KernelCache,
    apply_iterate,
    apply_iterate_oracle,
    convexity_expansion,
    phi,
    recurrence_check,
)
from cesaro.exact import iterate_entry_bound, log_upper


def dense_power(k, n):
    """Independent oracle: the n x n averaging matrix raised by literal products."""
    base = [[Fraction(1, i + 1) if j <= i else Fraction(0) for j in range(n)]
            for i in range(n)]
    out = base
    for _ in range(k - 1):
        out = [[sum(out[i][t] * base[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
    return out


def test_entries_match_matrix_power_oracle(cache):
    for k in range(1, 5):
        mat = dense_power(k, 12)
        for n in range(1, 13):
            row = cache.row(k, n)
            assert list(row) == mat[n - 1][:n]


def test_entry_examples(cache):
    assert cache.entry(1, 5, 3) == Fraction(1, 5)
    assert cache.entry(1, 3, 4) == 0
    assert cache.entry(2, 3, 1) == Fraction(11, 18)
    assert cache.entry(2, 3, 2) == Fraction(5, 18)
    assert cache.entry(2, 3, 3) == Fraction(2, 18)
    assert sum(cache.row(2, 3)) == 1


def test_row_examples(cache):
    assert cache.row(1, 4) == (Fraction(1, 4),) * 4
    assert cache.row(2, 3) == (Fraction(11, 18), Fraction(5, 18), Fraction(1, 9))
    assert cache.row(3, 1) == (Fraction(1),)


def test_row_invariants_sweep(cache):
    for k in range(1, 6):
        for n in range(1, 61):
            row = cache.row(k, n)
            assert len(row) == n
            assert sum(row) == 1
            assert all(e >= 0 for e in row)
            assert all(row[m] >= row[m + 1] for m in range(n - 1))
            for m in range(n // 2 + 1, n + 1):
                assert row[m - 1] <= Fraction(2, n)


def test_log_upper_certified():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    for n in (1, 2, 3, 7, 50, 119, 120, 397):
        upper = log_upper(n)
        true = mp.log(n)
        assert mp.mpf(upper.numerator) / upper.denominator >= true
        assert mp.mpf(upper.numerator) / upper.denominator - true < mp.mpf("1e-12")


def test_entry_bound_holds(cache):
    for k in range(1, 5):
        for n in range(1, 61):
            bound = iterate_entry_bound(k, n, log_upper(n))
            assert cache.row(k, n)[0] <= bound


def test_apply_iterate_examples(cache):
    const = [(Fraction(3, 7),)] * 6
    for n in (1, 4, 6):
        assert apply_iterate(3, const, n, cache) == (Fraction(3, 7),)
    alternating = [(Fraction(-1) ** i,) for i in range(1, 5)]
    assert apply_iterate(1, alternating, 4, cache) == (Fraction(0),)
    spike = [(Fraction(1),), (Fraction(0),), (Fraction(0),)]
    assert apply_iterate(2, spike, 3, cache) == (cache.entry(2, 3, 1),)


def test_oracle_examples():
    assert apply_iterate_oracle(1, [(Fraction(2),), (Fraction(4),)], 2) == (Fraction(3),)
    spike = [(Fraction(1),), (Fraction(0),), (Fraction(0),)]
    assert apply_iterate_oracle(2, spike, 3) == (Fraction(11, 18),)


def test_kernel_equals_oracle_random(cache):
    rng = random.Random(11)
    for _ in range(120):
        k = rng.randint(1, 4)
        n = rng.randint(1, 50)
        d = rng.randint(1, 3)
        prefix = [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 64)) for _ in range(d))
            for _ in range(n)
        ]
        assert apply_iterate(k, prefix, n, cache) == apply_iterate_oracle(k, prefix, n)


def test_phi_example(cache):
    assert phi(2, [2], 1, cache) == Fraction(1, 2)


def test_phi_bounds_random(cache):
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 3)
        v = rng.randint(max(4, k), 20)
        lambdas = [rng.randint(1, max(1, v // (k + 1))) for _ in range(k)]
        for i in range(1, k + 1):
            value = phi(v, lambdas, i, cache)
            end = v + sum(lambdas[:i])
            lam = lambdas[i - 1]
            level = k + 1 - i
            assert 0 < value < 1
            assert value <= 2 * Fraction(lam, end)
            assert value >= Fraction(lam, end) ** level / factorial(level)


def test_recurrence_check(cache):
    rng = random.Random(3)
    prefix = [(Fraction(rng.randint(-9, 9), rng.randint(1, 16)),) for _ in range(10)]
    assert recurrence_check(2, prefix, 4, 3, cache)
    assert recurrence_check(1, prefix, 5, 4, cache)
    const = [(Fraction(5, 3),)] * 8
    result = recurrence_check(3, const, 4, 2, cache)
    assert result
    assert apply_iterate(3, const, 6, cache) == (Fraction(5, 3),)


def test_convexity_expansion(cache):
    rng = random.Random(9)
    for k in (1, 2, 3):
        for a in (1, 2, 4):
            weights = convexity_expansion(k, 5, a)
            assert sum(weights.values()) == 1
            assert all(w >= 0 for w in weights.values())
            keys = set(weights)
            expected = {("T", j, 5) for j in range(1, k + 1)}
            expected |= {("theta", 5 + i) for i in range(1, a + 1)}
            assert keys <= expected
            prefix = [(Fraction(rng.randint(-5, 5), rng.randint(1, 8)),)
                      for _ in range(5 + a)]
            acc = Fraction(0)
            for basis, w in weights.items():
                if basis[0] == "T":
                    acc += w * apply_iterate(basis[1], prefix, 5, cache)[0]
                else:
                    acc += w * prefix[basis[1] - 1][0]
            assert (acc,) == apply_iterate(k, prefix, 5 + a, cache)


def test_budget_errors():
    small = KernelCache(k_max=2, n_max=10)
    with pytest.raises(BudgetExceededError):
        small.row(3, 5)
    with pytest.raises(BudgetExceededError):
        small.entry(1, 11, 1)
    # above-diagonal entries never touch the cache
    assert small.entry(2, 3, 7) == 0


def assert_segment_matches_reference(k, n, m_from, tail):
    """Check a row_tail segment against paths that share no code with the sweep.

    Literal matrix powers for n <= 12; beyond that, repeated averaging of unit
    impulses at the segment's first, middle and last columns.
    """
    assert len(tail) == n - m_from + 1
    if n <= 12:
        assert tail == dense_power(k, n)[n - 1][m_from - 1:]
        return
    for m in sorted({m_from, (m_from + n) // 2, n}):
        impulse = [(Fraction(0),)] * n
        impulse[m - 1] = (Fraction(1),)
        assert apply_iterate_oracle(k, impulse, n) == (tail[m - m_from],)


def test_row_tail_matches_rows(cache):
    for k in range(1, 7):
        for n in (1, 5, 12, 17, 40, 150, 400):
            for m_from in (1, n // 2 + 1, n):
                tail = cache.row_tail(k, n, m_from)
                assert_segment_matches_reference(k, n, m_from, tail)
                assert tail == list(cache.row(k, n)[m_from - 1:])


def test_row_tail_rejects_bad_indices(cache):
    for k, n, m_from in ((0, 3, 1), (-2, 3, 2), (2, 3, 0), (2, 3, 4)):
        with pytest.raises(ValueError):
            cache.row_tail(k, n, m_from)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 250), st.data())
def test_row_tail_matches_rows_hypothesis(cache, k, n, data):
    m_from = data.draw(st.integers(1, n))
    tail = cache.row_tail(k, n, m_from)
    assert_segment_matches_reference(k, n, m_from, tail)
    assert tail == list(cache.row(k, n)[m_from - 1:])


def test_row_tail_wide_segment():
    # far beyond the cache budget: checked against literal repeated averaging
    n = 2000
    tail = KernelCache().row_tail(3, n, 1)
    assert len(tail) == n
    assert sum(tail) == 1
    for m in (1, 777, n):
        impulse = [(Fraction(0),)] * n
        impulse[m - 1] = (Fraction(1),)
        assert apply_iterate_oracle(3, impulse, n) == (tail[m - 1],)
    # segments of levels 2-5 that start past column 1: the level-2 harmonic
    # tail, and the rescaling of the integer sweep whenever m brings a new
    # factor into lcm(m..n)
    for k, n, m_from in ((2, 1499, 700), (3, 1500, 1201), (4, 1501, 751), (5, 1440, 1000)):
        assert_segment_matches_reference(k, n, m_from, KernelCache().row_tail(k, n, m_from))


def test_phi_independent_of_cache_budget(cache):
    tiny = KernelCache(k_max=1, n_max=1)
    for v, lambdas in ((2, [2]), (30, [4, 3, 2]), (300, [40, 25]), (500, [60, 9, 4])):
        for i in range(1, len(lambdas) + 1):
            assert phi(v, lambdas, i, tiny) == phi(v, lambdas, i, cache)


def test_cache_concurrent_readers():
    shared = KernelCache(k_max=4, n_max=80)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                k = rng.randint(1, 4)
                n = rng.randint(1, 80)
                row = shared.row(k, n)
                if sum(row) != 1:
                    errors.append((k, n))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_cached_rows_full_budget_window(cache):
    # the retention window the cache is sized for: every stored row stays a
    # probability vector
    for k in (1, 3, 5):
        for n in (150, 222, 300):
            row = cache.row(k, n)
            assert sum(row) == 1
            assert all(row[m] >= row[m + 1] for m in range(n - 1))


def test_env_budget(monkeypatch):
    monkeypatch.setenv("CESARO_CACHE_BUDGET", "3,77")
    cache = KernelCache.from_env()
    assert cache.k_max == 3 and cache.n_max == 77
    monkeypatch.setenv("CESARO_CACHE_BUDGET", "bogus")
    with pytest.raises(ValueError):
        KernelCache.from_env()
