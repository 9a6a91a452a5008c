import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro import CoverageError
from cesaro.space import (
    FinitePointSet,
    GroundSet,
    IndexSet,
    Space,
    cube_corners,
    delta,
    hull_contains,
    n_epsilon,
    padd,
    point,
    pscale,
    psub,
    pzero,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=32)


def rand_point(rng, d, lo=-6, hi=6, den=32):
    return tuple(Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(d))


# --- seminorms and the metric ------------------------------------------------

def test_seminorm_examples():
    sp = Space(2)
    assert sp.seminorm(1, point(-3, 5)) == 3
    assert sp.seminorm(2, point(-3, 5)) == 5
    assert sp.seminorm(1, pzero(2)) == 0
    x = point("2/3", "-1/5")
    assert sp.seminorm(1, pscale(2, x)) == 2 * sp.seminorm(1, x)
    with pytest.raises(ValueError):
        sp.seminorm(3, x)


def test_seminorm_subadditive_random():
    sp = Space(3, ("1", "1/2", "3"))
    rng = random.Random(2)
    for _ in range(60):
        x, y = rand_point(rng, 3), rand_point(rng, 3)
        for rho in (1, 2, 3):
            assert sp.seminorm(rho, padd(x, y)) <= sp.seminorm(rho, x) + sp.seminorm(rho, y)


def test_metric_examples():
    sp = Space(1)
    assert sp.metric(point(0), point(1)) == Fraction(1, 4)
    assert sp.metric(point("7/3"), point("7/3")) == 0
    rng = random.Random(4)
    for _ in range(50):
        x, y = rand_point(rng, 1), rand_point(rng, 1)
        assert sp.metric(x, y) < 1
        assert sp.metric(x, y) == sp.metric(y, x)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_metric_triangle_hypothesis(a, b, c, d, e, f):
    sp = Space(2, ("1", "2"))
    x, y, z = (a, b), (c, d), (e, f)
    assert sp.metric(x, z) <= sp.metric(x, y) + sp.metric(y, z)


def test_n_epsilon_values():
    assert n_epsilon("1/2") == 3
    assert n_epsilon("1/4") == 4
    assert n_epsilon(2) == 1
    # 2^-(3-1) = 1/4 < 1/3 already, so three seminorms suffice
    assert n_epsilon("1/3") == 3
    assert n_epsilon(1) == 2
    with pytest.raises(ValueError):
        n_epsilon(0)


def test_delta_values():
    assert delta("1/4") == Fraction(1, 128)
    assert delta("1/3") == Fraction(1, 48)
    eps_grid = [Fraction(1, k) for k in range(3, 40)]
    for e1, e2 in zip(eps_grid[1:], eps_grid):
        assert delta(e1) <= delta(e2)
    for bad in (0, "1/2", 1):
        with pytest.raises(ValueError):
            delta(bad)


def test_delta_defining_property():
    rng = random.Random(8)
    sp = Space(3, ("1", "2", "1/3"))
    for _ in range(80):
        eps = Fraction(rng.randint(1, 24), 50)
        if not 0 < eps < Fraction(1, 2):
            continue
        x = rand_point(rng, 3)
        while sp.metric(x, pzero(3)) >= delta(eps):
            x = pscale(Fraction(1, 2), x)
        for rho in sp.important_rhos(eps):
            assert sp.seminorm(rho, x) < eps


def test_important_box_implies_metric_bound():
    # seminorm control on the important indices bounds the metric by 2 eps
    rng = random.Random(13)
    sp = Space(4)
    for _ in range(60):
        eps = Fraction(rng.randint(1, 30), 40)
        x, y = rand_point(rng, 4), rand_point(rng, 4)
        if all(
            sp.seminorm(rho, psub(x, y)) <= eps for rho in sp.important_rhos(eps)
        ):
            assert sp.metric(x, y) < 2 * eps


# --- hulls -------------------------------------------------------------------

def test_hull_midpoint():
    sp = Space(1)
    M = FinitePointSet((point(0), point(1)))
    w = hull_contains(M, point("1/2"), 0, sp)
    assert w is not None
    assert w.coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert w.residual == (0,)


def test_hull_outside():
    sp = Space(1)
    M = FinitePointSet((point(0), point(1)))
    assert hull_contains(M, point(2), 0, sp) is None


def test_hull_box_fast_path():
    sp = Space(2)
    M = cube_corners(GroundSet.lattice(2), 3, sp)
    w = hull_contains(M, point(2, -2), 0, sp)
    assert w is not None
    assert sum(w.coefficients) == 1
    recon = pzero(2)
    for g, p in zip(w.coefficients, M.points):
        recon = padd(recon, pscale(g, p))
    assert recon == point(2, -2)


def test_hull_witness_reconstruction_random():
    rng = random.Random(21)
    sp = Space(2, ("1", "1/2"))
    pts = tuple(rand_point(rng, 2, -4, 4, 8) for _ in range(6))
    M = FinitePointSet(tuple(dict.fromkeys(pts)))
    for _ in range(40):
        x = rand_point(rng, 2, -5, 5, 8)
        slack = Fraction(rng.randint(0, 3), 40)
        w = hull_contains(M, x, slack, sp)
        if w is None:
            continue
        recon = w.combination()
        assert padd(recon, w.residual) == x
        assert sum(w.coefficients) == 1
        assert all(g >= 0 for g in w.coefficients)
        assert sp.metric(w.residual, pzero(2)) <= slack


def test_hull_slack_admits_near_misses():
    sp = Space(1)
    M = FinitePointSet((point(0), point(1)))
    # just outside the hull: reachable once the slack ball is wide enough
    x = point("21/20")
    assert hull_contains(M, x, 0, sp) is None
    assert hull_contains(M, x, "1/4", sp) is not None


def test_hull_simplex_triangle():
    sp = Space(2)
    M = FinitePointSet((point(0, 0), point(4, 0), point(0, 4)))
    assert hull_contains(M, point(1, 1), 0, sp) is not None
    assert hull_contains(M, point(3, 3), 0, sp) is None
    w = hull_contains(M, point(2, 2), 0, sp)  # on the edge
    assert w is not None and w.residual == pzero(2)


def test_cube_corners():
    sp = Space(1)
    ground = GroundSet.lattice(1)
    corners = cube_corners(ground, "5/2", sp)
    assert set(corners.points) == {(Fraction(-3),), (Fraction(3),)}
    sp2 = Space(2)
    corners2 = cube_corners(GroundSet.lattice(2), 1, sp2)
    assert len(corners2) == 4
    assert corners2.corner_radius == 1
    rng = random.Random(6)
    big = cube_corners(GroundSet.lattice(2, "4"), "7/3", sp2)
    for _ in range(30):
        x = tuple(Fraction(rng.randint(-28, 28), 12) for _ in range(2))
        if all(abs(c) <= Fraction(7, 3) for c in x):
            assert hull_contains(big, x, 0, sp2) is not None
    with pytest.raises(CoverageError):
        cube_corners(GroundSet.explicit([point(0)]), 1, sp)


def test_ground_set_lattice():
    g = GroundSet.lattice(1, "2")  # half-integer lattice
    assert g.contains(point("3/2"))
    assert not g.contains(point("1/3"))
    assert g.ceil_value("5/4") == Fraction(3, 2)
    assert g.nearest_to_zero(Space(1)) == (0,)


def test_ground_set_explicit():
    g = GroundSet.explicit([point(2), point(-1), point(1)])
    assert g.contains(point(-1))
    assert not g.contains(point(0))
    # -1 and 1 tie in metric; ties resolve toward negative coordinates
    assert g.nearest_to_zero(Space(1)) == (Fraction(-1),)


def test_index_sets():
    everything = IndexSet("all")
    assert everything.contains(1) and everything.contains(10**9)
    assert everything.next_after(41) == 42
    sevens = IndexSet("progression", 7, 7)
    assert sevens.contains(49) and not sevens.contains(50)
    assert sevens.next_after(1) == 7
    assert sevens.next_after(7) == 14
    assert sevens.next_after(100) == 105
    assert sevens.next_after(0) == 7
