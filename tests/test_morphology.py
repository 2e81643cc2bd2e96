import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oplus_rhs_reference, oplus_rhs_table_reference
from latspace import morphology as mo
from latspace import selfcheck
from latspace.errors import DimMismatch, EmptyStructuringElement, InvalidElement, TooLarge


def pset(dim, pts):
    return mo.PointSet(dim, frozenset(tuple(p) if isinstance(p, tuple) else (p,) for p in pts))


def vectors(dim, span=4):
    return st.tuples(*[st.integers(-span, span)] * dim)


def point_sets(dim, max_size=5, span=4):
    return st.frozensets(vectors(dim, span), max_size=max_size).map(
        lambda pts: mo.PointSet(dim, pts)
    )


# -- carrier type ------------------------------------------------------------------


def test_pointset_normalizes_and_validates():
    ps = mo.PointSet(2, frozenset({(1, 2), (1, 2)}))
    assert len(ps) == 1
    with pytest.raises(DimMismatch):
        mo.PointSet(2, frozenset({(1, 2, 3)}))
    with pytest.raises(DimMismatch):
        mo.PointSet(0, frozenset())


@pytest.mark.parametrize("coord", [2.7, "3", None])
def test_pointset_refuses_non_integer_coordinates(coord):
    # refused, not truncated to (2,) or parsed to (3,)
    with pytest.raises(InvalidElement):
        mo.PointSet(1, frozenset({(coord,)}))


def test_pointset_keeps_integer_like_coordinates_as_ints():
    ps = mo.PointSet(2, frozenset({(True, np.int64(-3)), (np.int32(2), 0)}))
    assert ps.points == {(1, -3), (2, 0)}
    assert all(type(c) is int for p in ps.points for c in p)


def test_dim_mismatch_between_operands():
    with pytest.raises(DimMismatch):
        mo.minkowski_sum(pset(1, [0]), pset(2, [(0, 0)]))


# -- Minkowski sum -----------------------------------------------------------------


def test_sum_examples_dim1():
    x = pset(1, [0, 1])
    assert mo.minkowski_sum(x, pset(1, [1])) == pset(1, [1, 2])
    assert mo.minkowski_sum(x, pset(1, [2])) == pset(1, [2, 3])


def test_zero_and_identity():
    x = pset(2, [(0, 0), (2, 1)])
    assert mo.minkowski_sum(x, mo.PointSet(2, frozenset())) == mo.PointSet(2, frozenset())
    assert mo.minkowski_sum(x, mo.origin(2)) == x


@settings(max_examples=60, deadline=None)
@given(a=point_sets(2), b=point_sets(2), c=point_sets(2))
def test_monoid_laws(a, b, c):
    selfcheck.minkowski_laws([(a, b, c)])


@settings(max_examples=40, deadline=None)
@given(a=point_sets(1), b=point_sets(1), c=point_sets(1))
def test_monoid_laws_dim1(a, b, c):
    selfcheck.minkowski_laws([(a, b, c)])


# -- dilation and erosion ------------------------------------------------------------


def test_dilate_by_vertical_pair():
    brush = pset(2, [(0, 0), (0, -1)])
    assert mo.dilate(brush, pset(2, [(0, 0)])) == brush
    assert mo.dilate(mo.PointSet(2, frozenset()), pset(2, [(0, 0)])) == mo.PointSet(
        2, frozenset()
    )


@settings(max_examples=40, deadline=None)
@given(s=point_sets(2, max_size=3), x=point_sets(2), y=point_sets(2))
def test_dilation_preserves_unions(s, x, y):
    assert mo.dilate(s, mo.union(x, y)) == mo.union(mo.dilate(s, x), mo.dilate(s, y))


def test_erode_identity_brush():
    x = pset(2, [(0, 0), (5, 5)])
    assert mo.erode(mo.origin(2), x) == x


def test_erode_hand_example_dim1():
    # both defining formulas give {0, 1}, checked by hand
    assert mo.erode(pset(1, [0, 1]), pset(1, [0, 1, 2])) == pset(1, [0, 1])


def erode_by_translates(se, x):
    """Reference erosion: the intersection of the translates x - v, v in se."""
    acc = None
    for v in se.points:
        shifted = frozenset(tuple(a - b for a, b in zip(p, v)) for p in x.points)
        acc = shifted if acc is None else acc & shifted
    return mo.PointSet(x.dim, acc)


def test_erode_matches_intersection_of_translates():
    rng = random.Random(5)
    for dim in (1, 2, 3):
        for trial in range(200):
            s = selfcheck.random_pointset(rng, dim, (1, 4), span=2)
            x = selfcheck.random_pointset(rng, dim, (0, 12))
            assert mo.erode(s, x) == erode_by_translates(s, x), f"dim {dim} trial {trial}"


def test_erode_rejects_empty_brush():
    with pytest.raises(EmptyStructuringElement):
        mo.erode(mo.PointSet(1, frozenset()), pset(1, [0]))


@settings(max_examples=60, deadline=None)
@given(s=point_sets(1, max_size=3), x=point_sets(1), y=point_sets(1))
def test_adjunction_dim1(s, x, y):
    selfcheck.dilation_adjunction([(s if s.points else mo.origin(1), x, y)])


@settings(max_examples=60, deadline=None)
@given(s=point_sets(2, max_size=3), x=point_sets(2), y=point_sets(2))
def test_adjunction_dim2(s, x, y):
    selfcheck.dilation_adjunction([(s if s.points else mo.origin(2), x, y)])


@settings(max_examples=40, deadline=None)
@given(s=point_sets(2, max_size=3), x=point_sets(2))
def test_galois_unit(s, x):
    selfcheck.dilation_adjunction([(s if s.points else mo.origin(2), x, x)])


def test_seeded_adjunction_suite():
    rng = random.Random(214)
    selfcheck.dilation_adjunction([
        (selfcheck.random_pointset(rng, dim, (1, 3)), selfcheck.random_pointset(rng, dim),
         selfcheck.random_pointset(rng, dim))
        for dim in (1, 2)
        for _ in range(200)
    ])


# -- pooled dilation and the intersection law ------------------------------------------


def test_disjoint_brushes_pool_to_nothing():
    a, b = pset(1, [1]), pset(1, [2])
    for x in (pset(1, [0, 1]), pset(1, []), pset(1, [5])):
        assert mo.distributed_dilation(a, b, x) == mo.PointSet(1, frozenset())


def test_unit_interval_instance_dim1():
    x, a, b = pset(1, [0, 1]), pset(1, [1]), pset(1, [2])
    assert mo.distributed_dilation(a, b, x).points == frozenset()
    assert mo.oplus_law_rhs(x, a, b).points == frozenset()


def test_oplus_rhs_empty_image():
    a, b = pset(1, [1]), pset(1, [2])
    empty = mo.PointSet(1, frozenset())
    assert mo.oplus_law_rhs(empty, a, b) == empty


def test_oplus_rhs_equal_brushes():
    rng = random.Random(7)
    for _ in range(20):
        x = selfcheck.random_pointset(rng, 1)
        a = selfcheck.random_pointset(rng, 1, (0, 4))
        assert mo.oplus_law_rhs(x, a, a) == mo.minkowski_sum(x, a)


def test_oplus_rhs_cap():
    x = pset(1, list(range(25)))
    with pytest.raises(TooLarge):
        mo.oplus_law_rhs(x, pset(1, [0]), pset(1, [1]))


def test_oplus_rhs_refuses_one_point_over_the_cap_before_any_work(monkeypatch):
    x = pset(1, list(range(mo.MAX_OPLUS_POINTS + 1)))
    a, b = pset(1, [0, 1]), pset(1, [1, 2])
    with pytest.raises(DimMismatch):
        mo.oplus_law_rhs(x, a, pset(2, [(0, 0)]))

    def no_translates(u, v):
        raise AssertionError("translated a point before the cap check")

    monkeypatch.setattr(mo, "_add", no_translates)
    with pytest.raises(TooLarge):
        mo.oplus_law_rhs(x, a, b)


def test_oplus_rhs_at_the_cap():
    x = pset(1, [3 * i for i in range(mo.MAX_OPLUS_POINTS)])
    a, b = pset(1, [0, 1, 2, 4]), pset(1, [1, 2, 3, 4])
    assert mo.oplus_law_rhs(x, a, b) == mo.distributed_dilation(a, b, x)


@pytest.mark.parametrize("x, a, b", [
    ([], [0, 1], [1, 2]),
    ([0, 2, 5], [], [1, 2]),
    ([0, 2, 5], [0, 1], []),
    ([], [], []),
    ([0, 1, 4], [0, 1], [2, 3]),
    ([2], [0], [1]),
    ([-3, 0, 1, 4], [0, 2, 3], [0, 2, 3]),
    ([-3, 0, 1, 4], [-1, 0, 2], [0, 2, 5]),
])
def test_oplus_rhs_edge_cases_match_reference(x, a, b):
    x, a, b = pset(1, x), pset(1, a), pset(1, b)
    assert mo.oplus_law_rhs(x, a, b) == oplus_rhs_reference(x, a, b)


def test_oplus_rhs_seeded_suite_matches_reference():
    rng = random.Random(216)
    for dim in (1, 2, 3):
        for trial in range(150):
            x = selfcheck.random_pointset(rng, dim, (0, 9))
            a = selfcheck.random_pointset(rng, dim, (0, 4))
            b = selfcheck.random_pointset(rng, dim, (0, 4))
            assert mo.oplus_law_rhs(x, a, b) == oplus_rhs_reference(x, a, b), f"dim {dim} trial {trial}"


@pytest.mark.parametrize("k", range(0, 16))
def test_oplus_rhs_halves_match_the_whole_set_tables(k):
    rng = random.Random(600 + k)
    for dim in (1, 2):
        for _ in range(4):
            span = max(3, k)
            x = mo.PointSet(dim, frozenset(
                tuple(rng.randint(-span, span) for _ in range(dim)) for _ in range(4 * k)))
            x = mo.PointSet(dim, frozenset(rng.sample(x.sorted_points(), min(k, len(x)))))
            a = selfcheck.random_pointset(rng, dim, (0, 5))
            b = selfcheck.random_pointset(rng, dim, (0, 5))
            assert mo.oplus_law_rhs(x, a, b) == oplus_rhs_table_reference(x, a, b), (k, dim)


def test_oplus_rhs_halves_match_at_odd_size_near_the_cap():
    rng = random.Random(19)
    x = pset(2, [(10 * i, rng.randint(0, 3)) for i in range(mo.MAX_OPLUS_POINTS - 1)])
    a = selfcheck.random_pointset(rng, 2, (3, 6), span=2)
    b = selfcheck.random_pointset(rng, 2, (3, 6), span=2)
    assert mo.oplus_law_rhs(x, a, b) == oplus_rhs_table_reference(x, a, b)


@st.composite
def oplus_triples(draw):
    # a window of side 5 keeps translates overlapping in three dimensions too
    dim = draw(st.integers(1, 3))
    x = draw(point_sets(dim, max_size=9, span=2))
    a = draw(point_sets(dim, max_size=4, span=2))
    b = draw(st.one_of(st.just(a), point_sets(dim, max_size=4, span=2)))
    return x, a, b


@settings(max_examples=80, deadline=None)
@given(triple=oplus_triples())
def test_oplus_rhs_matches_reference(triple):
    x, a, b = triple
    assert mo.oplus_law_rhs(x, a, b) == oplus_rhs_reference(x, a, b)


def test_intersection_law_seeded_suite():
    rng = random.Random(215)
    selfcheck.intersection_law([
        (selfcheck.random_pointset(rng, 2, (0, 6)), selfcheck.random_pointset(rng, 2),
         selfcheck.random_pointset(rng, 2))
        for _ in range(100)
    ])


@settings(max_examples=50, deadline=None)
@given(x=point_sets(2, max_size=5), a=point_sets(2, max_size=4), b=point_sets(2, max_size=4))
def test_intersection_law_hypothesis(x, a, b):
    selfcheck.intersection_law([(x, a, b)])


# -- scaling ---------------------------------------------------------------------------


def test_scale_identity_and_zero():
    x = pset(1, [0, 1, -2])
    assert mo.scale(1, x) == x == mo.dilate(mo.origin(1), x)
    assert mo.scale(0, x) == pset(1, [0])
    assert mo.scale(0, mo.PointSet(1, frozenset())) == mo.PointSet(1, frozenset())


def test_doubling_is_not_a_dilation():
    # two-point refutation: a brush matching doubling on {0} must be {0},
    # but then it fails on {1}
    zero, one = pset(1, [0]), pset(1, [1])
    assert mo.scale(2, zero) == zero
    candidates = [s for s in [zero] if mo.dilate(s, zero) == mo.scale(2, zero)]
    assert candidates == [zero]
    assert mo.dilate(zero, one) == one
    assert mo.scale(2, one) == pset(1, [2])
    assert mo.dilate(zero, one) != mo.scale(2, one)


@settings(max_examples=40, deadline=None)
@given(x=point_sets(2), y=point_sets(2), r=st.integers(-3, 3))
def test_scale_preserves_unions(x, y, r):
    assert mo.scale(r, mo.union(x, y)) == mo.union(mo.scale(r, x), mo.scale(r, y))
