"""Randomized tower properties over arbitrary small curve germs."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mtower.curves import CurveGerm
from mtower.errors import MTError
from mtower.series import TruncSeries
from mtower.tower import (classify_direction, point_above, point_letters,
                          project_point, prolong_curve, realize_point)

F = Fraction

small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
nonzero = st.builds(F, st.integers(1, 4), st.integers(1, 3))


@st.composite
def germ_curves(draw):
    """Nonconstant curve germs with small exponents and rational terms."""
    trunc = 48
    comps = []
    lead = draw(st.integers(1, 4))
    for i in range(3):
        if i > 0 and draw(st.booleans()):
            comps.append(TruncSeries.zero(trunc))
            continue
        base = lead if i == 0 else draw(st.integers(lead, 7))
        table = {base: draw(nonzero)}
        for _ in range(draw(st.integers(0, 2))):
            table[draw(st.integers(base + 1, 12))] = draw(small)
        comps.append(TruncSeries(table, trunc))
    return CurveGerm(*comps)


@st.composite
def directions(draw):
    """Nonzero chart-frame directions whose first zero, one or two
    coordinates vanish, so every chart denominator is drawn."""
    lead = draw(st.integers(0, 2))
    pivot = draw(nonzero) * draw(st.sampled_from((1, -1)))
    return (F(0),) * lead + (pivot,) + tuple(draw(small) for _ in range(2 - lead))


@given(germ_curves(), st.integers(1, 3), directions())
@settings(max_examples=60, deadline=None)
def test_point_above_centers_on_its_direction(c, k, delta):
    try:
        p = prolong_curve(c, k).point
    except MTError:
        return
    q = point_above(p, delta)
    step = q.step_direction(q.level)
    d = next(i for i, x in enumerate(delta) if x != 0)
    scale = step[d] / delta[d]
    assert scale != 0 and step == tuple(scale * x for x in delta)
    assert point_letters(q)[-1] == classify_direction(p, delta)


@given(germ_curves(), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_projection_matches_shallower_prolongation(c, k):
    try:
        deep = prolong_curve(c, k)
    except MTError:
        return
    assert project_point(deep.point, 0).coords == (0, 0, 0)
    for i in range(1, k):
        assert project_point(deep.point, i) == prolong_curve(c, i).point


@given(germ_curves(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_point_letters_match_prolongation_letters(c, k):
    try:
        pc = prolong_curve(c, k)
    except MTError:
        return
    assert point_letters(pc.point) == pc.letters
    assert pc.letters[0] == "R"
    sizes = {"R": 1, "V": 2, "T": 2, "T1": 2, "T2": 2,
             "L": 3, "L1": 3, "L2": 3, "L3": 3}
    assert len(pc.point.arrangement) == sizes[pc.letters[-1]]


@given(germ_curves(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_realize_round_trip_on_random_points(c, k):
    try:
        p = prolong_curve(c, k).point
    except MTError:
        return
    gamma = realize_point(p)
    again = prolong_curve(gamma, k).point
    assert again == p and again.arrangement == p.arrangement


@given(germ_curves())
@settings(max_examples=30, deadline=None)
def test_prolongation_is_deterministic(c):
    try:
        a = prolong_curve(c, 2)
        b = prolong_curve(c, 2)
    except MTError:
        return
    assert a.chart == b.chart and a.point == b.point
    assert all(x == y for x, y in zip(a.series, b.series))
