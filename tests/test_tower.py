"""Prolongation, charts, critical hyperplanes and RVT coding."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from mtower import tower
from mtower.curves import CurveGerm, monomial_curve
from mtower.errors import DomainError, InsufficientTruncation
from mtower.series import TruncSeries
from mtower.tower import (LETTERS, CriticalHyperplane, _pick_regular_tangent,
                          classify_direction, make_point, parse_word, point_above,
                          point_letters, project_point, prolong_curve,
                          prolong_hyperplane, realize_point, rvt_code,
                          vertical_plane, word_str)

F = Fraction


def curve(xs, ys, zs, trunc=40):
    return CurveGerm(TruncSeries(xs, trunc), TruncSeries(ys, trunc),
                     TruncSeries(zs, trunc))


CUSP = monomial_curve(2, 3, None)
LINE = monomial_curve(1, None, None)


# -- prolongation of curves ---------------------------------------------------

def test_cusp_prolongation_fiber_series():
    pc = prolong_curve(CUSP, 1)
    u, v = pc.fiber_series(1)
    assert u.terms() == [(1, F(3, 2))]
    assert v.is_zero()
    assert pc.point.coords == (0, 0, 0, 0, 0)


def test_line_prolongs_to_zero_fibers():
    pc = prolong_curve(LINE, 2)
    assert all(c == 0 for c in pc.point.coords)
    for j in (1, 2):
        u, v = pc.fiber_series(j)
        assert u.is_zero() and v.is_zero()


def test_space_curve_level_one_ratios():
    # direct quotient of derivative series: u = (5t^4)/(3t^2), v = (7t^6)/(3t^2)
    pc = prolong_curve(monomial_curve(3, 5, 7), 1)
    u, v = pc.fiber_series(1)
    assert u.terms() == [(2, F(5, 3))]
    assert v.terms() == [(4, F(7, 3))]


def test_constant_curve_rejected():
    with pytest.raises(InsufficientTruncation):
        prolong_curve(monomial_curve(None, None, None), 1)


def test_truncation_exhaustion_is_reported():
    shallow = curve({2: 1}, {3: 1}, {}, trunc=3)
    with pytest.raises(InsufficientTruncation):
        prolong_curve(shallow, 4)


def test_chart_determinism():
    a = prolong_curve(monomial_curve(3, 5, 7), 3)
    b = prolong_curve(monomial_curve(3, 5, 7), 3)
    assert a.chart == b.chart == (0, 1, 1)
    assert a.point == b.point


# -- RVT codes ----------------------------------------------------------------

@pytest.mark.parametrize("exponents,level,expected", [
    ((2, 3, None), 3, "RVR"),
    ((4, 6, 7), 3, "RVL"),
    ((1, None, None), 4, "RRRR"),
    ((3, 4, 5), 3, "RVT"),
    ((3, 5, 7), 3, "RVV"),
    ((3, 5, None), 3, "RVV"),
    ((3, 4, None), 3, "RVT"),
    ((2, 5, None), 3, "RRV"),
    ((2, 3, None), 2, "RV"),
])
def test_rvt_codes_of_catalog_curves(exponents, level, expected):
    assert word_str(rvt_code(monomial_curve(*exponents), level)) == expected


def test_first_letter_is_always_r():
    for exponents, level in [((1, 2, 3), 2), ((2, 3, None), 2),
                             ((3, 5, 7), 3), ((4, 6, 7), 3)]:
        word = rvt_code(monomial_curve(*exponents), level)
        assert word[0] == "R"


def test_rvt_code_refuses_curves_outside_the_germ_set():
    # (t^3,t^5,t^7) continues with a V letter at level 3, so its level-2
    # direction is critical and the level-2 code is not defined for it.
    with pytest.raises(DomainError):
        rvt_code(monomial_curve(3, 5, 7), 2)


def test_rvt_code_requires_immersion_at_the_top_level():
    # (t^2,t^6,0) prolongs through a regular limit direction at level 1 but its
    # prolonged velocity vanishes at t=0 (it factors through t^2), so it
    # realizes no level-1 point.
    with pytest.raises(DomainError):
        rvt_code(monomial_curve(2, 6, None), 1)


def test_rvt_code_of_the_planar_chain_curve():
    # (t^5,t^8,0) is critical at level 3 (it is vertical there) but at
    # level 4 it realizes its point inside the vertical chain class.
    with pytest.raises(DomainError):
        rvt_code(monomial_curve(5, 8, None), 3)
    assert word_str(rvt_code(monomial_curve(5, 8, None), 4)) == "RVVV"


@pytest.mark.parametrize("exponents, trunc, level, answer, climbs", [
    ((3, 5, 7), 64, 3, "RVV", [8]),
    ((5, 8, None), 64, 4, "RVVV", [8, 16]),
    # short at the ceiling, so raised
    ((5, 8, None), 10, 4, "cannot differentiate a series known only at "
                          "degree 0", [8, 10]),
], ids=["answers-at-8", "answers-at-16", "short-at-ceiling-10"])
def test_rvt_code_doubles_its_climb_up_to_the_curves_trunc(
        monkeypatch, exponents, trunc, level, answer, climbs):
    seen = []
    climb = tower._climb

    def recorded(c, *args):
        seen.append(c.trunc)
        return climb(c, *args)

    monkeypatch.setattr(tower, "_climb", recorded)
    try:
        got = word_str(rvt_code(monomial_curve(*exponents, trunc), level))
    except InsufficientTruncation as exc:
        got = str(exc)
    assert (got, seen) == (answer, climbs)


def test_rvt_code_tries_the_curve_itself_last():
    # restricted to its own trunc 40, the curve would vanish up to truncation
    c = CurveGerm(TruncSeries({50: 1}, 64), TruncSeries.zero(40),
                  TruncSeries.zero(40))
    with pytest.raises(InsufficientTruncation, match="t\\^49 coefficient"):
        rvt_code(c, 1)


def test_word_parsing_round_trip():
    for text in ("R", "RV", "RVLT1", "RVLL3", "RVTT"):
        assert word_str(parse_word(text)) == text
    with pytest.raises(DomainError):
        parse_word("VR")
    with pytest.raises(DomainError):
        parse_word("RT3")


@given(st.text(alphabet="RVTL123x", max_size=8))
def test_a_parsed_word_is_made_of_letters(text):
    try:
        word = parse_word(text)
    except DomainError:
        return
    assert all(letter in LETTERS for letter in word)
    assert word_str(word) == text


def test_regular_tangent_over_every_arrangement():
    # the first slope of a longer list whose tangent (1, s, r) lies in no
    # plane is always among the four kept candidates
    longer = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1), (-1, 1),
              (2, 3), (3, 2), (1, 3), (3, 1)]
    normals = [n for n in product((0, 1), repeat=3) if any(n)]
    arrangements = [tuple(CriticalHyperplane(1, age, n) for age, n in enumerate(chosen))
                    for size in range(4) for chosen in combinations(normals, size)]
    assert len(arrangements) == 64
    for arrangement in arrangements:
        expected = next(slope for slope in longer
                        if not any(h.contains((1, *slope)) for h in arrangement))
        assert _pick_regular_tangent(arrangement) == expected


# -- arrangements ---------------------------------------------------------------

def test_arrangement_counts_follow_last_letter():
    # R step: 1 plane; V or T step: 2 planes; L step: 3 planes.
    assert len(prolong_curve(LINE, 3).point.arrangement) == 1
    assert len(prolong_curve(CUSP, 2).point.arrangement) == 2
    assert len(prolong_curve(monomial_curve(3, 4, 5), 3).point.arrangement) == 2
    assert len(prolong_curve(monomial_curve(4, 6, 7), 3).point.arrangement) == 3


def test_tangency_planes_over_l_point_match_worked_example():
    # Over the RVL point the tangency planes are spanned, in the chart frame,
    # by {dv2-lift, d/dv3} (born level 2) and {dv2-lift, d/du3} (born level 1).
    p3 = prolong_curve(monomial_curve(4, 6, 7), 3).point
    by_birth = {h.birth_level: h for h in p3.arrangement if not h.is_vertical}
    t1, t2 = by_birth[2], by_birth[1]
    assert t1.age == 1 and t1.normal == (0, 1, 0)
    assert t2.age == 2 and t2.normal == (0, 0, 1)
    # kernels: delta^1_2 contains d/dv3, delta^2_1 contains d/du3
    assert t1.contains((0, 0, 1))
    assert t2.contains((0, 1, 0))
    vert = [h for h in p3.arrangement if h.is_vertical][0]
    assert vert.normal == (1, 0, 0) and vert.birth_level == 3


def test_prolong_hyperplane_reproduces_both_tangency_planes():
    p2 = prolong_curve(CUSP, 2).point
    vertical2 = [h for h in p2.arrangement if h.is_vertical][0]
    tangency2 = [h for h in p2.arrangement if not h.is_vertical][0]
    ell = (F(0), F(0), F(1))  # the L direction d/dv2
    d12 = prolong_hyperplane(vertical2, ell)
    d21 = prolong_hyperplane(tangency2, ell)
    assert d12.normal == (0, 1, 0) and d12.birth_level == 2 and d12.age == 1
    assert d21.normal == (0, 0, 1) and d21.birth_level == 1 and d21.age == 2
    # the same planes as the arrangement of the point centered on ell
    p3 = point_above(p2, ell)
    assert set(p3.arrangement) == {vertical_plane(3), d12, d21}


def test_prolong_hyperplane_of_first_vertical():
    p1 = prolong_curve(LINE, 1).point
    v1 = p1.arrangement[0]
    ell = (F(0), F(1), F(0))
    d11 = prolong_hyperplane(v1, ell)
    assert d11.normal == (0, 1, 0)
    assert d11.contains((0, 0, 1))


def test_prolong_hyperplane_rejects_outside_direction():
    p1 = prolong_curve(LINE, 1).point
    v1 = p1.arrangement[0]
    with pytest.raises(DomainError):
        prolong_hyperplane(v1, (F(1), F(0), F(0)))


@pytest.mark.parametrize("normal", [(1, 0), (1, 0, 0, 0), (0, 0, 0),
                                    (2, F(1, 2), 0), (0, -1, 0), (1, 1, 2)])
def test_hyperplane_normal_must_be_a_nonzero_0_1_triple(normal):
    with pytest.raises(DomainError):
        CriticalHyperplane(1, 0, normal)


def test_prolong_hyperplane_renames_by_its_own_direction():
    # at the RV point of the cusp, the tangency plane (0, 1, 0) contains the
    # direction (1, 0, 0), whose chart step has denominator 0
    p2 = prolong_curve(CUSP, 2).point
    tangency2 = [h for h in p2.arrangement if not h.is_vertical][0]
    assert tangency2.normal == (0, 1, 0)
    got = prolong_hyperplane(tangency2, (F(1), F(0), F(0)))
    assert got.normal == (0, 1, 0)
    assert point_above(p2, (F(1), F(0), F(0))).arrangement[1] == got


# -- direction classification -----------------------------------------------------

def test_classify_at_rv_point():
    p2 = prolong_curve(CUSP, 2).point
    assert classify_direction(p2, (0, 1, 0)) == "V"
    assert classify_direction(p2, (0, 0, 1)) == "L"
    assert classify_direction(p2, (1, 5, F(2, 7))) == "R"
    assert classify_direction(p2, (1, 0, 3)) == "T"


def test_classify_refined_letters_over_l_point():
    p3 = prolong_curve(monomial_curve(4, 6, 7), 3).point
    assert classify_direction(p3, (1, 1, 1)) == "R"
    assert classify_direction(p3, (0, 1, 1)) == "V"
    assert classify_direction(p3, (1, 0, 1)) == "T1"   # inside born-level-2 plane
    assert classify_direction(p3, (1, 1, 0)) == "T2"   # inside born-level-1 plane
    assert classify_direction(p3, (0, 0, 1)) == "L1"   # vertical and T1
    assert classify_direction(p3, (0, 1, 0)) == "L2"   # vertical and T2
    assert classify_direction(p3, (1, 0, 0)) == "L3"   # T1 and T2
    with pytest.raises(DomainError):
        classify_direction(p3, (0, 0, 0))


# -- projections --------------------------------------------------------------------

def test_projection_is_identity_at_own_level():
    p = prolong_curve(CUSP, 3).point
    assert project_point(p, 3) == p


def test_projection_to_base():
    p = prolong_curve(CUSP, 1).point
    assert project_point(p, 0).coords == (0, 0, 0)


def test_projection_compatibility_with_prolongation():
    c = monomial_curve(4, 6, 7)
    deep = prolong_curve(c, 3).point
    for i in (1, 2):
        assert project_point(deep, i) == prolong_curve(c, i).point


def test_rvl_projection_recomputed_from_scratch():
    c = monomial_curve(4, 6, 7)
    p3 = prolong_curve(c, 3).point
    assert project_point(p3, 2) == prolong_curve(c, 2).point


# -- realization ---------------------------------------------------------------------

def test_realize_origin_chart_point_is_a_line():
    p1 = prolong_curve(LINE, 1).point
    gamma = realize_point(p1)
    assert gamma.x.terms() == [(1, F(1))]
    assert gamma.y.is_zero() and gamma.z.is_zero()


def test_realize_line_with_prescribed_slope():
    p1 = make_point(1, [0], [0, 0, 0, F(2, 3), F(-1, 2)])
    gamma = realize_point(p1)
    assert gamma.y.coefficient(1) == F(2, 3)
    assert gamma.z.coefficient(1) == F(-1, 2)
    back = prolong_curve(gamma, 1).point
    assert back == p1


@pytest.mark.parametrize("exponents,level", [
    ((2, 3, None), 1), ((2, 3, None), 2), ((2, 3, None), 3),
    ((3, 5, 7), 3), ((3, 4, 5), 3), ((4, 6, 7), 3),
    ((2, 5, None), 3), ((3, 5, None), 3), ((1, None, None), 4),
])
def test_realize_round_trip(exponents, level):
    p = prolong_curve(monomial_curve(*exponents), level).point
    gamma = realize_point(p)
    again = prolong_curve(gamma, level).point
    assert again == p and again.arrangement == p.arrangement
    # the realizing curve carries the same RVT letters and a regular top
    assert rvt_code(gamma, level) == point_letters(p)


def test_realize_round_trip_off_center_coordinates():
    # RVT representative has a nonzero v3 coordinate
    p3 = prolong_curve(monomial_curve(3, 4, 5), 3).point
    assert p3.coords[-1] != 0
    gamma = realize_point(p3)
    assert prolong_curve(gamma, 3).point == p3


def test_realize_with_alternate_tangents_hits_same_point():
    p3 = prolong_curve(monomial_curve(3, 5, 7), 3).point
    for tangent in [(1, 0), (1, 1), (2, 1), (1, -1)]:
        gamma = realize_point(p3, tangent=tangent)
        assert prolong_curve(gamma, 3).point == p3


def test_realize_rejects_critical_tangent():
    p3 = prolong_curve(monomial_curve(3, 5, 7), 3).point
    with pytest.raises(DomainError):
        realize_point(p3, tangent=(0, 1))


def test_realize_with_fiber_tail():
    p2 = prolong_curve(CUSP, 2).point
    tail = (TruncSeries({2: F(1, 3)}, 64), TruncSeries({3: F(-2, 5)}, 64))
    gamma = realize_point(p2, tangent=(1, 1), fiber_tail=tail)
    assert prolong_curve(gamma, 2).point == p2


def test_realize_level_zero_rejected():
    p0 = make_point(0, [], [0, 0, 0])
    with pytest.raises(DomainError):
        realize_point(p0)


# -- point construction ----------------------------------------------------------------

def test_make_point_validates_chart_consistency():
    with pytest.raises(DomainError):
        make_point(1, [1], [0, 0, 0, 1, 0])   # u must vanish in a u-chart
    with pytest.raises(DomainError):
        make_point(1, [2], [0, 0, 0, 0, 1])   # u and v must vanish in a v-chart


def test_point_above_priority_chart():
    p3 = prolong_curve(monomial_curve(3, 5, 7), 3).point
    q = point_above(p3, (0, 1, 1))
    assert q.chart[-1] == 1
    assert q.coords[-2:] == (0, 1)
    assert point_letters(q) == ("R", "V", "V", "V")


def test_point_letters_of_prolonged_curves_match():
    for exponents, level in [((2, 3, None), 3), ((4, 6, 7), 3), ((3, 4, 5), 3)]:
        pc = prolong_curve(monomial_curve(*exponents), level)
        assert point_letters(pc.point) == pc.letters
