"""Randomized tower properties over arbitrary small curve germs."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from mtower.catalog import NORMAL_FORMS
from mtower.census import rvv_point, rvvv_points
from mtower.curves import CurveGerm, monomial_curve
from mtower.diffeo import (DiffeoJet, isotropy_check, prolong_apply,
                           taylor_constraints)
from mtower.errors import DomainError, InsufficientTruncation, MTError
from mtower.jets import PolyJet3
from mtower.series import TruncSeries
from mtower.tower import (_GRID, Arrangement, CriticalHyperplane, Direction,
                          ProlongedCurve, TowerPoint, _center, _direction_of,
                          active_indices, classify_direction, make_point,
                          point_above, point_letters, project_point,
                          prolong_curve, prolong_point, prolong_point_over,
                          realize_point, rvt_code, vertical_plane)

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
    assert classify_direction(p, delta) == _classify(p.arrangement, delta)
    rebuilt = make_point(q.level, q.chart, q.coords)
    assert q == rebuilt and q.arrangement == rebuilt.arrangement


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


# -- one climb serves the point, the prolonged curve and the RVT code ---------

CATALOG = tuple(dict.fromkeys(e for forms in NORMAL_FORMS.values() for e in forms))
signs = st.sampled_from((-1, 1))


@st.composite
def catalog_tables(draw):
    """Coefficient tables of a catalog normal form with 0-2 perturbation
    terms, to be read at any truncation."""
    comps = [s.coeffs for s in
             monomial_curve(*draw(st.sampled_from(CATALOG))).components]
    for _ in range(draw(st.integers(0, 2))):
        comps[draw(st.integers(0, 2))][draw(st.integers(1, 14))] = draw(nonzero)
    return comps


def curve_at(tables, trunc):
    return CurveGerm(*(TruncSeries(table, trunc) for table in tables))


@st.composite
def degree_two_jets(draw):
    """Degree-2 jets with coefficients +-1."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    quadratic = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    jet = []
    for i in range(3):
        # unit upper-triangular signs keep the linear part invertible
        table = {axes[i]: draw(signs)}
        for j in range(i + 1, 3):
            table[axes[j]] = draw(st.sampled_from((-1, 0, 1)))
        table[quadratic[draw(st.integers(0, 5))]] = draw(signs)
        table[quadratic[draw(st.integers(0, 5))]] = draw(signs)
        jet.append(table)
    return DiffeoJet(PolyJet3(jet, 2))


@st.composite
def moved_catalog_curves(draw):
    """Catalog normal forms at trunc 1-24 with 0-2 perturbation terms,
    optionally moved by a degree-2 jet with coefficients +-1."""
    c = curve_at(draw(catalog_tables()), draw(st.integers(1, 24)))
    if draw(st.booleans()):
        c = draw(degree_two_jets()).apply_to_curve(c)
    return c


# The letter and arrangement rules as they were before the one level step,
# kept verbatim as the reference for the grid walk and the climb below.

def _prolong_normal(normal: Direction, d: int) -> Direction:
    a, b, c = normal
    if d == 0:
        return (Fraction(0), b, c)
    if d == 1:
        return (Fraction(0), a, c)
    return (Fraction(0), a, b)


def _next_arrangement(parent: Arrangement, direction: Direction,
                      d: int, new_level: int) -> Arrangement:
    planes = [vertical_plane(new_level)]
    for plane in parent:
        if plane.contains(direction):
            planes.append(CriticalHyperplane(plane.birth_level, plane.age + 1,
                                             _prolong_normal(plane.normal, d)))
    return tuple(planes)


def _classify(arrangement: Arrangement, direction: Direction) -> str:
    containing = [h for h in arrangement if h.contains(direction)]
    if not containing:
        return "R"
    vertical = [h for h in containing if h.is_vertical]
    tangent = [h for h in containing if not h.is_vertical]
    all_tangent = sorted((h for h in arrangement if not h.is_vertical),
                         key=lambda h: -h.birth_level)
    refined = len(all_tangent) >= 2
    if len(containing) == 1:
        if vertical:
            return "V"
        if not refined:
            return "T"
        return "T1" if containing[0] == all_tangent[0] else "T2"
    if len(containing) > 2:
        raise AssertionError("three critical hyperplanes share a direction")
    if vertical and tangent:
        if not refined:
            return "L"
        return "L1" if tangent[0] == all_tangent[0] else "L2"
    return "L3"


def test_grid_walk_agrees_with_the_reference_rules():
    """Levels 1-5 from the empty arrangement over all 13 grid directions,
    one point per distinct arrangement: each arrangement lists its vertical
    plane first and then strictly decreasing birth levels, letters agree
    with the reference classifier, and a point one level up is the point
    make_point rebuilds from its chart and coordinates."""
    walk = [make_point(0, (), (0, 0, 0))]
    for level in range(1, 6):
        above = {}
        for p in walk:
            for direction in _GRID:
                assert classify_direction(p, direction) == _classify(
                    p.arrangement, direction)
                q = point_above(p, direction)
                rebuilt = make_point(level, q.chart, q.coords)
                assert q == rebuilt and q.arrangement == rebuilt.arrangement
                assert q.arrangement == _next_arrangement(
                    p.arrangement, direction, q.chart[-1], level)
                assert q.arrangement[0] == vertical_plane(level)
                assert not any(h.is_vertical for h in q.arrangement[1:])
                births = [h.birth_level for h in q.arrangement]
                assert births == sorted(set(births), reverse=True)
                above.setdefault(q.arrangement, q)
        walk = list(above.values())


def reference_prolong_curve(c, k):
    """prolong_curve as it was before the shared climb: every level's fiber
    series is computed in the same pass as its point."""
    if k < 1:
        raise DomainError("prolongation level must be at least 1")
    if c.is_constant():
        raise InsufficientTruncation("the curve vanishes up to truncation")
    series = list(c.components)
    active = list(c.components)
    chart, letters, coords, arrangement = [], [], [Fraction(0)] * 3, ()
    for j in range(1, k + 1):
        derivs = [s.derivative() for s in active]
        direction, _ = _direction_of(derivs, j)
        letters.append(_classify(arrangement, direction))
        d, u, v = _center(direction)
        u_series, v_series = derivs[d].quotients(
            *(derivs[i] for i in range(3) if i != d))
        arrangement = _next_arrangement(arrangement, direction, d, j)
        chart.append(d)
        coords.extend((u, v))
        series.extend((u_series, v_series))
        active = [active[d], u_series, v_series]
    point = TowerPoint(k, tuple(chart), tuple(coords), arrangement)
    return ProlongedCurve(c, k, tuple(chart), tuple(series), tuple(letters), point)


def reference_rvt_code(c, k):
    """rvt_code as it was before the shared climb: prolong, then
    differentiate the top chart triple and check the next direction."""
    pc = reference_prolong_curve(c, k)
    derivs = [pc.series[i].derivative() for i in active_indices(pc.chart)]
    direction, cancelled = _direction_of(derivs, k + 1)
    if cancelled != 0:
        raise DomainError(
            "the curve's level-%d prolongation is not immersed at t=0; "
            "it does not realize its endpoint" % k)
    if _classify(pc.point.arrangement, direction) != "R":
        raise DomainError(
            "the curve's level-%d direction is critical; it does not realize "
            "its endpoint" % k)
    return pc.letters


def reference_isotropy_check(phi, p, trunc):
    """isotropy_check as one climb of the image at ``trunc``."""
    image = phi.apply_to_curve(realize_point(p, trunc))
    return prolong_point_over(image, p.level, p) is not None


def outcome(fn, *args):
    """A call's value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(moved_catalog_curves(), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_climb_matches_the_full_prolongation(c, k):
    # level 0 checks that rvt_code refuses it before climbing to level 1
    ref = outcome(reference_prolong_curve, c, k)
    pc = outcome(prolong_curve, c, k)
    point = outcome(prolong_point, c, k)
    assert pc == ref
    if isinstance(pc, ProlongedCurve):
        assert pc.point.arrangement == ref.point.arrangement
        assert point == pc.point and point.arrangement == pc.point.arrangement
    else:
        assert point == pc
    assert outcome(rvt_code, c, k) == outcome(reference_rvt_code, c, k)


@given(catalog_tables(), degree_two_jets(), st.integers(1, 4), st.integers(1, 24))
@settings(max_examples=200, deadline=None)
def test_a_low_truncation_answers_as_trunc_64_or_refuses(tables, phi, k, trunc):
    # a shortfall is InsufficientTruncation, never another point, word or error
    def check(fn):
        low = outcome(fn, trunc)
        assert low == outcome(fn, 64) or (
            isinstance(low, tuple) and low[0] is InsufficientTruncation)

    for curve in (lambda t: curve_at(tables, t),
                  lambda t: phi.apply_to_curve(curve_at(tables, t))):
        check(lambda t: prolong_point(curve(t), k))
        # the premise of rvt_code's doubling from 8 up to the curve's trunc,
        # stated on one climb
        check(lambda t: reference_rvt_code(curve(t), k))
    p = outcome(prolong_point, curve_at(tables, 64), k)
    if isinstance(p, TowerPoint):
        check(lambda t: prolong_apply(phi, p, t))
        # the premise of isotropy_check's doubling from 8 up to its trunc
        check(lambda t: reference_isotropy_check(phi, p, t))


@given(catalog_tables(), degree_two_jets(), st.integers(1, 6),
       st.one_of(st.integers(1, 24), st.just(64)))
@settings(max_examples=200, deadline=None)
def test_rvt_code_answers_as_one_climb_at_the_curves_trunc(tables, phi, k, trunc):
    # the doubling from 8 changes no word, error class or message; the
    # catalog forms need trunc 9-10 for their level-5 and level-6 codes, so
    # the retry is drawn
    for c in (curve_at(tables, trunc), phi.apply_to_curve(curve_at(tables, trunc))):
        assert outcome(rvt_code, c, k) == outcome(reference_rvt_code, c, k)


# -- isotropy answers at the first level where the image leaves the point ----

CHAIN_POINTS = (rvv_point(),) + rvvv_points()


@st.composite
def catalog_points(draw):
    """Level 1-4 points of perturbed or moved catalog curves, and the level-3
    and level-4 chain points."""
    source = draw(st.sampled_from(("tables", "moved", "chain")))
    if source == "chain":
        return draw(st.sampled_from(CHAIN_POINTS))
    c = (curve_at(draw(catalog_tables()), 64) if source == "tables"
         else draw(moved_catalog_curves()))
    p = outcome(prolong_point, c, draw(st.integers(1, 4)))
    assume(isinstance(p, TowerPoint))
    return p


@st.composite
def staged_jets(draw):
    """degree_two_jets, maybe with a +-1 linear term below the diagonal,
    then with the Taylor coefficients of G1, G2 or G3 zeroed, or none. The
    images of the points above leave them first at each of levels 1-4."""
    tables = list(draw(degree_two_jets()).jet.components)
    if draw(st.booleans()):
        component, axis = draw(st.sampled_from(((2, (1, 0, 0)), (3, (1, 0, 0)),
                                                (3, (0, 1, 0)))))
        tables[component - 1][axis] = draw(signs)
    stage = draw(st.sampled_from((None, "G1", "G2", "G3")))
    if stage is not None:
        for component, mono in taylor_constraints(stage):
            tables[component - 1].pop(mono, None)
    jet = PolyJet3(tables, 2)
    assume(jet.linear_det() != 0)
    return DiffeoJet(jet)


@given(catalog_points(), staged_jets(),
       st.one_of(st.integers(1, 24), st.just(64)))
@settings(max_examples=200, deadline=None)
def test_isotropy_check_agrees_with_the_full_image(p, phi, trunc):
    # the check may answer False where the full image is short of trunc,
    # never anything else
    image = outcome(prolong_apply, phi, p, trunc)
    fixed = outcome(isotropy_check, phi, p, trunc)
    if isinstance(image, TowerPoint):
        assert fixed == (image == p)
    else:
        assert fixed in (image, False)
    if fixed is False:
        at_64 = outcome(prolong_apply, phi, p, 64)
        assert not isinstance(at_64, TowerPoint) or at_64 != p


@given(catalog_points(), staged_jets(),
       st.one_of(st.integers(1, 24), st.just(64)))
@settings(max_examples=200, deadline=None)
def test_isotropy_check_answers_as_one_climb_at_its_trunc(p, phi, trunc):
    # the doubling from 8 changes no answer, error class or message
    assert outcome(isotropy_check, phi, p, trunc) == outcome(
        reference_isotropy_check, phi, p, trunc)
