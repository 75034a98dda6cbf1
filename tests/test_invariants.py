"""Multiplicity, semigroups, planarity."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.ring_series import rs_mul
from sympy.polys.rings import ring

from mtower import invariants
from mtower.catalog import NORMAL_FORMS
from mtower.curves import CurveGerm, monomial_curve
from mtower.diffeo import sample_diffeo
from mtower.errors import DomainError, InsufficientTruncation
from mtower.invariants import (Semigroup, _cleared, multiplicity, planarity,
                               poly_on_curve, semigroup, well_parameterized)
from mtower.jets import PolyJet3, integer_poly, monomials
from mtower.series import TruncSeries

F = Fraction


def curve(xs, ys, zs, trunc=40):
    return CurveGerm(TruncSeries(xs, trunc), TruncSeries(ys, trunc),
                     TruncSeries(zs, trunc))


# -- multiplicity / parameterization -------------------------------------------

def test_multiplicity_examples():
    assert multiplicity(monomial_curve(2, 3, None)) == 2
    assert multiplicity(monomial_curve(3, 5, 7)) == 3
    assert multiplicity(curve({5: 1, 13: 2}, {8: 1, 12: F(1, 3)}, {11: 1})) == 5


def test_well_parameterized_examples():
    assert well_parameterized(monomial_curve(2, 3, None))
    assert not well_parameterized(monomial_curve(2, 4, None))
    assert well_parameterized(monomial_curve(3, 5, 7))


def test_curve_vanishing_up_to_truncation_is_a_shortfall():
    c = monomial_curve(None, None, None, trunc=16)
    with pytest.raises(InsufficientTruncation):
        multiplicity(c)
    with pytest.raises(InsufficientTruncation):
        well_parameterized(c)


@pytest.mark.xfail(strict=True, reason="defect 9: the exponent gcd is read off "
                   "the given parameterization, not after the first component "
                   "is made t^m")
def test_well_parameterized_survives_a_reparametrization():
    # t -> t + t^2 hides the double cover (t^2, t^4, 0) of a smooth germ
    c = curve({2: 1}, {4: 1}, {}, trunc=24)
    moved = c.reparametrize(TruncSeries({1: 1, 2: 1}, 24))
    assert not well_parameterized(moved)
    with pytest.raises(DomainError):
        semigroup(moved, 16)


# -- semigroup -------------------------------------------------------------------

def test_semigroup_of_3_5_7():
    s = semigroup(monomial_curve(3, 5, 7), 12)
    assert s.gaps == (1, 2, 4)
    assert s.elements == (3, 5, 6, 7, 8, 9, 10, 11, 12)
    assert s.conductor == 5


def test_semigroup_of_3_5_planar():
    s = semigroup(monomial_curve(3, 5, None), 12)
    assert s.gaps == (1, 2, 4, 7)
    assert s.conductor == 8


def test_semigroup_of_smooth_germ():
    s = semigroup(monomial_curve(1, None, None), 10)
    assert s.elements == tuple(range(1, 11))
    assert s.gaps == ()
    assert s.conductor == 1


def test_semigroup_witnesses_certify_orders():
    c = monomial_curve(3, 5, 7)
    s = semigroup(c, 15)
    for e in s.elements:
        composed = poly_on_curve(s.witness_for(e), c)
        assert composed.order() == e


def test_semigroup_additive_closure():
    for exponents in [(3, 5, 7), (3, 5, None), (4, 6, 7), (5, 8, 11)]:
        s = semigroup(monomial_curve(*exponents), 20)
        members = set(s.elements)
        for a in members:
            for b in members:
                if a + b <= s.bound:
                    assert a + b in members


def test_semigroup_sees_cancellation_elements():
    # Every monomial has even order on (t^4, t^6 + t^7, 0), yet
    # y^2 - x^3 = 2 t^13 + t^14 exposes the odd element 13.
    c = curve({4: 1}, {6: 1, 7: 1}, {})
    s = semigroup(c, 20)
    assert 13 in s.elements
    w = s.witness_for(13)
    assert poly_on_curve(w, c).order() == 13
    assert s.gaps == (1, 2, 3, 5, 7, 9, 11, 15)


def test_semigroup_bound_beyond_truncation_fails():
    c = monomial_curve(3, 5, 7, trunc=10)
    with pytest.raises(InsufficientTruncation):
        semigroup(c, 24)


def test_witness_synthesis_past_bound():
    c = monomial_curve(3, 5, 7)
    s = semigroup(c, 12)
    w = s.witness_for(31)
    assert poly_on_curve(w, c).order() == 31


def test_witness_synthesis_needs_mixed_axes():
    # 24 = 16 + 8 is reachable from the stored elements of <5,8> even
    # though no single power of one coordinate bridges the bound.
    c = monomial_curve(5, 8, None)
    s = semigroup(c, 23)
    w = s.witness_for(24)
    assert poly_on_curve(w, c).order() == 24


def test_witness_refused_for_gaps_past_the_bound():
    # 27 is a gap of <5,8> even though every integer in [23, bound] is an
    # element; claiming a witness there would be unsound.
    c = monomial_curve(5, 8, None)
    s = semigroup(c, 23)
    assert s.conductor == 23
    with pytest.raises(DomainError):
        s.witness_for(27)


def order_decompositions(top, orders):
    """The exponent triples that witness synthesis took before the one
    enumeration, for the values 1..top that have one: the programme extends
    each value by the lowest axis whose predecessor is reachable."""
    reachable = {0: (0, 0, 0)}
    for value in range(1, top + 1):
        for axis, o in orders:
            prev = reachable.get(value - o)
            if prev is not None:
                e = list(prev)
                e[axis] += 1
                reachable[value] = tuple(e)
                break
    del reachable[0]
    return reachable


def test_witness_synthesis_keeps_the_programme_decomposition():
    # with the constant as the only stored witness, the synthesized witness
    # for n is the monomial chosen for n itself: the lexicographically
    # largest one of weighted degree n, which the programme built too
    one = ({(0, 0, 0): 1}, 1)
    for orders in product((None, *range(1, 10)), repeat=3):
        s = Semigroup((), (), 0, None, {0: one}, orders)
        chosen = order_decompositions(
            60, [(i, o) for i, o in enumerate(orders) if o is not None])
        for n in range(1, 61):
            if n in chosen:
                assert s.witness_for(n) == ({chosen[n]: 1}, 1)
            else:
                with pytest.raises(DomainError):
                    s.witness_for(n)


def test_semigroup_invariance_under_random_moves():
    rng = random.Random(17)
    for exponents in [(2, 3, None), (3, 5, 7), (3, 4, 5)]:
        c = monomial_curve(*exponents)
        base = semigroup(c, 16).elements
        for _ in range(5):
            phi = sample_diffeo(rng, degree=2)
            tau = TruncSeries(
                {1: F(rng.choice([1, -1, 2]), rng.choice([1, 2])),
                 2: F(rng.randint(-2, 2), 3)}, c.trunc)
            moved = phi.apply_to_curve(c).reparametrize(tau)
            assert semigroup(moved, 16).elements == base
            assert multiplicity(moved) == multiplicity(c)


def test_cleared_row_is_canonical():
    # (2t + 3t^2, x) - (2 / -4) (-4t + t^2, y) = (7/2 t^2, x + y/2); a row
    # over -2 has the same rational values, so only its form can show it
    x, y = (1, 0, 0), (0, 1, 0)
    assert _cleared({1: 2, 2: 3}, {x: 1}, 1, {1: -4, 2: 1}, {y: 1}, 1) == \
        ({2: 7}, {x: 2, y: 1}, 2)
    assert _cleared({1: 6, 3: 3}, {x: 6}, 9, {1: 2, 3: 4}, {y: 8}, 1) == \
        ({3: -3}, {x: 2, y: -8}, 3)


def fraction_semigroup(c, bound):
    """Elements, gaps, conductor and witnesses by the rational leading-order
    elimination on ``Fraction`` tables that the integer rows replaced."""
    usable = tuple(o if o is not None and o <= bound else None
                   for o in (s.order() for s in c.components))
    low = c.restrict(bound)
    rows = [(poly_on_curve(({m: 1}, 1), low).coeffs, {m: F(1)})
            for m in monomials(bound, usable)]
    rows.sort(key=lambda r: min(r[0]) if r[0] else bound + 1)
    pivots = {}
    for vec, wit in rows:
        while vec:
            lead = min(vec)
            if lead not in pivots:
                pivots[lead] = (vec, wit)
                break
            pvec, pwit = pivots[lead]
            factor = vec[lead] / pvec[lead]
            for target, source in ((vec, pvec), (wit, pwit)):
                for key, coeff in source.items():
                    value = target.get(key, F(0)) - factor * coeff
                    if value:
                        target[key] = value
                    else:
                        target.pop(key, None)
    gaps = tuple(n for n in range(1, bound + 1) if n not in pivots)
    conductor = None
    n = bound
    while n >= 1 and n in pivots:
        conductor = n
        n -= 1
    return (tuple(sorted(pivots)), gaps, conductor,
            {e: w for e, (_, w) in pivots.items()})


big = st.integers(-2**200, 2**200)
big_rational = st.builds(F, big, st.integers(1, 2**200)).filter(bool)


@st.composite
def moved_monomial_curves(draw):
    """A well-parameterized monomial curve, possibly with a zero component,
    moved by a degree-3 jet with 200-bit coefficients that keeps the zero
    component zero."""
    exponents = draw(st.lists(st.sampled_from((None, *range(2, 10))),
                              min_size=3, max_size=3).filter(
        lambda es: gcd(*(e for e in es if e)) == 1))
    c = monomial_curve(*exponents, trunc=24)
    higher = [m for m in ((i, j, k) for i in range(4) for j in range(4 - i)
                          for k in range(4 - i - j)) if sum(m) >= 2]
    comps = []
    for axis, e in enumerate(exponents):
        identity = tuple(int(i == axis) for i in range(3))
        table = {identity: draw(big_rational)}
        if e is not None:
            table.update(draw(st.dictionaries(st.sampled_from(higher),
                                              big_rational, max_size=3)))
        comps.append(table)
    return c.map_jet(PolyJet3(comps, 3))


@given(moved_monomial_curves(), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_semigroup_matches_fraction_elimination(c, bound):
    assume(well_parameterized(c))
    s = semigroup(c, bound)
    elements, gaps, conductor, witnesses = fraction_semigroup(c, bound)
    assert s.elements == elements
    assert s.gaps == gaps
    assert s.conductor == conductor
    assert s.witnesses == {e: integer_poly(w) for e, w in witnesses.items()}
    assert all(type(x) is int for num, _ in s.witnesses.values()
               for x in num.values())


@st.composite
def moved_smooth_curves(draw):
    """A monomial curve with an exponent-1 component, moved by a degree-2 jet
    with small integer coefficients and an invertible linear part."""
    others = draw(st.lists(st.sampled_from((None, *range(1, 10))),
                           min_size=2, max_size=2))
    c = monomial_curve(*draw(st.permutations([1, *others])), trunc=24)
    small = st.integers(-3, 3)
    quadratic = [m for m in monomials(2) if sum(m) == 2]
    comps = [{**{m: draw(small) for m in monomials(1)},
              **draw(st.dictionaries(st.sampled_from(quadratic), small,
                                     max_size=3))}
             for _ in range(3)]
    jet = PolyJet3(comps, 2)
    assume(jet.linear_det() != 0)
    return c.map_jet(jet)


@given(moved_smooth_curves(), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_semigroup_of_moved_smooth_germs_matches_fraction_elimination(c, bound):
    # every order is an element, so the elimination stops early on these
    s = semigroup(c, bound)
    elements, gaps, conductor, witnesses = fraction_semigroup(c, bound)
    assert s.elements == elements
    assert s.gaps == gaps
    assert s.conductor == conductor
    assert s.witnesses == {e: integer_poly(w) for e, w in witnesses.items()}


@pytest.mark.parametrize("exponents, conductor, columns, reductions", [
    # without the stops: all 968, 164 and 164 columns of weighted degree
    # <= 16, and 3,623, 625 and 633 reductions
    ((1, None, None), 1, 128, 568),
    ((2, 3, None), 2, 24, 108),
    # two rows reach the filled tail while they are reduced
    ((2, 7, None), 6, 16, 68),
])
def test_semigroup_stops_once_the_tail_is_filled(exponents, conductor, columns,
                                                  reductions, monkeypatch):
    # no column is built, and no row reduced, once its lead lies in the
    # filled tail; the counts pin both stops
    built, cleared = [], []
    evaluate, clear = invariants.evaluate_polys, invariants._cleared

    def counted_evaluate(*args, **kwargs):
        for column in evaluate(*args, **kwargs):
            built.append(column)
            yield column

    def counted_clear(*args):
        cleared.append(args)
        return clear(*args)

    monkeypatch.setattr(invariants, "evaluate_polys", counted_evaluate)
    monkeypatch.setattr(invariants, "_cleared", counted_clear)
    # the jet moves (t, 0, 0) to a conic: t^2 in two components
    c = sample_diffeo(random.Random(1), degree=2).apply_to_curve(
        monomial_curve(*exponents, trunc=40))
    s = semigroup(c.reparametrize(TruncSeries({1: 1, 2: -1}, 40)), 16)
    assert s.conductor == conductor
    assert (len(built), len(cleared)) == (columns, reductions)


# -- planarity ---------------------------------------------------------------------

def test_planar_witness_for_plane_curve():
    verdict = planarity(monomial_curve(3, 5, None, trunc=48))
    assert verdict.kind == "planar-witness"
    assert verdict.witness == integer_poly({(0, 0, 1): 1})


def test_planar_witness_on_parabolic_surface():
    verdict = planarity(monomial_curve(2, 3, 4, trunc=48))
    assert verdict.kind == "planar-witness"
    w = verdict.witness
    # z - x^2 vanishes identically along (t^2, t^3, t^4)
    assert w[0].get((0, 0, 1)) is not None
    composed = poly_on_curve(w, monomial_curve(2, 3, 4, trunc=48))
    assert composed.is_zero()


def test_obstruction_for_3_5_7():
    verdict = planarity(monomial_curve(3, 5, 7, trunc=48), 7, 40)
    assert verdict.kind == "obstructed"
    assert verdict.obstruction_order is not None
    assert verdict.obstruction_order <= 40


def test_obstruction_monotone_in_degree():
    c = monomial_curve(3, 5, 7, trunc=48)
    for degree in (3, 5, 7):
        assert planarity(c, degree, 40).kind == "obstructed"


def test_undetermined_when_truncation_too_small():
    c = monomial_curve(3, 5, 7, trunc=20)
    assert planarity(c, 7, 40).kind == "undetermined"


def test_huge_degree_bound_enumerates_only_reachable_degrees():
    rng = random.Random(11)
    moved = sample_diffeo(rng, degree=3).apply_to_curve(
        monomial_curve(3, 4, 5, trunc=48))
    for c in (monomial_curve(3, 5, 7, trunc=48),
              monomial_curve(3, 5, None, trunc=48), moved,
              monomial_curve(1, None, None, trunc=48)):
        cap = max(1, 40 // multiplicity(c))
        verdict = planarity(c, 10**6, 40)
        assert verdict.degree_bound == 10**6
        assert replace(verdict, degree_bound=cap) == planarity(c, cap, 40)
    # a multiplicity above the order bound still enumerates x, y and z
    c = monomial_curve(41, 43, None, trunc=48)
    assert replace(planarity(c, 10**6, 40), degree_bound=1) == planarity(c, 1, 40)


def sympy_planarity(c, degree, order):
    """Obstruction order, or witness, of the planarity decision over QQ.

    Shares no code with the engine: the order-by-monomial matrix comes from
    sympy series products, the obstruction order is the smallest m with
    rank A[:m] = rank A_N[:m] + 3 (A_N drops the x, y, z columns), and the
    witness is the first null vector of A.rref() with a nonzero linear part.
    """
    qq_ring, t = ring("t", sympy.QQ)
    comps = [sum((sympy.QQ(q.numerator, q.denominator) * t**d
                  for d, q in s.terms()), qq_ring.zero) for s in c.components]
    monos = sorted(((i, j, k) for i in range(degree + 1)
                    for j in range(degree + 1 - i)
                    for k in range(degree + 1 - i - j) if i + j + k),
                   key=lambda m: (sum(m), m))
    columns = []
    for mono in monos:
        p = qq_ring.one
        for comp, e in zip(comps, mono):
            for _ in range(e):
                p = rs_mul(p, comp, t, order + 1)
        columns.append(p)
    a = DomainMatrix([[col.coeff(t**r) for col in columns]
                      for r in range(1, order + 1)],
                     (order, len(monos)), sympy.QQ)
    for m in range(1, order + 1):
        if a[:m, :].rank() == a[:m, 3:].rank() + 3:
            return m
    rref, pivots = a.rref()
    rref = rref.to_Matrix()
    for free in range(len(monos)):
        if free in pivots:
            continue
        vec = {free: sympy.Integer(1)}
        for row, pivot in enumerate(pivots):
            vec[pivot] = -rref[row, free]
        if any(vec.get(i) for i in range(3)):
            return {monos[i]: F(int(v.p), int(v.q)) for i, v in vec.items() if v}
    raise AssertionError("neither an obstruction nor a witness")


def test_planarity_matches_sympy_elimination():
    cases = [(monomial_curve(*e, trunc=40), 7, 40)
             for e in sorted(set(sum(NORMAL_FORMS.values(), ())), key=str)]
    rng = random.Random(5)
    for exponents in [(3, 4, 5), (3, 5, 7), (3, 4, None), (2, 3, 4)]:
        c = monomial_curve(*exponents, trunc=30)
        tau = TruncSeries({1: 1, 2: rng.choice([1, -1])}, 30)
        moved = sample_diffeo(rng, degree=3).apply_to_curve(c).reparametrize(tau)
        cases.append((moved, 5, 30))
    kinds = set()
    for c, degree, order in cases:
        verdict = planarity(c, degree, order)
        expected = sympy_planarity(c, degree, order)
        kinds.add(verdict.kind)
        if isinstance(expected, int):
            assert verdict.kind == "obstructed"
            assert verdict.obstruction_order == expected
        else:
            assert verdict.kind == "planar-witness"
            assert verdict.witness == integer_poly(expected)
    assert kinds == {"obstructed", "planar-witness"}
