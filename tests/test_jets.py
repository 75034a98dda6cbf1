"""Polynomial jet composition, substitution and inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mtower.curves import monomial_curve
from mtower.errors import DomainError
from mtower.jets import PolyJet3, jet_from_obj, jet_to_obj
from mtower.series import TruncSeries

F = Fraction

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def shear_y_by_x2(degree=8):
    return PolyJet3([{X: 1}, {Y: 1, (2, 0, 0): 1}, {Z: 1}], degree)


def shear_z_by_y2(degree=8):
    return PolyJet3([{X: 1}, {Y: 1}, {Z: 1, (0, 2, 0): 1}], degree)


def test_identity_composition():
    g = shear_y_by_x2()
    assert PolyJet3.identity(8).compose(g) == g
    assert g.compose(PolyJet3.identity(8)) == g


def test_scaling_composition():
    a = PolyJet3.diagonal(2, 3, 5)
    b = PolyJet3.diagonal(7, F(1, 3), F(1, 5))
    assert a.compose(b) == PolyJet3.diagonal(14, 1, 1)


def test_shear_composition_by_hand():
    # (x, y+x^2, z) o (x, y, z+y^2) = (x, y+x^2, z+y^2)
    left = shear_y_by_x2().compose(shear_z_by_y2())
    expected = PolyJet3([{X: 1}, {Y: 1, (2, 0, 0): 1},
                         {Z: 1, (0, 2, 0): 1}], 8)
    assert left == expected


def test_substitute_identity_jet():
    c = monomial_curve(3, 5, 7)
    out = PolyJet3.identity(8).substitute(*c.components)
    assert out == c.components


def test_substitute_shear_on_line():
    c = monomial_curve(1, None, None)
    x, y, z = shear_y_by_x2().substitute(*c.components)
    assert x.terms() == [(1, F(1))]
    assert y.terms() == [(2, F(1))]
    assert z.is_zero()


def test_substitute_scaling():
    c = monomial_curve(3, 5, 7)
    x, y, z = PolyJet3.diagonal(2, 3, 5).substitute(*c.components)
    assert x.terms() == [(3, F(2))]
    assert y.terms() == [(5, F(3))]
    assert z.terms() == [(7, F(5))]


def test_linear_determinant():
    jet = PolyJet3([{X: 1, Y: 2}, {Y: 1}, {X: 4, Z: 3}], 4)
    assert jet.linear_det() == 3


def test_inverse_round_trip():
    jet = PolyJet3([{X: 2, (0, 2, 0): 1},
                    {Y: 1, (1, 0, 0): 0, (2, 0, 0): F(1, 2)},
                    {Z: F(1, 3), (1, 1, 0): -1}], 6)
    inv = jet.inverse()
    assert jet.compose(inv) == PolyJet3.identity(6)
    assert inv.compose(jet) == PolyJet3.identity(6)


def test_inverse_rejects_singular():
    jet = PolyJet3([{X: 1}, {X: 1}, {Z: 1}], 4)
    with pytest.raises(DomainError):
        jet.inverse()


def test_jet_json_round_trip():
    jet = PolyJet3([{X: F(2, 3)}, {Y: 1, (2, 0, 0): F(-1, 7)}, {Z: 4}], 5)
    assert jet_from_obj(jet_to_obj(jet)) == jet


small_fractions = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def jets_fixing_origin(degree):
    monos = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
             for k in range(degree + 1) if 1 <= i + j + k <= degree]
    comp = st.dictionaries(st.sampled_from(monos), small_fractions, max_size=4)
    return st.lists(comp, min_size=3, max_size=3).map(
        lambda comps: PolyJet3(comps, degree))


germ_series = st.dictionaries(st.integers(1, 10), small_fractions,
                              max_size=3).map(lambda d: TruncSeries(d, 10))


@given(st.integers(1, 4).flatmap(jets_fixing_origin),
       st.integers(1, 4).flatmap(jets_fixing_origin),
       st.tuples(germ_series, germ_series, germ_series))
@settings(max_examples=60, deadline=None)
def test_compose_then_substitute_matches_nested_substitution(phi, psi, curve):
    # the composite drops monomials past its degree D, which only reach
    # orders (D + 1) * m and above on a curve of multiplicity m
    degree = min(phi.degree, psi.degree)
    mult = min(s.effective_order() for s in curve)
    through = min(10, (degree + 1) * mult - 1)
    direct = phi.compose(psi).substitute(*curve)
    nested = phi.substitute(*psi.substitute(*curve))
    assert all(a.agrees_with(b, through) for a, b in zip(direct, nested))
