"""Polynomial jet composition, substitution and inversion."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, gcd, log2

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from mtower.curves import monomial_curve
from mtower.errors import DomainError
from mtower.jets import (PolyJet3, _poly_mul, integer_poly, jet_from_obj,
                         jet_to_obj, monomials, poly_scaled_sum)
from mtower.series import TruncSeries, evaluate_polys, on_series

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


def test_compose_rejects_degree_below_one():
    with pytest.raises(DomainError):
        shear_y_by_x2().compose(shear_z_by_y2(), 0)


#: The identity moved off the origin by a non-integer constant in phi3 only.
OFF_ORIGIN = PolyJet3([{X: 1}, {Y: 1}, {Z: 1, (0, 0, 0): F(1, 2)}], 3)


def test_jet_operations_refuse_a_jet_off_the_origin():
    assert not OFF_ORIGIN.fixes_origin()
    assert PolyJet3.identity(3).fixes_origin()
    for outer, inner in [(OFF_ORIGIN, shear_y_by_x2()), (shear_y_by_x2(), OFF_ORIGIN)]:
        with pytest.raises(DomainError) as error:
            outer.compose(inner)
        assert str(error.value) == "jet composition requires both jets to fix the origin"
    with pytest.raises(DomainError) as error:
        OFF_ORIGIN.inverse()
    assert str(error.value) == "jet inverse requires a jet fixing the origin"


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "str"])
def test_series_and_jets_read_coefficients_alike(bad):
    message = f"expected an exact rational, got {type(bad).__name__}"
    for table in ({2: bad}, {2: bad, -1: 1}):
        with pytest.raises(DomainError) as error:
            TruncSeries({1: 1, **table}, 4)
        assert str(error.value) == message
        with pytest.raises(DomainError) as error:
            PolyJet3([{X: 1, **{(d, 0, 0): v for d, v in table.items()}},
                      {Y: 1}, {Z: 1}], 4)
        assert str(error.value) == message
    # a key is checked before its own value, and entries in table order
    with pytest.raises(DomainError, match="series degrees must be non-negative"):
        TruncSeries({1: 1, -1: bad}, 4)
    with pytest.raises(DomainError, match="monomial exponents must be non-negative"):
        PolyJet3([{X: 1, (-1, 0, 0): bad}, {Y: 1}, {Z: 1}], 4)
    # a value past the truncation or degree is never read, and zeros are dropped
    assert TruncSeries({1: 1, 2: 0, 3: F(0), 5: bad}, 4).numerators() == ({1: 1}, 1)
    assert PolyJet3([{X: 1, (2, 0, 0): 0, (3, 0, 0): F(0), (5, 0, 0): bad},
                     {Y: 1}, {Z: 1}], 4).polys == PolyJet3.identity(4).polys


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


# -- jets against sympy over QQ ------------------------------------------------
#
# Jets are sparse, dense through total degree 3 (so that sympy stays fast),
# or sparse with coefficients of up to 200 bits. The oracle evaluates each
# polynomial term by term with sympy's arithmetic in QQ[x, y, z] (or QQ[t]
# for curves), truncating every product at the total degree (or the series
# truncation).

QQ_XYZ, SYM_X, SYM_Y, SYM_Z = ring("x,y,z", QQ)
QQ_T, _ = ring("t", QQ)


@st.composite
def oracle_jets(draw, degree, linear=None):
    """A jet fixing the origin; ``linear`` (a 3x3 matrix) fixes its linear part."""
    kind = draw(st.sampled_from(["sparse", "dense", "large"]))
    size = 2 ** (200 if kind == "large" else 3)
    coeff = st.builds(F, st.integers(-size, size), st.integers(1, size))
    monos = monomials(min(degree, 3) if kind == "dense" else degree)
    if linear is not None:
        monos = [m for m in monos if sum(m) > 1]
    comps = []
    for row in range(3):
        if kind == "dense" or not monos:
            table = {m: draw(coeff) for m in monos}
        else:
            table = draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=4))
        if linear is not None:
            table.update({axis: linear[row][col]
                          for col, axis in enumerate((X, Y, Z))})
        comps.append(table)
    return PolyJet3(comps, degree)


invertible_linear = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    min_size=3, max_size=3).filter(
        lambda m: PolyJet3([dict(zip((X, Y, Z), row)) for row in m], 1).linear_det() != 0)


def to_sympy(table, sym_ring):
    return sym_ring({m: QQ(c.numerator, c.denominator) for m, c in table.items()})


def from_sympy(p):
    return {m: F(int(c.numerator), int(c.denominator)) for m, c in p.items()}


def truncated(p, degree):
    return p.ring({m: c for m, c in p.items() if sum(m) <= degree})


def sympy_evaluate(jet, images, degree):
    """The jet's components at (x, y, z) = ``images``, in ``images``' ring,
    with every product truncated at total degree ``degree``."""
    sym_ring = images[0].ring
    out = []
    for table in jet.components:
        total = sym_ring.zero
        for mono, c in table.items():
            term = sym_ring.one
            for image, n in zip(images, mono):
                for _ in range(n):
                    term = truncated(term * image, degree)
            total += QQ(c.numerator, c.denominator) * term
        out.append(truncated(total, degree))
    return out


@given(st.integers(1, 4).flatmap(oracle_jets),
       st.integers(1, 4).flatmap(oracle_jets))
@settings(max_examples=40, deadline=None)
def test_compose_matches_sympy(phi, psi):
    degree = min(phi.degree, psi.degree)
    images = [to_sympy(c, QQ_XYZ) for c in psi.components]
    expected = sympy_evaluate(phi, images, degree)
    composed = phi.compose(psi)
    assert composed.degree == degree
    assert composed.components == tuple(from_sympy(p) for p in expected)


kernel_curves = st.tuples(*[st.dictionaries(
    st.integers(1, 10), st.builds(F, st.integers(-2 ** 64, 2 ** 64),
                                  st.integers(1, 2 ** 64)),
    max_size=4)] * 3)


@given(st.integers(1, 4).flatmap(oracle_jets), kernel_curves,
       st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_substitute_matches_sympy(phi, tables, trunc):
    curve = [TruncSeries(t, trunc) for t in tables]
    images = [to_sympy({(d,): c for d, c in s.terms()}, QQ_T) for s in curve]
    expected = sympy_evaluate(phi, images, trunc)
    for got, want in zip(phi.substitute(*curve), expected):
        assert got.trunc == trunc
        assert got.coeffs == {d: c for (d,), c in from_sympy(want).items()}


@given(st.tuples(st.integers(1, 4), invertible_linear).flatmap(
    lambda args: oracle_jets(*args)))
@settings(max_examples=30, deadline=None)
def test_inverse_matches_sympy(phi):
    # composing with sympy is the identity through the degree, on both sides
    inv = phi.inverse()
    assert inv.degree == phi.degree
    identity = [SYM_X, SYM_Y, SYM_Z]
    sym_inv = [to_sympy(c, QQ_XYZ) for c in inv.components]
    sym_phi = [to_sympy(c, QQ_XYZ) for c in phi.components]
    assert sympy_evaluate(phi, sym_inv, phi.degree) == identity
    assert sympy_evaluate(inv, sym_phi, phi.degree) == identity


def reference_det_and_inverse(m):
    """The determinant and inverse of a 3x3 Fraction matrix by cofactors
    (the inverse is None for a singular matrix)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        return det, None
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return det, [[x / det for x in row] for row in adj]


@st.composite
def coprime_denominator_jets(draw):
    """Degree-2 jets whose components have pairwise coprime denominators of
    up to 64 bits: each component carries 1/d times the monomial xy, and
    linear coefficients over that d."""
    dens = draw(st.lists(st.integers(2, 2 ** 64), min_size=3, max_size=3).filter(
        lambda ds: all(gcd(p, q) == 1 for p, q in combinations(ds, 2))))
    numerator = st.integers(-2 ** 64, 2 ** 64)
    comps = []
    for den in dens:
        row = draw(st.lists(numerator, min_size=3, max_size=3))
        comps.append({(1, 1, 0): F(1, den),
                      **{axis: F(x, den) for axis, x in zip((X, Y, Z), row)}})
    return PolyJet3(comps, 2)


@given(coprime_denominator_jets())
@settings(max_examples=60, deadline=None)
def test_integer_linear_algebra_matches_fraction_cofactors(phi):
    dens = [den for _, den in phi.polys]
    assert min(dens) > 1 and all(gcd(p, q) == 1 for p, q in combinations(dens, 2))
    linear = [[phi.coefficient(i, axis) for axis in (X, Y, Z)] for i in (1, 2, 3)]
    det, inverse = reference_det_and_inverse(linear)
    assert phi.linear_det() == det
    assert isinstance(phi.linear_det(), Fraction)
    if inverse is None:
        with pytest.raises(DomainError):
            phi.inverse()
        return
    inv = phi.inverse()
    assert [[inv.coefficient(i, axis) for axis in (X, Y, Z)]
            for i in (1, 2, 3)] == inverse


@given(st.integers(1, 4).flatmap(oracle_jets), st.integers(1, 12),
       st.data())
@settings(max_examples=40, deadline=None)
def test_equal_jets_written_differently_are_equal(phi, k, data):
    # the same coefficients as unreduced fractions, ints where integral, or
    # as the result of arithmetic are one jet, with one hash
    def rewrite(c):
        if c.denominator == 1 and data.draw(st.booleans()):
            return int(c)
        return F(c.numerator * k, c.denominator * k)
    rewritten = PolyJet3([{m: rewrite(c) for m, c in table.items()}
                          for table in phi.components], phi.degree)
    composed = phi.compose(PolyJet3.identity(phi.degree))
    for other in (rewritten, composed, jet_from_obj(jet_to_obj(phi))):
        assert other == phi
        assert hash(other) == hash(phi)


def test_halves_written_two_ways_are_one_jet():
    a = PolyJet3([{X: F(2, 4)}, {Y: 1, (2, 0, 0): F(3, 6)}, {Z: 2}], 3)
    b = PolyJet3([{X: F(1, 2)}, {Y: F(4, 4), (2, 0, 0): F(1, 2)}, {Z: F(4, 2)}], 3)
    assert a == b and hash(a) == hash(b)
    assert a.components[1] == {Y: F(1), (2, 0, 0): F(1, 2)}


# -- the kept monomial products of evaluate_polys --------------------------------


def seeded_polys(rng, degree, count, density):
    """``count`` polynomials in integer form, each monomial of total degree
    1..``degree`` present with probability ``density``, plus one lone axis,
    one lone power and one lone mixed monomial."""
    polys = [integer_poly({m: F(rng.randint(-9, 9), rng.randint(1, 4))
                           for m in monomials(degree) if rng.random() < density})
             for _ in range(count)]
    return polys + [({Y: 1}, 1), ({(3, 0, 0): 1}, 1), ({(1, 1, 1): 1}, 1)]


def seeded_series(rng, trunc):
    return tuple(TruncSeries({d: F(rng.randint(-5, 5), rng.randint(1, 3))
                              for d in range(1, trunc + 1) if rng.random() < 0.5}
                             | {axis + 1: 1}, trunc) for axis in range(3))


def on_jets(rng, degree):
    """Arguments of evaluate_polys for substituting three dense jet
    components fixing the origin, truncated at ``degree``."""
    images = tuple(integer_poly({m: rng.randint(-3, 3) for m in monomials(2)}
                                | {axis: 1}) for axis in (X, Y, Z))
    return (images, ({(0, 0, 0): 1}, 1), lambda a, b: _poly_mul(a, b, degree),
            poly_scaled_sum)


def seeded_cases():
    rng = random.Random(27)
    for degree in (3, 4):
        yield seeded_polys(rng, degree, 3, 0.7), on_jets(rng, degree)
        yield seeded_polys(rng, degree, 3, 0.7), on_series(*seeded_series(rng, 12))


def per_axis_reference(polys, images, one, mul, scaled_sum):
    """Evaluation with one list of powers per axis, each monomial multiplied
    out again for every polynomial that uses it."""
    powers = [[one, image] for image in images]

    def power(axis, n):
        while len(powers[axis]) <= n:
            powers[axis].append(mul(powers[axis][-1], images[axis]))
        return powers[axis][n]

    def term(mono):
        factors = [power(axis, n) for axis, n in enumerate(mono) if n]
        value = factors[0]
        for factor in factors[1:]:
            value = mul(value, factor)
        return value

    return [scaled_sum(((x, term(m)) for m, x in num.items()), den)
            for num, den in polys]


def naive_reference(polys, images, one, mul, scaled_sum):
    """Each monomial built factor by factor from ``one``."""
    def term(mono):
        value = one
        for image, n in zip(images, mono):
            for _ in range(n):
                value = mul(value, image)
        return value

    return [scaled_sum(((x, term(m)) for m, x in num.items()), den)
            for num, den in polys]


def counting(mul):
    calls = []

    def counted(a, b):
        calls.append(None)
        return mul(a, b)
    return counted, calls


def test_evaluate_polys_matches_a_naive_reference():
    for polys, (images, one, mul, scaled_sum) in seeded_cases():
        got = list(evaluate_polys(polys, images, one, mul, scaled_sum))
        assert got == naive_reference(polys, images, one, mul, scaled_sum)


def test_evaluate_polys_makes_no_more_products_than_per_axis_powers():
    fewer = 0
    for polys, (images, one, mul, scaled_sum) in seeded_cases():
        kept_mul, kept = counting(mul)
        got = list(evaluate_polys(polys, images, one, kept_mul, scaled_sum))
        ref_mul, ref = counting(mul)
        assert got == per_axis_reference(polys, images, one, ref_mul, scaled_sum)
        assert len(kept) <= len(ref)
        fewer += len(kept) < len(ref)
    # the polynomials share most monomials, so every case makes fewer
    assert fewer == 4


def test_a_replaced_image_drops_only_its_axis_products():
    rng = random.Random(7)
    polys = seeded_polys(rng, 4, 3, 0.7)
    x, y, z = seeded_series(rng, 12)
    products = {}
    list(evaluate_polys(polys, *on_series(x, y, z), products=products))
    before = dict(products)
    assert any(m[1] and m != Y for m in before)
    y2 = y + TruncSeries({2: 1}, 12)
    # with no polynomial to evaluate, the call only brings the table up to date
    list(evaluate_polys([], *on_series(x, y2, z), products=products))
    assert products == {m: v for m, v in before.items() if not m[1]} | {Y: y2}
    assert all(products[m] is v for m, v in before.items() if not m[1])
    kept = list(evaluate_polys(polys, *on_series(x, y2, z), products=products))
    assert kept == list(evaluate_polys(polys, *on_series(x, y2, z)))


def test_a_lone_mixed_monomial_is_not_kept():
    x, y, z = seeded_series(random.Random(3), 10)
    products = {}
    lone = [({(1, 1, 0): 1}, 1), ({(0, 2, 1): 1}, 1), ({(2, 0, 0): 1}, 1)]
    xy, y2z, x2 = evaluate_polys(lone, *on_series(x, y, z), products=products)
    assert (1, 1, 0) not in products and (0, 2, 1) not in products
    # the powers are kept, and a lone power is the kept object itself
    assert products[(2, 0, 0)] is x2 and (0, 2, 0) in products
    assert xy == (x * y).restrict(10) and y2z == (y * y * z).restrict(10)


def test_a_high_power_composes_without_deep_recursion():
    jet = PolyJet3([{X: 1, (2500, 0, 0): 1}, {Y: 1}, {Z: 1}], 3000)
    assert jet.compose(PolyJet3.identity(3000)) == jet


def test_inverse_doubles_its_exact_degree_per_pass(monkeypatch):
    original = PolyJet3.compose
    calls = []

    def compose(self, inner, degree=None):
        calls.append(degree)
        return original(self, inner, degree)

    monkeypatch.setattr(PolyJet3, "compose", compose)
    phi = PolyJet3([{X: 2, (0, 2, 0): 1}, {Y: 1, (2, 0, 0): F(1, 2)},
                    {Z: F(1, 3), (1, 1, 0): -1, (0, 0, 3): 1}], 9)
    for degree in (1, 2, 3, 5, 8, 9):
        calls.clear()
        inv = phi.inverse(degree)
        # two compositions per pass, so a pass per degree is too many
        assert len(calls) == 2 * ceil(log2(degree))
        assert original(phi, inv, degree) == PolyJet3.identity(degree)


WEIGHTS = (None, 1, 2, 3, 5, 7, 14)


@pytest.mark.parametrize("bound", range(-1, 13))
def test_monomials_filter_the_weighted_box(bound):
    box = [e for e in product(range(max(bound, 0) + 1), repeat=3) if any(e)]
    for weights in product(WEIGHTS, repeat=3):
        # an axis of weight None weighs more than the bound, so it never
        # occurs; neither does one of a finite weight above the bound
        a, b, c = (bound + 1 if w is None else w for w in weights)
        expected = [e for e in box if e[0] * a + e[1] * b + e[2] * c <= bound]
        assert monomials(bound, weights) == expected


@pytest.mark.parametrize("degree", range(-1, 13))
def test_monomials_default_to_total_degree(degree):
    assert monomials(degree) == [(i, j, k)
                                 for i in range(degree + 1)
                                 for j in range(degree + 1 - i)
                                 for k in range(degree + 1 - i - j)
                                 if i + j + k]
