"""Truncated-series arithmetic against independent oracles."""

from fractions import Fraction
from math import ceil, log2

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import (rs_integrate, rs_mul, rs_nth_root,
                                     rs_series_inversion, rs_series_reversion,
                                     rs_subs)
from sympy.polys.rings import ring

from mtower.errors import DomainError, InsufficientTruncation, MTError
from mtower.series import (MAX_TRUNC, TruncSeries, compose_all,
                           format_rational, parse_rational)

F = Fraction


def poly(*pairs, trunc=20):
    return TruncSeries(dict(pairs), trunc)


small_fractions = st.builds(
    F, st.integers(-5, 5), st.integers(1, 3))


def series_strategy(min_order=0, trunc=16):
    return st.dictionaries(st.integers(min_order, trunc), small_fractions,
                           max_size=6).map(lambda d: TruncSeries(d, trunc))


# -- order ------------------------------------------------------------------

def test_order_of_polynomial():
    assert poly((3, 1), (5, 1)).order() == 3


def test_order_of_zero_series_is_sentinel():
    assert TruncSeries.zero(20).order() is None


def test_order_of_y_component_with_higher_terms():
    s = poly((5, 1), (7, F(2)))
    assert s.order() == 5


# -- multiplication ---------------------------------------------------------

def test_monomial_product():
    t2, t3 = poly((2, 1)), poly((3, 1))
    assert (t2 * t3).terms() == [(5, F(1))]


def test_order_additivity_on_equal_orders():
    a = poly((3, 1)) * poly((3, 1))
    b = poly((5, 1)) * poly((1, 1))
    assert a.order() == b.order() == 6


def test_square_by_hand_expansion():
    # (t^3 + t^4)^2 expanded by hand: t^6 + 2 t^7 + t^8
    s = poly((3, 1), (4, 1))
    assert (s * s).terms() == [(6, F(1)), (7, F(2)), (8, F(1))]


@given(series_strategy(min_order=1), series_strategy(min_order=1))
def test_order_additivity_property(a, b):
    p = a * b
    if a.order() is None or b.order() is None:
        assert p.order() is None or p.order() > p.trunc - 1 or p.is_zero()
    elif a.order() + b.order() <= p.trunc:
        assert p.order() == a.order() + b.order()


# -- composition -------------------------------------------------------------

def test_compose_with_identity_is_identity():
    s = poly((2, F(3, 2)), (5, F(-1, 7)))
    t = TruncSeries.monomial(1, 1, 20)
    assert s.compose(t) == s


def test_compose_rejects_nonvanishing_inner():
    s = poly((1, 1))
    with pytest.raises(DomainError):
        s.compose(poly((0, 1), (1, 1)))


def test_compose_reproduces_cubic_reparametrization():
    # x(t) = t^3 + a t^4 under t = T(1 - (a/3) T) loses its t^4 term.
    a = F(2, 5)
    x = poly((3, 1), (4, a), trunc=12)
    inner = poly((1, 1), (2, -a / 3), trunc=12)
    out = x.compose(inner)
    assert out.coefficient(3) == 1
    assert out.coefficient(4) == 0


def test_compose_second_reparametrization_step():
    # x(T) = T^3 + b T^7 under T = S(1 - (b/3) S^4) becomes S^3 + O(S^8).
    b = F(7, 4)
    x = poly((3, 1), (7, b), trunc=14)
    inner = poly((1, 1), (5, -b / 3), trunc=14)
    out = x.compose(inner)
    assert out.coefficient(3) == 1
    for d in range(4, 8):
        assert out.coefficient(d) == 0


@given(series_strategy(min_order=1, trunc=10),
       series_strategy(min_order=1, trunc=10),
       series_strategy(min_order=1, trunc=10))
@settings(max_examples=40)
def test_compose_associativity(a, b, c):
    if b.order() is None or c.order() is None:
        return
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    through = min(left.trunc, right.trunc)
    assert left.agrees_with(right, through)


# -- unit roots ---------------------------------------------------------------

def binomial_series_oracle(alpha, trunc):
    """Coefficients of (1+t)^alpha via the plain binomial formula."""
    coeffs = {0: F(1)}
    c = F(1)
    for k in range(1, trunc + 1):
        c = c * (alpha - (k - 1)) / k
        coeffs[k] = c
    return TruncSeries(coeffs, trunc)


def test_unit_root_of_one():
    one = poly((0, 1))
    assert one.unit_root(3) == one


def test_unit_root_matches_binomial_oracle():
    s = poly((0, 1), (1, 1), trunc=12)
    expected = binomial_series_oracle(F(1, 2), 12)
    assert s.unit_root(2) == expected


def test_unit_root_cube_multiplies_back():
    s = poly((0, 1), (2, F(3, 5)), trunc=18)
    u = s.unit_root(3)
    cube = u * u * u
    assert cube.agrees_with(s, 18)


def test_unit_root_rejects_non_unit():
    with pytest.raises(DomainError):
        poly((1, 1)).unit_root(2)


@given(series_strategy(min_order=1, trunc=12), st.integers(1, 5))
@settings(max_examples=40)
def test_unit_root_power_property(h, m):
    s = TruncSeries({0: 1}, 12) + h
    u = s.unit_root(m)
    p = u
    for _ in range(m - 1):
        p = p * u
    assert p.agrees_with(s, 12)


# -- parameter inversion -------------------------------------------------------

def lagrange_reversion_oracle(s, trunc):
    """Compositional inverse coefficients from the Lagrange formula.

    g_n = (1/n) [t^(n-1)] (t / s(t))^n, entirely independent of the
    doubling step used by the implementation.
    """
    coeffs = {}
    ratio = TruncSeries.monomial(1, 1, trunc + 1).divide(s)
    power = TruncSeries({0: 1}, trunc + 1)
    for n in range(1, trunc + 1):
        power = power * ratio
        coeffs[n] = power.coefficient(n - 1) / n
    return TruncSeries(coeffs, trunc)


def test_param_inverse_of_identity():
    t = TruncSeries.monomial(1, 1, 16)
    assert t.param_inverse() == t


def test_param_inverse_linear_correction():
    a = F(4, 3)
    s = poly((1, 1), (2, -a / 3), trunc=10)
    inv = s.param_inverse()
    assert inv.coefficient(1) == 1
    assert inv.coefficient(2) == a / 3


def test_param_inverse_matches_lagrange_oracle():
    s = poly((1, 2), (2, F(1, 3)), (4, F(-2, 5)), trunc=12)
    assert s.param_inverse() == lagrange_reversion_oracle(s, 12)


def test_param_inverse_doubles_its_exact_order_per_pass(monkeypatch):
    original = TruncSeries.compose
    calls = []

    def compose(self, inner):
        calls.append(inner)
        return original(self, inner)

    monkeypatch.setattr(TruncSeries, "compose", compose)
    for trunc in (1, 2, 3, 9, 16, 17):
        s = poly((1, 3), (2, -1), (5, F(1, 2)), trunc=trunc)
        calls.clear()
        inv = s.param_inverse()
        # two compositions per pass
        assert len(calls) == 2 * ceil(log2(trunc))
        assert inv == lagrange_reversion_oracle(s, trunc)


def test_param_inverse_rejects_wrong_order():
    with pytest.raises(DomainError):
        poly((2, 1)).param_inverse()


@given(st.lists(small_fractions, min_size=0, max_size=5),
       st.sampled_from([1, 2, -1, F(1, 2), F(-3, 2)]))
@settings(max_examples=20)
def test_param_inverse_round_trip(tail, lead):
    coeffs = {1: lead}
    for i, c in enumerate(tail, start=2):
        coeffs[i] = c
    s = TruncSeries(coeffs, 14)
    inv = s.param_inverse()
    round_trip = s.compose(inv)
    assert round_trip.agrees_with(TruncSeries.monomial(1, 1, 14), 14)


# -- truncation honesty ---------------------------------------------------------

def test_coefficient_beyond_trunc_raises():
    s = poly((1, 1), trunc=5)
    with pytest.raises(InsufficientTruncation):
        s.coefficient(6)


def test_terms_past_max_trunc_are_dropped():
    for s in (TruncSeries({280: 1}, 300), TruncSeries({250: 1}, 256).shift(10)):
        assert s.trunc == MAX_TRUNC and s.is_zero()
        assert repr(s) == f"O(t^{MAX_TRUNC + 1})"


def test_divide_truncation_shortfall_is_not_a_domain_error():
    with pytest.raises(InsufficientTruncation):
        poly((1, 1)).divide(TruncSeries.zero(8))
    with pytest.raises(InsufficientTruncation):
        TruncSeries({}, 2).divide(TruncSeries({5: 1}, 8))
    # a nonzero numerator of lower order is a genuine domain error
    with pytest.raises(DomainError):
        poly((1, 1)).divide(poly((2, 1)))


def test_multiplication_trunc_rule():
    # min(trunc_a + ord_b, trunc_b + ord_a): the unknown tail of b past
    # degree 10 meets the t^3 term of a at degree 14.
    a = TruncSeries({3: 1}, 10)
    b = TruncSeries({5: 1}, 10)
    assert (a * b).trunc == 13


def test_determinism_of_repeated_runs():
    a = poly((1, F(2, 3)), (4, F(-5, 2)), trunc=30)
    b = poly((2, F(7, 3)), trunc=30)
    first = (a * b).compose(poly((1, 1), (2, F(1, 5)), trunc=30))
    second = (a * b).compose(poly((1, 1), (2, F(1, 5)), trunc=30))
    assert first == second and first.coeffs == second.coeffs


# -- rational literal round trip --------------------------------------------------

def test_parse_and_format_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(6, 8)) == "3/4"
    assert format_rational(F(-6, 3)) == "-2"


def test_parse_rejects_floats_and_garbage():
    for bad in ("1.5", "2e3", "3/0", "/4", "1/", "a", "\u00b2", "\u0661/\u0662",
                " 3", "+3", "3\n", 1, None, [1]):
        with pytest.raises(DomainError):
            parse_rational(bad)


# -- the integer kernel against sympy over QQ ----------------------------------------
#
# Operands are dense, few-term, monomial or zero, with coefficients of up to
# about 200 bits and truncations up to MAX_TRUNC; dense operands and units
# trade coefficient size for length so that the sympy side stays fast. Each
# expected truncation is restated from the documented rules.

QQ_T, SYM_T = ring("t", QQ)


@st.composite
def kernel_series(draw, max_trunc=MAX_TRUNC, max_bits=200, min_order=0,
                  unit=False):
    trunc = draw(st.one_of(st.integers(0, 12), st.integers(0, max_trunc)))
    kind = draw(st.sampled_from(["dense", "dense", "few", "monomial", "zero"]))
    bits = draw(st.integers(1, max_bits))
    if kind == "dense" or unit:
        bits = min(bits, max(4, 800 // (trunc + 1)))
    if kind == "dense":
        degrees = range(min_order, trunc + 1)
    elif kind == "few":
        degrees = draw(st.sets(st.integers(min_order, trunc + 2), max_size=4))
    elif kind == "monomial":
        degrees = [draw(st.integers(min_order, trunc + 2))]
    else:
        degrees = []
    if unit:
        degrees = sorted(set(degrees) | {0})
    size = 2 ** bits
    numerator = st.integers(-size, size).filter(bool)
    table = {d: F(draw(numerator), draw(st.integers(1, size))) for d in degrees}
    return TruncSeries(table, trunc)


def to_sympy(s):
    return QQ_T({(d,): QQ(c.numerator, c.denominator) for d, c in s.terms()})


def assert_matches(result, expected, trunc):
    """``result`` reports ``trunc`` and the coefficients of ``expected``
    through it."""
    assert result.trunc == trunc
    want = {d: F(int(c.numerator), int(c.denominator))
            for (d,), c in expected.terms() if d <= trunc}
    assert result.coeffs == want


def eff(s):
    return s.effective_order()


@given(kernel_series(), kernel_series())
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy(a, b):
    trunc = min(a.trunc + eff(b), b.trunc + eff(a), MAX_TRUNC)
    assert_matches(a * b, rs_mul(to_sympy(a), to_sympy(b), SYM_T, trunc + 1),
                   trunc)


@given(kernel_series(unit=True))
@settings(max_examples=40, deadline=None)
def test_reciprocal_matches_sympy(a):
    expected = rs_series_inversion(to_sympy(a), SYM_T, a.trunc + 1)
    assert_matches(a.reciprocal(), expected, a.trunc)


@given(kernel_series(max_trunc=96), kernel_series(max_trunc=96))
@settings(max_examples=60, deadline=None)
def test_divide_matches_sympy(a, b):
    ob = b.order()
    if ob is None or (a.is_zero() and a.trunc < ob):
        with pytest.raises(InsufficientTruncation):
            a.divide(b)
    elif eff(a) < ob:
        with pytest.raises(DomainError):
            a.divide(b)
    else:
        trunc = min(a.trunc, b.trunc + eff(a) - ob) - ob
        num, den = a.shift(-ob), b.shift(-ob)
        expected = rs_mul(to_sympy(num),
                          rs_series_inversion(to_sympy(den), SYM_T, trunc + 1),
                          SYM_T, trunc + 1)
        assert_matches(a.divide(b), expected, trunc)


def quotients_through(p, d, numerators):
    """The quotients numerator/d restricted to degree ``p``, or the class and
    message of what ``quotients`` raised."""
    try:
        return [q.restrict(p) for q in d.quotients(*numerators)]
    except MTError as exc:
        return type(exc), str(exc)


@given(kernel_series(max_trunc=64, unit=True), st.integers(0, 12),
       st.lists(kernel_series(max_trunc=96), min_size=1, max_size=3),
       st.integers(0, 48))
@settings(max_examples=60, deadline=None)
def test_quotients_through_p_read_operands_through_p_plus_their_order(
        unit, ob, numerators, p):
    # the capped top level of tower._climb rests on this
    d = unit.shift(ob)
    cut = p + ob
    assert (quotients_through(p, d.restrict(cut), [n.restrict(cut) for n in numerators])
            == quotients_through(p, d, numerators))


@given(kernel_series(max_trunc=40, max_bits=16),
       kernel_series(max_trunc=40, max_bits=16, min_order=1))
@settings(max_examples=60, deadline=None)
def test_compose_matches_sympy(a, g):
    og = eff(g)
    nonconst = [d for d, _ in a.terms() if d >= 1]
    trunc = (a.trunc + 1) * og - 1
    if nonconst:
        trunc = min(trunc, g.trunc + (min(nonconst) - 1) * og)
    trunc = min(trunc, MAX_TRUNC)
    expected = rs_subs(to_sympy(a), {SYM_T: to_sympy(g)}, SYM_T, trunc + 1)
    assert_matches(a.compose(g), expected, trunc)


@given(st.lists(kernel_series(max_trunc=40, max_bits=16), min_size=1, max_size=3),
       kernel_series(max_trunc=40, max_bits=16, min_order=1))
@settings(max_examples=40, deadline=None)
def test_compose_all_matches_each_compose(outers, g):
    # one table of powers, kept at the largest truncation, serves every outer
    assert compose_all(outers, g) == [a.compose(g) for a in outers]


@given(kernel_series(max_trunc=24, max_bits=16, min_order=1))
@settings(max_examples=40, deadline=None)
def test_param_inverse_matches_sympy(s):
    if s.order() != 1:
        with pytest.raises(DomainError):
            s.param_inverse()
        return
    expected = rs_series_reversion(to_sympy(s), SYM_T, s.trunc + 1, SYM_T)
    assert_matches(s.param_inverse(), expected, s.trunc)


@given(kernel_series(max_trunc=48, max_bits=16, min_order=1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_unit_root_matches_sympy(h, m):
    u = TruncSeries({0: 1}, h.trunc) + h
    expected = rs_nth_root(to_sympy(u), m, SYM_T, u.trunc + 1)
    assert_matches(u.unit_root(m), expected, u.trunc)


@given(kernel_series(), small_fractions)
@settings(max_examples=60, deadline=None)
def test_integral_matches_sympy(s, constant):
    expected = rs_integrate(to_sympy(s), SYM_T) + QQ(constant.numerator,
                                                     constant.denominator)
    assert_matches(s.integral(constant), expected, min(s.trunc + 1, MAX_TRUNC))
