"""Diffeomorphism invariants of curve germs.

Multiplicity, the value semigroup with certifying witness polynomials, and
a bounded planarity decision by exact rational linear algebra. Every verdict
is certified only up to its stated bound; nothing is extrapolated past the
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .curves import CurveGerm
from .errors import DomainError, InsufficientTruncation
from .jets import integer_poly, monomials, poly_scaled_sum
from .series import IntPoly, Mono, TruncSeries, evaluate_polys, on_series

#: Default certification bound for semigroups.
DEFAULT_SEMIGROUP_BOUND = 24

#: Default bounds for the planarity decision.
DEFAULT_PLANARITY_DEGREE = 7
DEFAULT_PLANARITY_ORDER = 40


def multiplicity(c: CurveGerm) -> int:
    """Minimum of the component orders."""
    orders = [s.order() for s in c.components if s.order() is not None]
    if not orders:
        raise InsufficientTruncation("all components vanish up to truncation")
    return min(orders)


def well_parameterized(c: CurveGerm) -> bool:
    """True when the exponents present have gcd 1 (no t -> t^d factoring)."""
    if c.is_constant():
        raise InsufficientTruncation("the curve vanishes up to truncation")
    return gcd(*(d for s in c.components for d in s.numerators()[0])) == 1


# -- value semigroup ---------------------------------------------------------


@dataclass(frozen=True)
class Semigroup:
    """Orders of functions along the curve, certified up to ``bound``.

    ``witnesses`` maps each element to a polynomial in integer form whose
    composition with the curve has exactly that order.
    """

    elements: tuple[int, ...]
    gaps: tuple[int, ...]
    bound: int
    conductor: int | None
    witnesses: Mapping[int, IntPoly]
    component_orders: tuple[int | None, int | None, int | None]

    def witness_for(self, n: int) -> IntPoly:
        """Witness polynomial for ``n``, synthesized past the bound when ``n``
        decomposes as a stored element plus component orders.

        The largest stored element that works is taken, times the
        lexicographically largest monomial whose weighted degree in the
        component orders is exactly the rest. Multiplying a stored witness by
        a coordinate monomial adds the component orders exactly, so the
        synthesized order is certified too. A stored witness is shared:
        callers must not modify it.
        """
        if n in self.witnesses:
            return self.witnesses[n]
        wx, wy, wz = (w or 0 for w in self.component_orders)
        for base in sorted(self.witnesses, reverse=True):
            rest = n - base
            for mono in reversed(monomials(rest, self.component_orders)):
                i, j, k = mono
                if i * wx + j * wy + k * wz == rest:
                    return _poly_mul_mono(self.witnesses[base], mono)
        raise DomainError(f"{n} has no certified witness up to bound {self.bound}")


def _poly_mul_mono(poly: IntPoly, mono: Mono) -> IntPoly:
    return ({(m[0] + mono[0], m[1] + mono[1], m[2] + mono[2]): x
             for m, x in poly[0].items()}, poly[1])


def poly_on_curve(poly: IntPoly, c: CurveGerm,
                  products: dict[Mono, TruncSeries] | None = None) -> TruncSeries:
    """Compose a polynomial in (x, y, z), in integer form, with the curve;
    ``products`` keeps the monomial products of its components as in
    :func:`series.evaluate_polys`."""
    return next(evaluate_polys([poly], *on_series(*c.components), products=products))


def _cleared(vec: dict[int, int], wit: dict[Mono, int], den: int,
             pvec: dict[int, int], pwit: dict[Mono, int],
             lead: int) -> tuple[dict[int, int], dict[Mono, int], int]:
    """The row (vec, wit)/den minus the multiple of the pivot row that clears
    order ``lead``, with the content divided out and the denominator positive.

    Fraction-free (Bareiss): with P the pivot's numerators over any
    denominator and a/b = P[l]/vec[l] in lowest terms with a > 0, the result
    is (a*vec - b*P) / (den*a). The pivot's denominator cancels, so this is
    exactly the rational row that subtracting vec[l]/P[l] times the pivot
    gives.
    """
    common = gcd(pvec[lead], vec[lead])
    if pvec[lead] < 0:
        common = -common  # keeps den * a positive
    a, b = pvec[lead] // common, vec[lead] // common
    out = []
    for row, pivot in ((vec, pvec), (wit, pwit)):
        row = {key: a * x for key, x in row.items()}
        for key, x in pivot.items():
            value = row.get(key, 0) - b * x
            if value:
                row[key] = value
            else:
                del row[key]
        out.append(row)
    vec, wit = out
    den *= a
    content = gcd(den, *vec.values(), *wit.values())
    if content != 1:
        vec = {key: x // content for key, x in vec.items()}
        wit = {key: x // content for key, x in wit.items()}
        den //= content
    return vec, wit, den


def semigroup(c: CurveGerm, bound: int = DEFAULT_SEMIGROUP_BOUND) -> Semigroup:
    """Certified initial segment of the curve's value semigroup.

    The monomials whose composition with the curve leads at or below the
    bound are composed one at a time, in the order of that lead, and reduced
    by leading order with exact fraction-free elimination on integer
    numerators; the surviving leading orders are the elements, and the
    tracked combinations are the witnesses. Cancellation between equal
    leading terms is what lets elements appear that no single monomial
    realizes.

    A monomial's composition leads exactly at its weighted degree in the
    component orders, since the leading coefficients multiply to a nonzero
    number. The elimination stops once its answer is settled: pivots are
    never modified and a row's lead only grows, so a row led inside the
    filled tail (every order from there to the bound a pivot) can only
    reduce to zero. Such a row is dropped, and no column whose lead falls in
    that tail is built.
    """
    if not well_parameterized(c):
        raise DomainError("the semigroup is defined for well-parameterized germs")
    if bound < 1:
        raise DomainError("semigroup bound must be positive")
    if bound > c.trunc:
        raise InsufficientTruncation(
            f"semigroup bound {bound} exceeds curve truncation {c.trunc}")
    orders = tuple(s.order() for s in c.components)
    wx, wy, wz = (w or 0 for w in orders)
    # (lead, monomial) pairs; equal leads stay in lexicographic order
    ranked = sorted((i * wx + j * wy + k * wz, (i, j, k))
                    for i, j, k in monomials(bound, orders))
    columns = evaluate_polys((({m: 1}, 1) for _, m in ranked),
                             *on_series(*c.restrict(bound).components))
    # eliminate by leading order, keeping one pivot row per order; a row
    # (vec, wit, den) is the composed series vec/den and its witness wit/den,
    # both as integer numerators over one positive denominator. Every order
    # in [full_from, bound] is a pivot.
    pivots: dict[int, tuple[dict[int, int], dict[Mono, int], int]] = {}
    full_from = bound + 1
    for degree, mono in ranked:
        if degree >= full_from:
            break  # checked before the column is pulled, so it is never built
        vec, den = next(columns).numerators()
        wit = {mono: den}
        while vec and (lead := min(vec)) < full_from:
            if lead not in pivots:
                pivots[lead] = (vec, wit, den)
                while full_from - 1 in pivots:
                    full_from -= 1
                break
            pvec, pwit, _ = pivots[lead]
            vec, wit, den = _cleared(vec, wit, den, pvec, pwit, lead)
    elements = tuple(sorted(pivots))
    gaps = tuple(n for n in range(1, bound + 1) if n not in pivots)
    conductor = full_from if full_from <= bound else None
    # a row's content was divided out of its series and witness together
    witnesses = {e: poly_scaled_sum([(1, (wit, 1))], den)
                 for e, (_, wit, den) in pivots.items()}
    return Semigroup(elements, gaps, bound, conductor, witnesses, orders)


# -- planarity ------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarityVerdict:
    """Outcome of the bounded planarity decision.

    ``kind`` is "planar-witness" (with a defining function whose composition
    with the curve vanishes past the order bound), "obstructed" (no function
    with nonzero linear part can do so within the degree bound; the minimal
    order forcing this is reported), or "undetermined" (bounds exceed what
    the truncation can certify).
    """

    kind: str
    degree_bound: int
    order_bound: int
    witness: IntPoly | None = None
    obstruction_order: int | None = None


def _subtract_scaled(target: dict, factor: Fraction, source: Mapping) -> None:
    """target -= factor * source, dropping entries that become zero."""
    for key, coeff in source.items():
        value = target.get(key, 0) - factor * coeff
        if value == 0:
            target.pop(key, None)
        else:
            target[key] = value


def _obstruction_or_witness(rows: Iterable[dict[int, Fraction]],
                            monos: list[Mono]) -> int | IntPoly:
    """Add the equations ``rows`` (column -> coefficient, one column per
    monomial) one at a time to a fully reduced echelon basis.

    Returns the number of rows after which every solution f of rows . f = 0
    has zero linear part. When that never happens, returns the null vector of
    the first free column whose linear part is nonzero, in integer form; the
    reduced echelon form is unique, so this vector is too.
    """
    linear = [i for i, m in enumerate(monos) if sum(m) == 1]
    basis: dict[int, dict[int, Fraction]] = {}
    for count, row in enumerate(rows, start=1):
        # basis rows vanish in each other's pivot columns, so one pass clears
        # every pivot column of the new row
        for pivot in [col for col in row if col in basis]:
            _subtract_scaled(row, row[pivot], basis[pivot])
        if row:
            lead = min(row)
            scale = row[lead]
            row = {col: coeff / scale for col, coeff in row.items()}
            for other in basis.values():
                if lead in other:
                    _subtract_scaled(other, other[lead], row)
            basis[lead] = row
        if all(len(basis.get(col, ())) == 1 for col in linear):
            return count
    for free in range(len(monos)):
        if free in basis:
            continue
        vec = {free: Fraction(1)}
        for pivot in sorted(basis):
            value = basis[pivot].get(free)
            if value is not None:
                vec[pivot] = -value
        if any(col in vec for col in linear):
            return integer_poly({monos[col]: value for col, value in vec.items()})
    raise AssertionError("every linear column is free or shares its row "
                         "with a free column")


def planarity(c: CurveGerm,
              degree_bound: int = DEFAULT_PLANARITY_DEGREE,
              order_bound: int = DEFAULT_PLANARITY_ORDER) -> PlanarityVerdict:
    """Look for a local defining function vanishing along the curve.

    Searches f built from monomials of total degree <= ``degree_bound`` with
    df(0) != 0 and ord(f o c) > ``order_bound`` by exact linear algebra; only
    the degrees that can compose to order <= ``order_bound`` are enumerated,
    so the work is bounded by the order bound whatever the degree bound.
    A found witness is re-verified by substitution. When no such f exists
    the verdict reports the smallest order bound that already obstructs.
    """
    if not well_parameterized(c):
        raise DomainError("planarity is decided for well-parameterized germs")
    if degree_bound < 1 or order_bound < 1:
        raise DomainError("planarity bounds must be at least 1 "
                          f"(degree bound {degree_bound}, order bound {order_bound})")
    if order_bound > c.trunc:
        return PlanarityVerdict("undetermined", degree_bound, order_bound)
    # a monomial of total degree above order_bound // multiplicity composes
    # to order > order_bound: its column is zero, so it is never a pivot and
    # never a witness's linear column
    degree = min(degree_bound, max(1, order_bound // multiplicity(c)))
    monos = sorted(monomials(degree), key=lambda m: (sum(m), m))
    low = c.restrict(order_bound)
    columns = evaluate_polys((({m: 1}, 1) for m in monos),
                             *on_series(*low.components))
    rows: list[dict[int, Fraction]] = [{} for _ in range(order_bound)]
    for i, s in enumerate(columns):
        for order, coeff in s.terms():
            rows[order - 1][i] = coeff
    found = _obstruction_or_witness(rows, monos)
    if isinstance(found, int):
        return PlanarityVerdict("obstructed", degree_bound, order_bound,
                                obstruction_order=found)
    composed = poly_on_curve(found, c)
    if not (composed.order() is None or composed.order() > order_bound):
        raise AssertionError("planarity witness failed re-verification")
    return PlanarityVerdict("planar-witness", degree_bound, order_bound,
                            witness=found)
