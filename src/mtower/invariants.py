"""Diffeomorphism invariants of curve germs.

Multiplicity, the value semigroup with certifying witness polynomials, the
Arnol'd-style symbol of monomial-like germs, and a bounded planarity
decision by exact rational linear algebra. Every verdict is certified only
up to its stated bound; nothing is extrapolated past the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .curves import CurveGerm
from .errors import DomainError, InsufficientTruncation
from .jets import (IntPoly, Mono, evaluate_polys, integer_poly, monomials,
                   on_series, poly_scaled_sum)
from .series import TruncSeries

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
    g = 0
    for s in c.components:
        for d, _ in s.terms():
            g = gcd(g, d)
    return g == 1


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

        Multiplying a stored witness by a coordinate monomial adds the
        component orders exactly, so the synthesized order is certified too.
        A stored witness is shared: callers must not modify it.
        """
        if n in self.witnesses:
            return self.witnesses[n]
        orders = [(i, o) for i, o in enumerate(self.component_orders)
                  if o is not None and o > 0]
        for base in sorted(self.witnesses, reverse=True):
            mono = _order_decomposition(n - base, orders)
            if mono is not None:
                return _poly_mul_mono(self.witnesses[base], mono)
        raise DomainError(f"{n} has no certified witness up to bound {self.bound}")


def _poly_mul_mono(poly: IntPoly, mono: Mono) -> IntPoly:
    return ({(m[0] + mono[0], m[1] + mono[1], m[2] + mono[2]): x
             for m, x in poly[0].items()}, poly[1])


def _order_decomposition(target: int,
                         orders: list[tuple[int, int]]) -> Mono | None:
    """Exponent triple with sum(e_i * order_i) == target, or None."""
    if target < 0:
        return None
    if target == 0:
        return (0, 0, 0)
    reachable: dict[int, Mono] = {0: (0, 0, 0)}
    for value in range(1, target + 1):
        for axis, o in orders:
            prev = reachable.get(value - o)
            if prev is not None:
                e = list(prev)
                e[axis] += 1
                reachable[value] = (e[0], e[1], e[2])
                break
    return reachable.get(target)


def poly_on_curve(poly: IntPoly, c: CurveGerm) -> TruncSeries:
    """Compose a polynomial in (x, y, z), in integer form, with the curve."""
    return next(evaluate_polys([poly], *on_series(*c.components)))


def _monomials_within(orders: Sequence[int | None], bound: int) -> list[Mono]:
    """Exponent triples whose composition order can reach the bound."""
    out: list[Mono] = []
    ox, oy, oz = orders
    max_i = bound // ox if ox else 0
    for i in range(max_i + 1):
        rem_i = bound - i * (ox or 0)
        max_j = rem_i // oy if oy else 0
        for j in range(max_j + 1):
            rem_j = rem_i - j * (oy or 0)
            max_k = rem_j // oz if oz else 0
            for k in range(max_k + 1):
                if i + j + k >= 1:
                    out.append((i, j, k))
    return out


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

    All monomials that can reach the bound are composed with the curve and
    reduced by leading order with exact fraction-free elimination on integer
    numerators; the surviving leading orders are the elements, and the
    tracked combinations are the witnesses. Cancellation between equal
    leading terms is what lets elements appear that no single monomial
    realizes.
    """
    if not well_parameterized(c):
        raise DomainError("the semigroup is defined for well-parameterized germs")
    if bound < 1:
        raise DomainError("semigroup bound must be positive")
    if bound > c.trunc:
        raise InsufficientTruncation(
            f"semigroup bound {bound} exceeds curve truncation {c.trunc}")
    orders = tuple(s.order() for s in c.components)
    usable = tuple(o if o is not None and o <= bound else None for o in orders)
    monos = _monomials_within(usable, bound)
    columns = evaluate_polys((({m: 1}, 1) for m in monos),
                             *on_series(*c.restrict(bound).components))
    # a row (vec, wit, den) is the composed series vec/den and its witness
    # wit/den, both as integer numerators over one positive denominator
    rows = []
    for mono, series in zip(monos, columns):
        num, den = series.numerators()
        rows.append((num, {mono: den}, den))
    # eliminate by leading order, keeping one pivot row per order
    pivots: dict[int, tuple[dict[int, int], dict[Mono, int], int]] = {}
    rows.sort(key=lambda r: min(r[0]) if r[0] else bound + 1)
    for vec, wit, den in rows:
        while vec:
            lead = min(vec)
            if lead not in pivots:
                pivots[lead] = (vec, wit, den)
                break
            pvec, pwit, _ = pivots[lead]
            vec, wit, den = _cleared(vec, wit, den, pvec, pwit, lead)
    elements = tuple(sorted(pivots))
    gaps = tuple(n for n in range(1, bound + 1) if n not in pivots)
    conductor = None
    n = bound
    while n >= 1 and n in pivots:
        conductor = n
        n -= 1
    # a row's content was divided out of its series and witness together
    witnesses = {e: poly_scaled_sum([(1, (wit, 1))], den)
                 for e, (_, wit, den) in pivots.items()}
    return Semigroup(elements, gaps, bound, conductor, witnesses, orders)


# -- Arnol'd symbol -----------------------------------------------------------


@dataclass(frozen=True)
class ArnoldSymbol:
    """Shape [m,n], [m,n,p] or [m,(n,p)] of a monomial-like germ."""

    kind: str  # "two", "three", "paired"
    m: int
    n: int
    p: int | None = None

    def __str__(self) -> str:
        if self.kind == "two":
            return f"[{self.m},{self.n}]"
        if self.kind == "three":
            return f"[{self.m},{self.n},{self.p}]"
        return f"[{self.m},({self.n},{self.p})]"


def arnold_symbol(c: CurveGerm) -> ArnoldSymbol:
    """Detect the symbol from the exponent support of the components.

    Components are taken in increasing order of their leading exponents;
    coefficients are irrelevant (scalings are equivalences). Shapes outside
    the three recognized ones are refused.
    """
    comps = sorted((s for s in c.components if not s.is_zero()),
                   key=lambda s: s.order())
    if len(comps) < 2:
        raise DomainError("no symbol detected within truncation")
    supports = [sorted(d for d, _ in s.terms()) for s in comps]
    m = supports[0][0]
    n = supports[1][0]
    if not m < n:
        raise DomainError("no symbol detected within truncation")
    if len(comps) == 3:
        p = supports[2][0]
        if n < p and _clean_through(supports[0], p, {m}) \
                and _clean_through(supports[1], p, {n}) \
                and _clean_through(supports[2], p, {p}):
            return ArnoldSymbol("three", m, n, p)
        raise DomainError("no symbol detected within truncation")
    second = supports[1]
    extras = [d for d in second if d != n]
    if not extras:
        if _clean_through(supports[0], n, {m}):
            return ArnoldSymbol("two", m, n)
        raise DomainError("no symbol detected within truncation")
    p = extras[0]
    if _clean_through(supports[0], p, {m}) and _clean_through(second, p, {n, p}):
        return ArnoldSymbol("paired", m, n, p)
    if _clean_through(supports[0], n, {m}) and all(d > n for d in extras):
        return ArnoldSymbol("two", m, n)
    raise DomainError("no symbol detected within truncation")


def _clean_through(support: Iterable[int], limit: int, allowed: set[int]) -> bool:
    return all(d in allowed or d > limit for d in support)


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
        value = target.get(key, Fraction(0)) - factor * coeff
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
