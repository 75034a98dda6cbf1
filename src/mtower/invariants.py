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
from .jets import Mono, PolyTable, evaluate_polys, on_series
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

    ``witnesses`` maps each element to a polynomial (exponent triple ->
    coefficient) whose composition with the curve has exactly that order.
    """

    elements: tuple[int, ...]
    gaps: tuple[int, ...]
    bound: int
    conductor: int | None
    witnesses: Mapping[int, PolyTable]
    component_orders: tuple[int | None, int | None, int | None]

    def __contains__(self, n: int) -> bool:
        return n in set(self.elements)

    def witness_for(self, n: int) -> PolyTable:
        """Witness polynomial for ``n``, synthesized past the bound when ``n``
        decomposes as a stored element plus component orders.

        Multiplying a stored witness by a coordinate monomial adds the
        component orders exactly, so the synthesized order is certified too.
        """
        if n in self.witnesses:
            return dict(self.witnesses[n])
        orders = [(i, o) for i, o in enumerate(self.component_orders)
                  if o is not None and o > 0]
        for base in sorted(self.witnesses, reverse=True):
            mono = _order_decomposition(n - base, orders)
            if mono is not None:
                return _poly_mul_mono(self.witnesses[base], mono)
        raise DomainError(f"{n} has no certified witness up to bound {self.bound}")


def _poly_mul_mono(poly: PolyTable, mono: Mono) -> PolyTable:
    return {(m[0] + mono[0], m[1] + mono[1], m[2] + mono[2]): c
            for m, c in poly.items()}


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


def poly_on_curve(poly: Mapping[Mono, Fraction], c: CurveGerm) -> TruncSeries:
    """Compose a polynomial in (x, y, z) with the curve."""
    return next(evaluate_polys([poly], *on_series(*c.components)))


def _subtract(target: dict, factor: Fraction, source: Mapping) -> None:
    """target -= factor * source, dropping entries that become zero."""
    for key, coeff in source.items():
        value = target.get(key, Fraction(0)) - factor * coeff
        if value == 0:
            target.pop(key, None)
        else:
            target[key] = value


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


def semigroup(c: CurveGerm, bound: int = DEFAULT_SEMIGROUP_BOUND) -> Semigroup:
    """Certified initial segment of the curve's value semigroup.

    All monomials that can reach the bound are composed with the curve and
    reduced by leading order with exact rational elimination; the surviving
    leading orders are the elements, and the tracked combinations are the
    witnesses. Cancellation between equal leading terms is what lets
    elements appear that no single monomial realizes.
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
    columns = evaluate_polys(({m: Fraction(1)} for m in monos),
                             *on_series(*c.restrict(bound).components))
    rows = [(series.coeffs, {mono: Fraction(1)})
            for mono, series in zip(monos, columns)]
    # eliminate by leading order, keeping one pivot row per order
    pivots: dict[int, tuple[dict[int, Fraction], PolyTable]] = {}
    rows.sort(key=lambda r: min(r[0]) if r[0] else bound + 1)
    for vec, wit in rows:
        while vec:
            lead = min(vec)
            if lead not in pivots:
                pivots[lead] = (vec, wit)
                break
            pvec, pwit = pivots[lead]
            factor = vec[lead] / pvec[lead]
            _subtract(vec, factor, pvec)
            _subtract(wit, factor, pwit)
    elements = tuple(sorted(pivots))
    gaps = tuple(n for n in range(1, bound + 1) if n not in pivots)
    conductor = None
    n = bound
    while n >= 1 and n in pivots:
        conductor = n
        n -= 1
    witnesses = {e: dict(w) for e, (v, w) in pivots.items()}
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
    witness: PolyTable | None = None
    obstruction_order: int | None = None


def _obstruction_or_witness(rows: Iterable[dict[int, Fraction]],
                            monos: list[Mono]) -> int | PolyTable:
    """Add the equations ``rows`` (column -> coefficient, one column per
    monomial) one at a time to a fully reduced echelon basis.

    Returns the number of rows after which every solution f of rows . f = 0
    has zero linear part. When that never happens, returns the null vector of
    the first free column whose linear part is nonzero; the reduced echelon
    form is unique, so this vector is too.
    """
    linear = [i for i, m in enumerate(monos) if sum(m) == 1]
    basis: dict[int, dict[int, Fraction]] = {}
    for count, row in enumerate(rows, start=1):
        # basis rows vanish in each other's pivot columns, so one pass clears
        # every pivot column of the new row
        for pivot in [col for col in row if col in basis]:
            _subtract(row, row[pivot], basis[pivot])
        if row:
            lead = min(row)
            scale = row[lead]
            row = {col: coeff / scale for col, coeff in row.items()}
            for other in basis.values():
                if lead in other:
                    _subtract(other, other[lead], row)
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
            return {monos[col]: value for col, value in vec.items()}
    raise AssertionError("every linear column is free or shares its row "
                         "with a free column")


def planarity(c: CurveGerm,
              degree_bound: int = DEFAULT_PLANARITY_DEGREE,
              order_bound: int = DEFAULT_PLANARITY_ORDER) -> PlanarityVerdict:
    """Look for a local defining function vanishing along the curve.

    Searches f built from monomials of total degree <= ``degree_bound`` with
    df(0) != 0 and ord(f o c) > ``order_bound`` by exact linear algebra.
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
    monos = [(i, j, k)
             for total in range(1, degree_bound + 1)
             for i in range(total + 1)
             for j in range(total + 1 - i)
             for k in (total - i - j,)]
    monos.sort(key=lambda m: (sum(m), m))
    low = c.restrict(order_bound)
    columns = evaluate_polys(({m: Fraction(1)} for m in monos),
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
