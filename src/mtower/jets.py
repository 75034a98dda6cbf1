"""Polynomial jets of maps (R^3, 0) -> R^3 with exact rational coefficients.

A :class:`PolyJet3` is a triple of polynomials in (x, y, z) truncated at a
common total degree. Each polynomial is stored the way a series is: a sparse
table of integer numerators keyed by exponent triples over one positive
denominator, with no zero entries and the gcd content divided out, and every
query returns lowest-terms :class:`fractions.Fraction`. Jets compose,
substitute into curves, and invert (when the linear part is invertible);
these are the raw moves behind the prolonged action of diffeomorphism germs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import DomainError
from .series import (Rational, TruncSeries, _as_fraction, format_rational,
                     linear_combination, parse_integer, parse_key, parse_rational)

Mono = tuple[int, int, int]
PolyTable = dict[Mono, Fraction]
#: A polynomial as integer numerators over one positive denominator.
IntPoly = tuple[dict[Mono, int], int]

_ZERO = (0, 0, 0)
_AXES: tuple[Mono, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

T = TypeVar("T")


# -- the integer kernel ----------------------------------------------------------


def integer_poly(table: Mapping[Mono, Rational],
                 degree: int | None = None) -> IntPoly:
    """``table`` in canonical integer form, without the monomials of total
    degree above ``degree``."""
    fractions: PolyTable = {}
    for mono, value in table.items():
        i, j, k = mono
        if i < 0 or j < 0 or k < 0:
            raise DomainError("monomial exponents must be non-negative")
        if degree is not None and i + j + k > degree:
            continue
        q = _as_fraction(value)
        if q != 0:
            fractions[(i, j, k)] = q
    # lowest-terms coefficients over their lcm already have content 1
    den = lcm(*(q.denominator for q in fractions.values()))
    return ({m: q.numerator * (den // q.denominator) for m, q in fractions.items()},
            den)


def _canonical(num: dict[Mono, int], den: int) -> IntPoly:
    """num/den without zero entries and with the gcd content divided out."""
    num = {m: x for m, x in num.items() if x}
    if not num:
        return num, 1
    common = gcd(den, *num.values())
    if common > 1:
        num = {m: x // common for m, x in num.items()}
        den //= common
    return num, den


def _truncated(poly: IntPoly, degree: int) -> IntPoly:
    num, den = poly
    if all(sum(m) <= degree for m in num):
        return poly
    return _canonical({m: x for m, x in num.items() if sum(m) <= degree}, den)


def _poly_mul(a: IntPoly, b: IntPoly, degree: int) -> IntPoly:
    """The product a*b truncated at total degree ``degree``.

    The inner operand is visited in order of total degree, so each inner
    loop ends at the first term that would pass the truncation.
    """
    inner = sorted((sum(m), m, x) for m, x in b[0].items())
    out: dict[Mono, int] = {}
    for (i1, j1, k1), x1 in a[0].items():
        room = degree - i1 - j1 - k1
        for d2, (i2, j2, k2), x2 in inner:
            if d2 > room:
                break
            mono = (i1 + i2, j1 + j2, k1 + k2)
            out[mono] = out.get(mono, 0) + x1 * x2
    return _canonical(out, a[1] * b[1])


def poly_scaled_sum(terms: Iterable[tuple[int, IntPoly]], den: int) -> IntPoly:
    """(sum of c * poly over ``terms``) / ``den``, integer c and den > 0."""
    terms = list(terms)
    common = lcm(*(d for _, (_, d) in terms))
    acc: dict[Mono, int] = {}
    for c, (num, d) in terms:
        c *= common // d
        for m, x in num.items():
            acc[m] = acc.get(m, 0) + c * x
    return _canonical(acc, common * den)


def monomials(degree: int) -> list[Mono]:
    """Exponent triples of total degree 1..``degree``, in lexicographic order."""
    return [(i, j, k)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
            for k in range(degree + 1 - i - j)
            if i + j + k]


def evaluate_polys(polys: Iterable[IntPoly],
                   images: Sequence[T], one: T, mul: Callable[[T, T], T],
                   scaled_sum: Callable[[Iterator[tuple[int, T]], int], T],
                   powers: list[list[T]] | None = None) -> Iterator[T]:
    """Evaluate each polynomial at (x, y, z) = ``images``, one result per polynomial.

    The polynomials are in integer form (:func:`integer_poly`). ``one`` is the
    images' unit, ``mul`` their truncated product and ``scaled_sum(terms,
    den)`` adds up the (integer numerator, term) pairs and divides by the
    polynomial's denominator once. Every power of an axis is computed once
    and shared by all the polynomials; the polynomials are read and
    evaluated lazily, one at a time. A polynomial that is one axis alone
    (coefficient 1, denominator 1) yields that axis's image itself.

    The powers last for this call, or as long as the caller keeps
    ``powers``: a table of one list per axis (empty at first) that holds the
    powers of that axis's image between calls. A list is restarted whenever
    its axis's image is not the same object as before; since an identity
    component passes its image through, a loop that feeds each call the
    results of the last keeps the powers of the axes a step leaves in place.
    One table serves one ``mul`` (one truncation or degree).
    """
    if powers is None:
        powers = [[one, image] for image in images]
    else:
        for cached, image in zip(powers, images):
            if len(cached) < 2 or cached[1] is not image:
                cached[:] = [one, image]

    def power(axis: int, n: int) -> T:
        cached = powers[axis]
        while len(cached) <= n:
            cached.append(mul(cached[-1], images[axis]))
        return cached[n]

    def term(mono: Mono) -> T:
        factors = [power(axis, n) for axis, n in enumerate(mono) if n]
        return reduce(mul, factors) if factors else one

    for num, den in polys:
        if den == 1 and len(num) == 1:
            (mono, x), = num.items()
            if x == 1 and sum(mono) == 1:
                yield images[mono.index(1)]
                continue
        yield scaled_sum(((x, term(mono)) for mono, x in num.items()), den)


def on_series(sx: TruncSeries, sy: TruncSeries, sz: TruncSeries) -> tuple:
    """Arguments of :func:`evaluate_polys` for substituting three series
    vanishing at 0; results are known through their common truncation."""
    for s in (sx, sy, sz):
        if s.known(0) and s.coefficient(0) != 0:
            raise DomainError("curve substitution requires series vanishing at 0")
    trunc = min(sx.trunc, sy.trunc, sz.trunc)
    return ((sx.restrict(trunc), sy.restrict(trunc), sz.restrict(trunc)),
            TruncSeries({0: 1}, trunc), lambda a, b: (a * b).restrict(trunc),
            lambda terms, den: linear_combination(terms, den, trunc))


def on_polys(comps: Sequence[IntPoly], degree: int) -> tuple:
    """Arguments of :func:`evaluate_polys` for substituting three polynomials,
    truncated at total degree ``degree``."""
    return (tuple(_truncated(comp, degree) for comp in comps), ({_ZERO: 1}, 1),
            lambda a, b: _poly_mul(a, b, degree), poly_scaled_sum)


def jet_from_polys(comps: Sequence[IntPoly], degree: int) -> "PolyJet3":
    """The jet with canonical integer components ``comps``, none above
    ``degree``; they are shared, not copied or checked."""
    jet = object.__new__(PolyJet3)
    jet._comps, jet._degree = tuple(comps), degree
    return jet


class PolyJet3:
    """Triple of polynomials in (x, y, z), total degree capped at ``degree``."""

    __slots__ = ("_comps", "_degree")

    def __init__(self, components: Sequence[Mapping[Mono, Rational]], degree: int):
        if degree < 1:
            raise DomainError("jet degree must be at least 1")
        if len(components) != 3:
            raise DomainError("a 3-space jet needs exactly three components")
        self._degree = degree
        self._comps = tuple(integer_poly(c, degree) for c in components)

    # -- construction ---------------------------------------------------

    @classmethod
    def identity(cls, degree: int = 8) -> "PolyJet3":
        return cls([{_AXES[i]: 1} for i in range(3)], degree)

    @classmethod
    def diagonal(cls, a: Rational, b: Rational, c: Rational,
                 degree: int = 8) -> "PolyJet3":
        return cls([{_AXES[0]: a}, {_AXES[1]: b}, {_AXES[2]: c}], degree)

    @classmethod
    def from_linear(cls, matrix: Sequence[Sequence[Rational]],
                    degree: int = 8) -> "PolyJet3":
        comps = []
        for row in matrix:
            comps.append({_AXES[j]: row[j] for j in range(3)})
        return cls(comps, degree)

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def polys(self) -> tuple[IntPoly, IntPoly, IntPoly]:
        """The components in integer form (:func:`integer_poly`), shared:
        callers must not modify them."""
        return self._comps  # type: ignore[return-value]

    @property
    def components(self) -> tuple[PolyTable, PolyTable, PolyTable]:
        return tuple({m: Fraction(x, den) for m, x in num.items()}  # type: ignore[return-value]
                     for num, den in self._comps)

    def coefficient(self, component: int, mono: Mono) -> Fraction:
        """Coefficient of x^i y^j z^k in component 1, 2 or 3."""
        if component not in (1, 2, 3):
            raise DomainError("component index must be 1, 2 or 3")
        num, den = self._comps[component - 1]
        return Fraction(num.get(mono, 0), den)

    def constant_term(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(num.get(_ZERO, 0), den)  # type: ignore[return-value]
                     for num, den in self._comps)

    def linear_part(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(num.get(axis, 0), den) for axis in _AXES)
                     for num, den in self._comps)

    def linear_det(self) -> Fraction:
        m = self.linear_part()
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def _fixes_origin(self) -> bool:
        return all(_ZERO not in num for num, _ in self._comps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyJet3):
            return NotImplemented
        return self._degree == other._degree and self._comps == other._comps

    def __hash__(self) -> int:
        return hash((self._degree, tuple((frozenset(num.items()), den)
                                         for num, den in self._comps)))

    def __repr__(self) -> str:
        return f"PolyJet3(degree={self._degree}, comps={self.components!r})"

    # -- operations ---------------------------------------------------------

    def compose(self, inner: "PolyJet3", degree: int | None = None) -> "PolyJet3":
        """self after inner, truncated at total degree ``degree``."""
        if not (self._fixes_origin() and inner._fixes_origin()):
            raise DomainError("jet composition requires both jets to fix the origin")
        deg = degree if degree is not None else min(self._degree, inner._degree)
        if deg < 1:
            raise DomainError("jet degree must be at least 1")
        # monomials above the degree only reach degrees above it
        outer = (_truncated(comp, deg) for comp in self._comps)
        return jet_from_polys(
            evaluate_polys(outer, *on_polys(inner._comps, deg)), deg)

    def substitute(self, sx: TruncSeries, sy: TruncSeries,
                   sz: TruncSeries) -> tuple[TruncSeries, TruncSeries, TruncSeries]:
        """Evaluate the jet on a triple of series vanishing at 0."""
        x, y, z = evaluate_polys(self._comps, *on_series(sx, sy, sz))
        return x, y, z

    def inverse(self, degree: int | None = None) -> "PolyJet3":
        """Compositional inverse up to the jet degree.

        A fixed-point iteration: starting from the inverse of the linear
        part L, the pass for total degree k replaces psi by
        psi - L^-1(self(psi) - id), computed through degree k, which makes
        psi exact through degree k. Requires an invertible linear part and
        zero constant term.
        """
        det = self.linear_det()
        if det == 0:
            raise DomainError("jet has singular linear part; no inverse")
        if not self._fixes_origin():
            raise DomainError("jet inverse requires a jet fixing the origin")
        deg = degree if degree is not None else self._degree
        m = self.linear_part()
        adj = [
            [m[1][1] * m[2][2] - m[1][2] * m[2][1],
             m[0][2] * m[2][1] - m[0][1] * m[2][2],
             m[0][1] * m[1][2] - m[0][2] * m[1][1]],
            [m[1][2] * m[2][0] - m[1][0] * m[2][2],
             m[0][0] * m[2][2] - m[0][2] * m[2][0],
             m[0][2] * m[1][0] - m[0][0] * m[1][2]],
            [m[1][0] * m[2][1] - m[1][1] * m[2][0],
             m[0][1] * m[2][0] - m[0][0] * m[2][1],
             m[0][0] * m[1][1] - m[0][1] * m[1][0]],
        ]
        psi = PolyJet3.from_linear([[v / det for v in row] for row in adj], deg)
        linv = psi._comps
        for k in range(2, deg + 1):
            delta = [poly_scaled_sum([(1, comp), (-1, ({axis: 1}, 1))], 1)
                     for comp, axis in zip(self.compose(psi, k)._comps, _AXES)]
            corr = evaluate_polys(linv, *on_polys(delta, k))
            psi = jet_from_polys([poly_scaled_sum([(1, p), (-1, c)], 1)
                                  for p, c in zip(psi._comps, corr)], k)
        return psi


def jet_from_obj(obj: Mapping[str, Mapping[str, str]] | Mapping[str, object]) -> PolyJet3:
    """Build a jet from the literal JSON form.

    Format: {"degree": D, "phi1": {"i,j,k": "p/q", ...}, "phi2": ..., "phi3": ...}
    """
    try:
        degree = parse_integer(obj["degree"])  # type: ignore[index]
    except (KeyError, TypeError, DomainError):
        raise DomainError("jet object needs an integer 'degree' field") from None
    comps = []
    for name in ("phi1", "phi2", "phi3"):
        raw = obj.get(name, {})  # type: ignore[union-attr]
        if not isinstance(raw, Mapping):
            raise DomainError(f"jet component {name!r} must be an object")
        table: PolyTable = {}
        for key, value in raw.items():  # type: ignore[union-attr]
            i, j, k = parse_key(key, "jet monomial key", parts=3)
            table[(i, j, k)] = parse_rational(value)
        comps.append(table)
    return PolyJet3(comps, degree)


def poly_to_obj(poly: IntPoly) -> dict:
    """JSON form of a polynomial: {"i,j,k": "p/q"} in sorted monomial order."""
    return {f"{i},{j},{k}": format_rational(Fraction(x, poly[1]))
            for (i, j, k), x in sorted(poly[0].items())}


def jet_to_obj(jet: PolyJet3) -> dict:
    out: dict = {"degree": jet.degree}
    for name, comp in zip(("phi1", "phi2", "phi3"), jet.polys):
        out[name] = poly_to_obj(comp)
    return out
