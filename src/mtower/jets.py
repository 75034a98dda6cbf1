"""Polynomial jets of maps (R^3, 0) -> R^3 with exact rational coefficients.

A :class:`PolyJet3` is a triple of polynomials in (x, y, z), each stored as a
sparse table keyed by exponent triples and truncated at a common total
degree. Jets compose, substitute into curves, and invert (when the linear
part is invertible); these are the raw moves behind the prolonged action of
diffeomorphism germs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import DomainError
from .series import (Rational, TruncSeries, _as_fraction, format_rational,
                     parse_integer, parse_rational)

Mono = tuple[int, int, int]
PolyTable = dict[Mono, Fraction]

_ZERO = (0, 0, 0)
_AXES: tuple[Mono, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_MONO_KEY = re.compile(r"[0-9]+,[0-9]+,[0-9]+")

T = TypeVar("T")


def _clean(table: Mapping[Mono, Rational], degree: int) -> PolyTable:
    out: PolyTable = {}
    for mono, value in table.items():
        i, j, k = mono
        if i < 0 or j < 0 or k < 0:
            raise DomainError("monomial exponents must be non-negative")
        if i + j + k > degree:
            continue
        q = _as_fraction(value)
        if q != 0:
            out[(i, j, k)] = q
    return out


def _poly_mul(a: PolyTable, b: PolyTable, degree: int) -> PolyTable:
    out: PolyTable = {}
    for (i1, j1, k1), c1 in a.items():
        for (i2, j2, k2), c2 in b.items():
            i, j, k = i1 + i2, j1 + j2, k1 + k2
            if i + j + k > degree:
                continue
            mono = (i, j, k)
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def subtract_scaled(target: dict, factor: Fraction, source: Mapping) -> None:
    """target -= factor * source, dropping entries that become zero.

    The one sparse accumulate: polynomial sums, jet inversion and the
    elimination rows of the invariants all go through it.
    """
    for key, coeff in source.items():
        value = target.get(key, Fraction(0)) - factor * coeff
        if value == 0:
            target.pop(key, None)
        else:
            target[key] = value


def monomials(degree: int) -> list[Mono]:
    """Exponent triples of total degree 1..``degree``, in lexicographic order."""
    return [(i, j, k)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
            for k in range(degree + 1 - i - j)
            if i + j + k]


def evaluate_polys(polys: Iterable[Mapping[Mono, Fraction]],
                   images: Sequence[T], one: T, mul: Callable[[T, T], T],
                   scaled_sum: Callable[[Iterator[tuple[Fraction, T]]], T],
                   ) -> Iterator[T]:
    """Evaluate each polynomial at (x, y, z) = ``images``, one result per polynomial.

    ``one`` is the images' unit, ``mul`` their truncated product and
    ``scaled_sum`` adds up (coefficient, term) pairs. Every power of an axis is
    computed once per call and shared by all the polynomials; the polynomials
    and their terms are read and evaluated lazily.
    """
    powers = [[one, image] for image in images]

    def power(axis: int, n: int) -> T:
        cached = powers[axis]
        while len(cached) <= n:
            cached.append(mul(cached[-1], images[axis]))
        return cached[n]

    def term(mono: Mono) -> T:
        factors = [power(axis, n) for axis, n in enumerate(mono) if n]
        return reduce(mul, factors) if factors else one

    for poly in polys:
        yield scaled_sum((c, term(mono)) for mono, c in poly.items())


def on_series(sx: TruncSeries, sy: TruncSeries, sz: TruncSeries) -> tuple:
    """Arguments of :func:`evaluate_polys` for substituting three series
    vanishing at 0; results are known through their common truncation."""
    for s in (sx, sy, sz):
        if s.known(0) and s.coefficient(0) != 0:
            raise DomainError("curve substitution requires series vanishing at 0")
    trunc = min(sx.trunc, sy.trunc, sz.trunc)
    return ((sx.restrict(trunc), sy.restrict(trunc), sz.restrict(trunc)),
            TruncSeries({0: 1}, trunc), lambda a, b: (a * b).restrict(trunc),
            lambda terms: sum((t.scale(c) for c, t in terms),
                              TruncSeries.zero(trunc)))


def _poly_scaled_sum(terms: Iterator[tuple[Fraction, PolyTable]]) -> PolyTable:
    acc: PolyTable = {}
    for c, term in terms:
        subtract_scaled(acc, -c, term)
    return acc


def _on_polys(comps: Sequence[PolyTable], degree: int) -> tuple:
    """Arguments of :func:`evaluate_polys` for substituting three polynomials,
    truncated at total degree ``degree``."""
    images = tuple({m: c for m, c in comp.items() if sum(m) <= degree}
                   for comp in comps)
    return (images, {_ZERO: Fraction(1)},
            lambda a, b: _poly_mul(a, b, degree), _poly_scaled_sum)


class PolyJet3:
    """Triple of polynomials in (x, y, z), total degree capped at ``degree``."""

    __slots__ = ("_comps", "_degree")

    def __init__(self, components: Sequence[Mapping[Mono, Rational]], degree: int):
        if degree < 1:
            raise DomainError("jet degree must be at least 1")
        if len(components) != 3:
            raise DomainError("a 3-space jet needs exactly three components")
        self._degree = degree
        self._comps = tuple(_clean(c, degree) for c in components)

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
    def components(self) -> tuple[PolyTable, PolyTable, PolyTable]:
        return tuple(dict(c) for c in self._comps)  # type: ignore[return-value]

    def coefficient(self, component: int, mono: Mono) -> Fraction:
        """Coefficient of x^i y^j z^k in component 1, 2 or 3."""
        if component not in (1, 2, 3):
            raise DomainError("component index must be 1, 2 or 3")
        return self._comps[component - 1].get(mono, Fraction(0))

    def constant_term(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(c.get(_ZERO, Fraction(0)) for c in self._comps)  # type: ignore[return-value]

    def linear_part(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(comp.get(_AXES[j], Fraction(0)) for j in range(3))
            for comp in self._comps)

    def linear_det(self) -> Fraction:
        m = self.linear_part()
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyJet3):
            return NotImplemented
        return self._degree == other._degree and self._comps == other._comps

    def __hash__(self) -> int:
        return hash((self._degree,
                     tuple(tuple(sorted(c.items())) for c in self._comps)))

    def __repr__(self) -> str:
        return f"PolyJet3(degree={self._degree}, comps={self._comps!r})"

    # -- operations ---------------------------------------------------------

    def compose(self, inner: "PolyJet3", degree: int | None = None) -> "PolyJet3":
        """self after inner, truncated at total degree ``degree``."""
        if any(c != 0 for c in inner.constant_term()) or \
           any(c != 0 for c in self.constant_term()):
            raise DomainError("jet composition requires both jets to fix the origin")
        deg = degree if degree is not None else min(self._degree, inner._degree)
        comps = evaluate_polys(self._comps, *_on_polys(inner._comps, deg))
        return PolyJet3(list(comps), deg)

    def substitute(self, sx: TruncSeries, sy: TruncSeries,
                   sz: TruncSeries) -> tuple[TruncSeries, TruncSeries, TruncSeries]:
        """Evaluate the jet on a triple of series vanishing at 0."""
        x, y, z = evaluate_polys(self._comps, *on_series(sx, sy, sz))
        return x, y, z

    def inverse(self, degree: int | None = None) -> "PolyJet3":
        """Compositional inverse up to the jet degree (Newton iteration).

        Requires an invertible linear part and zero constant term.
        """
        det = self.linear_det()
        if det == 0:
            raise DomainError("jet has singular linear part; no inverse")
        if any(c != 0 for c in self.constant_term()):
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
        linv = PolyJet3.from_linear(
            [[v / det for v in row] for row in adj], deg)
        psi = linv
        # Each pass corrects one more total degree.
        for _ in range(2, deg + 1):
            delta = self.compose(psi, deg).components
            for table, axis in zip(delta, _AXES):
                subtract_scaled(table, Fraction(1), {axis: Fraction(1)})
            comps = psi.components
            corr = evaluate_polys(linv._comps, *_on_polys(delta, deg))
            for table, c in zip(comps, corr):
                subtract_scaled(table, Fraction(1), c)
            psi = PolyJet3(comps, deg)
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
            if not isinstance(key, str) or not _MONO_KEY.fullmatch(key):
                raise DomainError(f"malformed jet monomial key {key!r}")
            i, j, k = (int(part) for part in key.split(","))
            table[(i, j, k)] = parse_rational(value)
        comps.append(table)
    return PolyJet3(comps, degree)


def poly_to_obj(poly: Mapping[Mono, Fraction]) -> dict:
    """JSON form of a polynomial: {"i,j,k": "p/q"} in sorted monomial order."""
    return {f"{i},{j},{k}": format_rational(c)
            for (i, j, k), c in sorted(poly.items())}


def jet_to_obj(jet: PolyJet3) -> dict:
    out: dict = {"degree": jet.degree}
    for name, comp in zip(("phi1", "phi2", "phi3"), jet._comps):
        out[name] = poly_to_obj(comp)
    return out
