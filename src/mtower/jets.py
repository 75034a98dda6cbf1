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
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError
from .series import (_AXES, _ZERO, IntPoly, Mono, Rational, TruncSeries,
                     evaluate_polys, format_rational, integer_form, on_series,
                     parse_integer, parse_key, parse_rational)

PolyTable = dict[Mono, Fraction]


# -- the integer kernel ----------------------------------------------------------


def integer_poly(table: Mapping[Mono, Rational],
                 degree: int | None = None) -> IntPoly:
    """``table`` in canonical integer form, without the monomials of total
    degree above ``degree``."""
    return integer_form(_through(table, degree))


def _through(table: Mapping[Mono, Rational],
             degree: int | None) -> Iterator[tuple[Mono, Rational]]:
    """The pairs of ``table`` through total degree ``degree``, each monomial
    checked first."""
    for mono, value in table.items():
        i, j, k = mono
        if i < 0 or j < 0 or k < 0:
            raise DomainError("monomial exponents must be non-negative")
        if degree is None or i + j + k <= degree:
            yield (i, j, k), value


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


def monomials(bound: int,
              weights: Sequence[int | None] = (1, 1, 1)) -> list[Mono]:
    """Exponent triples other than (0, 0, 0) of weighted degree
    i*w1 + j*w2 + k*w3 <= ``bound``, in lexicographic order; an axis of
    weight None never occurs. The default weights give total degree."""
    wx, wy, wz = (w or 0 for w in weights)

    def top(room: int, w: int) -> int:
        return room // w if w else 0

    return [(i, j, k)
            for i in range(top(bound, wx) + 1)
            for j in range(top(bound - i * wx, wy) + 1)
            for k in range(top(bound - i * wx - j * wy, wz) + 1)
            if i or j or k]


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
        return cls.diagonal(1, 1, 1, degree)

    @classmethod
    def diagonal(cls, a: Rational, b: Rational, c: Rational,
                 degree: int = 8) -> "PolyJet3":
        return cls([{_AXES[0]: a}, {_AXES[1]: b}, {_AXES[2]: c}], degree)

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
        """Coefficient of x^i y^j z^k in component 1, 2 or 3; the partial
        derivative at 0 is this coefficient times i! j! k!."""
        if component not in (1, 2, 3):
            raise DomainError("component index must be 1, 2 or 3")
        num, den = self._comps[component - 1]
        return Fraction(num.get(mono, 0), den)

    def _linear_numerators(self) -> list[list[int]]:
        """The linear part's numerators N, row i over component i's denominator."""
        return [[num.get(axis, 0) for axis in _AXES] for num, _ in self._comps]

    def linear_det(self) -> Fraction:
        """The determinant of the linear part, det(N) / (d1 d2 d3)."""
        return Fraction(_det(self._linear_numerators()), prod(d for _, d in self._comps))

    def fixes_origin(self) -> bool:
        """True when every constant term is zero."""
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
        if not (self.fixes_origin() and inner.fixes_origin()):
            raise DomainError("jet composition requires both jets to fix the origin")
        deg = degree if degree is not None else min(self._degree, inner._degree)
        if deg < 1:
            raise DomainError("jet degree must be at least 1")
        # monomials above the degree only reach degrees above it
        outer = (_truncated(comp, deg) for comp in self._comps)
        images = tuple(_truncated(comp, deg) for comp in inner._comps)
        return jet_from_polys(evaluate_polys(
            outer, images, ({_ZERO: 1}, 1), lambda a, b: _poly_mul(a, b, deg),
            poly_scaled_sum), deg)

    def substitute(self, sx: TruncSeries, sy: TruncSeries, sz: TruncSeries,
                   products: dict[Mono, TruncSeries] | None = None
                   ) -> tuple[TruncSeries, TruncSeries, TruncSeries]:
        """Evaluate the jet on a triple of series vanishing at 0; ``products``
        keeps the monomial products of the series as in
        :func:`evaluate_polys`, for one truncation."""
        # every series vanishes at 0, so a monomial of total degree above
        # their common truncation only reaches orders above it
        trunc = min(sx.trunc, sy.trunc, sz.trunc)
        comps = (_truncated(comp, trunc) for comp in self._comps)
        x, y, z = evaluate_polys(comps, *on_series(sx, sy, sz), products=products)
        return x, y, z

    def inverse(self, degree: int | None = None) -> "PolyJet3":
        """Compositional inverse up to the jet degree, for an invertible
        linear part and zero constant term. From the inverse of the linear
        part, each pass sets psi to psi o (2 id - self o psi), which doubles
        the degree through which psi is exact (Brent and Kung's reversion
        step), so degree D takes ceil(log2 D) passes. The linear part is
        N with row i over the denominator d_i, so psi starts at
        adj(N) diag(d) / det(N), all in integers."""
        n = self._linear_numerators()
        det = _det(n)
        if det == 0:
            raise DomainError("jet has singular linear part; no inverse")
        if not self.fixes_origin():
            raise DomainError("jet inverse requires a jet fixing the origin")
        deg = degree if degree is not None else self._degree
        if deg < 1:
            raise DomainError("jet degree must be at least 1")
        sign = 1 if det > 0 else -1
        psi = jet_from_polys([_canonical(
            {axis: sign * _cofactor(n, i, j) * den
             for i, (axis, (_, den)) in enumerate(zip(_AXES, self._comps))},
            abs(det)) for j in range(3)], deg)
        exact = 1
        while exact < deg:
            exact = min(2 * exact, deg)
            step = [poly_scaled_sum([(2, ({axis: 1}, 1)), (-1, comp)], 1)
                    for comp, axis in zip(self.compose(psi, exact)._comps, _AXES)]
            psi = psi.compose(jet_from_polys(step, exact), exact)
        return psi


def _cofactor(m: Sequence[Sequence[int]], i: int, j: int) -> int:
    """The signed cofactor of entry (i, j) of a 3x3 matrix: with indices
    taken cyclically, the 2x2 minor of the next two rows and columns carries
    its sign already."""
    r1, r2, c1, c2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]


def _det(m: Sequence[Sequence[int]]) -> int:
    """The determinant of a 3x3 matrix, expanded along the first row."""
    return sum(m[0][j] * _cofactor(m, 0, j) for j in range(3))


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
