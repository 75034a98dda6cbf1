"""Univariate truncated power series with exact rational coefficients.

A :class:`TruncSeries` stores finitely many coefficients of a formal power
series in one variable ``t``. Degrees above the truncation order ``trunc``
are *unknown*, not zero: a series is a polynomial together with an honest
statement of how far its coefficients are determined. All arithmetic keeps
track of how far the result is actually determined, so no operation ever
reports a coefficient it cannot certify.

Coefficients are :class:`fractions.Fraction`; there is no floating point
anywhere. Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, InsufficientTruncation

Rational = Union[Fraction, int]

#: Default truncation order for newly built series.
DEFAULT_TRUNC = 64

#: Hard ceiling on truncation growth under multiplication/integration.
MAX_TRUNC = 256


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {type(value).__name__}")


class TruncSeries:
    """A power series known exactly through degree ``trunc``."""

    __slots__ = ("_coeffs", "_trunc")

    def __init__(self, coeffs: Mapping[int, Rational] | None = None,
                 trunc: int = DEFAULT_TRUNC):
        if trunc < 0:
            raise DomainError("truncation order must be non-negative")
        trunc = min(trunc, MAX_TRUNC)
        table: dict[int, Fraction] = {}
        if coeffs:
            for degree, value in coeffs.items():
                if degree < 0:
                    raise DomainError("series degrees must be non-negative")
                if degree > trunc:
                    continue
                q = _as_fraction(value)
                if q != 0:
                    table[degree] = q
        self._coeffs = table
        self._trunc = trunc

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int = DEFAULT_TRUNC) -> "TruncSeries":
        return cls({}, trunc)

    @classmethod
    def monomial(cls, degree: int, coeff: Rational = 1,
                 trunc: int = DEFAULT_TRUNC) -> "TruncSeries":
        return cls({degree: coeff}, trunc)

    @classmethod
    def identity(cls, trunc: int = DEFAULT_TRUNC) -> "TruncSeries":
        """The series ``t``."""
        return cls({1: 1}, trunc)

    # -- basic queries ------------------------------------------------

    @property
    def trunc(self) -> int:
        return self._trunc

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """Copy of the coefficient table (degree -> nonzero rational)."""
        return dict(self._coeffs)

    def order(self) -> int | None:
        """Smallest degree with a nonzero coefficient, or ``None`` when the
        series is zero up to its truncation."""
        return min(self._coeffs) if self._coeffs else None

    def effective_order(self) -> int:
        """Order, with the zero-up-to-trunc sentinel mapped to ``trunc+1``."""
        o = self.order()
        return self._trunc + 1 if o is None else o

    def is_zero(self) -> bool:
        return not self._coeffs

    def known(self, degree: int) -> bool:
        return 0 <= degree <= self._trunc

    def coefficient(self, degree: int) -> Fraction:
        if degree > self._trunc:
            raise InsufficientTruncation(
                f"coefficient of t^{degree} is not determined "
                f"(truncation order {self._trunc})")
        return self._coeffs.get(degree, Fraction(0))

    def terms(self) -> list[tuple[int, Fraction]]:
        return sorted(self._coeffs.items())

    # -- equality / display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._trunc == other._trunc and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._trunc, tuple(sorted(self._coeffs.items()))))

    def agrees_with(self, other: "TruncSeries", through: int | None = None) -> bool:
        """True when both series have identical coefficients up to ``through``
        (default: the smaller of the two truncation orders)."""
        limit = min(self._trunc, other._trunc)
        if through is not None:
            if through > limit:
                raise InsufficientTruncation(
                    f"cannot compare through degree {through}; "
                    f"only determined through {limit}")
            limit = through
        for d in range(0, limit + 1):
            if self._coeffs.get(d, 0) != other._coeffs.get(d, 0):
                return False
        return True

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"O(t^{self._trunc + 1})"
        parts = []
        for degree, c in self.terms():
            if degree == 0:
                parts.append(f"{c}")
            elif degree == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{degree}" if c != 1 else f"t^{degree}")
        return " + ".join(parts) + f" + O(t^{self._trunc + 1})"

    # -- linear operations ---------------------------------------------

    def restrict(self, trunc: int) -> "TruncSeries":
        """Forget coefficients beyond ``trunc``."""
        if trunc >= self._trunc:
            return self
        return TruncSeries(self._coeffs, trunc)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries({d: -c for d, c in self._coeffs.items()}, self._trunc)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        trunc = min(self._trunc, other._trunc)
        table = dict(self._coeffs)
        for d, c in other._coeffs.items():
            table[d] = table.get(d, Fraction(0)) + c
        return TruncSeries(table, trunc)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, factor: Rational) -> "TruncSeries":
        q = _as_fraction(factor)
        if q == 0:
            return TruncSeries.zero(self._trunc)
        return TruncSeries({d: q * c for d, c in self._coeffs.items()}, self._trunc)

    def shift(self, offset: int) -> "TruncSeries":
        """Multiply by ``t**offset`` (negative offsets must divide exactly)."""
        if offset < 0 and any(d + offset < 0 for d in self._coeffs):
            raise DomainError("series is not divisible by that power of t")
        return TruncSeries({d + offset: c for d, c in self._coeffs.items()},
                           self._trunc + offset)

    # -- multiplicative structure ---------------------------------------

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # The product is determined no further than either factor's unknown
        # tail can first interfere.
        trunc = min(self._trunc + other.effective_order(),
                    other._trunc + self.effective_order(),
                    MAX_TRUNC)
        table: dict[int, Fraction] = {}
        for da, ca in self._coeffs.items():
            for db, cb in other._coeffs.items():
                d = da + db
                if d <= trunc:
                    table[d] = table.get(d, Fraction(0)) + ca * cb
        return TruncSeries(table, trunc)

    def reciprocal(self) -> "TruncSeries":
        """Multiplicative inverse of a unit (order-zero) series."""
        if self.order() != 0:
            raise DomainError("only a series with nonzero constant term has a reciprocal")
        a0 = self._coeffs[0]
        trunc = self._trunc
        inv = [Fraction(0)] * (trunc + 1)
        inv[0] = 1 / a0
        for n in range(1, trunc + 1):
            acc = Fraction(0)
            for d, c in self._coeffs.items():
                if 1 <= d <= n:
                    acc += c * inv[n - d]
            inv[n] = -acc / a0
        return TruncSeries({d: c for d, c in enumerate(inv)}, trunc)

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """Exact quotient self/other; requires ord(self) >= ord(other)."""
        ob = other.order()
        if ob is None or (self.is_zero() and self._trunc < ob):
            raise InsufficientTruncation(
                "quotient is not determined at any order (truncation exhausted)")
        if self.effective_order() < ob:
            raise DomainError("quotient is not a power series (order drops below zero)")
        # cancel the common factor t^ob from both operands
        num = TruncSeries({d - ob: c for d, c in self._coeffs.items()},
                          self._trunc - ob)
        den = TruncSeries({d - ob: c for d, c in other._coeffs.items()},
                          other._trunc - ob)
        return num * den.reciprocal()

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "TruncSeries":
        if self._trunc == 0:
            raise InsufficientTruncation("cannot differentiate a series known only at degree 0")
        return TruncSeries({d - 1: d * c for d, c in self._coeffs.items() if d >= 1},
                           self._trunc - 1)

    def integral(self, constant: Rational = 0) -> "TruncSeries":
        table: dict[int, Fraction] = {0: _as_fraction(constant)}
        for d, c in self._coeffs.items():
            table[d + 1] = c / (d + 1)
        return TruncSeries(table, min(self._trunc + 1, MAX_TRUNC))

    # -- composition and friends -----------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` for the variable: ``self(inner(t))``.

        Requires ord(inner) >= 1 so that the result is again a germ at 0.
        """
        og = inner.effective_order()
        if inner.order() == 0:
            raise DomainError("composition requires the inner series to vanish at 0")
        nonconst = [d for d in self._coeffs if d >= 1]
        bounds = [(self._trunc + 1) * og - 1]
        if nonconst:
            bounds.append(inner._trunc + (min(nonconst) - 1) * og)
        trunc = min(min(bounds), MAX_TRUNC)
        result = TruncSeries({0: self._coeffs.get(0, Fraction(0))}, trunc)
        if nonconst:
            power_cache: dict[int, TruncSeries] = {1: inner.restrict(trunc)}

            def power(k: int) -> TruncSeries:
                if k not in power_cache:
                    half = power(k // 2)
                    p = half * half
                    if k & 1:
                        p = p * power_cache[1]
                    power_cache[k] = p.restrict(trunc)
                return power_cache[k]

            for d in sorted(nonconst):
                if d * og > trunc:
                    break
                result = result + power(d).scale(self._coeffs[d])
        return result.restrict(trunc)

    def unit_root(self, m: int) -> "TruncSeries":
        """The m-th root of a unit series with constant term 1.

        Computed by the binomial series for (1+h)^(1/m); all coefficients
        stay rational.
        """
        if m <= 0:
            raise DomainError("root index must be a positive integer")
        if self._coeffs.get(0) != 1:
            raise DomainError("unit_root requires constant term exactly 1")
        h = self - TruncSeries({0: 1}, self._trunc)
        oh = h.effective_order()
        trunc = self._trunc
        result = TruncSeries({0: 1}, trunc)
        if h.is_zero():
            return result
        term = TruncSeries({0: 1}, trunc)
        alpha = Fraction(1, m)
        k = 0
        while (k + 1) * oh <= trunc:
            coeff = (alpha - k) / (k + 1)
            term = (term * h).scale(coeff).restrict(trunc)
            result = result + term
            k += 1
        return result.restrict(trunc)

    def param_inverse(self) -> "TruncSeries":
        """Compositional inverse of an order-1 series.

        Newton iteration with doubling precision; the round trip
        ``self.compose(inverse)`` is the identity up to truncation.
        """
        if self.order() != 1:
            raise DomainError("param_inverse requires a series of order exactly 1")
        trunc = self._trunc
        s1 = self._coeffs[1]
        g = TruncSeries({1: 1 / s1}, 1)
        prec = 1
        t = TruncSeries({1: 1}, trunc)
        ds = self.derivative()
        while prec < trunc:
            prec = min(2 * prec, trunc)
            g = TruncSeries(g._coeffs, prec)
            err = self.restrict(prec).compose(g) - t.restrict(prec)
            corr = err * ds.restrict(max(prec - 1, 0)).compose(g).reciprocal()
            g = (g - corr).restrict(prec)
        return g


_RATIONAL_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_DEGREE_KEY = re.compile(r"[0-9]+")


def parse_rational(text: object) -> Fraction:
    """Parse the literal rational format: an ASCII integer ``p`` or ``p/q``."""
    if not isinstance(text, str) or not _RATIONAL_LITERAL.fullmatch(text):
        raise DomainError(f"malformed rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in rational literal {text!r}") from None


def format_rational(value: Rational) -> str:
    """Serialize in lowest terms with positive denominator."""
    q = _as_fraction(value)
    return str(q)


def series_from_obj(obj: Mapping[str, str], trunc: int) -> TruncSeries:
    """Build a series from the literal JSON form {degree: rational}."""
    table: dict[int, Fraction] = {}
    for key, value in obj.items():
        if not isinstance(key, str) or not _DEGREE_KEY.fullmatch(key):
            raise DomainError(f"malformed series degree key {key!r}")
        table[int(key)] = parse_rational(value)
    return TruncSeries(table, trunc)


def series_to_obj(s: TruncSeries) -> dict[str, str]:
    return {str(d): format_rational(c) for d, c in s.terms()}
