"""Univariate truncated power series with exact rational coefficients.

A :class:`TruncSeries` stores finitely many coefficients of a formal power
series in one variable ``t``. Degrees above the truncation order ``trunc``
are *unknown*, not zero: a series is a polynomial together with an honest
statement of how far its coefficients are determined. All arithmetic keeps
track of how far the result is actually determined, so no operation ever
reports a coefficient it cannot certify.

Coefficients are stored as Python integer numerators over one positive
denominator, reduced by their gcd content, and every query returns them as
lowest-terms :class:`fractions.Fraction`; there is no floating point
anywhere. Products are one big-integer product (Kronecker substitution),
except when an operand has only a few nonzero terms; reciprocals are Newton
iterations on that product. Instances are immutable and safe to share
between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .errors import DomainError, InsufficientTruncation

Rational = Union[Fraction, int]

#: Default truncation order for newly built series.
DEFAULT_TRUNC = 64

#: Hard ceiling on truncation growth under multiplication/integration.
MAX_TRUNC = 256

#: Products with an operand of at most this many nonzero terms use the
#: schoolbook loop over nonzero terms instead of one packed product.
SPARSE_TERMS = 4


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {type(value).__name__}")


# -- the integer kernel ----------------------------------------------------------
#
# A coefficient list holds the integer coefficients of degrees 0, 1, ...;
# products and reciprocals work on these lists and never see denominators.


def _nonzero(a: list[int]) -> list[tuple[int, int]]:
    return [(d, x) for d, x in enumerate(a) if x]


def _stripped(a: list[int]) -> list[int]:
    """``a`` without its trailing zeros."""
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return a if end == len(a) else a[:end]


def _pack(a: list[int], width: int) -> int:
    """The integer sum of a[i] * 2**(8*width*i), slots of ``width`` bytes."""
    packed = int.from_bytes(
        b"".join([x.to_bytes(width, "little", signed=True) for x in a]), "little")
    if min(a) >= 0:
        return packed
    # A negative slot was written as x + 2**(8*width); take back those carries.
    one, nil = (1).to_bytes(width, "little"), bytes(width)
    carries = b"".join([one if x < 0 else nil for x in a])
    return packed - (int.from_bytes(carries, "little") << (8 * width))


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Coefficients of degrees 0..n-1 of the product a*b."""
    a, b = a[:n], b[:n]
    if not a or not b:
        return []
    size = min(len(a) + len(b) - 1, n)
    sparse_a, sparse_b = _nonzero(a), _nonzero(b)
    if min(len(sparse_a), len(sparse_b)) <= SPARSE_TERMS:
        out = [0] * size
        for i, x in sparse_a:
            for j, y in sparse_b:
                if i + j >= size:
                    break
                out[i + j] += x * y
        return out
    # Kronecker substitution: every coefficient of the product is below
    # 2**(bits - 1) in absolute value, so each fits one signed slot.
    bits = (max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    product = _pack(a, width) * _pack(b, width)
    # Adding half a slot to every slot makes each one a non-negative digit.
    half = b"\x00" * (width - 1) + b"\x80"
    span = 8 * width * size
    digits = ((product + int.from_bytes(half * size, "little"))
              & ((1 << span) - 1)).to_bytes(width * size, "little")
    offset = 1 << (8 * width - 1)
    return [int.from_bytes(digits[k:k + width], "little") - offset
            for k in range(0, width * size, width)]


def _inverse(a: list[int], n: int) -> tuple[list[int], int]:
    """Numerators g and a denominator e > 0 with a * g = e modulo t**n.

    Newton iteration: each pass doubles the number of correct coefficients.
    Requires a[0] != 0.
    """
    g, e = [1 if a[0] > 0 else -1], abs(a[0])
    known = 1
    while known < n:
        target = min(2 * known, n)
        # a*g = e + t**known * r modulo t**target
        r = _mul(a, g, target)[known:]
        correction = _mul(g, r, target - known)
        g = [x * e for x in g] + [0] * (target - len(g))
        for d, x in enumerate(correction, known):
            g[d] -= x
        e *= e
        common = gcd(e, *g)
        if common > 1:
            g, e = [x // common for x in g], e // common
        known = target
    return g, e


def _canonical(num: list[int], den: int, trunc: int) -> tuple[list[int], int, int]:
    """The fields of num/den known through ``trunc`` in canonical form: no
    stored degree above the truncation, no trailing zero numerator, and
    numerators coprime to the positive denominator."""
    if trunc < 0:
        raise DomainError("truncation order must be non-negative")
    trunc = min(trunc, MAX_TRUNC)
    num = _stripped(num[:trunc + 1] if len(num) > trunc + 1 else num)
    if not num:
        return num, 1, trunc
    common = gcd(den, *num)
    if common > 1:
        num, den = [x // common for x in num], den // common
    return num, den, trunc


def _series(num: list[int], den: int, trunc: int) -> "TruncSeries":
    """The series num/den known through ``trunc``; ``num`` is not copied."""
    s = object.__new__(TruncSeries)
    s._num, s._den, s._trunc = _canonical(num, den, trunc)
    return s


class TruncSeries:
    """A power series known exactly through degree ``trunc``."""

    __slots__ = ("_num", "_den", "_trunc")

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
        den = lcm(*(q.denominator for q in table.values()))
        num = [0] * (max(table, default=-1) + 1)
        for degree, q in table.items():
            num[degree] = q.numerator * (den // q.denominator)
        self._num, self._den, self._trunc = _canonical(num, den, trunc)

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
        return dict(self.terms())

    def order(self) -> int | None:
        """Smallest degree with a nonzero coefficient, or ``None`` when the
        series is zero up to its truncation."""
        for degree, x in enumerate(self._num):
            if x:
                return degree
        return None

    def effective_order(self) -> int:
        """Order, with the zero-up-to-trunc sentinel mapped to ``trunc+1``."""
        o = self.order()
        return self._trunc + 1 if o is None else o

    def is_zero(self) -> bool:
        return not self._num

    def known(self, degree: int) -> bool:
        return 0 <= degree <= self._trunc

    def coefficient(self, degree: int) -> Fraction:
        if degree > self._trunc:
            raise InsufficientTruncation(
                f"coefficient of t^{degree} is not determined "
                f"(truncation order {self._trunc})")
        if 0 <= degree < len(self._num):
            return Fraction(self._num[degree], self._den)
        return Fraction(0)

    def terms(self) -> list[tuple[int, Fraction]]:
        den = self._den
        return [(d, Fraction(x, den)) for d, x in _nonzero(self._num)]

    # -- equality / display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self._trunc == other._trunc and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._trunc, self._den, tuple(self._num)))

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
        n = max(limit + 1, 0)
        return (_stripped([x * other._den for x in self._num[:n]])
                == _stripped([x * self._den for x in other._num[:n]]))

    def __repr__(self) -> str:
        if not self._num:
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
        return _series(self._num, self._den, trunc)

    def __neg__(self) -> "TruncSeries":
        return _series([-x for x in self._num], self._den, self._trunc)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        trunc = min(self._trunc, other._trunc)
        a, b = self._num[:trunc + 1], other._num[:trunc + 1]
        den = lcm(self._den, other._den)
        if den != self._den:
            a = [x * (den // self._den) for x in a]
        if den != other._den:
            b = [x * (den // other._den) for x in b]
        if len(a) < len(b):
            a, b = b, a
        return _series([x + y for x, y in zip(a, b)] + a[len(b):], den, trunc)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, factor: Rational) -> "TruncSeries":
        q = _as_fraction(factor)
        return _series([x * q.numerator for x in self._num],
                       self._den * q.denominator, self._trunc)

    def shift(self, offset: int) -> "TruncSeries":
        """Multiply by ``t**offset`` (negative offsets must divide exactly)."""
        if offset >= 0:
            num = [0] * offset + self._num if self._num else []
        elif any(self._num[:-offset]):
            raise DomainError("series is not divisible by that power of t")
        else:
            num = self._num[-offset:]
        return _series(num, self._den, self._trunc + offset)

    # -- multiplicative structure ---------------------------------------

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # The product is determined no further than either factor's unknown
        # tail can first interfere.
        trunc = min(self._trunc + other.effective_order(),
                    other._trunc + self.effective_order(),
                    MAX_TRUNC)
        return _series(_mul(self._num, other._num, trunc + 1),
                       self._den * other._den, trunc)

    def reciprocal(self) -> "TruncSeries":
        """Multiplicative inverse of a unit (order-zero) series."""
        if self.order() != 0:
            raise DomainError("only a series with nonzero constant term has a reciprocal")
        g, e = _inverse(self._num, self._trunc + 1)
        return _series([x * self._den for x in g], e, self._trunc)

    def quotients(self, *numerators: "TruncSeries") -> tuple["TruncSeries", ...]:
        """The exact quotients ``numerator/self``, one per numerator.

        Each needs ord(numerator) >= ord(self), and gets the truncation and
        errors of :meth:`divide`; the reciprocal of ``self`` is computed once.
        """
        ob = self.order()
        if ob is None:
            raise InsufficientTruncation(
                "quotient is not determined at any order (truncation exhausted)")
        for num in numerators:
            if num.is_zero() and num._trunc < ob:
                raise InsufficientTruncation(
                    "quotient is not determined at any order (truncation exhausted)")
            if num.effective_order() < ob:
                raise DomainError(
                    "quotient is not a power series (order drops below zero)")
        # cancel the common factor t^ob from every operand
        inverse = self.shift(-ob).reciprocal()
        return tuple(num.shift(-ob) * inverse for num in numerators)

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """Exact quotient self/other; requires ord(self) >= ord(other)."""
        return other.quotients(self)[0]

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "TruncSeries":
        if self._trunc == 0:
            raise InsufficientTruncation("cannot differentiate a series known only at degree 0")
        return _series([d * x for d, x in enumerate(self._num)][1:], self._den,
                       self._trunc - 1)

    def integral(self, constant: Rational = 0) -> "TruncSeries":
        table: dict[int, Fraction] = {0: _as_fraction(constant)}
        for d, c in self.terms():
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
        nonconst = [d for d, _ in _nonzero(self._num) if d >= 1]
        bounds = [(self._trunc + 1) * og - 1]
        if nonconst:
            bounds.append(inner._trunc + (min(nonconst) - 1) * og)
        trunc = min(min(bounds), MAX_TRUNC)
        # Horner's rule on the numerators s of self = s/c, reducing the
        # content at every step; degrees above trunc // og cannot reach the
        # certified coefficients.
        s = _stripped(self._num[:trunc // og + 1])
        acc, den = s[-1:], 1
        for d in range(len(s) - 2, -1, -1):
            acc, den = _mul(acc, inner._num, trunc + 1), den * inner._den
            if s[d]:
                acc = acc or [0]
                acc[0] += s[d] * den
            acc, den, _ = _canonical(acc, den, trunc)
        return _series(acc, den * self._den, trunc)

    def unit_root(self, m: int) -> "TruncSeries":
        """The m-th root of a unit series with constant term 1.

        Computed by the binomial series for (1+h)^(1/m); all coefficients
        stay rational.
        """
        if m <= 0:
            raise DomainError("root index must be a positive integer")
        if self.coefficient(0) != 1:
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
        g = TruncSeries({1: 1 / self.coefficient(1)}, 1)
        prec = 1
        t = TruncSeries({1: 1}, trunc)
        ds = self.derivative()
        while prec < trunc:
            prec = min(2 * prec, trunc)
            g = _series(g._num, g._den, prec)
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


def parse_integer(value: object) -> int:
    """Parse an integer field: a JSON integer, never a string, float or boolean."""
    if type(value) is not int:
        raise DomainError(f"expected a JSON integer, got {type(value).__name__}")
    return value


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
