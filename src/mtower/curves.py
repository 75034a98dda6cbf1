"""Analytic curve germs (R, 0) -> (R^3, 0) as triples of truncated series."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError
from .jets import PolyJet3
from .series import (DEFAULT_TRUNC, TruncSeries, compose_all, parse_integer,
                     series_from_obj, series_to_obj)


@dataclass(frozen=True)
class CurveGerm:
    """Curve germ through the origin, components known up to truncation."""

    x: TruncSeries
    y: TruncSeries
    z: TruncSeries

    def __post_init__(self):
        for s in (self.x, self.y, self.z):
            if s.order() == 0:
                raise DomainError("curve germs must vanish at t=0")

    @property
    def components(self) -> tuple[TruncSeries, TruncSeries, TruncSeries]:
        return (self.x, self.y, self.z)

    @property
    def trunc(self) -> int:
        return min(s.trunc for s in self.components)

    def is_constant(self) -> bool:
        """Zero curve up to truncation."""
        return all(s.is_zero() for s in self.components)

    def map_jet(self, jet: PolyJet3,
                products: dict | None = None) -> "CurveGerm":
        """Post-compose with a jet fixing the origin; ``products`` is passed
        on to :meth:`PolyJet3.substitute`."""
        if not jet.fixes_origin():
            raise DomainError("jet must fix the origin to act on curve germs")
        nx, ny, nz = jet.substitute(self.x, self.y, self.z, products)
        return CurveGerm(nx, ny, nz)

    def reparametrize(self, tau: TruncSeries) -> "CurveGerm":
        """Pre-compose with a parameter change t = tau(T), ord(tau) >= 1."""
        return CurveGerm(*compose_all(self.components, tau))

    def restrict(self, trunc: int) -> "CurveGerm":
        return CurveGerm(self.x.restrict(trunc), self.y.restrict(trunc),
                         self.z.restrict(trunc))

    def agrees_with(self, other: "CurveGerm", through: int | None = None) -> bool:
        return all(a.agrees_with(b, through)
                   for a, b in zip(self.components, other.components))

    def __repr__(self) -> str:
        return f"CurveGerm({self.x!r}, {self.y!r}, {self.z!r})"


def monomial_curve(ex: int | None, ey: int | None, ez: int | None,
                   trunc: int = DEFAULT_TRUNC) -> CurveGerm:
    """Curve (t^ex, t^ey, t^ez); ``None`` means the zero component."""

    def comp(e: int | None) -> TruncSeries:
        if e is None:
            return TruncSeries.zero(trunc)
        return TruncSeries.monomial(e, 1, trunc)

    return CurveGerm(comp(ex), comp(ey), comp(ez))


def curve_from_obj(obj: Mapping[str, object]) -> CurveGerm:
    """Parse the curve file form {"trunc": N, "x": {...}, "y": {...}, "z": {...}}."""
    try:
        trunc = parse_integer(obj["trunc"])
    except (KeyError, TypeError, DomainError):
        raise DomainError("curve object needs an integer 'trunc' field") from None
    comps = []
    for name in ("x", "y", "z"):
        raw = obj.get(name, {})
        if not isinstance(raw, Mapping):
            raise DomainError(f"curve component {name!r} must be an object")
        comps.append(series_from_obj(raw, trunc))
    return CurveGerm(*comps)


def curve_to_obj(c: CurveGerm) -> dict:
    return {
        "trunc": c.trunc,
        "x": series_to_obj(c.x),
        "y": series_to_obj(c.y),
        "z": series_to_obj(c.z),
    }
