"""Prolonged action of diffeomorphism germs on tower points.

The action is computed pointwise through realizing curves: to move a point,
realize it by a curve with regular top direction, push the curve through the
jet, and prolong the image back up. The result does not depend on the chosen
realizing curve, which the test suite exercises directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .curves import CurveGerm
from .errors import DomainError
from .jets import Mono, PolyJet3, monomials
from .series import DEFAULT_TRUNC, Rational, _as_fraction
from .tower import (TowerPoint, _doubling, point_above, prolong_point,
                    prolong_point_over, realize_point)

#: Default total degree for diffeomorphism jets.
DEFAULT_JET_DEGREE = 8


@dataclass(frozen=True)
class DiffeoJet:
    """Jet of a diffeomorphism germ of 3-space fixing the origin."""

    jet: PolyJet3

    def __post_init__(self):
        if not self.jet.fixes_origin():
            raise DomainError("diffeomorphism germs must fix the origin")
        if self.jet.linear_det() == 0:
            raise DomainError("diffeomorphism jets need an invertible linear part")

    @classmethod
    def identity(cls, degree: int = DEFAULT_JET_DEGREE) -> "DiffeoJet":
        return cls(PolyJet3.identity(degree))

    @classmethod
    def diagonal(cls, a: Rational, b: Rational, c: Rational,
                 degree: int = DEFAULT_JET_DEGREE) -> "DiffeoJet":
        return cls(PolyJet3.diagonal(a, b, c, degree))

    @property
    def degree(self) -> int:
        return self.jet.degree

    def apply_to_curve(self, c: CurveGerm) -> CurveGerm:
        return c.map_jet(self.jet)

    def compose(self, other: "DiffeoJet", degree: int | None = None) -> "DiffeoJet":
        return DiffeoJet(self.jet.compose(other.jet, degree))

    def inverse(self, degree: int | None = None) -> "DiffeoJet":
        return DiffeoJet(self.jet.inverse(degree))


def prolong_apply(phi: DiffeoJet, p: TowerPoint,
                  trunc: int = DEFAULT_TRUNC) -> TowerPoint:
    """Image of ``p`` under the ``level``-fold prolongation of ``phi``."""
    if p.level == 0:
        return p  # germs fix the origin
    gamma = realize_point(p, trunc)
    image = phi.apply_to_curve(gamma)
    return prolong_point(image, p.level)


def _image_over(phi: DiffeoJet, q: TowerPoint, p: TowerPoint,
                trunc: int) -> TowerPoint | None:
    """Image of ``q`` under the prolonged jet when it lies over ``p``, else
    None, decided at the first level where the image leaves ``p``."""
    image = phi.apply_to_curve(realize_point(q, trunc))
    return prolong_point_over(image, q.level, p)


def isotropy_check(phi: DiffeoJet, p: TowerPoint,
                   trunc: int = DEFAULT_TRUNC) -> bool:
    """True when the prolonged jet fixes ``p`` exactly; False from the
    first level where the image leaves ``p``, even if a level above it
    would need more than ``trunc``.

    ``trunc`` is a ceiling: the climb runs at trunc 8 and doubles on a
    shortfall up to ``trunc`` (see :func:`mtower.tower._doubling`), so the
    answers are those of one climb at ``trunc``."""
    if p.level == 0:
        return True
    return _doubling(lambda t: _image_over(phi, p, p, t) is not None, trunc)


FiberDirection = tuple[Fraction, Fraction]


def fiber_action(phi: DiffeoJet, p: TowerPoint,
                 directions: Iterable[Sequence[Rational]],
                 trunc: int = DEFAULT_TRUNC) -> list[FiberDirection]:
    """Projectivized tangent action on fiber directions over a fixed point.

    Each direction is a pair (b, c) spanning b*d/du + c*d/dv inside the
    vertical plane over ``p``; the image pairs are read off the prolonged
    image points one level up. Every pair is checked before any point is
    realized. The jet fixes ``p`` when each image lies over ``p``, since
    prolongation commutes with projection.
    """
    pairs: list[FiberDirection] = []
    for pair in directions:
        if len(pair) != 2:
            raise DomainError("fiber directions are (b, c) pairs")
        b, c = _as_fraction(pair[0]), _as_fraction(pair[1])
        if b == 0 and c == 0:
            raise DomainError("the zero direction cannot be acted on")
        pairs.append((b, c))
    if not pairs and not isotropy_check(phi, p, trunc):
        # no direction image to read fixedness off
        raise DomainError("fiber_action requires a jet fixing the point")
    out: list[FiberDirection] = []
    for b, c in pairs:
        q_image = _image_over(phi, point_above(p, (Fraction(0), b, c)), p, trunc)
        if q_image is None:
            raise DomainError("fiber_action requires a jet fixing the point")
        a, b, c = q_image.step_direction(p.level + 1)
        if a != 0:
            raise AssertionError("image of a vertical direction left the fiber")
        out.append((b, c))
    return out


# -- isotropy constraint sets -------------------------------------------------

#: The Taylor coefficients (component, monomial) whose vanishing cuts out the
#: isotropy groups G1-G3 of the chain points at levels 1-3; each stage adds one.
_G1 = ((2, (1, 0, 0)), (3, (1, 0, 0)))
_G2 = _G1 + ((3, (0, 1, 0)),)
_G3 = _G2 + ((3, (2, 0, 0)),)

_STAGES = {"G1": _G1, "G2": _G2, "G3": _G3}


def taylor_constraints(stage: str) -> tuple[tuple[int, Mono], ...]:
    """The (component, monomial) pairs of the Taylor coefficients whose
    vanishing cuts out stage G1, G2 or G3, in the order the stages add them."""
    if stage not in _STAGES:
        raise DomainError("stage must be one of G1, G2, G3")
    return _STAGES[stage]


# -- sampling -------------------------------------------------------------------


def rand_fraction(rng: random.Random, allow_zero: bool = True) -> Fraction:
    """Small exact rational: |numerator| <= 5, denominator <= 3."""
    while True:
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if allow_zero or q != 0:
            return q


def sample_diffeo(rng: random.Random, degree: int = 3,
                  pinned: Mapping[tuple[int, Mono], Rational] | None = None,
                  jet_degree: int = DEFAULT_JET_DEGREE) -> DiffeoJet:
    """Random diffeomorphism jet with small rational coefficients.

    ``pinned`` sets the named Taylor coefficients {(component, monomial):
    value} after sampling, 0 included; the linear part is resampled until
    invertible.
    """
    monos = monomials(degree)
    while True:
        comps: list[dict[Mono, Rational]] = []
        for _ in range(3):
            table: dict[Mono, Rational] = {}
            for mono in monos:
                if sum(mono) == 1 or rng.random() < 0.4:
                    table[mono] = rand_fraction(rng)
            comps.append(table)
        for (component, mono), value in (pinned or {}).items():
            comps[component - 1][mono] = value
        jet = PolyJet3(comps, jet_degree)
        if jet.linear_det() != 0:
            return DiffeoJet(jet)
