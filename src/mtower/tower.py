"""Kumpera-Rubin charts, curve prolongation and RVT coding of tower points.

Conventions
-----------
At each tower level the rank-3 distribution carries a chart coframe of three
coordinate differentials, listed in priority order::

    (previous denominator form, du_k, dv_k)

Directions, hyperplane normals and frame computations all use coordinates
with respect to this triple. Climbing one level means choosing the first
coframe form that is nonzero on the direction being centered (the chart
*denominator*, index 0, 1 or 2) and taking the two remaining ratios, in
priority order, as the new fiber coordinates ``u_{k+1}, v_{k+1}``. The new
coframe is then ``(denominator form, du_{k+1}, dv_{k+1})``.

Critical hyperplanes are stored as linear functionals on the coframe whose
coefficients are 0 or 1, so a direction lies in a plane when its coordinates
at the plane's 1s sum to zero. The vertical plane (tangent to the fiber) is
always the functional ``(1, 0, 0)``. Prolonging a hyperplane through a
direction contained in it keeps the two coefficients other than the chart
denominator's:

    denominator 0: (a, b, c) -> (0, b, c)
    denominator 1: (a, b, c) -> (0, a, c)
    denominator 2: (a, b, c) -> (0, a, b)

which is the plane spanned by the tautological lift of the direction and the
tangent line to the projectivized kernel inside the new fiber. Since that
rule only writes a 0 and copies coefficients, every normal stays a 0/1
triple. An arrangement lists the vertical plane first, then the tangency
planes from the newest birth level down. One level step, :func:`_step`,
gives a direction's letter, its chart step and the arrangement above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence, TypeVar

from .curves import CurveGerm
from .errors import DomainError, InsufficientTruncation
from .series import DEFAULT_TRUNC, Rational, TruncSeries, _as_fraction

Direction = tuple[Fraction, Fraction, Fraction]
RVTWord = tuple[str, ...]

LETTERS = ("R", "V", "T", "L", "T1", "T2", "L1", "L2", "L3")

#: The one zero every climbed point shares as its zero coordinates.
_ZERO = Fraction(0)


def _as_direction(direction: Sequence[Rational]) -> Direction:
    if len(direction) != 3:
        raise DomainError("a direction needs exactly 3 chart-frame coordinates")
    d = tuple(_as_fraction(v) for v in direction)
    if all(v == 0 for v in d):
        raise DomainError("the zero direction cannot be classified")
    return d  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class CriticalHyperplane:
    """Critical hyperplane delta^age_birth, as a functional on the coframe."""

    birth_level: int
    age: int
    normal: tuple[int, int, int]

    def __post_init__(self):
        if (len(self.normal) != 3 or any(v not in (0, 1) for v in self.normal)
                or not any(self.normal)):
            raise DomainError(
                "hyperplane normal must be a nonzero triple of 0s and 1s")

    @property
    def is_vertical(self) -> bool:
        return self.age == 0

    def contains(self, direction: Sequence[Rational]) -> bool:
        return self._holds(_as_direction(direction))

    def _holds(self, direction: Sequence[Rational]) -> bool:
        return sum(v for n, v in zip(self.normal, direction) if n) == 0


@lru_cache(maxsize=256)
def _plane(birth_level: int, age: int, normal: tuple[int, int, int]
           ) -> CriticalHyperplane:
    """The one shared hyperplane with these fields: every walk and climb
    builds its planes here, from a few dozen (birth, age, normal) values."""
    return CriticalHyperplane(birth_level, age, normal)


def vertical_plane(level: int) -> CriticalHyperplane:
    return _plane(level, 0, (1, 0, 0))


Arrangement = tuple[CriticalHyperplane, ...]


@dataclass(frozen=True, slots=True)
class TowerPoint:
    """Point of the tower: level, chart path, exact coordinates, arrangement.

    Build through :func:`make_point`, :func:`point_above` or
    :func:`prolong_point`; the arrangement is derived data.
    """

    level: int
    chart: tuple[int, ...]
    coords: tuple[Fraction, ...]
    arrangement: Arrangement = field(compare=False)

    def fiber_coords(self, j: int) -> tuple[Fraction, Fraction]:
        """The pair (u_j, v_j), 1-indexed by level."""
        if not 1 <= j <= self.level:
            raise DomainError(f"no fiber coordinates at level {j}")
        base = 3 + 2 * (j - 1)
        return self.coords[base], self.coords[base + 1]

    def step_direction(self, j: int) -> Direction:
        """Direction centered by chart step ``j``, in the coframe of level j - 1."""
        return _step_direction(self.chart[j - 1], *self.fiber_coords(j))


def _center(direction: Direction) -> tuple[int, Fraction, Fraction]:
    """Chart step centered on a nonzero direction: the denominator is its
    first nonzero coordinate, and the two remaining ratios, in priority
    order, are the new fiber coordinates (u, v)."""
    d = next(i for i, x in enumerate(direction) if x != 0)
    u, v = (direction[i] / direction[d] if direction[i] else _ZERO
            for i in range(3) if i != d)
    return d, u, v


def _step_direction(d: int, u: Fraction, v: Fraction) -> Direction:
    """Direction centered by a chart step with fiber coordinates (u, v);
    the inverse of :func:`_center`."""
    if d == 0:
        return (Fraction(1), u, v)
    if d == 1:
        return (u, Fraction(1), v)
    return (u, v, Fraction(1))


def _step(arrangement: Arrangement, direction: Direction, level: int
          ) -> tuple[str, tuple[int, Fraction, Fraction], Arrangement]:
    """One step up the tower from a point with ``arrangement``: the letter
    of ``direction`` (see :func:`classify_direction`), the chart step
    (d, u, v) centered on it, and the arrangement of the level-``level``
    point above. Index 1 of an arrangement is its newest tangency plane,
    the one T1 and L1 name."""
    hits = [i for i, h in enumerate(arrangement) if h._holds(direction)]
    if len(hits) > 2:
        raise AssertionError("three critical hyperplanes share a direction")
    if not hits:
        letter = "R"
    elif hits == [0]:
        letter = "V"
    elif len(hits) == 2 and hits[0] > 0:
        letter = "L3"
    else:
        letter = "T" if len(hits) == 1 else "L"
        if len(arrangement) > 2:  # two tangency planes to tell apart
            letter += "1" if hits[-1] == 1 else "2"
    d, u, v = _center(direction)
    keep = [i for i in range(3) if i != d]
    above = (vertical_plane(level),) + tuple(
        _plane(h.birth_level, h.age + 1, (0, h.normal[keep[0]], h.normal[keep[1]]))
        for h in (arrangement[i] for i in hits))
    return letter, (d, u, v), above


def prolong_hyperplane(plane: CriticalHyperplane,
                       direction: Sequence[Rational]) -> CriticalHyperplane:
    """Prolong a critical hyperplane through a direction contained in it.

    The chart step centered on ``direction`` fixes how the coframe is
    renamed.
    """
    _, _, above = _step((plane,), _as_direction(direction),
                        plane.birth_level + plane.age + 1)
    if len(above) == 1:
        raise DomainError(
            "direction is not inside the hyperplane; its baby monster "
            "does not pass through the new point")
    return above[1]


def classify_direction(p: TowerPoint, direction: Sequence[Rational]) -> str:
    """Letter of a direction inside the distribution at ``p``.

    R when it avoids every critical hyperplane, V when only the vertical
    contains it, T/T1/T2 for a single tangency plane, L/L1/L2/L3 for an
    intersection line of two planes.
    """
    return _step(p.arrangement, _as_direction(direction), p.level + 1)[0]


def _reconstruct(p: TowerPoint) -> tuple[Arrangement, RVTWord]:
    """Arrangement and letters of ``p`` from its chart steps alone, checking
    that each step is the chart that centering its own direction picks."""
    arrangement: Arrangement = ()
    letters: list[str] = []
    for j, d in enumerate(p.chart, start=1):
        letter, (centered, _, _), arrangement = _step(
            arrangement, p.step_direction(j), j)
        if centered != d:
            form, zero = ("u", f"u_{j}") if d == 1 else ("v", f"u_{j} and v_{j}")
            raise DomainError(f"chart step {j} uses the {form}-form "
                              f"denominator, so {zero} must be 0")
        letters.append(letter)
    return arrangement, tuple(letters)


def make_point(level: int, chart: Sequence[int],
               coords: Sequence[Rational]) -> TowerPoint:
    """Validate and assemble a tower point, recomputing its arrangement."""
    if level < 0:
        raise DomainError("level must be non-negative")
    if len(chart) != level:
        raise DomainError(f"chart path must have {level} steps")
    if len(coords) != 3 + 2 * level:
        raise DomainError(f"a level-{level} point has {3 + 2 * level} coordinates")
    if any(d not in (0, 1, 2) for d in chart):
        raise DomainError("chart steps must be 0, 1 or 2")
    bare = TowerPoint(level, tuple(chart),
                      tuple(_as_fraction(c) for c in coords), ())
    arrangement, _ = _reconstruct(bare)
    return replace(bare, arrangement=arrangement)


def point_letters(p: TowerPoint) -> RVTWord:
    """RVT word of the point itself (one letter per level)."""
    return _reconstruct(p)[1]


def point_above(p: TowerPoint, direction: Sequence[Rational]) -> TowerPoint:
    """The point one level up centered on a direction at ``p``."""
    _, (d, u, v), arrangement = _step(p.arrangement, _as_direction(direction),
                                      p.level + 1)
    return TowerPoint(p.level + 1, p.chart + (d,), p.coords + (u, v), arrangement)


def project_point(p: TowerPoint, i: int) -> TowerPoint:
    """Projection pi_{k,i} down to level ``i``."""
    if not 0 <= i <= p.level:
        raise DomainError(f"cannot project a level-{p.level} point to level {i}")
    if i == p.level:
        return p
    return make_point(i, p.chart[:i], p.coords[:3 + 2 * i])


# -- curve prolongation ----------------------------------------------------


@dataclass(frozen=True)
class ProlongedCurve:
    """A curve germ prolonged ``level`` times, with all coordinate series."""

    curve: CurveGerm
    level: int
    chart: tuple[int, ...]
    series: tuple[TruncSeries, ...]
    letters: RVTWord
    point: TowerPoint

    def fiber_series(self, j: int) -> tuple[TruncSeries, TruncSeries]:
        if not 1 <= j <= self.level:
            raise DomainError(f"no fiber series at level {j}")
        return self.series[3 + 2 * (j - 1)], self.series[4 + 2 * (j - 1)]


def active_indices(chart: Sequence[int]) -> tuple[int, int, int]:
    """Indices (into the coordinate list) of the top-level chart triple."""
    idx = (0, 1, 2)
    for j, d in enumerate(chart, start=1):
        idx = (idx[d], 3 + 2 * (j - 1), 4 + 2 * (j - 1))
    return idx


def _direction_of(derivs: Sequence[TruncSeries], level: int) -> tuple[Direction, int]:
    """Limit direction of a derivative triple after cancelling t^m."""
    finite = [s.order() for s in derivs if s.order() is not None]
    if not finite:
        raise InsufficientTruncation(
            f"direction undetermined at level {level}: all derivative "
            "components vanish up to truncation")
    m = min(finite)
    comps = []
    for s in derivs:
        if not s.known(m):
            raise InsufficientTruncation(
                f"direction undetermined at level {level}: a component's "
                f"t^{m} coefficient is beyond its truncation")
        comps.append(s.coefficient(m))
    return (comps[0], comps[1], comps[2]), m


@dataclass(frozen=True)
class _Climb:
    """One climb to level k: the point and its letters, the coordinate
    series through level k - 1 (the last two capped unless the climb is
    full), and the level-k derivative triple with the power of t cancelled
    from it before reading the direction."""

    point: TowerPoint
    letters: RVTWord
    series: tuple[TruncSeries, ...]
    derivs: tuple[TruncSeries, ...]
    cancelled: int


def _fiber_series(derivs: Sequence[TruncSeries], d: int) -> tuple[TruncSeries, ...]:
    """Fiber coordinate series of a level: the derivative ratios over the
    chart denominator ``d``."""
    return derivs[d].quotients(*(derivs[i] for i in range(3) if i != d))


def _check_level(k: int) -> None:
    if k < 1:
        raise DomainError("prolongation level must be at least 1")


def _climb(c: CurveGerm, k: int, full: bool = False,
           over: TowerPoint | None = None) -> _Climb | None:
    """Go up the tower once to level ``k`` along the curve's prolongation,
    by the chart rule of :func:`prolong_curve`. A level's fiber series are
    computed only when the next level's derivatives need them. Unless
    ``full``, the last ones come from the level k - 1 derivatives restricted
    to degree 2m + 1, m the order cancelled there: the old denominator's
    derivative has order m, so the level-k direction is read at a degree
    <= m, and quotients by a series of order m are exact through m + 1 from
    operands through 2m + 1. Given a point ``over``, the climb is None at
    the first level j <= over.level whose chart step or fiber coordinates
    differ from its own: those are exact values, so the top point is
    certainly not over it, and the levels above are never computed."""
    _check_level(k)
    if c.is_constant():
        raise InsufficientTruncation("the curve vanishes up to truncation")
    series: list[TruncSeries] = list(c.components)
    active: list[TruncSeries] = list(c.components)
    chart: list[int] = []
    letters: list[str] = []
    coords: list[Fraction] = [_ZERO] * 3
    arrangement: Arrangement = ()
    for j in range(1, k + 1):
        if j > 1:
            if j == k and not full:
                derivs = tuple(s.restrict(2 * cancelled + 1) for s in derivs)
            u_series, v_series = _fiber_series(derivs, d)
            series.extend((u_series, v_series))
            active = [active[d], u_series, v_series]
        derivs = tuple(s.derivative() for s in active)
        direction, cancelled = _direction_of(derivs, j)
        letter, (d, u, v), arrangement = _step(arrangement, direction, j)
        if (over is not None and j <= over.level
                and (d, u, v) != (over.chart[j - 1], *over.fiber_coords(j))):
            return None
        letters.append(letter)
        chart.append(d)
        coords.extend((u, v))
    point = TowerPoint(k, tuple(chart), tuple(coords), arrangement)
    return _Climb(point, tuple(letters), tuple(series), derivs, cancelled)


#: The 13 projective directions with entries in {-1, 0, 1}. Walking them is
#: exhaustive because every critical normal has entries 0 and 1, which
#: CriticalHyperplane checks. So (1, 1, 1) avoids every plane; each plane
#: holds at least three grid directions, so one misses the other two planes;
#: and each intersection line is the cross product of two such normals.
_GRID: tuple[Direction, ...] = tuple(
    d for d in product(map(Fraction, (1, 0, -1)), repeat=3)
    if next((x for x in d if x), 0) == 1)


def _class_words(level: int) -> list[RVTWord]:
    """Every RVT word of a level, in prefix order: each point extends by one
    grid direction per letter, successors in ``LETTERS`` order."""
    walk: list[tuple[RVTWord, Arrangement]] = [((), ())]
    for j in range(1, level + 1):
        step = []
        for word, arrangement in walk:
            first: dict[str, Arrangement] = {}
            for direction in _GRID:
                letter, _, above = _step(arrangement, direction, j)
                first.setdefault(letter, above)
            step.extend((word + (letter,), first[letter])
                        for letter in sorted(first, key=LETTERS.index))
        walk = step
    return [word for word, _ in walk]


def prolong_point(c: CurveGerm, k: int) -> TowerPoint:
    """The point the curve's ``k``-fold prolongation reaches at t=0.

    Equal to ``prolong_curve(c, k).point``, without the level-k fiber
    series that the point does not read.
    """
    return _climb(c, k).point


def prolong_point_over(c: CurveGerm, k: int, p: TowerPoint) -> TowerPoint | None:
    """``prolong_point(c, k)`` when its chart steps and fiber coordinates
    through p.level are those of ``p``, else None, decided at the first
    level that differs: a shortfall above that level is never reached."""
    top = _climb(c, k, over=p)
    return None if top is None else top.point


def prolong_curve(c: CurveGerm, k: int) -> ProlongedCurve:
    """Cartan-prolong a curve germ ``k`` times.

    At each level the chart denominator is picked by the priority rule from
    the limit direction of the derivative triple (common factors of t are
    cancelled before evaluating at 0, so singular parameters are fine). The
    two remaining derivative ratios become the new fiber coordinate series.
    """
    top = _climb(c, k, full=True)
    p = top.point
    return ProlongedCurve(c, k, p.chart,
                          top.series + _fiber_series(top.derivs, p.chart[-1]),
                          top.letters, p)


_T = TypeVar("_T")


def _doubling(attempt: Callable[[int], _T], ceiling: int) -> _T:
    """``attempt(t)`` at t = min(8, ceiling), retried at min(2t, ceiling) on
    ``InsufficientTruncation`` only; at the ceiling the shortfall is raised.
    For attempts whose every returned value is exact, such as a climb's,
    the answers and errors are those of ``attempt(ceiling)``."""
    t = min(8, ceiling)
    while True:
        try:
            return attempt(t)
        except InsufficientTruncation:
            if t >= ceiling:
                raise
            t = min(2 * t, ceiling)


def rvt_code(c: CurveGerm, k: int) -> RVTWord:
    """RVT word of length ``k`` attached to the curve's prolongation.

    The curve must realize its endpoint: the k-fold prolongation is immersed
    at t=0 (no common factor of t in the velocity) and points in a regular
    direction. Anything else is refused rather than guessed.

    The curve's truncation is a ceiling: the climb starts on the curve
    restricted to trunc 8 and doubles on a shortfall (see :func:`_doubling`),
    and its last try is the curve itself, so the words and errors are those
    of one climb on the curve.
    """
    _check_level(k)
    top = _doubling(lambda t: _climb(c if t >= c.trunc else c.restrict(t), k + 1),
                    c.trunc)
    if top.cancelled != 0:
        raise DomainError(
            "the curve's level-%d prolongation is not immersed at t=0; "
            "it does not realize its endpoint" % k)
    if top.letters[k] != "R":
        raise DomainError(
            "the curve's level-%d direction is critical; it does not realize "
            "its endpoint" % k)
    return top.letters[:k]


def word_str(word: Iterable[str]) -> str:
    return "".join(word)


def parse_word(text: str) -> RVTWord:
    letters: list[str] = []
    for ch in text:
        if ch in "RVTL":
            letters.append(ch)
        elif ch in "123":
            if not letters or letters[-1] not in ("T", "L"):
                raise DomainError(f"malformed RVT word {text!r}")
            if letters[-1] == "T" and ch == "3":
                raise DomainError(f"malformed RVT word {text!r}")
            letters[-1] += ch
        else:
            raise DomainError(f"malformed RVT word {text!r}")
    if not letters:
        raise DomainError("empty RVT word")
    word = tuple(letters)
    if word[0] != "R":
        raise DomainError("an RVT word always begins with R")
    return word


# -- realization -----------------------------------------------------------

#: Slopes (s, r) of tangents (1, s, r); (1, 1, 1) lies in no critical plane.
_TANGENT_CANDIDATES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))


def _pick_regular_tangent(arrangement: Arrangement) -> tuple[int, int]:
    return next((s, r) for s, r in _TANGENT_CANDIDATES
                if not any(h._holds((1, s, r)) for h in arrangement))


def realize_point(p: TowerPoint, trunc: int = DEFAULT_TRUNC,
                  tangent: tuple[Rational, Rational] | None = None,
                  fiber_tail: tuple[TruncSeries, TruncSeries] | None = None
                  ) -> CurveGerm:
    """A curve germ whose ``level``-fold prolongation hits ``p`` at t=0.

    The curve is the base projection of a formal integral curve through
    ``p`` of a frame field with regular top direction ``(1, s, r)``; solving
    the chart's contact relations downward is a term-by-term integration.
    ``tangent`` picks (s, r) explicitly, ``fiber_tail`` adds order >= 2
    perturbations to the top fiber coordinates; both default to the simplest
    deterministic choice. Only points over the origin are realizable.
    """
    if p.level < 1:
        raise DomainError("realization needs a point at level >= 1")
    if any(c != 0 for c in p.coords[:3]):
        raise DomainError("realization is supported over the origin only")
    if tangent is None:
        s, r = _pick_regular_tangent(p.arrangement)
    else:
        s, r = _as_fraction(tangent[0]), _as_fraction(tangent[1])
        direction = (Fraction(1), s, r)
        if any(h._holds(direction) for h in p.arrangement):
            raise DomainError("requested tangent is a critical direction")
    top = active_indices(p.chart)
    w = TruncSeries({0: p.coords[top[0]], 1: 1}, trunc)
    u = TruncSeries({0: p.coords[top[1]], 1: s}, trunc)
    v = TruncSeries({0: p.coords[top[2]], 1: r}, trunc)
    if fiber_tail is not None:
        tail_u, tail_v = fiber_tail
        if tail_u.effective_order() < 2 or tail_v.effective_order() < 2:
            raise DomainError("fiber tails must have order >= 2")
        u = u + tail_u
        v = v + tail_v
    triple: list[TruncSeries] = [w, u, v]
    for j in range(p.level, 0, -1):
        d = p.chart[j - 1]
        prev = active_indices(p.chart[:j - 1])
        denom = triple[0]
        dden = denom.derivative()
        level_below = [denom] * 3
        missing = [i for i in range(3) if i != d]
        for i, fiber in zip(missing, triple[1:]):
            level_below[i] = (fiber * dden).integral(p.coords[prev[i]])
        triple = level_below
    return CurveGerm(*(s.restrict(trunc) for s in triple))
