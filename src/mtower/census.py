"""RVT class enumeration and the orbit census with verification evidence.

Classes are computed by walking the tower with its own direction classifier;
the paper's lists in ``catalog.LEVEL_CLASSES`` only check that walk.

Counts are assembled per class with explicit provenance: facts the engine
recomputes (membership of representatives, merge points, invariant
separations, the fiber computation splitting the level-4 vertical chain)
are tagged ``verified``; counts taken on faith from the classification
theorems are tagged ``asserted``. The census never launders an assertion
into a computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import (NORMAL_FORMS, ORBIT_COUNTS, ORBIT_TOTALS,
                      normal_form_curves)
from .curves import CurveGerm, monomial_curve
from .diffeo import DiffeoJet, fiber_action, sample_diffeo, taylor_constraints
from .errors import DomainError, InsufficientTruncation
from .invariants import semigroup
from .series import DEFAULT_TRUNC
from .tower import (TowerPoint, _class_words, parse_word, point_above,
                    point_letters, prolong_point, realize_point, rvt_code,
                    word_str)

_MAX_LEVEL = 4


def enumerate_classes(level: int) -> list[tuple[str, ...]]:
    """All RVT words of a level in prefix order, computed by the tower."""
    if not 1 <= level <= _MAX_LEVEL:
        raise DomainError(f"class enumeration is supported for levels 1..{_MAX_LEVEL}")
    return _class_words(level)


def representatives(code: str, trunc: int = DEFAULT_TRUNC) -> list[CurveGerm]:
    """Catalog curves whose prolongation lies in the class.

    Classified levels use the normal-form table, and trailing R letters
    inherit the representatives of the classified prefix (a class and its
    regular prolongations share curve normal forms). A prefix R^k V gets
    the planar singularity (t^2, t^{2k+1}, 0); the level-4 vertical chain
    gets the two curves realizing its split. Everything else is empty.
    """
    level = len(parse_word(code))
    if code not in ORBIT_COUNTS:
        raise DomainError(f"{code!r} is not a class at level {level}")
    base = code
    while base not in NORMAL_FORMS and base.endswith("R"):
        base = base[:-1]
    if base in NORMAL_FORMS:
        return normal_form_curves(base, trunc)
    if code == "RVVV":
        return [realize_point(q, trunc) for q in rvvv_points(trunc)]
    k = len(base) - 1
    if base == "R" * k + "V":
        return [monomial_curve(2, 2 * k + 1, None, trunc=trunc)]
    return []


def rvv_point(trunc: int = DEFAULT_TRUNC) -> TowerPoint:
    """The chain representative at level 3 (all chart coordinates zero)."""
    return prolong_point(monomial_curve(3, 5, 7, trunc=trunc), 3)


def rvvv_points(trunc: int = DEFAULT_TRUNC) -> tuple[TowerPoint, TowerPoint]:
    """The two level-4 points splitting the vertical chain class."""
    p3 = rvv_point(trunc)
    return (point_above(p3, (0, 1, 0)), point_above(p3, (0, 1, 1)))


# -- evidence and records ------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    kind: str
    tier: str  # "verified" or "asserted"
    detail: str


@dataclass(frozen=True)
class ClassRecord:
    code: str
    orbit_count: int
    representatives: tuple[CurveGerm, ...]
    evidence: tuple[Evidence, ...]


@dataclass(frozen=True)
class CensusReport:
    level: int
    records: tuple[ClassRecord, ...]
    total: int


def _membership_evidence(code: str, curves: Sequence[CurveGerm],
                         level: int) -> list[Evidence]:
    out = []
    for c in curves:
        word = word_str(rvt_code(c, level))
        if word != code:
            raise AssertionError(
                f"catalog curve for {code} classifies as {word}")
        out.append(Evidence("membership", "verified",
                            f"representative prolongs into {code}"))
    return out


def _separation_evidence(curves: Sequence[CurveGerm], level: int) -> list[Evidence]:
    points = [prolong_point(c, level) for c in curves]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                raise AssertionError(
                    "representatives of a multi-orbit class merged")
    out = [Evidence("separation", "verified",
                    f"the {len(curves)} representatives reach distinct "
                    f"level-{level} points")]
    bound = min(16, min(c.trunc for c in curves))
    sgs = [semigroup(c, bound).elements for c in curves]
    if len(set(sgs)) == len(sgs):
        out.append(Evidence("separation", "verified",
                            f"pairwise distinct semigroups up to {bound}"))
    return out


def _class_record(code: str, level: int, trunc: int) -> ClassRecord:
    count = ORBIT_COUNTS[code]
    curves = tuple(representatives(code, trunc))
    evidence = _membership_evidence(code, curves, level)
    if code == "RVV":
        p = prolong_point(curves[0], 3)
        q = prolong_point(curves[1], 3)
        if p != q:
            raise AssertionError("the two RVV forms should merge at level 3")
        evidence.append(Evidence(
            "merge-certificate", "verified",
            "both normal forms prolong to the same level-3 point; "
            "the split reappears inside RVVR"))
    elif len(curves) >= 2:
        evidence.extend(_separation_evidence(curves, level))
    if code == "RVVV":
        evidence.append(Evidence(
            "fiber-split", "verified",
            "vertical fiber action is diagonal; see verify_rvvv_split"))
    if curves:
        shown = 1 if code == "RVV" else len(curves)
        evidence.append(Evidence(
            "count-lower-bound", "verified",
            f">= {shown} orbit(s) exhibited by representatives"))
    else:
        evidence.append(Evidence(
            "representatives", "asserted",
            "no catalog representative for this class"))
    evidence.append(Evidence(
        "count", "asserted",
        f"= {count} by the classification theorems"))
    return ClassRecord(code, count, curves, tuple(evidence))


def orbit_census(level: int, trunc: int = DEFAULT_TRUNC) -> CensusReport:
    """Per-class orbit counts with their evidence, plus the level total;
    a truncation too low for a class's evidence names the class."""
    records = []
    for word in enumerate_classes(level):
        code = word_str(word)
        try:
            records.append(_class_record(code, level, trunc))
        except InsufficientTruncation as exc:
            raise InsufficientTruncation(
                f"census class {code} at trunc {trunc}: {exc}") from exc
    total = sum(r.orbit_count for r in records)
    if total != ORBIT_TOTALS[level]:
        raise AssertionError(f"census total {total} at level {level} is wrong")
    return CensusReport(level, tuple(records), total)


def census_table(report: CensusReport) -> str:
    """Aligned text table: code, orbits, normal forms, evidence tier."""
    rows = [("class", "orbits", "normal forms", "evidence")]
    for r in report.records:
        forms = ", ".join(_exponent_str(c) for c in r.representatives) or "-"
        tier = ("verified" if all(e.tier == "verified" for e in r.evidence)
                else "partial" if any(e.tier == "verified" for e in r.evidence)
                else "asserted")
        rows.append((r.code, str(r.orbit_count), forms, tier))
    rows.append(("total", str(report.total), "", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def _exponent_str(c: CurveGerm) -> str:
    parts = []
    for s in c.components:
        o = s.order()
        if o is None:
            parts.append("0")
        elif s.numerators() == ({o: 1}, 1):
            parts.append(f"t^{o}")
        else:
            parts.append(f"t^{o}+...")
    return "(" + ",".join(parts) + ")"


# -- the level-4 vertical chain split -----------------------------------------


#: Isotropy jets sampled in (a), and distinct scalings drawn in (b) from the
#: 32 nonzero values p/q with |p| <= 6 and 1 <= q <= 4.
RVVV_SAMPLES = 20
RVVV_SCALINGS = 10


@dataclass(frozen=True)
class RvvvReport:
    axis_fixed_samples: int
    scaling_images: tuple[tuple[Fraction, Fraction], ...]
    codes: tuple[str, str]
    statement: str
    passed: bool


def verify_rvvv_split(seed: int = 0, trunc: int = DEFAULT_TRUNC) -> RvvvReport:
    """Executable evidence that the level-4 vertical chain has two orbits.

    (a) sampled isotropy jets act diagonally on the fiber, fixing [1:0];
    (b) explicit scalings connect [1:1] to [1:lambda] for rational lambda;
    (c) both candidate points carry the vertical chain code.
    The count >= 2 is demonstrated; equality is the classification theorem.
    """
    rng = random.Random(seed)
    p3 = rvv_point(trunc)
    g3 = dict.fromkeys(taylor_constraints("G3"), 0)
    fixed = 0
    for _ in range(RVVV_SAMPLES):
        phi = sample_diffeo(rng, degree=2, pinned=g3)
        try:
            image = fiber_action(phi, p3, [(1, 0)], trunc)[0]
        except DomainError:
            raise AssertionError(f"sampled jet violates isotropy: {phi}") from None
        if image != (Fraction(1), Fraction(0)):
            raise AssertionError(f"sampled isotropy jet moved [1:0] to {image}")
        fixed += 1
    images = []
    lams = []
    while len(lams) < RVVV_SCALINGS:
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if lam != 0 and lam not in lams:
            lams.append(lam)
    for lam in lams:
        phi = DiffeoJet.diagonal(1, 1, lam)
        image = fiber_action(phi, p3, [(1, 1)], trunc)[0]
        # closed form for diagonal jets (a, b, c): [1:1] -> [1 : c a / b^2]
        if image != (Fraction(1), lam):
            raise AssertionError(f"scaling by {lam} moved [1:1] to {image}")
        images.append(image)
    q10, q11 = rvvv_points(trunc)
    codes = (word_str(point_letters(q10)), word_str(point_letters(q11)))
    for q in (q10, q11):
        gamma = realize_point(q, trunc)
        if rvt_code(gamma, 4) != point_letters(q):
            raise AssertionError("realizing curve classifies differently")
    passed = codes == ("RVVV", "RVVV") and fixed == RVVV_SAMPLES
    return RvvvReport(
        fixed, tuple(images), codes,
        ">= 2 orbits demonstrated by the diagonal fiber action; "
        "= 2 by the classification theorem", passed)
