"""Verification suite for the published classification facts.

Each criterion is an independent callable returning a result record; the
``verify`` CLI verb and the acceptance tests both run these. Failures raise
inside the criterion and are captured as failed records, never masked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .catalog import LEVEL_CLASSES
from .census import (RVVV_SAMPLES, enumerate_classes, orbit_census, rvv_point,
                     rvvv_points, verify_rvvv_split)
from .curves import CurveGerm, monomial_curve
from .diffeo import (DiffeoJet, fiber_action, isotropy_check, prolong_apply,
                     rand_fraction, sample_diffeo, taylor_constraints)
from .invariants import multiplicity, planarity, semigroup
from .normalize import apply_certificate, equivalence_search, reduce_catalog
from .series import TruncSeries
from .tower import (project_point, prolong_curve, prolong_point,
                    realize_point, rvt_code, word_str)

F = Fraction


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _check(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def criterion_1_cusp_prolongation() -> str:
    pc = prolong_curve(monomial_curve(2, 3, None), 1)
    u, v = pc.fiber_series(1)
    _check(u.terms() == [(1, F(3, 2))], f"u series is {u!r}")
    _check(v.is_zero(), f"v series is {v!r}")
    _check(pc.point.coords == (0, 0, 0, 0, 0), "cusp point coordinates")
    return "fiber series ((3/2)t, 0), exactly"


_MEMBERSHIP = [
    ((1, None, None), ["R", "RR", "RRR"]),
    ((2, 3, None), ["RV", "RVR"]),
    ((2, 5, None), ["RRV"]),
    ((3, 5, 7), ["RVV"]),
    ((3, 5, None), ["RVV"]),
    ((3, 4, 5), ["RVT"]),
    ((3, 4, None), ["RVT"]),
    ((4, 6, 7), ["RVL"]),
]


def criterion_2_table_membership() -> str:
    checked = 0
    for exponents, codes in _MEMBERSHIP:
        c = monomial_curve(*exponents)
        for code in codes:
            got = word_str(rvt_code(c, len(code)))
            _check(got == code, f"{exponents} coded {got}, wanted {code}")
            checked += 1
    return f"{checked} normal-form membership checks, all exact"


def criterion_3_semigroups() -> str:
    s1 = semigroup(monomial_curve(3, 5, 7), 12)
    _check(s1.gaps == (1, 2, 4), f"gaps {s1.gaps}")
    s2 = semigroup(monomial_curve(3, 5, None), 12)
    _check(s2.gaps == (1, 2, 4, 7), f"gaps {s2.gaps}")
    q_axis, q_diag = rvvv_points()
    case1 = semigroup(realize_point(q_diag), 23)
    _check(case1.gaps == (1, 2, 3, 4, 6, 7, 9, 12, 14, 17),
           f"vertical-chain case 1 gaps {case1.gaps}")
    case2 = semigroup(realize_point(q_axis), 23)
    _check(case2.gaps == (1, 2, 3, 4, 6, 7, 9, 11, 12, 14, 17, 19, 22),
           f"vertical-chain case 2 gaps {case2.gaps}")
    for wanted in (11, 12, 14, 17, 19, 22):
        _check(wanted in case2.gaps, f"{wanted} should be a gap in case 2")
    return "all four gap patterns reproduced exactly up to their bounds"


def criterion_4_class_enumeration() -> str:
    for level in (1, 2, 3, 4):
        words = [word_str(w) for w in enumerate_classes(level)]
        _check(words == list(LEVEL_CLASSES[level]), f"level {level}: {words}")
    return "1/2/6/23 classes, lists verbatim"


def criterion_5_orbit_census() -> str:
    totals = [orbit_census(level).total for level in (1, 2, 3, 4)]
    _check(totals == [1, 2, 7, 34], f"totals {totals}")
    report = orbit_census(4)
    twos = {r.code for r in report.records if r.orbit_count == 2}
    _check(twos == {"RRVT", "RVRV", "RVVR", "RVVV", "RVVT", "RVTR", "RVTV",
                    "RVTL"}, f"two-orbit classes {twos}")
    fours = [r.code for r in report.records if r.orbit_count == 4]
    _check(fours == ["RVTT"], f"four-orbit classes {fours}")
    singles = sum(1 for r in report.records if r.orbit_count == 1)
    _check(singles == 14, f"{singles} single-orbit classes")
    for level in (1, 2, 3, 4):
        for record in orbit_census(level).records:
            _check(bool(record.evidence), f"{record.code} lacks evidence")
    return "totals 1/2/7/34 with the 14/8/1 level-4 breakdown, evidence tiers populated"


def criterion_6_equivalence_certificates() -> str:
    target = monomial_curve(3, 5, None, trunc=32)
    for sign in (1, -1):
        c = CurveGerm(TruncSeries({3: 1}, 32),
                      TruncSeries({5: 1, 7: sign}, 32),
                      TruncSeries({}, 32))
        result = equivalence_search(c, target)
        _check(result.kind == "equivalent", f"sign {sign}: {result.kind}")
        cert = result.certificate
        moved = apply_certificate(cert, c)
        _check(moved.agrees_with(target, cert.verified_through),
               "certificate replay mismatch")
        _check(cert.verified_through >= 30,
               f"verified only through {cert.verified_through}")
    return "replayable certificates for both signs, verified by substitution"


def criterion_7_reduction_pipeline() -> str:
    c = CurveGerm(TruncSeries({3: 1, 4: 1}, 48), TruncSeries({5: 1}, 48),
                  TruncSeries({7: 1}, 48))
    result = reduce_catalog(c)
    _check(result.status == "reduced" and result.normal_form == (3, 5, 7),
           f"{result.status} {result.normal_form}")
    bound = 20
    reference = semigroup(c, bound).elements
    for entry in result.trace.entries:
        b = min(bound, entry.after.trunc)
        got = semigroup(entry.after, b).elements
        _check(got == tuple(e for e in reference if e <= b),
               f"semigroup changed during {entry.step.kind}")
    _check(multiplicity(result.curve) == 3, "multiplicity changed")
    return f"reduced to (t^3,t^5,t^7) in {len(result.trace)} steps, " \
           "semigroup intact after each one"


def criterion_8_planarity() -> str:
    v = planarity(monomial_curve(3, 5, 7, trunc=48), 7, 40)
    _check(v.kind == "obstructed", f"(3,5,7): {v.kind}")
    w1 = planarity(monomial_curve(3, 5, None, trunc=48), 7, 40)
    _check(w1.kind == "planar-witness", f"(3,5,0): {w1.kind}")
    w2 = planarity(monomial_curve(2, 3, 4, trunc=48), 7, 40)
    _check(w2.kind == "planar-witness", f"(2,3,4): {w2.kind}")
    return ("obstruction at degree 7 / order 40 for the space curve; "
            "witnesses found for both planar ones")


def criterion_9_hyperplane_geometry() -> str:
    _check(len(prolong_point(monomial_curve(1, None, None), 3).arrangement) == 1,
           "R arrangement")
    _check(len(prolong_point(monomial_curve(2, 3, None), 2).arrangement) == 2,
           "V arrangement")
    _check(len(prolong_point(monomial_curve(3, 4, 5), 3).arrangement) == 2,
           "T arrangement")
    p3 = prolong_point(monomial_curve(4, 6, 7), 3)
    _check(len(p3.arrangement) == 3, "L arrangement")
    planes = {h.birth_level: h for h in p3.arrangement if not h.is_vertical}
    d12, d21 = planes[2], planes[1]
    _check(d12.normal == (0, 1, 0) and d12.age == 1, f"delta^1_2 = {d12}")
    _check(d21.normal == (0, 0, 1) and d21.age == 2, f"delta^2_1 = {d21}")
    # kernels: both contain the lifted direction; they split along dv3 / du3
    _check(d12.contains((1, 0, 0)) and d12.contains((0, 0, 1)), "span of delta^1_2")
    _check(d21.contains((1, 0, 0)) and d21.contains((0, 1, 0)), "span of delta^2_1")
    return "arrangement sizes 1/2/3 and both tangency planes in their charts"


def criterion_10_isotropy_constraints() -> str:
    rng = random.Random(0)
    p2 = prolong_point(monomial_curve(2, 3, None), 2)
    p3 = rvv_point()
    for _ in range(20):
        phi = sample_diffeo(rng, degree=2, constraints=taylor_constraints("G1"),
                            forced={(3, (0, 1, 0)):
                                    rand_fraction(rng, allow_zero=False)})
        _check(not isotropy_check(phi, p2), "phi3_y violation went unnoticed")
    for _ in range(20):
        phi = sample_diffeo(rng, degree=2, constraints=taylor_constraints("G2"),
                            forced={(3, (2, 0, 0)):
                                    rand_fraction(rng, allow_zero=False)})
        _check(not isotropy_check(phi, p3), "phi3_xx violation went unnoticed")
    return "20 + 20 targeted violations all fail their isotropy checks"


def criterion_11_rvvv_split() -> str:
    report = verify_rvvv_split(seed=0)
    _check(report.passed, "split report failed")
    _check(report.axis_fixed_samples == RVVV_SAMPLES, "not all samples fixed [1:0]")
    p3 = rvv_point()
    for a, b, c in [(2, 3, 5), (1, 2, 1), (3, 1, F(1, 2))]:
        lam = F(c) * F(a) / (F(b) ** 2)
        got = fiber_action(DiffeoJet.diagonal(a, b, c), p3, [(1, 1)])
        _check(got == [(1, lam)], f"diagonal action gave {got}, wanted [1:{lam}]")
    return report.statement


def criterion_12_property_suites() -> str:
    rng = random.Random(1)
    # (a) independence of the realizing curve
    points = [prolong_point(monomial_curve(2, 3, None), 2),
              rvv_point(),
              prolong_point(monomial_curve(3, 4, 5), 3),
              prolong_point(monomial_curve(4, 6, 7), 3),
              rvvv_points()[1]]
    trials = 0
    while trials < 50:
        p = points[trials % len(points)]
        phi = sample_diffeo(rng, degree=2)
        s, r = rng.randint(0, 3), rng.randint(-2, 2)
        if any(h.contains((F(1), F(s), F(r))) for h in p.arrangement):
            continue
        gamma = realize_point(p, tangent=(s, r))
        alt = prolong_curve(phi.apply_to_curve(gamma), p.level).point
        _check(alt == prolong_apply(phi, p), "prolong_apply depended on the curve")
        trials += 1
    # (b) invariance of codes and semigroups under random moves
    moves = 0
    level = 3
    for exponents, _ in _MEMBERSHIP:
        c = monomial_curve(*exponents, trunc=40)
        base_code = rvt_code(c, level)
        base_sg = semigroup(c, 16).elements
        for _ in range(20):
            phi = sample_diffeo(rng, degree=2)
            tau = TruncSeries({1: F(rng.choice([1, -1, 2]), rng.choice([1, 2])),
                               2: F(rng.randint(-2, 2), 3)}, c.trunc)
            moved = phi.apply_to_curve(c).reparametrize(tau)
            _check(rvt_code(moved, level) == base_code, "code not invariant")
            _check(semigroup(moved, 16).elements == base_sg,
                   "semigroup not invariant")
            moves += 1
    # (c) functoriality
    p = rvv_point()
    for _ in range(10):
        phi = sample_diffeo(rng, degree=2, jet_degree=12)
        psi = sample_diffeo(rng, degree=2, jet_degree=12)
        _check(prolong_apply(phi.compose(psi, 12), p)
               == prolong_apply(phi, prolong_apply(psi, p)),
               "prolongation is not functorial")
    # (d) projection/prolongation round trips
    for exponents, level in [((2, 3, None), 3), ((4, 6, 7), 3), ((3, 5, 7), 3)]:
        c = monomial_curve(*exponents)
        deep = prolong_point(c, level)
        for i in range(1, level):
            _check(project_point(deep, i) == prolong_point(c, i),
                   "projection incompatible with prolongation")
        _check(prolong_point(realize_point(deep), level) == deep,
               "realize/prolong round trip failed")
    return f"50 realizing-curve trials, {moves} invariance moves, " \
           "functoriality and round trips all exact"


CRITERIA: list[tuple[int, str, Callable[[], str]]] = [
    (1, "cusp prolongation", criterion_1_cusp_prolongation),
    (2, "normal-form class membership", criterion_2_table_membership),
    (3, "curve semigroups", criterion_3_semigroups),
    (4, "class enumeration", criterion_4_class_enumeration),
    (5, "orbit census", criterion_5_orbit_census),
    (6, "equivalence certificates", criterion_6_equivalence_certificates),
    (7, "normal-form pipeline", criterion_7_reduction_pipeline),
    (8, "planarity decisions", criterion_8_planarity),
    (9, "hyperplane geometry", criterion_9_hyperplane_geometry),
    (10, "isotropy constraints", criterion_10_isotropy_constraints),
    (11, "vertical-chain split", criterion_11_rvvv_split),
    (12, "property suites", criterion_12_property_suites),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            try:
                detail = fn()
                return CriterionResult(num, name, True, detail)
            except Exception as exc:  # honest failure capture
                return CriterionResult(num, name, False, f"{type(exc).__name__}: {exc}")
    raise ValueError(f"no criterion {number}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _ in CRITERIA]


def scorecard(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.number:2d}  {r.name}: {r.detail}")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
