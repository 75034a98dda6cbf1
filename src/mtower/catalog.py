"""Catalog of RVT classes and normal-form curves for levels 1 to 4.

``LEVEL_CLASSES`` is the paper's list: the oracle for the classes that
``census.enumerate_classes`` computes, and the keys of the level-4 counts.
"""

from __future__ import annotations

from .curves import CurveGerm, monomial_curve
from .series import DEFAULT_TRUNC

#: Classes present at each level, in generation order.
LEVEL_CLASSES: dict[int, tuple[str, ...]] = {
    1: ("R",),
    2: ("RR", "RV"),
    3: ("RRR", "RRV", "RVR", "RVV", "RVT", "RVL"),
    4: ("RRRR", "RRRV",
        "RRVR", "RRVV", "RRVT", "RRVL",
        "RVRR", "RVRV", "RVVR", "RVVV", "RVVT", "RVVL",
        "RVTR", "RVTV", "RVTT", "RVTL",
        "RVLR", "RVLV", "RVLT1", "RVLT2", "RVLL1", "RVLL2", "RVLL3"),
}

#: Normal-form exponent triples for the classified levels (None = zero).
NORMAL_FORMS: dict[str, tuple[tuple[int | None, int | None, int | None], ...]] = {
    "R": ((1, None, None),),
    "RR": ((1, None, None),),
    "RV": ((2, 3, None),),
    "RRR": ((1, None, None),),
    "RRV": ((2, 5, None),),
    "RVR": ((2, 3, None),),
    "RVV": ((3, 5, 7), (3, 5, None)),
    "RVT": ((3, 4, 5), (3, 4, None)),
    "RVL": ((4, 6, 7),),
}

#: Orbit counts per class for the classified levels.
ORBIT_COUNTS: dict[str, int] = {
    "R": 1,
    "RR": 1, "RV": 1,
    "RRR": 1, "RRV": 1, "RVR": 1, "RVV": 1, "RVT": 2, "RVL": 1,
}

#: Level-4 classes splitting into two orbits; RVTT has four; the rest one.
LEVEL4_TWO_ORBITS = frozenset(
    {"RRVT", "RVRV", "RVVR", "RVVV", "RVVT", "RVTR", "RVTV", "RVTL"})
LEVEL4_FOUR_ORBITS = frozenset({"RVTT"})

for _code in LEVEL_CLASSES[4]:
    ORBIT_COUNTS[_code] = (4 if _code in LEVEL4_FOUR_ORBITS
                           else 2 if _code in LEVEL4_TWO_ORBITS else 1)

#: Orbit totals per level.
ORBIT_TOTALS = {1: 1, 2: 2, 3: 7, 4: 34}


def normal_form_curves(code: str, trunc: int = DEFAULT_TRUNC) -> list[CurveGerm]:
    """Catalog curves for a class, empty when the catalog lists none."""
    return [monomial_curve(*e, trunc=trunc) for e in NORMAL_FORMS.get(code, ())]

