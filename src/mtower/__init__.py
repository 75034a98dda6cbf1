"""Exact-arithmetic engine for the three-space monster tower.

Cartan prolongation of curve and diffeomorphism germs, Kumpera-Rubin
charts, RVT coding with critical-hyperplane tracking, curve invariants
(semigroups, planarity), normal-form reduction with replayable traces, and
the orbit census for the first four levels. Everything is computed over
exact rationals; every bounded claim states its bound.
"""

from .curves import CurveGerm, monomial_curve
from .diffeo import (DiffeoJet, fiber_action, isotropy_check, prolong_apply,
                     taylor_constraints)
from .errors import DomainError, InsufficientTruncation, MTError
from .invariants import (ArnoldSymbol, Semigroup, arnold_symbol, multiplicity,
                         planarity, semigroup, well_parameterized)
from .jets import PolyJet3
from .normalize import (Certificate, Reduction, ReductionTrace,
                        equivalence_search, kill_semigroup_terms,
                        monomialize_first, reduce_catalog, scale_normalize,
                        zariski_step)
from .series import DEFAULT_TRUNC, TruncSeries
from .tower import (CriticalHyperplane, TowerPoint, classify_direction,
                    make_point, point_above, project_point, prolong_curve,
                    prolong_hyperplane, prolong_point, realize_point, rvt_code,
                    word_str)
from .census import (enumerate_classes, orbit_census, representatives,
                     verify_rvvv_split)

__version__ = "0.1.0"

__all__ = [
    "CurveGerm", "monomial_curve", "DiffeoJet", "fiber_action",
    "isotropy_check", "prolong_apply", "taylor_constraints", "DomainError",
    "InsufficientTruncation", "MTError", "ArnoldSymbol", "Semigroup",
    "arnold_symbol", "multiplicity", "planarity", "semigroup",
    "well_parameterized", "PolyJet3", "Certificate", "Reduction",
    "ReductionTrace", "equivalence_search", "kill_semigroup_terms",
    "monomialize_first", "reduce_catalog", "scale_normalize", "zariski_step",
    "DEFAULT_TRUNC", "TruncSeries", "CriticalHyperplane", "TowerPoint", "classify_direction",
    "make_point", "point_above", "project_point", "prolong_curve",
    "prolong_hyperplane", "prolong_point", "realize_point", "rvt_code",
    "word_str",
    "enumerate_classes", "orbit_census",
    "representatives", "verify_rvvv_split", "__version__",
]
