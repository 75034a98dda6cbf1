"""Bit-exact JSON forms for every value the command line reads or writes.

Rationals are serialized in lowest terms with positive denominator, so
identical values always produce identical bytes; parsing rejects anything
that is not an integer or p/q literal.
"""

from __future__ import annotations

import json
from typing import Mapping

from .census import CensusReport, RvvvReport
from .curves import curve_from_obj, curve_to_obj
from .diffeo import DiffeoJet
from .errors import DomainError
from .invariants import PlanarityVerdict, Semigroup
from .jets import jet_from_obj, jet_to_obj, poly_to_obj
from .normalize import (Certificate, EquivalenceResult, JetStep, ReduceResult,
                        ReductionTrace, ReparamStep, ScaleStep, Step,
                        TraceEntry)
from .series import (TruncSeries, format_rational, parse_integer,
                     parse_rational, series_from_obj, series_to_obj)
from .tower import TowerPoint, make_point

__all__ = [
    "dumps", "point_to_obj", "point_from_obj", "standalone_series_to_obj",
    "standalone_series_from_obj", "diffeo_to_obj", "diffeo_from_obj",
    "trace_to_obj", "trace_from_obj", "certificate_to_obj",
    "certificate_from_obj", "semigroup_to_obj", "planarity_to_obj",
    "census_to_obj", "reduce_to_obj", "equivalence_to_obj", "rvvv_to_obj",
    "curve_to_obj", "curve_from_obj",
]


def dumps(obj: object) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    # the newline joins the chunks, so the text is not copied once more
    chunks = list(_ENCODER.iterencode(obj))
    chunks.append("\n")
    return "".join(chunks)


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


# -- points --------------------------------------------------------------------


def point_to_obj(p: TowerPoint) -> dict:
    return {
        "level": p.level,
        "chart": list(p.chart),
        "coords": [format_rational(c) for c in p.coords],
    }


def point_from_obj(obj: Mapping[str, object]) -> TowerPoint:
    try:
        level = parse_integer(obj["level"])
        raw_chart, raw_coords = obj["chart"], obj["coords"]
        if not isinstance(raw_chart, list) or not isinstance(raw_coords, list):
            raise TypeError("chart and coords must be arrays")
        chart = [parse_integer(d) for d in raw_chart]
    except (KeyError, TypeError, DomainError):
        raise DomainError("point object needs an integer 'level', a 'chart' "
                          "array of integers and a 'coords' array") from None
    return make_point(level, chart, [parse_rational(c) for c in raw_coords])


# -- standalone series / diffeos --------------------------------------------------


def standalone_series_to_obj(s: TruncSeries) -> dict:
    return {"trunc": s.trunc, "coeffs": series_to_obj(s)}


def standalone_series_from_obj(obj: Mapping[str, object]) -> TruncSeries:
    try:
        trunc = parse_integer(obj["trunc"])
    except (KeyError, TypeError, DomainError):
        raise DomainError("series object needs an integer 'trunc' field") from None
    coeffs = obj.get("coeffs", {})
    if not isinstance(coeffs, Mapping):
        raise DomainError("series 'coeffs' must be an object")
    return series_from_obj(coeffs, trunc)


def diffeo_to_obj(phi: DiffeoJet) -> dict:
    return jet_to_obj(phi.jet)


def diffeo_from_obj(obj: Mapping[str, object]) -> DiffeoJet:
    return DiffeoJet(jet_from_obj(obj))


# -- traces and certificates --------------------------------------------------------


def _step_to_obj(step: Step) -> dict:
    if isinstance(step, ReparamStep):
        return {"kind": step.kind, "tau": standalone_series_to_obj(step.tau)}
    if isinstance(step, JetStep):
        return {"kind": step.kind, "phi": diffeo_to_obj(step.phi)}
    if isinstance(step, ScaleStep):
        return {"kind": step.kind,
                "factors": [format_rational(f) for f in step.factors]}
    raise DomainError(f"unknown step {step!r}")


def _field(obj: Mapping[str, object], name: str, what: str):
    try:
        return obj[name]
    except KeyError:
        raise DomainError(f"{what} step needs a {name!r} field") from None


def _step_from_obj(obj: object) -> Step:
    if not isinstance(obj, Mapping):
        raise DomainError("a trace step must be an object")
    kind = obj.get("kind")
    if kind == "reparametrize":
        return ReparamStep(standalone_series_from_obj(_field(obj, "tau", kind)))
    if kind == "coordinate-change":
        return JetStep(diffeo_from_obj(_field(obj, "phi", kind)))
    if kind == "scale":
        raw = _field(obj, "factors", kind)
        if not isinstance(raw, list) or len(raw) != 3:
            raise DomainError("scale step needs three factors")
        factors = [parse_rational(f) for f in raw]
        return ScaleStep((factors[0], factors[1], factors[2]))
    raise DomainError(f"unknown trace step kind {kind!r}")


def trace_to_obj(trace: ReductionTrace) -> dict:
    steps: list[dict] = []
    last, after = None, None
    for e in trace.entries:
        # a step usually starts from the curve the previous one produced, and
        # then shares its JSON form
        before = after if e.before is last else curve_to_obj(e.before)
        last, after = e.after, curve_to_obj(e.after)
        steps.append({**_step_to_obj(e.step), "before": before, "after": after})
    return {"steps": steps}


def trace_from_obj(obj: Mapping[str, object]) -> ReductionTrace:
    steps = obj.get("steps") if isinstance(obj, Mapping) else None
    if not isinstance(steps, list):
        raise DomainError("trace object needs a 'steps' list")
    entries = []
    for raw in steps:
        entries.append(TraceEntry(
            _step_from_obj(raw),
            curve_from_obj(_field(raw, "before", "trace")),
            curve_from_obj(_field(raw, "after", "trace"))))
    return ReductionTrace(tuple(entries))


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "phi": diffeo_to_obj(cert.phi),
        "tau": standalone_series_to_obj(cert.tau),
        "verified_through": cert.verified_through,
    }


def certificate_from_obj(obj: Mapping[str, object]) -> Certificate:
    parts = []
    for name, parse in (("phi", diffeo_from_obj),
                        ("tau", standalone_series_from_obj),
                        ("verified_through", parse_integer)):
        try:
            parts.append(parse(obj[name]))  # type: ignore[index]
        except (KeyError, TypeError, DomainError):
            raise DomainError(
                f"certificate needs a well-formed {name!r} field") from None
    return Certificate(*parts)


# -- analysis results -----------------------------------------------------------------


def semigroup_to_obj(s: Semigroup) -> dict:
    return {
        "bound": s.bound,
        "elements": list(s.elements),
        "gaps": list(s.gaps),
        "conductor": s.conductor,
        "witnesses": {str(e): poly_to_obj(w) for e, w in sorted(s.witnesses.items())},
    }


def planarity_to_obj(v: PlanarityVerdict) -> dict:
    return {
        "kind": v.kind,
        "degree_bound": v.degree_bound,
        "order_bound": v.order_bound,
        "witness": poly_to_obj(v.witness) if v.witness is not None else None,
        "obstruction_order": v.obstruction_order,
    }


def reduce_to_obj(r: ReduceResult) -> dict:
    return {
        "status": r.status,
        "code": r.code,
        "normal_form": list(r.normal_form) if r.normal_form else None,
        "curve": curve_to_obj(r.curve),
        "trace": trace_to_obj(r.trace),
        "notes": list(r.notes),
    }


def equivalence_to_obj(r: EquivalenceResult) -> dict:
    return {
        "kind": r.kind,
        "certificate": certificate_to_obj(r.certificate) if r.certificate else None,
        "separation": (
            {"invariant": r.separation.invariant,
             "left": r.separation.left,
             "right": r.separation.right}
            if r.separation else None),
        "notes": list(r.notes),
    }


def census_to_obj(report: CensusReport) -> dict:
    return {
        "level": report.level,
        "total": report.total,
        "classes": [
            {
                "code": r.code,
                "orbits": r.orbit_count,
                "normal_forms": [curve_to_obj(c) for c in r.representatives],
                "evidence": [
                    {"kind": e.kind, "tier": e.tier, "detail": e.detail}
                    for e in r.evidence],
            }
            for r in report.records],
    }


def rvvv_to_obj(report: RvvvReport) -> dict:
    return {
        "axis_fixed_samples": report.axis_fixed_samples,
        "scaling_images": [[format_rational(a), format_rational(b)]
                           for a, b in report.scaling_images],
        "codes": list(report.codes),
        "statement": report.statement,
        "passed": report.passed,
    }
