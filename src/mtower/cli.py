"""Command-line surface: every engine operation behind one deterministic tool.

Output is JSON by default (sorted keys, byte-stable for fixed inputs);
``--table`` switches the census and verification verbs to aligned text.
Exit status: 0 on success, 1 on a reported domain failure (with a
machine-readable error object on stdout), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import acceptance, census, formats
from .curves import curve_from_obj
from .diffeo import prolong_apply
from .errors import MTError
from .invariants import (DEFAULT_PLANARITY_DEGREE, DEFAULT_PLANARITY_ORDER,
                         DEFAULT_SEMIGROUP_BOUND, planarity, semigroup)
from .normalize import equivalence_search, reduce_catalog
from .series import DEFAULT_TRUNC, series_to_obj
from .tower import prolong_curve, rvt_code, word_str


def _default_trunc() -> int:
    env = os.environ.get("MT_TRUNC")
    if env is None:
        return DEFAULT_TRUNC
    try:
        value = int(env)
    except ValueError:
        raise MTError(f"MT_TRUNC must be an integer, got {env!r}") from None
    if value < 1:
        raise MTError("MT_TRUNC must be positive")
    return value


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise MTError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise MTError(f"malformed JSON in {path}: {exc}") from None


def _load_curve(path: str):
    return curve_from_obj(_load(path))


def _emit(payload: dict | str) -> None:
    if isinstance(payload, str):
        sys.stdout.write(payload + "\n")
    else:
        sys.stdout.write(formats.dumps(payload))


def _add_global_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # registered on the top parser and on every verb, so flags are accepted
    # on either side of the verb; verb-side values win when given
    suppress = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--trunc", type=int,
                        **(suppress or {"default": None}),
                        help="truncation order for built values "
                             "(default 64, or MT_TRUNC)")
    parser.add_argument("--seed", type=int, **(suppress or {"default": 0}),
                        help="PRNG seed for sampling verbs")
    parser.add_argument("--bound", type=int,
                        **(suppress or {"default": None}),
                        help="semigroup bound / planarity order bound")
    parser.add_argument("--table", action="store_true",
                        **(suppress or {"default": False}),
                        help="aligned text output where supported")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mt",
        description="exact computations in the three-space monster tower")
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_global_flags(p, top_level=False)
        return p

    p = add_verb("prolong", "prolong a curve and print the point")
    p.add_argument("--curve", required=True)
    p.add_argument("--level", type=int, required=True)

    p = add_verb("rvt", "RVT code of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--level", type=int, required=True)

    p = add_verb("semigroup", "certified semigroup of a curve")
    p.add_argument("--curve", required=True)

    p = add_verb("planar", "bounded planarity decision")
    p.add_argument("--curve", required=True)
    p.add_argument("--degree-bound", type=int, default=DEFAULT_PLANARITY_DEGREE)

    p = add_verb("reduce", "reduce a curve to its catalog normal form")
    p.add_argument("--curve", required=True)

    p = add_verb("equiv", "search for an equivalence certificate")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add_verb("classes", "enumerate RVT classes of a level")
    p.add_argument("--level", type=int, required=True)

    p = add_verb("census", "orbit census of a level")
    p.add_argument("--level", type=int, required=True)

    p = add_verb("apply", "apply a prolonged diffeomorphism to a point")
    p.add_argument("--diffeo", required=True)
    p.add_argument("--point", required=True)

    p = add_verb("replay", "re-execute a reduction trace on a curve")
    p.add_argument("--trace", required=True)
    p.add_argument("--curve", required=True)

    p = add_verb("verify", "run a verification suite")
    p.add_argument("--suite", choices=["paper", "rvvv"], default="paper")
    return parser


def _run(args: argparse.Namespace) -> int:
    trunc = args.trunc if args.trunc is not None else _default_trunc()
    if args.verb == "prolong":
        pc = prolong_curve(_load_curve(args.curve), args.level)
        names = ["x", "y", "z"]
        for j in range(1, pc.level + 1):
            names += [f"u{j}", f"v{j}"]
        _emit({
            "point": formats.point_to_obj(pc.point),
            "letters": word_str(pc.letters),
            "series": {name: {"trunc": s.trunc, "coeffs": series_to_obj(s)}
                       for name, s in zip(names, pc.series)},
        })
    elif args.verb == "rvt":
        word = rvt_code(_load_curve(args.curve), args.level)
        _emit(word_str(word) if args.table else {"code": word_str(word)})
    elif args.verb == "semigroup":
        bound = args.bound if args.bound is not None else DEFAULT_SEMIGROUP_BOUND
        s = semigroup(_load_curve(args.curve), bound)
        _emit(formats.semigroup_to_obj(s))
    elif args.verb == "planar":
        order = args.bound if args.bound is not None else DEFAULT_PLANARITY_ORDER
        v = planarity(_load_curve(args.curve), args.degree_bound, order)
        _emit(formats.planarity_to_obj(v))
    elif args.verb == "reduce":
        bound = args.bound if args.bound is not None else DEFAULT_SEMIGROUP_BOUND
        # the result is released before its (large) JSON text is made
        _emit(formats.reduce_to_obj(reduce_catalog(_load_curve(args.curve), bound)))
    elif args.verb == "equiv":
        bound = args.bound if args.bound is not None else DEFAULT_SEMIGROUP_BOUND
        result = equivalence_search(_load_curve(args.left),
                                    _load_curve(args.right), bound)
        _emit(formats.equivalence_to_obj(result))
    elif args.verb == "classes":
        words = census.enumerate_classes(args.level)
        codes = [word_str(w) for w in words]
        _emit("\n".join(codes) if args.table
              else {"level": args.level, "classes": codes})
    elif args.verb == "census":
        report = census.orbit_census(args.level, trunc)
        _emit(census.census_table(report) if args.table
              else formats.census_to_obj(report))
    elif args.verb == "apply":
        phi = formats.diffeo_from_obj(_load(args.diffeo))
        point = formats.point_from_obj(_load(args.point))
        image = prolong_apply(phi, point, trunc)
        _emit({"point": formats.point_to_obj(image)})
    elif args.verb == "replay":
        trace = formats.trace_from_obj(_load(args.trace))
        final = trace.replay(_load_curve(args.curve))
        _emit({"verified": True, "curve": formats.curve_to_obj(final)})
    elif args.verb == "verify":
        if args.suite == "rvvv":
            report = census.verify_rvvv_split(seed=args.seed, trunc=trunc)
            _emit(formats.rvvv_to_obj(report))
            return 0 if report.passed else 1
        results = acceptance.run_all()
        if args.table:
            _emit(acceptance.scorecard(results))
        else:
            _emit({"criteria": [
                {"number": r.number, "name": r.name,
                 "passed": r.passed, "detail": r.detail}
                for r in results],
                "passed": sum(r.passed for r in results),
                "total": len(results)})
        return 0 if all(r.passed for r in results) else 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except MTError as exc:
        sys.stdout.write(formats.dumps({"error": exc.payload()}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
