"""Command-line surface: every engine operation behind one deterministic tool.

Output is JSON by default (sorted keys, byte-stable for fixed inputs);
``--table`` switches the census and verification verbs to aligned text.
Exit status: 0 on success, 1 on a reported domain failure (with a
machine-readable error object on stdout), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple, Sequence

from . import acceptance, census, formats
from .curves import curve_from_obj
from .diffeo import prolong_apply
from .errors import MTError
from .invariants import (DEFAULT_PLANARITY_DEGREE, DEFAULT_PLANARITY_ORDER,
                         DEFAULT_SEMIGROUP_BOUND, planarity, semigroup)
from .normalize import equivalence_search, reduce_catalog
from .series import DEFAULT_TRUNC
from .tower import prolong_curve, rvt_code, word_str

Output = tuple[dict | str, int]


def _default_trunc() -> int:
    env = os.environ.get("MT_TRUNC")
    try:
        value = DEFAULT_TRUNC if env is None else int(env)
    except ValueError:
        raise MTError(f"MT_TRUNC must be an integer, got {env!r}") from None
    if value < 1:
        raise MTError("MT_TRUNC must be positive")
    return value


def _load(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise MTError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise MTError(f"malformed JSON in {path}: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, bad UTF-8, too many digits, nesting past the stack limit
        raise MTError(f"cannot read JSON from {path}: {exc}") from None


def _load_curve(path: str):
    return curve_from_obj(_load(path))


class Verb(NamedTuple):
    help: str
    arguments: tuple[tuple[str, dict], ...]  # (flag, add_argument options)
    bound: int | None  # the --bound default
    run: Callable[[argparse.Namespace], Output]  # what to print, exit status


#: The verb table, in the order of ``mt --help``; ``_verb`` fills it.
VERBS: dict[str, Verb] = {}
_CURVE = ("--curve", {"required": True})
_LEVEL = ("--level", {"type": int, "required": True})


def _verb(name: str, help_text: str, *arguments, bound: int | None = None):
    def register(run: Callable[[argparse.Namespace], Output]):
        VERBS[name] = Verb(help_text, arguments, bound, run)
        return run
    return register


@_verb("prolong", "prolong a curve and print the point", _CURVE, _LEVEL)
def _prolong(args) -> Output:
    pc = prolong_curve(_load_curve(args.curve), args.level)
    names = ["x", "y", "z"] + [f"{a}{j}" for j in range(1, pc.level + 1) for a in "uv"]
    return {"point": formats.point_to_obj(pc.point), "letters": word_str(pc.letters),
            "series": {name: formats.standalone_series_to_obj(s)
                       for name, s in zip(names, pc.series)}}, 0


@_verb("rvt", "RVT code of a curve", _CURVE, _LEVEL)
def _rvt(args) -> Output:
    code = word_str(rvt_code(_load_curve(args.curve), args.level))
    return (code if args.table else {"code": code}), 0


@_verb("semigroup", "certified semigroup of a curve", _CURVE,
       bound=DEFAULT_SEMIGROUP_BOUND)
def _semigroup(args) -> Output:
    return formats.semigroup_to_obj(semigroup(_load_curve(args.curve), args.bound)), 0


@_verb("planar", "bounded planarity decision", _CURVE,
       ("--degree-bound", {"type": int, "default": DEFAULT_PLANARITY_DEGREE}),
       bound=DEFAULT_PLANARITY_ORDER)
def _planar(args) -> Output:
    curve = _load_curve(args.curve)
    return formats.planarity_to_obj(planarity(curve, args.degree_bound, args.bound)), 0


@_verb("reduce", "reduce a curve to its catalog normal form", _CURVE,
       bound=DEFAULT_SEMIGROUP_BOUND)
def _reduce(args) -> Output:
    # the result is released before its (large) JSON text is made
    return formats.reduce_to_obj(reduce_catalog(_load_curve(args.curve), args.bound)), 0


@_verb("equiv", "search for an equivalence certificate",
       ("--left", {"required": True}), ("--right", {"required": True}),
       bound=DEFAULT_SEMIGROUP_BOUND)
def _equiv(args) -> Output:
    left, right = _load_curve(args.left), _load_curve(args.right)
    return formats.equivalence_to_obj(equivalence_search(left, right, args.bound)), 0


@_verb("classes", "enumerate RVT classes of a level", _LEVEL)
def _classes(args) -> Output:
    codes = [word_str(w) for w in census.enumerate_classes(args.level)]
    return ("\n".join(codes) if args.table
            else {"level": args.level, "classes": codes}), 0


@_verb("census", "orbit census of a level", _LEVEL)
def _census(args) -> Output:
    report = census.orbit_census(args.level, args.trunc)
    return (census.census_table(report) if args.table
            else formats.census_to_obj(report)), 0


@_verb("apply", "apply a prolonged diffeomorphism to a point",
       ("--diffeo", {"required": True}), ("--point", {"required": True}))
def _apply(args) -> Output:
    phi = formats.diffeo_from_obj(_load(args.diffeo))
    point = formats.point_from_obj(_load(args.point))
    return {"point": formats.point_to_obj(prolong_apply(phi, point, args.trunc))}, 0


@_verb("replay", "re-execute a reduction trace on a curve",
       ("--trace", {"required": True}), _CURVE)
def _replay(args) -> Output:
    final = formats.trace_from_obj(_load(args.trace)).replay(_load_curve(args.curve))
    return {"verified": True, "curve": formats.curve_to_obj(final)}, 0


@_verb("verify", "run a verification suite",
       ("--suite", {"choices": ["paper", "rvvv"], "default": "paper"}))
def _verify(args) -> Output:
    if args.suite == "rvvv":
        report = census.verify_rvvv_split(seed=args.seed, trunc=args.trunc)
        return formats.rvvv_to_obj(report), 0 if report.passed else 1
    results = acceptance.run_all()
    out = acceptance.scorecard(results) if args.table else {
        "criteria": [vars(r) for r in results], "total": len(results),
        "passed": sum(r.passed for r in results)}
    return out, 0 if all(r.passed for r in results) else 1


@functools.cache  # built once per process; every main call shares it
def build_parser() -> argparse.ArgumentParser:
    # the global flags go on the top level and on every verb; with their
    # defaults suppressed a verb-side value wins, and main fills in the rest
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--trunc", type=int,
                       help="truncation order for built values "
                            "(default 64, or MT_TRUNC)")
    flags.add_argument("--seed", type=int, help="PRNG seed for sampling verbs")
    flags.add_argument("--bound", type=int,
                       help="semigroup bound / planarity order bound")
    flags.add_argument("--table", action="store_true",
                       help="aligned text output where supported")
    parser = argparse.ArgumentParser(
        prog="mt", parents=[flags],
        description="exact computations in the three-space monster tower")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help, parents=[flags])
        for flag, options in verb.arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verb = VERBS[args.verb]
    for name, default in (("seed", 0), ("bound", verb.bound), ("table", False)):
        vars(args).setdefault(name, default)
    try:
        if not hasattr(args, "trunc"):
            args.trunc = _default_trunc()
        out, status = verb.run(args)
    except MTError as exc:
        out, status = {"error": exc.payload()}, 1
    sys.stdout.write(out + "\n" if isinstance(out, str) else formats.dumps(out))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
