"""Byte-exact `mt` output for the README examples.

Each case runs ``cli.main`` on input files in ``tests/golden/`` and compares
stdout with ``tests/golden/<case>.out`` byte for byte. The expected files
were recorded before the polynomial-substitution routine was shared between
series and jets. ``PYTHONPATH=src python tests/test_golden.py [case ...]``
records the named cases, and with no names only the cases whose ``.out`` file
is missing; it never overwrites the file of a case it was not given, so a
change that is meant to alter an output names exactly the cases it re-records.

Inputs: ``cusp`` is (t^2, t^3, 0); ``c16``/``c24`` are (t^3+t^4, t^5, t^7)
at truncation 16/24, ``cm16`` is (t^3-t^4, t^5, t^7) at truncation 16, and
``m16``/``m24``/``m48`` are (t^3, t^5, t^7) at truncation 16/24/48;
``p48``/``q24`` are (t^3, t^5+t^7, 0), ``n24`` is (t^3, t^5, 0), ``s24`` is
(t^3, t^4, t^5); ``alt24`` is (t^4+t^5, t^6-t^7, t^7+t^8) at truncation 24;
``moved40`` is a non-monomial curve at truncation 40, and ``jet32`` is
(t^3, t^5, t^7) at truncation 32 moved by a jet with coefficients 7/3, -11/5
and 2/7;
``phi`` is (2x, y+x^2, z+3xy) and ``p3`` the level-3 point of (t, t^2, 0);
``v64``/``v10`` are (t^5, t^8, 0) at truncation 64/10, whose level-4 code
needs trunc 16; ``smooth24`` is (t, 0, 0) and ``mcusp24`` is (t^2, t^3, 0),
each moved by a degree-2 jet at truncation 24. The cases in ``REFUSED``
record an error object and exit 1.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mtower.cli import VERBS, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "rvt": ["rvt", "--curve", "cusp.json", "--level", "3"],
    # global flags given on the verb side
    "rvt-table": ["rvt", "--curve", "cusp.json", "--level", "3", "--table"],
    # rvt_code climbs at trunc 8, then 16; level 3 is refused as critical,
    # and at trunc 10 the climb is short at its ceiling
    "rvt-retry": ["rvt", "--curve", "v64.json", "--level", "4"],
    "rvt-critical": ["rvt", "--curve", "v64.json", "--level", "3"],
    "rvt-short": ["rvt", "--curve", "v10.json", "--level", "4"],
    "prolong": ["prolong", "--curve", "cusp.json", "--level", "1"],
    "semigroup": ["semigroup", "--curve", "c24.json", "--bound", "23"],
    # a global flag on both sides of the verb: the verb side wins
    "semigroup-bound-both": ["--bound", "12", "semigroup", "--curve", "c24.json",
                             "--bound", "23"],
    "semigroup-moved": ["semigroup", "--curve", "moved40.json"],
    # witnesses with 177-bit numerators over dozens of distinct denominators
    "semigroup-jet32": ["semigroup", "--curve", "jet32.json"],
    # every order 1-24 is an element, so the settled tail is all of them
    "semigroup-smooth": ["semigroup", "--curve", "smooth24.json"],
    # component orders 2, 2, 4: every odd element needs a cancellation
    "semigroup-cusp-moved": ["semigroup", "--curve", "mcusp24.json"],
    "planar-witness": ["planar", "--curve", "p48.json"],
    "planar-obstructed": ["planar", "--curve", "m48.json"],
    "planar-moved": ["planar", "--curve", "moved40.json"],
    "apply": ["apply", "--diffeo", "phi.json", "--point", "p3.json"],
    "classes": ["classes", "--level", "4"],
    "classes-table": ["classes", "--level", "3", "--table"],
    "census": ["census", "--level", "4"],
    "census-table": ["--table", "census", "--level", "4"],
    "reduce": ["reduce", "--curve", "c24.json"],
    # a trace argument <case>.trace is the trace inside the recorded <case>.out
    "replay": ["replay", "--trace", "reduce.trace", "--curve", "c24.json"],
    # 34 steps whose removals alternate between y and z, witnesses in x, y, z
    "reduce-alternating": ["reduce", "--curve", "alt24.json"],
    "replay-alternating": ["replay", "--trace", "reduce-alternating.trace",
                           "--curve", "alt24.json"],
    "equiv": ["equiv", "--left", "c16.json", "--right", "m16.json"],
    # the certificate composes every removal step of the reduction
    "equiv-24": ["equiv", "--left", "c24.json", "--right", "m24.json"],
    # both traces move the curve, so the certificate inverts a non-identity jet
    "equiv-both-moved": ["equiv", "--left", "c16.json", "--right", "cm16.json"],
    "equiv-planar": ["equiv", "--left", "q24.json", "--right", "n24.json"],
    "equiv-separated": ["equiv", "--left", "m24.json", "--right", "s24.json"],
    # the only case that runs fiber_action (the scaling images)
    "verify-rvvv": ["--seed", "3", "verify", "--suite", "rvvv"],
}

REFUSED = {"rvt-critical", "rvt-short"}


def _status(case: str) -> int:
    return 1 if case in REFUSED else 0


def _run(case: str, workdir: Path) -> tuple[int, str]:
    argv = []
    for arg in CASES[case]:
        if arg.endswith(".trace"):
            recorded = GOLDEN / f"{arg.removesuffix('.trace')}.out"
            trace = json.loads(recorded.read_text())["trace"]
            path = workdir / arg
            path.write_text(json.dumps(trace))
            arg = str(path)
        elif arg.endswith(".json"):
            arg = str(GOLDEN / arg)
        argv.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    code, out = _run(case, tmp_path)
    assert code == _status(case)
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


def test_every_verb_has_a_golden_case():
    parser = build_parser()
    assert {parser.parse_args(argv).verb for argv in CASES.values()} == set(VERBS)


def _record(names: list[str]) -> None:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    todo = names or [name for name in CASES
                     if not (GOLDEN / f"{name}.out").exists()]
    with tempfile.TemporaryDirectory() as tmp:
        # reduce cases first: the replay cases read their traces
        for name in sorted(todo, key=lambda c: not c.startswith("reduce")):
            code, text = _run(name, Path(tmp))
            if code != _status(name):
                sys.exit(f"{name}: exit {code}")
            (GOLDEN / f"{name}.out").write_bytes(text.encode("utf-8"))
            print(f"recorded {name}")


def test_recorder_overwrites_only_named_cases(tmp_path, monkeypatch):
    expected = {case: (GOLDEN / f"{case}.out").read_bytes()
                for case in ("rvt", "prolong")}
    (tmp_path / "cusp.json").write_bytes((GOLDEN / "cusp.json").read_bytes())
    (tmp_path / "rvt.out").write_text("stale\n")
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", tmp_path)
    monkeypatch.setattr(module, "CASES", {c: CASES[c] for c in expected})
    _record([])  # records the missing case only
    assert (tmp_path / "rvt.out").read_text() == "stale\n"
    assert (tmp_path / "prolong.out").read_bytes() == expected["prolong"]
    _record(["rvt"])
    assert (tmp_path / "rvt.out").read_bytes() == expected["rvt"]


if __name__ == "__main__":
    _record(sys.argv[1:])
