"""Fuzzing ``mt`` with hostile JSON files.

Curve, point, jet and trace files keep the shapes the verbs read, but any
leaf may be hostile: a string that is no rational, a float, a boolean, a
nested list, 10^20, "1/0" or a non-ASCII digit. Sizes stay small (trunc at
most 24, bound at most 16, level at most 5). Whatever the input, a verb
exits 0 or 1 and prints JSON, and no exception escapes ``cli.main``.

The examples are derandomized, so every run checks the same 100 inputs per
verb and the suite stays reproducible: a random draw could reach the slow
term removal of curves like (t/3 - 2t^2/7, t^2, 0), which has no bound on
its work yet.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mtower.cli import main

#: Leaves that no field accepts, or that only some fields accept.
JUNK = st.one_of(
    st.sampled_from(["", "x", "1/0", "\u0663", "1.5", "1e3", "-", "+3", " 1",
                     "1/-2", "0x10", "NaN", "10**20"]),
    st.floats(), st.booleans(), st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.lists(st.integers(0, 2),
                                                    max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["1", "a"]), st.integers(0, 2), max_size=1))
#: Junk plus a huge integer, for leaves that are no size.
HOSTILE = st.one_of(JUNK, st.just(10**20), st.just(str(10**20)))


def mostly(valid, hostile=HOSTILE):
    """``valid`` about nineteen times in twenty, else ``hostile``: most files
    are well formed, so the verbs get past parsing. The hostile choice is an
    inner value of the draw, since hypothesis favours the ends of a range."""
    return st.integers(0, 19).flatmap(lambda n: hostile if n == 7 else valid)


RATIONAL = mostly(st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-3, 3).map(str)))
DEGREE_KEY = mostly(st.integers(1, 12).map(str),
                    st.sampled_from(["0", "-1", "01", "1,0", "\u0663", "a",
                                     "1.0", str(10**20), ""]))
MONO_KEY = mostly(
    st.tuples(*[st.integers(0, 3)] * 3).map(lambda m: "{},{},{}".format(*m)),
    st.sampled_from(["1,0", "-1,0,0", "a,b,c", "1,0,0,0", "01,0,0",
                     "0,0," + str(10**20), ""]))
TRUNC = mostly(st.integers(1, 24), st.one_of(st.integers(-1, 0), JUNK))
SERIES = mostly(st.dictionaries(DEGREE_KEY, RATIONAL, min_size=1, max_size=3))
CURVE = st.fixed_dictionaries(
    {"trunc": TRUNC, "x": SERIES, "y": SERIES, "z": SERIES})
_AXES = ("1,0,0", "0,1,0", "0,0,1")
JET = st.fixed_dictionaries({
    "degree": mostly(st.integers(1, 4), st.one_of(st.integers(-1, 0), JUNK)),
    **{f"phi{i + 1}": mostly(
        st.builds(lambda extra, axis=axis: {axis: "1", **extra},
                  st.dictionaries(MONO_KEY, RATIONAL, max_size=2)))
       for i, axis in enumerate(_AXES)}})


@st.composite
def points(draw):
    """A point file whose chart and coordinates fit its level."""
    level = draw(st.integers(0, 5))
    return {"level": draw(mostly(st.just(level), st.one_of(st.integers(-1, 5),
                                                           JUNK))),
            "chart": draw(mostly(st.lists(st.sampled_from([0, 0, 1, 2]),
                                          min_size=level, max_size=level))),
            # points are realized over the origin only
            "coords": draw(mostly(st.lists(RATIONAL, min_size=2 * level,
                                           max_size=2 * level).map(
                lambda fiber: ["0", "0", "0", *fiber])))}


def steps(before):
    """A trace step of each kind (or of a hostile one) starting at ``before``."""
    common = {"before": st.just(before), "after": CURVE}
    return st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("reparametrize"),
            "tau": st.fixed_dictionaries({"trunc": TRUNC, "coeffs": SERIES}),
            **common}),
        st.fixed_dictionaries({"kind": st.just("coordinate-change"),
                               "phi": JET, **common}),
        st.fixed_dictionaries({"kind": st.just("scale"),
                               "factors": st.lists(RATIONAL, min_size=3,
                                                   max_size=3),
                               **common}),
        st.fixed_dictionaries({"kind": HOSTILE, **common}))


@st.composite
def invocations(draw, verb):
    """The arguments of ``verb`` and the files they name."""
    files = {}
    argv = ["--trunc", str(draw(st.integers(1, 24))),
            "--bound", str(draw(st.integers(-1, 16))), verb]
    if verb in ("rvt", "prolong"):
        argv += ["--level", str(draw(st.integers(-1, 5)))]
    if verb == "planar":
        argv += ["--degree-bound", str(draw(st.integers(-1, 7)))]
    if verb == "equiv":
        files["--left"] = draw(mostly(CURVE))
        files["--right"] = draw(mostly(CURVE))
    elif verb == "apply":
        files["--diffeo"] = draw(mostly(JET))
        files["--point"] = draw(mostly(points()))
    else:
        files["--curve"] = draw(mostly(CURVE))
    if verb == "replay":
        trace = {"steps": draw(st.lists(steps(files["--curve"]), max_size=3))}
        files["--trace"] = draw(mostly(st.just(trace)))
    return argv, files


VERBS = ["rvt", "prolong", "semigroup", "planar", "reduce", "equiv", "apply",
         "replay"]


@pytest.mark.time_limit(120)
@pytest.mark.parametrize("verb", VERBS)
def test_hostile_files_give_json_and_exit_0_or_1(verb):
    with tempfile.TemporaryDirectory() as tmp:
        @given(invocations(verb))
        @settings(max_examples=100, deadline=None, derandomize=True,
                  database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(invocation):
            argv, files = invocation
            for n, (flag, obj) in enumerate(files.items()):
                path = Path(tmp) / f"{n}.json"
                path.write_text(json.dumps(obj))
                argv = argv + [flag, str(path)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main(argv)
            assert status in (0, 1)
            json.loads(out.getvalue())

        check()
