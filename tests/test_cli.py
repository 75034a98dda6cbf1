"""Command-line round trips, determinism and exit codes."""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from mtower import census, cli
from mtower.census import enumerate_classes
from mtower.cli import main
from mtower.curves import curve_from_obj, curve_to_obj, monomial_curve
from mtower.formats import (certificate_from_obj, certificate_to_obj,
                            diffeo_from_obj, diffeo_to_obj, dumps,
                            point_from_obj, point_to_obj, trace_from_obj,
                            trace_to_obj)
from mtower.diffeo import DiffeoJet
from mtower.errors import DomainError
from mtower.jets import PolyJet3
from mtower.normalize import apply_certificate, equivalence_search, reduce_catalog
from mtower.tower import prolong_curve, word_str

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(dumps(curve_to_obj(monomial_curve(2, 3, None))))
    return str(path)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out
    return invoke


# -- serialization round trips -------------------------------------------------

def test_curve_round_trip():
    c = monomial_curve(3, 5, 7, trunc=20)
    assert curve_from_obj(json.loads(dumps(curve_to_obj(c)))) == c


def test_point_round_trip():
    p = prolong_curve(monomial_curve(3, 4, 5), 3).point
    q = point_from_obj(json.loads(dumps(point_to_obj(p))))
    assert q == p
    assert q.arrangement == p.arrangement  # recomputed, and must agree


def test_point_serialization_is_lowest_terms():
    p = prolong_curve(monomial_curve(3, 4, 5), 3).point
    obj = point_to_obj(p)
    assert obj["coords"][-1] == "15/8"


def test_diffeo_round_trip():
    phi = DiffeoJet(PolyJet3(
        [{(1, 0, 0): F(2, 3)}, {(0, 1, 0): 1, (2, 0, 0): F(-1, 7)},
         {(0, 0, 1): 4}], 5))
    assert diffeo_from_obj(json.loads(dumps(diffeo_to_obj(phi)))) == phi


def test_trace_round_trip_and_replay():
    c = curve_from_obj({"trunc": 32, "x": {"3": "1", "4": "1"},
                        "y": {"5": "1"}, "z": {"7": "1"}})
    result = reduce_catalog(c)
    restored = trace_from_obj(json.loads(dumps(trace_to_obj(result.trace))))
    assert restored.replay(c).agrees_with(result.curve)


def test_certificate_round_trip():
    c1 = curve_from_obj({"trunc": 32, "x": {"3": "1"},
                         "y": {"5": "1", "7": "1"}, "z": {}})
    c2 = monomial_curve(3, 5, None, trunc=32)
    cert = equivalence_search(c1, c2).certificate
    restored = certificate_from_obj(json.loads(dumps(certificate_to_obj(cert))))
    moved = apply_certificate(restored, c1)
    assert moved.agrees_with(c2, restored.verified_through)


# -- CLI behaviour ------------------------------------------------------------------

def test_rvt_verb(run, cusp_file):
    code, out = run("rvt", "--curve", cusp_file, "--level", "3")
    assert code == 0
    assert json.loads(out) == {"code": "RVR"}


def test_prolong_verb_cusp(run, cusp_file):
    code, out = run("prolong", "--curve", cusp_file, "--level", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"]["coords"] == ["0", "0", "0", "0", "0"]
    assert payload["series"]["u1"]["coeffs"] == {"1": "3/2"}
    assert payload["letters"] == "R"


def test_prolong_verb_line_all_zero(run, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(dumps(curve_to_obj(monomial_curve(1, None, None))))
    code, out = run("prolong", "--curve", str(path), "--level", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"]["coords"] == ["0"] * 7


def test_census_table_totals(run):
    code, out = run("--table", "census", "--level", "4")
    assert code == 0
    assert out.splitlines()[-1].startswith("total")
    assert "34" in out.splitlines()[-1]


def test_global_flags_accepted_after_the_verb(run):
    code, out = run("census", "--level", "4", "--table")
    assert code == 0
    assert "34" in out.splitlines()[-1]


def test_census_json_deterministic(run):
    code1, out1 = run("census", "--level", "3")
    code2, out2 = run("census", "--level", "3")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("trunc", [5, 8, 11])
def test_census_below_its_truncation_names_the_class(capsys, trunc):
    code = main(["census", "--level", "4", "--trunc", str(trunc)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    error = json.loads(captured.out)["error"]
    assert error["code"] == "insufficient-truncation"
    named = re.match(rf"census class (\w+) at trunc {trunc}: ", error["message"])
    assert named and named.group(1) in map(word_str, enumerate_classes(4))


def test_classes_verb(run):
    code, out = run("classes", "--level", "2")
    assert code == 0
    assert json.loads(out) == {"level": 2, "classes": ["RR", "RV"]}


@pytest.mark.parametrize("verb", ["classes", "census"])
@pytest.mark.parametrize("level", ["0", "-1", "5", str(10**9)])
def test_class_level_out_of_range_is_refused_before_any_walk(
        run, monkeypatch, verb, level):
    def walk(n):
        raise AssertionError(f"walked the tower to level {n}")

    monkeypatch.setattr(census, "_class_words", walk)
    code, out = run(verb, "--level", level)
    assert code == 1
    assert json.loads(out) == {"error": {
        "code": "domain-error",
        "message": "class enumeration is supported for levels 1..4"}}


def test_semigroup_verb(run, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(dumps(curve_to_obj(monomial_curve(3, 5, 7, trunc=24))))
    code, out = run("--bound", "12", "semigroup", "--curve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["gaps"] == [1, 2, 4]


def test_planar_verb(run, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(dumps(curve_to_obj(monomial_curve(3, 5, None, trunc=48))))
    code, out = run("planar", "--curve", str(path))
    assert code == 0
    assert json.loads(out)["kind"] == "planar-witness"


def test_planar_verb_with_huge_degree_bound(run, tmp_path):
    # (t^3, t^5, t^7) up to order 40: only degrees <= 40 // 3 can matter
    path = tmp_path / "c.json"
    path.write_text(dumps(curve_to_obj(monomial_curve(3, 5, 7, trunc=48))))
    code, out = run("planar", "--curve", str(path), "--degree-bound", "1000000")
    assert code == 0
    code, capped = run("planar", "--curve", str(path), "--degree-bound", "13")
    assert code == 0
    assert json.loads(out) == {**json.loads(capped), "degree_bound": 1000000}


def test_reduce_and_replay_verbs(run, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(dumps({"trunc": 32, "x": {"3": "1", "4": "1"},
                           "y": {"5": "1"}, "z": {"7": "1"}}))
    code, out = run("reduce", "--curve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "reduced"
    assert payload["normal_form"] == [3, 5, 7]
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(dumps(payload["trace"]))
    code, out = run("replay", "--trace", str(trace_path), "--curve", str(path))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_equiv_verb(run, tmp_path):
    left = tmp_path / "a.json"
    left.write_text(dumps({"trunc": 32, "x": {"3": "1"},
                           "y": {"5": "1", "7": "1"}, "z": {}}))
    right = tmp_path / "b.json"
    right.write_text(dumps(curve_to_obj(monomial_curve(3, 5, None, trunc=32))))
    code, out = run("equiv", "--left", str(left), "--right", str(right))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "equivalent"
    assert payload["certificate"]["verified_through"] >= 30


@pytest.mark.time_limit(20)
def test_equiv_at_the_default_truncation(run, tmp_path):
    # the README pair at trunc 64, whose certificate jet has degree 22
    left = tmp_path / "a.json"
    left.write_text(dumps({"trunc": 64, "x": {"3": "1", "4": "1"},
                           "y": {"5": "1", "6": "-1"}, "z": {"7": "1", "8": "1"}}))
    right = tmp_path / "b.json"
    right.write_text(dumps(curve_to_obj(monomial_curve(3, 5, 7, trunc=64))))
    code, out = run("equiv", "--left", str(left), "--right", str(right))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "63752675bf0b9f9aaf0951482f81ce4b575437c2461a88c204aa96333b739a0e"


def test_apply_verb(run, tmp_path):
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 2).point)))
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(dumps({
        "degree": 4,
        "phi1": {"1,0,0": "1"},
        "phi2": {"0,1,0": "1", "2,0,0": "1"},
        "phi3": {"0,0,1": "1"}}))
    code, out = run("apply", "--diffeo", str(diffeo), "--point", str(point))
    assert code == 0
    payload = json.loads(out)
    assert payload["point"]["coords"] == ["0", "0", "0", "0", "0", "2", "0"]


HUGE = 10 ** 9


@pytest.mark.time_limit(30)
def test_apply_skips_a_monomial_past_the_truncation(run, tmp_path):
    phi = json.loads((GOLDEN / "phi.json").read_text())
    code, want = run("apply", "--diffeo", str(GOLDEN / "phi.json"),
                     "--point", str(GOLDEN / "p3.json"))
    assert code == 0
    phi["degree"] = HUGE
    phi["phi1"][f"{HUGE},0,0"] = "1"
    path = tmp_path / "phi.json"
    path.write_text(dumps(phi))
    assert run("apply", "--diffeo", str(path),
               "--point", str(GOLDEN / "p3.json")) == (0, want)


@pytest.mark.time_limit(30)
def test_replay_skips_a_monomial_past_the_truncation(run, tmp_path):
    trace = json.loads((GOLDEN / "reduce.out").read_text())["trace"]
    curve = str(GOLDEN / "c24.json")
    path = tmp_path / "trace.json"
    path.write_text(dumps(trace))
    code, want = run("replay", "--trace", str(path), "--curve", curve)
    assert code == 0 and json.loads(want)["verified"] is True
    phi = trace["steps"][1]["phi"]
    assert trace["steps"][1]["kind"] == "coordinate-change"
    phi["degree"] = HUGE
    phi["phi1"][f"{HUGE},0,0"] = "1"
    path.write_text(dumps(trace))
    assert run("replay", "--trace", str(path), "--curve", curve) == (0, want)


def test_domain_error_exit_code(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps({"trunc": 16, "x": {"1": "0.5"}, "y": {}, "z": {}}))
    code, out = run("rvt", "--curve", str(path), "--level", "1")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "domain-error"


@pytest.mark.parametrize("tamper", ["after-snapshot", "before-snapshot",
                                    "witness"])
def test_replay_rejects_a_tampered_elementary_step(capsys, tmp_path, tamper):
    trace = json.loads((GOLDEN / "reduce-alternating.out").read_text())["trace"]
    # a removal mid-trace: z -> z - s*(z^2 - x^2 y), the identity in x and y
    step = trace["steps"][17]
    assert step["phi"]["phi1"] == {"1,0,0": "1"}
    assert step["phi"]["phi2"] == {"0,1,0": "1"}
    if tamper == "witness":
        assert step["phi"]["phi3"]["2,1,0"] == "1924483/294912"
        step["phi"]["phi3"]["2,1,0"] = "1924481/294912"
        snapshot = "after"
    else:
        # a tampered before-snapshot no longer repeats the previous step's
        # after-snapshot, so it is parsed and checked on its own
        snapshot = tamper.removesuffix("-snapshot")
        assert step[snapshot]["z"]["9"] == "27/32"
        step[snapshot]["z"]["9"] = "29/32"
    path = tmp_path / "trace.json"
    path.write_text(dumps(trace))
    assert main(["replay", "--trace", str(path),
                 "--curve", str(GOLDEN / "alt24.json")]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": {
        "code": "domain-error",
        "message": f"trace replay diverged from its {snapshot}-snapshot "
                   "at step 18 (coordinate-change)"}}
    assert "Traceback" not in captured.err


def _assert_domain_error(capsys, argv, field=None):
    assert main(argv) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["code"] == "domain-error"
    if field is not None:
        assert repr(field) in error["message"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("coeff", [1, None, "\u00b2", "\u0661/\u0662"])
def test_malformed_coefficient_is_a_domain_error(capsys, tmp_path, coeff):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trunc": 8, "x": {"1": coeff}, "y": {}, "z": {}}))
    _assert_domain_error(capsys, ["rvt", "--curve", str(path), "--level", "1"])


@pytest.mark.parametrize("literal", ["1" + "0" * 4999, "-1/" + "7" * 5000],
                         ids=["integer", "denominator"])
def test_oversized_rational_literal_is_a_domain_error(capsys, tmp_path, literal):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"trunc": 8, "x": {"1": literal}, "y": {}, "z": {}}))
    _assert_domain_error(capsys, ["rvt", "--curve", str(path), "--level", "2"],
                         literal)


def test_oversized_degree_key_is_a_domain_error(capsys, tmp_path):
    key = "1" + "0" * 4999
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"trunc": 8, "x": {"1": "1", key: "1"},
                                "y": {}, "z": {}}))
    _assert_domain_error(capsys, ["rvt", "--curve", str(path), "--level", "2"],
                         key)


def test_a_jet_off_the_origin_is_a_domain_error(capsys, tmp_path):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(json.dumps({"degree": 3, "phi1": {"1,0,0": "1"},
                                  "phi2": {"0,1,0": "1"},
                                  "phi3": {"0,0,1": "1", "0,0,0": "1/2"}}))
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 1).point)))
    assert main(["apply", "--diffeo", str(diffeo), "--point", str(point)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {
        "code": "domain-error", "message": "diffeomorphism germs must fix the origin"}
    assert "Traceback" not in captured.err


def test_oversized_jet_key_is_a_domain_error(capsys, tmp_path):
    key = "1" + "0" * 4999 + ",0,0"
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(json.dumps({"degree": 2, "phi1": {"1,0,0": "1", key: "1"},
                                  "phi2": {"0,1,0": "1"}, "phi3": {"0,0,1": "1"}}))
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 1).point)))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)], key)


@pytest.mark.parametrize("content, message", [
    (None, "no such file: {}"),
    (b'{"trunc": 8', "malformed JSON in {}: Expecting"),
    (b'{"trunc": 8, "x": {"1": "\xff"}}', "cannot read JSON from {}: 'utf-8'"),
    ("directory", "cannot read JSON from {}: "),
    (b"[" * 100_000 + b"]" * 100_000, "cannot read JSON from {}: maximum recursion"),
    (b"9" * 5000, "cannot read JSON from {}: Exceeds the limit (4300 digits)")],
    ids=["missing", "malformed", "non-utf-8", "directory", "deep", "long-integer"])
def test_unreadable_input_is_an_error_object(capsys, tmp_path, content, message):
    path = tmp_path / "input.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(["rvt", "--curve", str(path), "--level", "2"]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["code"] == "error"
    assert error["message"].startswith(message.format(path))
    assert "Traceback" not in captured.err


def test_malformed_jet_component_is_a_domain_error(capsys, tmp_path):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(json.dumps({"degree": 2, "phi1": ["1,0,0"]}))
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 1).point)))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)])


@pytest.mark.parametrize("key", ["\u0663", " 4 ", "4\n", "+4", "\uff14"])
def test_malformed_degree_key_is_a_domain_error(capsys, tmp_path, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trunc": 8, "x": {"2": "1", key: "1"},
                                "y": {"3": "1"}, "z": {}}))
    _assert_domain_error(capsys, ["--bound", "6", "semigroup",
                                  "--curve", str(path)])


@pytest.mark.parametrize("key", [" 1, 0,0", "1,0,\u0660", "+1,0,0", "1,0,0 "])
def test_malformed_jet_key_is_a_domain_error(capsys, tmp_path, key):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(json.dumps({"degree": 2, "phi1": {key: "1"},
                                  "phi2": {"0,1,0": "1"}, "phi3": {"0,0,1": "1"}}))
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 1).point)))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)])


@pytest.mark.parametrize("canonical, key", [("2", "02"), ("2", "002"),
                                            ("3", "03")])
def test_degree_key_with_leading_zero_is_a_domain_error(capsys, tmp_path,
                                                        canonical, key):
    # two spellings of one degree must not silently overwrite each other
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trunc": 8, "x": {canonical: "1", key: "5"},
                                "y": {"3": "1"}, "z": {}}))
    _assert_domain_error(capsys, ["--bound", "6", "semigroup",
                                  "--curve", str(path)], field=key)


@pytest.mark.parametrize("key", ["01,0,0", "1,00,0", "1,0,00"])
def test_jet_key_with_leading_zero_is_a_domain_error(capsys, tmp_path, key):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(json.dumps({"degree": 2, "phi1": {"1,0,0": "1", key: "2"},
                                  "phi2": {"0,1,0": "1"}, "phi3": {"0,0,1": "1"}}))
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 1).point)))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)], field=key)


@pytest.mark.parametrize("chart, coords", [
    ("0", "00000"), ([0], "00000"), ("0", ["0"] * 5), ({"0": 0}, ["0"] * 5)])
def test_point_arrays_must_be_arrays(capsys, tmp_path, chart, coords):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(dumps(diffeo_to_obj(DiffeoJet.identity(2))))
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"level": 1, "chart": chart, "coords": coords}))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)])


@pytest.mark.parametrize("trunc", ["\u0663", "8", 3.9, 8.0, True, None, [8]])
def test_curve_trunc_must_be_a_json_integer(capsys, tmp_path, trunc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trunc": trunc, "x": {"1": "1"}, "y": {}, "z": {}}))
    _assert_domain_error(capsys, ["rvt", "--curve", str(path), "--level", "1"],
                         "trunc")


@pytest.mark.parametrize("level, chart, field", [
    ("1", [0], "level"), (1.0, [0], "level"), (True, [0], "level"),
    (1, ["0"], "chart"), (1, [0.0], "chart"), (1, [False], "chart")])
def test_point_integers_must_be_json_integers(capsys, tmp_path, level, chart,
                                              field):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(dumps(diffeo_to_obj(DiffeoJet.identity(2))))
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"level": level, "chart": chart,
                                 "coords": ["0"] * 5}))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)], field)


@pytest.mark.parametrize("degree", ["2", 2.5, True])
def test_jet_degree_must_be_a_json_integer(capsys, tmp_path, degree):
    diffeo = tmp_path / "phi.json"
    diffeo.write_text(json.dumps({"degree": degree, "phi1": {"1,0,0": "1"},
                                  "phi2": {"0,1,0": "1"}, "phi3": {"0,0,1": "1"}}))
    point = tmp_path / "p.json"
    point.write_text(dumps(point_to_obj(
        prolong_curve(monomial_curve(1, None, None), 1).point)))
    _assert_domain_error(capsys, ["apply", "--diffeo", str(diffeo),
                                  "--point", str(point)], "degree")


@pytest.mark.parametrize("argv", [
    ["--bound", "0", "planar"], ["--bound", "-1", "planar"],
    ["planar", "--degree-bound", "0"], ["planar", "--degree-bound", "-2"]])
def test_planarity_bounds_below_one_are_domain_errors(capsys, cusp_file, argv):
    _assert_domain_error(capsys, argv + ["--curve", cusp_file])


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize("pair", ["equal", "multiplicities", "semigroups"])
def test_equiv_bound_below_one_is_refused_first(capsys, tmp_path, pair, bound):
    # without the check up front these pairs gave "equivalent", "separated"
    # and the error, as the first decision each reaches came before the
    # semigroup or inside it
    if pair == "semigroups":
        left, right = GOLDEN / "c16.json", GOLDEN / "m16.json"
    else:
        left, right = tmp_path / "a.json", tmp_path / "b.json"
        other = (2, 3) if pair == "equal" else (3, 5)
        left.write_text(dumps(curve_to_obj(monomial_curve(2, 3, None, trunc=16))))
        right.write_text(dumps(curve_to_obj(monomial_curve(*other, None, trunc=16))))
    assert main(["--bound", bound, "equiv", "--left", str(left),
                 "--right", str(right)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {
        "code": "domain-error", "message": "semigroup bound must be positive"}}


def test_malformed_certificate_is_a_domain_error():
    good = certificate_to_obj(equivalence_search(
        monomial_curve(2, 3, None, trunc=16),
        monomial_curve(2, 3, None, trunc=16)).certificate)
    for name, bad in (("phi", ["1,0,0"]), ("tau", {"coeffs": {}}),
                      ("verified_through", "7"), ("verified_through", 7.5),
                      ("verified_through", True)):
        missing = {key: value for key, value in good.items() if key != name}
        for obj in (missing, {**good, name: bad}):
            with pytest.raises(DomainError, match=repr(name)):
                certificate_from_obj(obj)
    with pytest.raises(DomainError):
        certificate_from_obj([])


@pytest.mark.parametrize("kind, missing", [
    ("scale", "factors"), ("reparametrize", "tau"),
    ("coordinate-change", "phi"), ("scale", "before"), ("scale", "after"),
    ("scale", None)])
def test_malformed_trace_step_is_a_domain_error(capsys, tmp_path, kind, missing):
    c = curve_from_obj({"trunc": 16, "x": {"3": "2", "4": "1"},
                        "y": {"5": "1"}, "z": {"7": "1"}})
    steps = trace_to_obj(reduce_catalog(c).trace)["steps"]
    step = next(s for s in steps if s["kind"] == kind)
    if missing is None:
        step = [step]  # a step that is not an object
    else:
        del step[missing]
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"steps": [step]}))
    curve = tmp_path / "c.json"
    curve.write_text(dumps(curve_to_obj(c)))
    _assert_domain_error(capsys, ["replay", "--trace", str(trace),
                                  "--curve", str(curve)])


def test_truncation_error_surfaces(run, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(dumps({"trunc": 3, "x": {"2": "1"}, "y": {"3": "1"}, "z": {}}))
    code, out = run("rvt", "--curve", str(path), "--level", "4")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "insufficient-truncation"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_main_builds_the_parser_once(run):
    cli.build_parser.cache_clear()
    assert run("classes", "--level", "2")[0] == 0
    assert run("--table", "classes", "--level", "3")[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_mt_trunc_environment_override(run, monkeypatch):
    monkeypatch.setenv("MT_TRUNC", "20")
    code, out = run("census", "--level", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"][0]["normal_forms"][0]["trunc"] == 20
    monkeypatch.setenv("MT_TRUNC", "zero")
    code, out = run("census", "--level", "1")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "error"
