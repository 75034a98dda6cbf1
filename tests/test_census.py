"""Class enumeration and the orbit census."""

import pytest

from mtower import census
from mtower.census import (RVVV_SAMPLES, RVVV_SCALINGS, census_table,
                           class_successors, enumerate_classes, orbit_census,
                           representatives, rvvv_points, verify_rvvv_split)
from mtower.errors import DomainError
from mtower.tower import point_letters, rvt_code, word_str


def codes(level):
    return [word_str(w) for w in enumerate_classes(level)]


# -- successors ------------------------------------------------------------------

def test_successor_table():
    assert class_successors("R") == ("R", "V")
    assert class_successors("V") == ("R", "V", "T", "L")
    assert class_successors("T") == ("R", "V", "T", "L")
    assert class_successors("L") == ("R", "V", "T1", "T2", "L1", "L2", "L3")


def test_successors_of_refined_letters_rejected():
    for letter in ("T1", "T2", "L1", "L2", "L3"):
        with pytest.raises(DomainError):
            class_successors(letter)


# -- enumeration --------------------------------------------------------------------

def test_class_counts_per_level():
    assert len(codes(1)) == 1
    assert len(codes(2)) == 2
    assert len(codes(3)) == 6
    assert len(codes(4)) == 23


def test_level_lists_verbatim():
    assert codes(2) == ["RR", "RV"]
    assert codes(3) == ["RRR", "RRV", "RVR", "RVV", "RVT", "RVL"]
    assert codes(4) == [
        "RRRR", "RRRV", "RRVR", "RRVV", "RRVT", "RRVL",
        "RVRR", "RVRV", "RVVR", "RVVV", "RVVT", "RVVL",
        "RVTR", "RVTV", "RVTT", "RVTL",
        "RVLR", "RVLV", "RVLT1", "RVLT2", "RVLL1", "RVLL2", "RVLL3"]


def test_enumeration_level_out_of_range():
    with pytest.raises(DomainError):
        enumerate_classes(5)


# -- representatives ------------------------------------------------------------------

def test_table_representatives():
    def exps(code):
        out = []
        for c in representatives(code):
            out.append(tuple(s.order() for s in c.components))
        return out

    assert exps("RVL") == [(4, 6, 7)]
    assert exps("RRV") == [(2, 5, None)]
    assert exps("RVV") == [(3, 5, 7), (3, 5, None)]


def test_a2k_representatives_at_level_4():
    for code, expected in [("RRRV", (2, 7, None)), ("RRVR", (2, 5, None)),
                           ("RVRR", (2, 3, None)), ("RRRR", (1, None, None))]:
        reps = representatives(code)
        assert len(reps) == 1
        assert tuple(s.order() for s in reps[0].components) == expected
        assert word_str(rvt_code(reps[0], 4)) == code


def test_unrepresented_level4_class_is_empty():
    assert representatives("RVTT") == []
    assert representatives("RVLL3") == []


def test_rvvv_representatives_realize_the_split_points():
    reps = representatives("RVVV")
    assert len(reps) == 2
    for rep in reps:
        assert word_str(rvt_code(rep, 4)) == "RVVV"


def test_rvvv_representatives_build_their_points_at_the_given_trunc(monkeypatch):
    original = census.rvv_point
    truncs = []

    def rvv_point(trunc):
        truncs.append(trunc)
        return original(trunc)

    monkeypatch.setattr(census, "rvv_point", rvv_point)
    reps = representatives("RVVV", 16)
    assert truncs == [16]
    assert [rep.trunc for rep in reps] == [16, 16]
    assert all(word_str(rvt_code(rep, 4)) == "RVVV" for rep in reps)


def test_representatives_rejects_unknown_code():
    with pytest.raises(DomainError):
        representatives("RRT")


# -- census ------------------------------------------------------------------------------

def test_census_totals():
    for level, total in [(1, 1), (2, 2), (3, 7), (4, 34)]:
        assert orbit_census(level).total == total


def test_level3_per_class_counts():
    report = orbit_census(3)
    counts = {r.code: r.orbit_count for r in report.records}
    assert counts == {"RRR": 1, "RRV": 1, "RVR": 1, "RVV": 1, "RVT": 2, "RVL": 1}


def test_level4_breakdown():
    report = orbit_census(4)
    by_count = {1: [], 2: [], 4: []}
    for r in report.records:
        by_count[r.orbit_count].append(r.code)
    assert len(by_count[1]) == 14
    assert set(by_count[2]) == {"RRVT", "RVRV", "RVVR", "RVVV", "RVVT",
                                "RVTR", "RVTV", "RVTL"}
    assert by_count[4] == ["RVTT"]


def test_rvv_record_merges_two_forms_into_one_orbit():
    report = orbit_census(3)
    rvv = next(r for r in report.records if r.code == "RVV")
    assert rvv.orbit_count == 1
    assert len(rvv.representatives) == 2
    assert any(e.kind == "merge-certificate" and e.tier == "verified"
               for e in rvv.evidence)


def test_rvvr_record_carries_verified_separation():
    report = orbit_census(4)
    rvvr = next(r for r in report.records if r.code == "RVVR")
    assert rvvr.orbit_count == 2
    assert any(e.kind == "separation" and e.tier == "verified"
               for e in rvvr.evidence)


def test_regular_prolongation_classes_inherit_representatives():
    # trailing R letters keep the classified prefix's normal forms
    for code, forms in [("RVVR", 2), ("RVTR", 2), ("RVLR", 1), ("RRRR", 1)]:
        reps = representatives(code)
        assert len(reps) == forms
        for rep in reps:
            assert word_str(rvt_code(rep, 4)) == code


def test_two_orbit_prolongation_classes_are_fully_separated():
    report = orbit_census(4)
    for code in ("RVVR", "RVTR", "RVVV"):
        record = next(r for r in report.records if r.code == code)
        assert record.orbit_count == 2 == len(record.representatives)
        kinds = {(e.kind, e.tier) for e in record.evidence}
        assert ("separation", "verified") in kinds
        assert ("count-lower-bound", "verified") in kinds
        assert ("count", "asserted") in kinds


def test_every_count_has_an_evidence_tier():
    for level in (1, 2, 3, 4):
        for record in orbit_census(level).records:
            assert record.evidence
            assert all(e.tier in ("verified", "asserted")
                       for e in record.evidence)


def test_census_table_renders():
    text = census_table(orbit_census(3))
    assert "RVV" in text and "total" in text and "7" in text


# -- the vertical chain split -------------------------------------------------------------

def test_rvvv_points_are_the_two_candidates():
    q10, q11 = rvvv_points()
    assert q10.fiber_coords(4) == (0, 0)
    assert q11.fiber_coords(4) == (0, 1)
    assert point_letters(q10) == ("R", "V", "V", "V")
    assert point_letters(q11) == ("R", "V", "V", "V")


def test_verify_rvvv_split_small_sample():
    report = verify_rvvv_split(seed=1)
    assert report.passed
    assert report.axis_fixed_samples == RVVV_SAMPLES
    assert len(report.scaling_images) == RVVV_SCALINGS
    assert report.codes == ("RVVV", "RVVV")
