"""Normal-form reductions, traces, equivalence certificates."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtower.cli import main
from mtower.curves import CurveGerm, curve_to_obj, monomial_curve
from mtower.diffeo import DiffeoJet
from mtower.errors import DomainError
from mtower.formats import dumps, trace_to_obj
from mtower.invariants import (multiplicity, poly_on_curve, semigroup,
                               well_parameterized)
from mtower.jets import PolyJet3, integer_poly
from mtower.normalize import (JetStep, Reduction, ReductionTrace, ReparamStep,
                              ScaleStep, TraceEntry, _compose_trace,
                              _fraction_nth_root, _removal_jet,
                              apply_certificate,
                              equivalence_search, kill_semigroup_terms,
                              monomialize_first, reduce_catalog,
                              scale_normalize, zariski_step)
from mtower.series import TruncSeries

F = Fraction


def curve(xs, ys, zs, trunc=48):
    return CurveGerm(TruncSeries(xs, trunc), TruncSeries(ys, trunc),
                     TruncSeries(zs, trunc))


def run(stage, c, *args) -> Reduction:
    """A fresh reduction of ``c`` after ``stage``."""
    r = Reduction(c)
    stage(r, *args)
    return r


# -- monomialize ---------------------------------------------------------------

def test_monomialize_case_one_curve():
    c = curve({3: 1, 4: F(2, 5)}, {5: 1}, {7: 1})
    result = run(monomialize_first, c)
    out = result.curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.order() == 5 and out.y.coefficient(5) == 1
    assert result.trace.replay(c).agrees_with(out)


def test_monomialize_two_tail_terms():
    c = curve({3: 1, 4: F(1, 2), 7: F(-3, 4)}, {5: 1, 7: F(1, 3)}, {})
    out = run(monomialize_first, c).curve
    assert out.x.terms() == [(3, F(1))]


def test_monomialize_scales_leading_coefficient():
    c = curve({2: 3}, {3: 5}, {})
    result = run(monomialize_first, c)
    assert result.curve.x.terms() == [(2, F(1))]
    assert len(result.trace) == 1  # scaling only, no reparametrization needed


def test_monomialize_already_pure_is_empty_trace():
    c = monomial_curve(3, 5, None)
    result = run(monomialize_first, c)
    assert result.curve == c
    assert len(result.trace) == 0


def test_monomialize_rejects_zero_x():
    with pytest.raises(DomainError):
        run(monomialize_first, curve({}, {3: 1}, {}))


# -- zariski step -----------------------------------------------------------------

def test_zariski_eliminates_t7():
    c = curve({3: 1}, {5: 1, 7: 1}, {})
    result = Reduction(c)
    assert zariski_step(result) is True
    out = result.curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.coefficient(5) == 1
    assert out.y.coefficient(7) == 0
    # surviving y terms sit in the semigroup generated by 3 and 5
    members = {3 * a + 5 * b for a in range(20) for b in range(20)}
    assert all(d in members for d, _ in out.y.terms())
    assert result.trace.replay(c).agrees_with(out)


def test_zariski_with_negative_coefficient():
    c = curve({3: 1}, {5: 1, 7: -1}, {})
    out = run(zariski_step, c).curve
    assert out.y.coefficient(7) == 0


def test_zariski_without_gap_terms_records_nothing():
    c = curve({3: 1}, {5: 1, 8: 1}, {})
    r = Reduction(c)
    assert zariski_step(r) is False
    assert r.curve == c
    assert len(r.trace) == 0
    assert r.notes == []


def test_zariski_not_applicable_is_noted():
    # the first gap 7 of <4, 6> has 7 + 4 = 11, not a multiple of 6
    c = curve({4: 1}, {6: 1, 7: 1}, {})
    r = Reduction(c)
    assert zariski_step(r) is False
    assert r.curve == c
    assert len(r.trace) == 0
    assert r.notes == [
        "step not applicable: 7+4 is outside the semigroup generated by 4 and 6"]


def test_zariski_requires_planar_monic_shape():
    with pytest.raises(DomainError):
        run(zariski_step, monomial_curve(3, 5, 7))
    with pytest.raises(DomainError):
        run(zariski_step, curve({3: 2}, {5: 1, 7: 1}, {}))


# -- semigroup-certified removal ----------------------------------------------------

def test_kill_removes_x_tail_via_witness():
    c = curve({3: 1, 8: 1}, {5: 1}, {7: 1})
    result = run(kill_semigroup_terms, c, semigroup(c, 24))
    assert result.curve.agrees_with(monomial_curve(3, 5, 7, trunc=result.curve.trunc))
    assert result.trace.replay(c).agrees_with(result.curve)
    assert result.notes == []


def test_kill_removes_z_tail():
    c = curve({3: 1}, {5: 1}, {7: 1, 9: 1})
    result = run(kill_semigroup_terms, c, semigroup(c, 24))
    assert result.curve.agrees_with(monomial_curve(3, 5, 7, trunc=result.curve.trunc))


def test_kill_leaves_clean_curve_alone():
    c = monomial_curve(3, 5, 7)
    result = run(kill_semigroup_terms, c, semigroup(c, 24))
    assert result.curve == c
    assert len(result.trace) == 0


def test_kill_reports_uncertified_exponent():
    # 7 is a gap of the semigroup of (t^3, t^5, 0); the t^7 term stays.
    c = curve({3: 1}, {5: 1, 7: 1}, {})
    result = run(kill_semigroup_terms, c, semigroup(c, 24))
    assert result.curve.y.coefficient(7) == 1
    assert any("t^7" in note for note in result.notes)


def test_kill_handles_terms_beyond_semigroup_bound():
    c = curve({3: 1, 30: 1}, {5: 1}, {7: 1})
    result = run(kill_semigroup_terms, c, semigroup(c, 12))
    assert result.curve.x.terms() == [(3, F(1))]


def test_kill_leaves_uncertified_term_past_the_bound():
    # 27 is a gap of <5,8> beyond the bound; the term must survive with a
    # note instead of being removed on a false certificate.
    c = curve({5: 1}, {8: 1, 27: 1}, {})
    result = run(kill_semigroup_terms, c, semigroup(c, 23))
    assert result.curve.y.coefficient(27) == 1
    assert any("t^27" in note for note in result.notes)


def test_kill_removes_mixed_axis_term_past_the_bound():
    c = curve({5: 1}, {8: 1, 24: 1}, {})
    result = run(kill_semigroup_terms, c, semigroup(c, 23))
    assert result.curve.y.coefficient(24) == 0


@pytest.mark.time_limit(10)
def test_kill_leaves_a_term_whose_removal_is_singular():
    # the witness of 5 is x^2 - z, and z -> z + (x^2 - z) has no linear part
    # in z; the term stays and the pass goes on to t^7 in y
    c = curve({2: 1}, {3: 1, 7: 1}, {4: 1, 5: 1}, trunc=16)
    result = run(kill_semigroup_terms, c, semigroup(c, 16))
    assert result.curve.agrees_with(curve({2: 1}, {3: 1}, {4: 1, 5: 1}, trunc=16))
    assert result.notes == [
        "left t^5 in component 3 (its removal step would be singular)"]
    assert result.trace.replay(c).agrees_with(result.curve)


# -- one ordered pass against the restarting loop it replaced -------------------

SINGULAR = "its removal step would be singular"
# an RVR and two RRR curves whose reduction meets a singular removal step
SINGULAR_CURVES = [
    (({2: 1}, {3: 1}, {4: 1, 5: 1}), f"left t^5 in component 3 ({SINGULAR})"),
    (({1: 1}, {2: 1, 3: 1}, {}), f"left t^3 in component 2 ({SINGULAR})"),
    (({1: 1}, {3: 1, 4: 1}, {}), f"left t^4 in component 2 ({SINGULAR})"),
]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj))
    return str(path)


@pytest.mark.time_limit(10)
@pytest.mark.parametrize("comps, note", SINGULAR_CURVES,
                         ids=["rvr", "rrr-t3", "rrr-t4"])
def test_reduce_answers_on_a_singular_removal(comps, note, capsys, tmp_path):
    c = curve(*comps, trunc=16)
    result = reduce_catalog(c)
    assert note in result.notes
    assert result.trace.replay(c).agrees_with(result.curve)
    curve_path = _write(tmp_path, "c.json", curve_to_obj(c))
    assert main(["reduce", "--curve", curve_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert note in payload["notes"]
    trace_path = _write(tmp_path, "trace.json", payload["trace"])
    assert main(["replay", "--trace", trace_path, "--curve", curve_path]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


@pytest.mark.time_limit(10)
def test_equiv_answers_on_a_singular_removal(capsys, tmp_path):
    (comps, note), = SINGULAR_CURVES[:1]
    left = _write(tmp_path, "left.json", curve_to_obj(curve(*comps, trunc=16)))
    right = _write(tmp_path, "right.json",
                   curve_to_obj(curve({2: 1}, {3: 1}, {}, trunc=16)))
    assert main(["equiv", "--left", left, "--right", right]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "unknown"
    assert note in payload["notes"]


def restarting_kill(c: CurveGerm, s) -> Reduction:
    """The term removal that the ordered pass replaced: after every removal
    it rescans from the lowest term, skipping the terms it gave up on. Where
    a removal step would be singular that loop halved the step forever, so
    such an example is discarded."""
    bound = s.bound
    r = Reduction(c)
    leftovers: set[tuple[int, int]] = set()
    current_sg = s
    while True:
        cur = r.curve
        pick = None
        candidates = sorted((d, idx) for idx, comp in enumerate(cur.components)
                            for d in sorted(comp.numerators()[0])[1:])
        for d, idx in candidates:
            if (idx, d) in leftovers:
                continue
            try:
                witness = current_sg.witness_for(d)
            except DomainError:
                leftovers.add((idx, d))
                continue
            pick = (d, idx, witness)
            break
        if pick is None:
            break
        d, idx, poly = pick
        composed = poly_on_curve(poly, cur, r.products)
        if composed.order() != d:
            current_sg = semigroup(cur, bound)
            poly = current_sg.witness_for(d)
            composed = poly_on_curve(poly, cur, r.products)
            if composed.order() != d:
                raise AssertionError(f"fresh witness for {d} has the wrong order")
        scale = cur.components[idx].coefficient(d) / composed.coefficient(d)
        try:
            jet = _removal_jet(idx, poly, scale)
        except DomainError:
            assume(False)
        r.push(JetStep(jet))
    r.notes.extend(f"left t^{d} in component {idx + 1} (no certificate up to "
                   f"bound {bound})" for idx, d in sorted(leftovers))
    return r


@st.composite
def messy_curves(draw):
    """Leading exponents 2-5 and 1-3 extra terms, truncated at 12-24."""
    trunc = draw(st.integers(12, 24))
    comps = [{draw(st.integers(2, 5)): draw(nonzero)} for _ in range(3)]
    for _ in range(draw(st.integers(1, 3))):
        terms = comps[draw(st.integers(0, 2))]
        terms[draw(st.integers(min(terms) + 1, trunc))] = draw(nonzero)
    c = CurveGerm(*(TruncSeries(terms, trunc) for terms in comps))
    assume(well_parameterized(c))
    return c


@given(messy_curves(), st.integers(8, 24))
@settings(max_examples=60, deadline=None)
def test_kill_matches_the_restarting_loop(c, bound):
    s = semigroup(c, min(bound, c.trunc))
    want = restarting_kill(c, s)
    got = run(kill_semigroup_terms, c, s)
    assert got.curve == want.curve
    assert got.notes == want.notes
    assert dumps(trace_to_obj(got.trace)) == dumps(trace_to_obj(want.trace))


# -- scaling ----------------------------------------------------------------------

def test_scale_normalizes_leading_coefficients():
    c = curve({3: 2}, {5: 5}, {})
    out = run(scale_normalize, c).curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.terms() == [(5, F(1))]


def test_scale_normalizes_square_class():
    # beta = 4/9 is a rational square: the t^7 coefficient becomes +1.
    c = curve({3: 1}, {5: 1, 7: F(4, 9)}, {})
    out = run(scale_normalize, c).curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.coefficient(5) == 1 and out.y.coefficient(7) == 1


def test_scale_keeps_sign_of_negative_square_class():
    c = curve({3: 1}, {5: 1, 7: F(-4, 9)}, {})
    out = run(scale_normalize, c).curve
    assert out.y.coefficient(7) == -1


def test_scale_leaves_non_square_class_alone():
    c = curve({3: 1}, {5: 1, 7: 2}, {})
    out = run(scale_normalize, c).curve
    assert out.y.coefficient(7) == 2


def bisection_root(q, k):
    """The rational k-th root of q > 0 or None, with each integer root found
    by doubling an upper bound and bisecting."""
    def iroot(n):
        lo, hi = 1, 1
        while hi ** k < n:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** k < n:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo ** k == n else None

    num, den = iroot(q.numerator), iroot(q.denominator)
    return None if num is None or den is None else F(num, den)


def test_fraction_nth_root_matches_bisection():
    rng = random.Random(37)
    for k in range(1, 9):
        # perfect powers, small and of up to 600 bits, their neighbours and
        # random integers
        powers = [b ** k for b in range(1, 20)]
        powers += [(rng.getrandbits(rng.randint(1, 600 // k)) + 1) ** k
                   for _ in range(20)]
        ints = [n + d for n in powers for d in (-1, 0, 1) if n + d > 0]
        ints += [rng.getrandbits(rng.randint(1, 600)) + 1 for _ in range(20)]
        for num in ints:
            for den in rng.sample(ints, 10) + [1]:
                q = F(num, den)
                assert _fraction_nth_root(q, k) == bisection_root(q, k), (q, k)


def test_scale_idempotent():
    c = monomial_curve(3, 5, 7)
    result = run(scale_normalize, c)
    assert result.curve == c and len(result.trace) == 0


# -- the catalog pipeline -------------------------------------------------------------

def test_reduce_case_one_representative():
    c = curve({3: 1, 4: 1}, {5: 1}, {7: 1})
    result = reduce_catalog(c)
    assert result.status == "reduced"
    assert result.code == "RVV"
    assert result.normal_form == (3, 5, 7)
    assert result.trace.replay(c).agrees_with(result.curve)


def test_reduce_plus_minus_planar_curves():
    for sign in (1, -1):
        c = curve({3: 1}, {5: 1, 7: sign}, {})
        result = reduce_catalog(c)
        assert result.status == "reduced"
        assert result.code == "RVV"
        assert result.normal_form == (3, 5, None)


def test_reduce_normal_forms_are_fixed_points():
    for code, exponents in [("RVR", (2, 3, None)), ("RVV", (3, 5, 7)),
                            ("RVL", (4, 6, 7)), ("RVT", (3, 4, 5))]:
        c = monomial_curve(*exponents)
        result = reduce_catalog(c)
        assert result.status == "reduced"
        assert result.code == code
        assert len(result.trace) == 0
        assert result.curve == c


def test_reduce_preserves_semigroup_along_pipeline():
    c = curve({3: 1, 4: 1}, {5: 1}, {7: 1})
    result = reduce_catalog(c)
    b = min(24, result.curve.trunc)
    assert semigroup(result.curve, b).elements == semigroup(c, b).elements
    assert multiplicity(result.curve) == multiplicity(c)


def test_reduce_messy_rvt_curve():
    c = curve({3: 2, 5: 1}, {4: 3, 6: F(1, 2)}, {5: 1, 7: 1})
    result = reduce_catalog(c)
    assert result.status == "reduced"
    assert result.code == "RVT"
    assert result.normal_form == (3, 4, 5)


# the short-parameterization step needs ord x < ord y; these RVR cusps skip it
# (direction G would put them in standard position and may sharpen the answers)
PLANAR_CUSPS_WITHOUT_HIGHER_ORDER_Y = [
    ({3: 1}, {2: 1}, {}),
    ({2: 1}, {2: 1, 3: 1}, {}),
    ({3: 1}, {2: 1, 5: 1}, {}),
]


@pytest.mark.time_limit(10)
@pytest.mark.parametrize("comps", PLANAR_CUSPS_WITHOUT_HIGHER_ORDER_Y,
                         ids=["swapped", "equal-order", "swapped-tail"])
def test_planar_cusp_without_higher_order_y_gets_an_answer(comps, capsys, tmp_path):
    left = _write(tmp_path, "left.json", curve_to_obj(curve(*comps, trunc=24)))
    right = _write(tmp_path, "right.json",
                   curve_to_obj(monomial_curve(2, 3, None, trunc=24)))
    assert main(["reduce", "--curve", left]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "error" not in payload
    assert payload["status"] in {"reduced", "outside-catalog"}
    assert main(["equiv", "--left", left, "--right", right]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "error" not in payload
    assert payload["kind"] in {"equivalent", "unknown"}


# -- known defects: direction G (standard position) mends both, and must unmark these

@pytest.mark.xfail(strict=True, reason="defect 7: no stage puts a curve in "
                   "standard position (direction G)")
@pytest.mark.parametrize("comps, normal_form", [
    (({3: 1}, {7: 1}, {5: 1}), (3, 5, 7)),
    (({2: 1}, {4: 1}, {5: 1}), (2, 5, None)),
    (({2: 1}, {}, {5: 1}), (2, 5, None)),
])
def test_reduce_puts_a_catalog_curve_in_standard_position(comps, normal_form):
    result = reduce_catalog(curve(*comps, trunc=24))
    assert result.status == "reduced"
    assert result.normal_form == normal_form


@pytest.mark.xfail(strict=True, reason="defect 6: term removal goes past a "
                   "singular step and grows coefficients (direction G)")
def test_reduce_strips_a_component_that_is_a_power_of_the_first():
    c = curve({1: F(1, 3), 2: F(-2, 7)}, {2: 1}, {}, trunc=16)
    result = reduce_catalog(c)
    assert result.status == "reduced"
    assert result.normal_form == (1, None, None)
    assert result.notes == ()


# -- equivalence search ----------------------------------------------------------------

def test_equivalence_identity_certificate():
    c = monomial_curve(3, 5, 7, trunc=32)
    result = equivalence_search(c, c)
    assert result.kind == "equivalent"
    assert apply_certificate(result.certificate, c).agrees_with(c)


def test_equivalence_plus_minus_pair_with_certificate():
    for sign in (1, -1):
        c1 = curve({3: 1}, {5: 1, 7: sign}, {}, trunc=32)
        c2 = monomial_curve(3, 5, None, trunc=32)
        result = equivalence_search(c1, c2)
        assert result.kind == "equivalent"
        cert = result.certificate
        assert cert.verified_through >= 30
        moved = apply_certificate(cert, c1)
        assert moved.agrees_with(c2, cert.verified_through)


def test_equivalence_separated_by_semigroup():
    c1 = monomial_curve(3, 5, 7, trunc=48)
    c2 = monomial_curve(3, 5, None, trunc=48)
    result = equivalence_search(c1, c2)
    assert result.kind == "separated"
    assert "semigroup" in result.separation.invariant


def test_equivalence_separated_by_multiplicity():
    result = equivalence_search(monomial_curve(2, 3, None),
                                monomial_curve(3, 5, None))
    assert result.kind == "separated"
    assert result.separation.invariant == "multiplicity"


def test_equivalence_after_random_moves():
    c = monomial_curve(3, 5, 7, trunc=32)
    moved = curve({3: 1, 4: 1}, {5: 1}, {7: 1}, trunc=32)
    result = equivalence_search(moved, c)
    assert result.kind == "equivalent"
    got = apply_certificate(result.certificate, moved)
    assert got.agrees_with(c, result.certificate.verified_through)


# -- the seeded equivalence corpus: what equivalence search cannot decide -----------

def _corpus_pairs():
    """The 70 distinct well-parameterized sparse curves drawn with seed 5 at
    trunc 20, paired when multiplicity and semigroup through 16 agree and the
    curves differ."""
    rng = random.Random(5)
    curves = []
    while len(curves) < 70:
        a = rng.choice([2, 3, 4])
        y, z = ({e: rng.choice([1, -1, 2])
                 for e in rng.sample(range(a + 1, 12), rng.randint(0, 2))}
                for _ in range(2))
        c = curve({a: 1}, y, z, trunc=20)
        if c not in curves and well_parameterized(c):
            curves.append(c)
    keys = [(multiplicity(c), semigroup(c, 16).elements) for c in curves]
    return [(c1, c2) for i, c1 in enumerate(curves)
            for j, c2 in enumerate(curves[i + 1:], i + 1)
            if keys[i] == keys[j] and not c1.agrees_with(c2)]


def test_equivalence_corpus_counts():
    # record any change to these counts: they measure the reduction's reach
    pairs = _corpus_pairs()
    kinds = {"equivalent": 0, "separated": 0, "unknown": 0}
    for c1, c2 in pairs:
        result = equivalence_search(c1, c2)
        kinds[result.kind] += 1
        if result.kind == "equivalent":
            cert = result.certificate
            assert apply_certificate(cert, c1).agrees_with(
                c2, cert.verified_through)
    assert len(pairs) == 116
    assert kinds == {"equivalent": 9, "separated": 0, "unknown": 107}


# -- steps sharing one power table against each step alone ---------------------

big = st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))
nonzero = st.builds(F, st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda q: st.sampled_from([q, -q]))


@st.composite
def germ_curves(draw):
    """Three components of their own truncations, up to 48, so that the
    first step restricts them to the common one."""
    comps = []
    for _ in range(3):
        trunc = draw(st.integers(1, 48))
        comps.append(TruncSeries(
            draw(st.dictionaries(st.integers(1, trunc), big, max_size=6)), trunc))
    return CurveGerm(*comps)


# 1-4 monomials of total degree 1-3 in x, y and z
witnesses = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda m: 1 <= sum(m) <= 3),
    st.builds(F, st.integers(-2 ** 64, 2 ** 64).filter(bool), st.integers(1, 2 ** 64)),
    min_size=1, max_size=4)
removals = st.tuples(st.integers(0, 2), witnesses, nonzero)


def removal_step(component, witness, scale):
    try:
        return JetStep(_removal_jet(component, integer_poly(witness), scale))
    except DomainError:  # singular linear part
        return None


reparams = st.builds(
    lambda a, b, trunc: ReparamStep(TruncSeries({1: a, 2: b}, trunc)),
    nonzero, nonzero, st.integers(1, 48))
scalings = st.builds(lambda a, b, c: ScaleStep((a, b, c)), nonzero, nonzero, nonzero)
# moves two components at once, so it takes the general path
shears = st.builds(
    lambda a, b: JetStep(DiffeoJet(PolyJet3(
        [{(1, 0, 0): 1, (0, 2, 0): a}, {(0, 1, 0): 1, (2, 0, 0): b},
         {(0, 0, 1): 1}], 2))), nonzero, nonzero)
trace_steps = st.one_of(removals.map(lambda r: removal_step(*r)), reparams,
                        scalings, shears).filter(lambda step: step is not None)


def naive_value(table, c: CurveGerm) -> TruncSeries:
    """The polynomial ``table`` at c by series products and sums, monomial
    by monomial, without evaluate_polys."""
    trunc = c.trunc
    comps = [s.restrict(trunc) for s in c.components]
    acc = TruncSeries({}, trunc)
    for mono, coeff in table.items():
        term = TruncSeries({0: 1}, trunc)
        for s, n in zip(comps, mono):
            for _ in range(n):
                term = (term * s).restrict(trunc)
        acc = acc + term.scale(coeff)
    return acc


def naive_map(jet: PolyJet3, c: CurveGerm) -> CurveGerm:
    """jet o c through :func:`naive_value`."""
    return CurveGerm(*(naive_value(table, c) for table in jet.components))


def naive_compose(outer: PolyJet3, inner: PolyJet3, degree: int) -> PolyJet3:
    """outer o inner through total degree ``degree`` on Fraction tables,
    without evaluate_polys."""
    def mul(a, b):
        out = {}
        for m1, x1 in a.items():
            for m2, x2 in b.items():
                m = tuple(p + q for p, q in zip(m1, m2))
                if sum(m) <= degree:
                    out[m] = out.get(m, 0) + x1 * x2
        return out

    comps = []
    for table in outer.components:
        acc = {}
        for mono, coeff in table.items():
            term = {(0, 0, 0): F(1)}
            for poly, n in zip(inner.components, mono):
                for _ in range(n):
                    term = mul(term, poly)
            for m, x in term.items():
                acc[m] = acc.get(m, 0) + coeff * x
        comps.append(acc)
    return PolyJet3(comps, degree)


@given(germ_curves(), st.lists(st.one_of(removals, reparams, scalings, shears),
                               min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_steps_sharing_a_power_table_match_each_step_alone(c, sequence):
    # one Reduction, so one power table, for the whole sequence
    r = Reduction(c)
    for step in sequence:
        cur = r.curve
        removed = None
        if isinstance(step, tuple):
            component, witness, scale = step
            step = removal_step(component, witness, scale)
            if step is None:
                continue
            # the removal x_i -> x_i - s*w changes component i alone
            comps = [s.restrict(cur.trunc) for s in cur.components]
            comps[component] -= naive_value(witness, cur).scale(scale)
            removed = CurveGerm(*comps)
        if isinstance(step, ReparamStep):
            want = cur.reparametrize(step.tau)
        else:
            want = cur.map_jet(step.phi.jet)
            assert want == naive_map(step.phi.jet, cur)
        alone = Reduction(cur)
        alone.push(step)
        r.push(step)
        assert r.curve == alone.curve == want  # coefficients and truncations
        assert removed is None or removed == r.curve


@given(st.lists(trace_steps, min_size=1, max_size=6), st.integers(1, 8),
       st.integers(1, 48), st.lists(st.tuples(nonzero, witnesses),
                                    min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_compose_trace_matches_left_fold(steps, degree, trunc, outer_terms):
    c = monomial_curve(3, 5, 7, trunc=8)  # _compose_trace reads only the steps
    trace = ReductionTrace(tuple(TraceEntry(step, c, c) for step in steps))
    phi, tau = _compose_trace(trace, degree, trunc)
    want_phi = DiffeoJet.identity(degree)
    want_tau = TruncSeries.identity(trunc)
    for step in steps:
        if isinstance(step, ReparamStep):
            want_tau = want_tau.compose(step.tau)
        else:
            outer = step.phi if isinstance(step, JetStep) else \
                DiffeoJet.diagonal(*step.factors, degree)
            composed = outer.compose(want_phi, degree)
            assert composed.jet == naive_compose(outer.jet, want_phi.jet, degree)
            want_phi = composed
    assert phi == want_phi
    assert tau == want_tau
    # an invertible outer jet: a nonzero diagonal plus the witnesses' terms
    # of total degree 2-3
    outer = DiffeoJet(PolyJet3(
        [{**{m: x for m, x in w.items() if sum(m) > 1}, axis: a}
         for axis, (a, w) in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), outer_terms)],
        degree))
    phi, tau = _compose_trace(trace, degree, trunc, outer)
    assert phi == outer.compose(want_phi, degree)
    assert phi.jet == naive_compose(outer.jet, want_phi.jet, degree)
    assert tau == want_tau


# -- every jet step goes through the jet API ---------------------------------------

def _calls(monkeypatch, cls, name):
    """Wrap the method ``cls.name``; the returned list collects the receiver
    and first argument of each call."""
    original = getattr(cls, name)
    calls = []

    def wrapper(self, arg, *args, **kwargs):
        calls.append((self, arg))
        return original(self, arg, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_jet_steps_go_through_map_jet_and_compose(monkeypatch):
    c = curve({3: 2, 4: 1}, {5: 1, 6: 1}, {7: 3}, trunc=24)
    mapped = _calls(monkeypatch, CurveGerm, "map_jet")
    result = reduce_catalog(c)
    assert result.status == "reduced"
    kinds = {type(step) for step in result.trace.steps}
    assert kinds == {ReparamStep, JetStep, ScaleStep}
    jets = [step.phi.jet for step in result.trace.steps
            if not isinstance(step, ReparamStep)]
    assert [jet for _, jet in mapped] == jets  # Reduction.push
    mapped.clear()
    assert result.trace.replay(c) == result.curve
    assert [jet for _, jet in mapped] == jets
    composed = _calls(monkeypatch, PolyJet3, "compose")
    _compose_trace(result.trace, 8, c.trunc)
    # folded from the outside: the identity receives the last step first
    assert [inner for _, inner in composed] == jets[::-1]
    assert composed[0][0] == PolyJet3.identity(8)


def _map_jet_tables(monkeypatch):
    """Wrap CurveGerm.map_jet; the returned list collects the ``products``
    argument of each call."""
    original = CurveGerm.map_jet
    tables = []

    def map_jet(self, jet, products=None):
        tables.append(products)
        return original(self, jet, products)

    monkeypatch.setattr(CurveGerm, "map_jet", map_jet)
    return tables


def _assert_one_table(tables, trace):
    jet_steps = [step for step in trace.steps
                 if not isinstance(step, ReparamStep)]
    assert {type(step) for step in jet_steps} == {JetStep, ScaleStep}
    assert len(tables) == len(jet_steps)
    assert tables[0] is not None
    assert all(table is tables[0] for table in tables)


def test_every_stage_shares_one_power_table(monkeypatch):
    # scale_normalize, monomialize_first and kill_semigroup_terms all make
    # jet steps on this curve, and all of them on one Reduction
    c = curve({3: 2, 4: 1}, {5: 1, 6: 1}, {7: 3}, trunc=24)
    tables = _map_jet_tables(monkeypatch)
    result = reduce_catalog(c)
    _assert_one_table(tables, result.trace)


def test_replay_shares_one_power_table(monkeypatch):
    c = curve({3: 2, 4: 1}, {5: 1, 6: 1}, {7: 3}, trunc=24)
    result = reduce_catalog(c)
    tables = _map_jet_tables(monkeypatch)
    assert result.trace.replay(c) == result.curve
    _assert_one_table(tables, result.trace)
