"""Normal-form reductions, traces, equivalence certificates."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtower.cli import main
from mtower.curves import CurveGerm, curve_to_obj, monomial_curve
from mtower.diffeo import DiffeoJet
from mtower.errors import DomainError
from mtower.formats import dumps, trace_to_obj
from mtower.invariants import multiplicity, semigroup, well_parameterized
from mtower.jets import PolyJet3, integer_poly
from mtower.normalize import (JetStep, ReductionTrace, ReparamStep, ScaleStep,
                              StepResult, TraceEntry, _Builder, _compose_trace,
                              _removal_jet, _removed, _value,
                              apply_certificate, apply_step,
                              equivalence_search, kill_semigroup_terms,
                              monomialize_first, reduce_catalog,
                              scale_normalize, zariski_step)
from mtower.series import TruncSeries

F = Fraction


def curve(xs, ys, zs, trunc=48):
    return CurveGerm(TruncSeries(xs, trunc), TruncSeries(ys, trunc),
                     TruncSeries(zs, trunc))


# -- monomialize ---------------------------------------------------------------

def test_monomialize_case_one_curve():
    c = curve({3: 1, 4: F(2, 5)}, {5: 1}, {7: 1})
    result = monomialize_first(c)
    out = result.curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.order() == 5 and out.y.coefficient(5) == 1
    assert result.trace.replay(c).agrees_with(out)


def test_monomialize_two_tail_terms():
    c = curve({3: 1, 4: F(1, 2), 7: F(-3, 4)}, {5: 1, 7: F(1, 3)}, {})
    out = monomialize_first(c).curve
    assert out.x.terms() == [(3, F(1))]


def test_monomialize_scales_leading_coefficient():
    c = curve({2: 3}, {3: 5}, {})
    result = monomialize_first(c)
    assert result.curve.x.terms() == [(2, F(1))]
    assert len(result.trace) == 1  # scaling only, no reparametrization needed


def test_monomialize_already_pure_is_empty_trace():
    c = monomial_curve(3, 5, None)
    result = monomialize_first(c)
    assert result.curve == c
    assert len(result.trace) == 0


def test_monomialize_rejects_zero_x():
    with pytest.raises(DomainError):
        monomialize_first(curve({}, {3: 1}, {}))


# -- zariski step -----------------------------------------------------------------

def test_zariski_eliminates_t7():
    c = curve({3: 1}, {5: 1, 7: 1}, {})
    result = zariski_step(c)
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
    out = zariski_step(c).curve
    assert out.y.coefficient(7) == 0


def test_zariski_no_gap_terms_is_reported():
    c = curve({3: 1}, {5: 1, 8: 1}, {})
    result = zariski_step(c)
    assert result.curve == c
    assert result.notes == ("no gap-exponent terms",)


def test_zariski_requires_planar_monic_shape():
    with pytest.raises(DomainError):
        zariski_step(monomial_curve(3, 5, 7))
    with pytest.raises(DomainError):
        zariski_step(curve({3: 2}, {5: 1, 7: 1}, {}))


# -- semigroup-certified removal ----------------------------------------------------

def test_kill_removes_x_tail_via_witness():
    c = curve({3: 1, 8: 1}, {5: 1}, {7: 1})
    result = kill_semigroup_terms(c, semigroup(c, 24))
    assert result.curve.agrees_with(monomial_curve(3, 5, 7, trunc=result.curve.trunc))
    assert result.trace.replay(c).agrees_with(result.curve)
    assert result.notes == ()


def test_kill_removes_z_tail():
    c = curve({3: 1}, {5: 1}, {7: 1, 9: 1})
    result = kill_semigroup_terms(c, semigroup(c, 24))
    assert result.curve.agrees_with(monomial_curve(3, 5, 7, trunc=result.curve.trunc))


def test_kill_leaves_clean_curve_alone():
    c = monomial_curve(3, 5, 7)
    result = kill_semigroup_terms(c, semigroup(c, 24))
    assert result.curve == c
    assert len(result.trace) == 0


def test_kill_reports_uncertified_exponent():
    # 7 is a gap of the semigroup of (t^3, t^5, 0); the t^7 term stays.
    c = curve({3: 1}, {5: 1, 7: 1}, {})
    result = kill_semigroup_terms(c, semigroup(c, 24))
    assert result.curve.y.coefficient(7) == 1
    assert any("t^7" in note for note in result.notes)


def test_kill_handles_terms_beyond_semigroup_bound():
    c = curve({3: 1, 30: 1}, {5: 1}, {7: 1})
    result = kill_semigroup_terms(c, semigroup(c, 12))
    assert result.curve.x.terms() == [(3, F(1))]


def test_kill_leaves_uncertified_term_past_the_bound():
    # 27 is a gap of <5,8> beyond the bound; the term must survive with a
    # note instead of being removed on a false certificate.
    c = curve({5: 1}, {8: 1, 27: 1}, {})
    result = kill_semigroup_terms(c, semigroup(c, 23))
    assert result.curve.y.coefficient(27) == 1
    assert any("t^27" in note for note in result.notes)


def test_kill_removes_mixed_axis_term_past_the_bound():
    c = curve({5: 1}, {8: 1, 24: 1}, {})
    result = kill_semigroup_terms(c, semigroup(c, 23))
    assert result.curve.y.coefficient(24) == 0


@pytest.mark.time_limit(10)
def test_kill_leaves_a_term_whose_removal_is_singular():
    # the witness of 5 is x^2 - z, and z -> z + (x^2 - z) has no linear part
    # in z; the term stays and the pass goes on to t^7 in y
    c = curve({2: 1}, {3: 1, 7: 1}, {4: 1, 5: 1}, trunc=16)
    result = kill_semigroup_terms(c, semigroup(c, 16))
    assert result.curve.agrees_with(curve({2: 1}, {3: 1}, {4: 1, 5: 1}, trunc=16))
    assert result.notes == (
        "left t^5 in component 3 (its removal step would be singular)",)
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


def restarting_kill(c: CurveGerm, s) -> StepResult:
    """The term removal that the ordered pass replaced: after every removal
    it rescans from the lowest term, skipping the terms it gave up on. Where
    a removal step would be singular that loop halved the step forever, so
    such an example is discarded."""
    bound = s.bound
    b = _Builder(c)
    leftovers: set[tuple[int, int]] = set()
    current_sg = s
    while True:
        cur = b.current
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
        composed = _value(cur, poly, b.powers)
        if composed.order() != d:
            current_sg = semigroup(cur, bound)
            poly = current_sg.witness_for(d)
            composed = _value(cur, poly, b.powers)
            if composed.order() != d:
                raise AssertionError(f"fresh witness for {d} has the wrong order")
        scale = cur.components[idx].coefficient(d) / composed.coefficient(d)
        try:
            jet = _removal_jet(idx, poly, scale)
        except DomainError:
            assume(False)
        b.push(JetStep(jet), _removed(cur, idx, scale, composed))
    notes = tuple(f"left t^{d} in component {idx + 1} (no certificate up to "
                  f"bound {bound})" for idx, d in sorted(leftovers))
    return StepResult(b.current, b.trace(), notes)


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
    got = kill_semigroup_terms(c, s)
    assert got.curve == want.curve
    assert got.notes == want.notes
    assert dumps(trace_to_obj(got.trace)) == dumps(trace_to_obj(want.trace))


# -- scaling ----------------------------------------------------------------------

def test_scale_normalizes_leading_coefficients():
    c = curve({3: 2}, {5: 5}, {})
    out = scale_normalize(c).curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.terms() == [(5, F(1))]


def test_scale_normalizes_square_class():
    # beta = 4/9 is a rational square: the t^7 coefficient becomes +1.
    c = curve({3: 1}, {5: 1, 7: F(4, 9)}, {})
    out = scale_normalize(c).curve
    assert out.x.terms() == [(3, F(1))]
    assert out.y.coefficient(5) == 1 and out.y.coefficient(7) == 1


def test_scale_keeps_sign_of_negative_square_class():
    c = curve({3: 1}, {5: 1, 7: F(-4, 9)}, {})
    out = scale_normalize(c).curve
    assert out.y.coefficient(7) == -1


def test_scale_leaves_non_square_class_alone():
    c = curve({3: 1}, {5: 1, 7: 2}, {})
    out = scale_normalize(c).curve
    assert out.y.coefficient(7) == 2


def test_scale_idempotent():
    c = monomial_curve(3, 5, 7)
    result = scale_normalize(c)
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
    lambda a, b: JetStep(DiffeoJet.from_components(
        [{(1, 0, 0): 1, (0, 2, 0): a}, {(0, 1, 0): 1, (2, 0, 0): b},
         {(0, 0, 1): 1}], 2)), nonzero, nonzero)
trace_steps = st.one_of(removals.map(lambda r: removal_step(*r)), reparams,
                        scalings, shears).filter(lambda step: step is not None)


def naive_map(jet: PolyJet3, c: CurveGerm) -> CurveGerm:
    """jet o c by series products and sums, monomial by monomial, without
    evaluate_polys."""
    trunc = c.trunc
    comps = [s.restrict(trunc) for s in c.components]
    out = []
    for table in jet.components:
        acc = TruncSeries({}, trunc)
        for mono, coeff in table.items():
            term = TruncSeries({0: 1}, trunc)
            for s, n in zip(comps, mono):
                for _ in range(n):
                    term = (term * s).restrict(trunc)
            acc = acc + term.scale(coeff)
        out.append(acc)
    return CurveGerm(*out)


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
    # one power table for the whole sequence, as in replay and _Builder.push
    powers = [[], [], []]
    cur = c
    for step in sequence:
        removed = None
        if isinstance(step, tuple):
            component, witness, scale = step
            step = removal_step(component, witness, scale)
            if step is None:
                continue
            # term removal builds its after-curve from the value w(c)
            value = _value(cur, integer_poly(witness), powers)
            removed = _removed(cur, component, scale, value)
        if isinstance(step, ReparamStep):
            want = cur.reparametrize(step.tau)
        else:
            want = cur.map_jet(step.phi.jet)
            assert want == naive_map(step.phi.jet, cur)
        alone = apply_step(cur, step)
        cur = apply_step(cur, step, powers)
        assert cur == alone == want  # coefficients and truncations
        assert removed is None or removed == cur


@given(st.lists(trace_steps, min_size=1, max_size=6), st.integers(1, 8),
       st.integers(1, 48))
@settings(max_examples=40, deadline=None)
def test_compose_trace_matches_left_fold(steps, degree, trunc):
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
