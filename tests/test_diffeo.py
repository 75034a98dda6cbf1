"""Prolonged diffeomorphism action, isotropy groups, fiber representation."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from mtower import diffeo
from mtower.census import rvvv_points
from mtower.curves import monomial_curve
from mtower.diffeo import (DiffeoJet, fiber_action, isotropy_check,
                           prolong_apply, sample_diffeo, taylor_constraints)
from mtower.errors import DomainError, InsufficientTruncation
from mtower.jets import PolyJet3, monomials
from mtower.series import TruncSeries
from mtower.tower import point_above, prolong_curve, realize_point, rvt_code

F = Fraction
MTBENCH = Path(__file__).resolve().parent.parent / "mtbench"

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)

CUSP = monomial_curve(2, 3, None)
LINE = monomial_curve(1, None, None)


def zeroed(stage):
    """The pinned mapping that zeroes the Taylor coefficients of ``stage``."""
    return dict.fromkeys(taylor_constraints(stage), 0)


def vanishes(phi, stage):
    return all(phi.jet.coefficient(component, mono) == 0
               for component, mono in taylor_constraints(stage))


def rv_representative():
    return prolong_curve(CUSP, 2).point


def rvv_representative():
    return prolong_curve(monomial_curve(3, 5, 7), 3).point


# -- prolong_apply --------------------------------------------------------------

def test_identity_fixes_points():
    ident = DiffeoJet.identity()
    for exponents, level in [((2, 3, None), 2), ((3, 5, 7), 3), ((4, 6, 7), 3)]:
        p = prolong_curve(monomial_curve(*exponents), level).point
        image = prolong_apply(ident, p)
        assert image == p and image.arrangement == p.arrangement


def test_shear_moves_flat_point_u2():
    # (x, y + x^2, z) sends the straight-line point to the one whose image
    # curve (t, t^2, 0) has u = 2t and u2 = 2.
    p = prolong_curve(LINE, 2).point
    phi = DiffeoJet(PolyJet3([{X: 1}, {Y: 1, (2, 0, 0): 1}, {Z: 1}], 8))
    q = prolong_apply(phi, p)
    assert q.chart == (0, 0)
    assert q.coords == (0, 0, 0, 0, 0, 2, 0)


def test_scaling_acts_on_rvvv_fiber_direction():
    p3 = rvv_representative()
    q = point_above(p3, (0, 1, 1))
    phi = DiffeoJet.diagonal(1, 1, 2)
    image = prolong_apply(phi, q)
    assert image.chart == q.chart
    assert image.fiber_coords(4) == (0, 2)


def test_prolong_apply_independent_of_realizing_curve():
    rng = random.Random(7)
    p3 = rvv_representative()
    phi = sample_diffeo(rng)
    expected = prolong_apply(phi, p3)
    for tangent in [(1, 0), (1, 1), (2, 1)]:
        gamma = realize_point(p3, tangent=tangent)
        image = prolong_curve(phi.apply_to_curve(gamma), 3).point
        assert image == expected
    tail = (TruncSeries({2: F(1, 2), 5: 1}, 64), TruncSeries({3: F(-1, 3)}, 64))
    gamma = realize_point(p3, tangent=(1, 2), fiber_tail=tail)
    assert prolong_curve(phi.apply_to_curve(gamma), 3).point == expected


def test_image_vanishing_up_to_truncation_is_a_shortfall():
    # at trunc 4 the realizing curve, and so its image, vanishes up to truncation
    with pytest.raises(InsufficientTruncation):
        prolong_apply(sample_diffeo(random.Random(3), degree=2),
                      rvvv_points()[1], trunc=4)


def test_level_one_action_matches_pushforward_formula():
    # Independent oracle: on the chart [1 : u : v] the prolonged action is
    #   u' = (phi2_x + u phi2_y + v phi2_z) / (phi1_x + u phi1_y + v phi1_z)
    # and likewise for v' with phi3, all partials evaluated at the origin.
    rng = random.Random(23)
    from mtower.tower import make_point
    from mtower.diffeo import prolong_apply
    checked = 0
    while checked < 15:
        phi = sample_diffeo(rng, degree=2)
        u0 = F(rng.randint(-3, 3), rng.randint(1, 3))
        v0 = F(rng.randint(-3, 3), rng.randint(1, 3))
        lin = [[phi.jet.coefficient(i, axis) for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
               for i in (1, 2, 3)]
        denom = lin[0][0] + u0 * lin[0][1] + v0 * lin[0][2]
        if denom == 0:
            continue
        expected_u = (lin[1][0] + u0 * lin[1][1] + v0 * lin[1][2]) / denom
        expected_v = (lin[2][0] + u0 * lin[2][1] + v0 * lin[2][2]) / denom
        p1 = make_point(1, [0], [0, 0, 0, u0, v0])
        image = prolong_apply(phi, p1)
        assert image.chart == (0,)
        assert image.coords == (0, 0, 0, expected_u, expected_v)
        checked += 1


def test_a_jet_off_the_origin_is_no_diffeo_and_moves_no_curve():
    jet = PolyJet3([{X: 1}, {Y: 1}, {Z: 1, (0, 0, 0): F(1, 2)}], 3)
    with pytest.raises(DomainError) as error:
        DiffeoJet(jet)
    assert str(error.value) == "diffeomorphism germs must fix the origin"
    with pytest.raises(DomainError) as error:
        CUSP.map_jet(jet)
    assert str(error.value) == "jet must fix the origin to act on curve germs"


def test_rvt_code_invariance_under_diffeos():
    rng = random.Random(11)
    cases = [((2, 3, None), 2), ((3, 5, 7), 3), ((3, 4, 5), 3), ((4, 6, 7), 3)]
    for exponents, level in cases:
        c = monomial_curve(*exponents)
        base = rvt_code(c, level)
        for _ in range(5):
            phi = sample_diffeo(rng, degree=2)
            assert rvt_code(phi.apply_to_curve(c), level) == base


# -- isotropy -------------------------------------------------------------------

def test_identity_isotropy_everywhere():
    ident = DiffeoJet.identity()
    for exponents, level in [((2, 3, None), 2), ((3, 5, 7), 3)]:
        p = prolong_curve(monomial_curve(*exponents), level).point
        assert isotropy_check(ident, p)


def test_phi3_y_violation_fails_at_rv_point():
    p2 = rv_representative()
    phi = DiffeoJet(PolyJet3([{X: 1}, {Y: 1}, {Z: 1, Y: F(1, 2)}], 8))
    assert vanishes(phi, "G1")
    assert not vanishes(phi, "G2")
    assert not isotropy_check(phi, p2)


def test_diagonal_scalings_fix_rvv_representative():
    p3 = rvv_representative()
    for a, b, c in [(2, 3, 5), (1, 1, 7), (F(1, 2), F(2, 3), F(-4, 5))]:
        assert isotropy_check(DiffeoJet.diagonal(a, b, c), p3)


def test_sampled_g3_jets_fix_the_chain():
    rng = random.Random(99)
    p1 = prolong_curve(LINE, 1).point
    p2 = rv_representative()
    p3 = rvv_representative()
    for _ in range(10):
        phi = sample_diffeo(rng, degree=2, pinned=zeroed("G3"))
        assert vanishes(phi, "G3")
        assert isotropy_check(phi, p1)
        assert isotropy_check(phi, p2)
        assert isotropy_check(phi, p3)


def test_constraint_sets_grow_along_the_chain(monkeypatch):
    xx = (2, 0, 0)
    assert taylor_constraints("G1") == ((2, X), (3, X))
    assert taylor_constraints("G2") == ((2, X), (3, X), (3, Y))
    assert taylor_constraints("G3") == ((2, X), (3, X), (3, Y), (3, xx))
    for before, stage in [("G1", "G2"), ("G2", "G3")]:
        assert taylor_constraints(stage)[:-1] == taylor_constraints(before)
    # the action workload keeps its own copy of the table
    monkeypatch.syspath_prepend(str(MTBENCH))
    import workloads
    assert workloads._STAGES == {None: (), **{stage: taylor_constraints(stage)
                                              for stage in ("G1", "G2", "G3")}}
    with pytest.raises(DomainError):
        taylor_constraints("G4")


def test_targeted_violations_fail_isotropy():
    rng = random.Random(3)
    p1 = prolong_curve(LINE, 1).point
    p2 = rv_representative()
    p3 = rvv_representative()
    reps = {"G1": p1, "G2": p2, "G3": p3}
    previous = {"G1": None, "G2": "G1", "G3": "G2"}
    for stage, rep in reps.items():
        new = taylor_constraints(stage)[-1]
        base = previous[stage]
        for _ in range(5):
            pinned = zeroed(base) if base else {}
            pinned[new] = rand_nonzero(rng)
            phi = sample_diffeo(rng, degree=2, pinned=pinned)
            assert base is None or vanishes(phi, base)
            assert not isotropy_check(phi, rep)


def test_isotropy_answers_below_a_shortfall_above():
    # phi3_y moves the level-4 chain point at level 2; at trunc 8 its image
    # is short of the levels above, which the check never climbs
    q10 = rvvv_points()[0]
    phi = DiffeoJet(PolyJet3([{X: 1}, {Y: 1}, {Z: 1, Y: 1}], 8))
    with pytest.raises(InsufficientTruncation):
        prolong_apply(phi, q10, trunc=8)
    assert prolong_apply(phi, q10).fiber_coords(2) != q10.fiber_coords(2)
    assert not isotropy_check(phi, q10, trunc=8)


def rand_nonzero(rng):
    while True:
        q = F(rng.randint(-5, 5), rng.randint(1, 3))
        if q:
            return q


def reference_sample_diffeo(rng, degree, constraints=(), forced=None):
    """The sampler ``pinned`` replaced: ``constraints`` pops the (component,
    monomial) pairs after the draw, then ``forced`` sets its pairs."""
    while True:
        comps = []
        for _ in range(3):
            table = {}
            for mono in monomials(degree):
                if sum(mono) == 1 or rng.random() < 0.4:
                    table[mono] = diffeo.rand_fraction(rng)
            comps.append(table)
        for component, mono in constraints:
            comps[component - 1].pop(mono, None)
        for (component, mono), value in (forced or {}).items():
            comps[component - 1][mono] = F(value)
        jet = PolyJet3(comps, diffeo.DEFAULT_JET_DEGREE)
        if jet.linear_det() != 0:
            return DiffeoJet(jet)


def test_pinned_sampler_matches_constraints_then_forced():
    # nothing pinned; G1, G2 or G3 zeroed; nothing, G1 or G2 zeroed with the
    # coefficient the next stage adds forced to a nonzero value drawn first
    cases = [(None, None), ("G1", None), ("G2", None), ("G3", None),
             (None, "G1"), ("G1", "G2"), ("G2", "G3")]
    for seed in range(200):
        for degree in (2, 3):
            for zero_stage, next_stage in cases:
                old_rng, new_rng = random.Random(seed), random.Random(seed)
                constraints = taylor_constraints(zero_stage) if zero_stage else ()
                forced, pinned = {}, dict.fromkeys(constraints, 0)
                if next_stage is not None:
                    added = taylor_constraints(next_stage)[-1]
                    forced[added] = diffeo.rand_fraction(old_rng, allow_zero=False)
                    pinned[added] = diffeo.rand_fraction(new_rng, allow_zero=False)
                old = reference_sample_diffeo(old_rng, degree, constraints, forced)
                new = sample_diffeo(new_rng, degree, pinned=pinned)
                assert new == old
                assert new_rng.getstate() == old_rng.getstate()


# -- fiber action ------------------------------------------------------------------

def test_identity_fixes_every_fiber_direction():
    p3 = rvv_representative()
    dirs = [(1, 0), (1, 1), (1, -2), (2, 3)]
    images = fiber_action(DiffeoJet.identity(), p3, dirs)
    assert images == [(1, 0), (1, 1), (1, -2), (1, F(3, 2))]


def test_fiber_action_requires_isotropy():
    p2 = rv_representative()
    phi = DiffeoJet(PolyJet3([{X: 1}, {Y: 1}, {Z: 1, Y: 1}], 8))
    for directions in ([(1, 0)], [(1, 0), (1, 1)], []):
        with pytest.raises(DomainError) as error:
            fiber_action(phi, p2, directions)
        assert str(error.value) == "fiber_action requires a jet fixing the point"


def counted_realizations(monkeypatch):
    """The points diffeo realizes from now on, in call order."""
    realized = []

    def counted(q, *args):
        realized.append(q)
        return realize_point(q, *args)

    monkeypatch.setattr(diffeo, "realize_point", counted)
    return realized


@pytest.mark.parametrize("bad", [(0, 0), (1, 0, 0)])
def test_fiber_action_checks_every_direction_before_prolonging(monkeypatch, bad):
    realized = counted_realizations(monkeypatch)
    with pytest.raises(DomainError, match="zero direction|pairs"):
        fiber_action(DiffeoJet.identity(), rvv_representative(),
                     [(1, 0), (1, 1), bad])
    assert realized == []


def test_fiber_action_climbs_each_direction_from_trunc_8(monkeypatch):
    # fixedness is read off the direction images: p itself is not realized;
    # each direction is realized at trunc 8 and again at 16, where it settles
    climbs = []

    def counted(q, trunc):
        climbs.append((q, trunc))
        return realize_point(q, trunc)

    monkeypatch.setattr(diffeo, "realize_point", counted)
    p3 = rvv_representative()
    dirs = [(1, 0), (0, 1), (1, 1)]
    assert fiber_action(DiffeoJet.diagonal(1, 1, 2), p3, dirs) == \
        [(1, 0), (0, 1), (1, 2)]
    q1, q2, q3 = (point_above(p3, (0, b, c)) for b, c in dirs)
    assert climbs == [(q1, 8), (q1, 16), (q2, 8), (q2, 16), (q3, 8), (q3, 16)]


def test_fiber_action_with_no_directions_still_checks_the_point(monkeypatch):
    realized = counted_realizations(monkeypatch)
    p3 = rvv_representative()
    assert fiber_action(DiffeoJet.diagonal(1, 1, 2), p3, []) == []
    assert realized == [p3]


def test_sampled_isotropy_jets_fix_first_axis():
    rng = random.Random(42)
    p3 = rvv_representative()
    for _ in range(10):
        phi = sample_diffeo(rng, degree=2, pinned=zeroed("G3"))
        assert fiber_action(phi, p3, [(1, 0)]) == [(1, 0)]


def test_scaling_moves_diagonal_direction():
    p3 = rvv_representative()
    images = fiber_action(DiffeoJet.diagonal(1, 1, 2), p3, [(1, 1)])
    assert images == [(1, 2)]


def test_fiber_action_matches_closed_form_for_diagonal_jets():
    # For diagonal (a, b, c) the prolonged tangent action on the fiber over
    # the chain point is diag(b^2/a^3, c/a^2): (1, 1) goes to [1 : c*a/b^2].
    p3 = rvv_representative()
    for a, b, c in [(2, 1, 1), (1, 2, 3), (3, F(1, 2), F(5, 3))]:
        lam = F(c) * F(a) / (F(b) ** 2)
        assert fiber_action(DiffeoJet.diagonal(a, b, c), p3, [(1, 1)]) == [(1, lam)]


def one_climb_fiber_action(phi, p, directions, trunc):
    """Each direction's image read by one climb at ``trunc``."""
    out = []
    for b, c in directions:
        q = point_above(p, (0, F(b), F(c)))
        image = diffeo._image_over(phi, q, p, trunc)
        if image is None:
            raise DomainError("fiber_action requires a jet fixing the point")
        out.append(image.step_direction(p.level + 1)[1:])
    return out


def outcome(action, *args):
    try:
        return action(*args)
    except (DomainError, InsufficientTruncation) as error:
        return type(error), str(error)


def test_fiber_action_matches_one_climb_at_the_ceiling():
    # the doubling loop's images and errors are those of one climb per
    # direction at trunc: a shortfall is raised at the ceiling, and a
    # non-fixing jet gives the same DomainError at every ceiling
    rng = random.Random(43)
    points = [rv_representative(), rvv_representative(), *rvvv_points()]
    dirs = [(1, 0), (0, 1), (1, 1), (2, -3)]
    jets = [DiffeoJet.diagonal(1, 2, 3), DiffeoJet.diagonal(2, 1, F(1, 2))]
    jets += [sample_diffeo(rng, degree=2, pinned=zeroed(stage) if stage else None)
             for stage in (None, "G1", "G2", "G3", "G3")]
    seen = set()
    for p in points:
        for phi in jets:
            for trunc in (4, 8, 16, 64):
                got = outcome(fiber_action, phi, p, dirs, trunc)
                assert got == outcome(one_climb_fiber_action, phi, p, dirs, trunc)
                seen.add(got[0] if isinstance(got, tuple) else list)
    assert seen == {list, DomainError, InsufficientTruncation}
