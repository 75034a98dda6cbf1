"""Normal-form reduction of curve germs with replayable traces.

Each reduction step is a legitimate equivalence move: a reparametrization of
order 1, a diffeomorphism jet with invertible linear part, or a diagonal
scaling. Traces record every step together with before/after snapshots, so
an external consumer can replay and audit the whole reduction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .catalog import NORMAL_FORMS, normal_form_curves
from .curves import CurveGerm
from .diffeo import DiffeoJet
from .errors import DomainError, MTError
from .invariants import (DEFAULT_PLANARITY_ORDER, DEFAULT_SEMIGROUP_BOUND,
                         Semigroup, multiplicity, planarity, semigroup,
                         well_parameterized)
from .jets import (IntPoly, PolyJet3, evaluate_polys, jet_from_polys,
                   on_polys, on_series, poly_scaled_sum)
from .series import TruncSeries
from .tower import rvt_code, word_str


# -- steps and traces --------------------------------------------------------


@dataclass(frozen=True)
class ReparamStep:
    tau: TruncSeries

    def __post_init__(self):
        if self.tau.order() != 1:
            raise DomainError("reparametrizations must have order exactly 1")

    kind = "reparametrize"


@dataclass(frozen=True)
class JetStep:
    phi: DiffeoJet

    kind = "coordinate-change"


@dataclass(frozen=True)
class ScaleStep:
    factors: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        if any(f == 0 for f in self.factors):
            raise DomainError("scaling factors must be nonzero")

    kind = "scale"

    @property
    def phi(self) -> DiffeoJet:
        """The scaling as its diagonal jet of degree 1."""
        return DiffeoJet.diagonal(*self.factors, 1)


Step = Union[ReparamStep, JetStep, ScaleStep]


def _jet_of(step: Step) -> DiffeoJet:
    if isinstance(step, (JetStep, ScaleStep)):
        return step.phi
    raise DomainError(f"unknown reduction step {step!r}")


def apply_step(c: CurveGerm, step: Step,
               powers: list[list] | None = None) -> CurveGerm:
    """``step`` applied to ``c``. A loop that keeps ``powers`` (see
    :func:`jets.evaluate_polys`) shares the axis powers of the components
    its jet steps leave in place."""
    if isinstance(step, ReparamStep):
        return c.reparametrize(step.tau)
    polys = _jet_of(step).jet.polys
    return CurveGerm(*evaluate_polys(polys, *on_series(*c.components),
                                     powers=powers))


@dataclass(frozen=True)
class TraceEntry:
    step: Step
    before: CurveGerm
    after: CurveGerm


@dataclass(frozen=True)
class ReductionTrace:
    entries: tuple[TraceEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(e.step for e in self.entries)

    def replay(self, c: CurveGerm) -> CurveGerm:
        """Re-execute the steps on ``c``; the snapshots must be reproduced
        exactly up to the available truncation."""
        powers: list[list] = [[], [], []]
        cur = c
        for entry in self.entries:
            if not cur.agrees_with(entry.before):
                raise DomainError("trace replay diverged from its before-snapshot")
            cur = apply_step(cur, entry.step, powers)
            if not cur.agrees_with(entry.after):
                raise DomainError("trace replay diverged from its after-snapshot")
        return cur

    def extend(self, other: "ReductionTrace") -> "ReductionTrace":
        return ReductionTrace(self.entries + other.entries)


class _Builder:
    def __init__(self, start: CurveGerm):
        self.current = start
        self.entries: list[TraceEntry] = []
        self.powers: list[list] = [[], [], []]

    def push(self, step: Step, after: CurveGerm | None = None) -> CurveGerm:
        """Record ``step``; ``after`` is its result when the caller has it."""
        before = self.current
        if after is None:
            after = apply_step(before, step, self.powers)
        self.entries.append(TraceEntry(step, before, after))
        self.current = after
        return after

    def trace(self) -> ReductionTrace:
        return ReductionTrace(tuple(self.entries))


@dataclass(frozen=True)
class StepResult:
    curve: CurveGerm
    trace: ReductionTrace
    notes: tuple[str, ...] = ()


# -- individual reductions -----------------------------------------------------


def monomialize_first(c: CurveGerm) -> StepResult:
    """Make the first component exactly t^m up to truncation.

    A diagonal scaling normalizes the leading coefficient, then the
    reparametrization by the inverse of t times the m-th root of the unit
    factor removes every higher term of the component at once.
    """
    if c.x.is_zero():
        raise DomainError("cannot monomialize a curve with zero first component")
    b = _Builder(c)
    m = c.x.order()
    lead = c.x.coefficient(m)
    if lead != 1:
        b.push(ScaleStep((1 / lead, Fraction(1), Fraction(1))))
    unit = b.current.x.divide(TruncSeries.monomial(m, 1, b.current.x.trunc))
    if unit.terms() != [(0, Fraction(1))]:
        root = unit.unit_root(m)
        s = TruncSeries.monomial(1, 1, root.trunc + 1) * root
        tau = s.param_inverse()
        b.push(ReparamStep(tau))
    return StepResult(b.current, b.trace())


def _gap_exponents(y: TruncSeries, n: int, m: int) -> list[int]:
    members = {a * n + b * m
               for a in range(y.trunc // n + 1)
               for b in range(y.trunc // m + 1)}
    return [d for d, _ in y.terms() if d > m and d not in members]


def zariski_step(c: CurveGerm) -> StepResult:
    """One elimination step on a planar short parameterization.

    For x = t^n, y = t^m + b t^nu + ... with nu the smallest exponent
    outside the semigroup generated by n and m, the change x' = x + a y^j
    (a = bn/m, nu + n = (j+1)m) followed by re-monomialization pushes all
    gap terms of y past nu. Inapplicable inputs are returned untouched with
    an explanatory note.
    """
    if not c.z.is_zero():
        raise DomainError("the short-parameterization step needs a planar curve (z = 0)")
    if c.x.is_zero() or c.y.is_zero():
        raise DomainError("the short-parameterization step needs nonzero x and y")
    n = c.x.order()
    m = c.y.order()
    if c.x.terms() != [(n, Fraction(1))] or c.y.coefficient(m) != 1:
        raise DomainError("monomialize and scale the curve before the "
                          "short-parameterization step")
    if not n < m:
        raise DomainError("expected ord(x) < ord(y) in the planar shape")
    gaps_present = _gap_exponents(c.y, n, m)
    if not gaps_present:
        return StepResult(c, ReductionTrace(), ("no gap-exponent terms",))
    nu = gaps_present[0]
    bcoef = c.y.coefficient(nu)
    if (nu + n) % m != 0 or (nu + n) // m < 2:
        return StepResult(c, ReductionTrace(),
                          (f"step not applicable: {nu}+{n} is outside the "
                           f"semigroup generated by {n} and {m}",))
    j = (nu + n) // m - 1
    a = bcoef * n / m
    b = _Builder(c)
    change = DiffeoJet(PolyJet3(
        [{(1, 0, 0): 1, (0, j, 0): a}, {(0, 1, 0): 1}, {(0, 0, 1): 1}],
        max(j, 1)))
    b.push(JetStep(change))
    mono = monomialize_first(b.current)
    trace = b.trace().extend(mono.trace)
    new_gaps = _gap_exponents(mono.curve.y, n, m)
    if new_gaps and min(new_gaps) <= nu:
        raise AssertionError("short-parameterization step failed to advance")
    return StepResult(mono.curve, trace)


_IDENTITY = PolyJet3.identity(1).polys


def _removal_jet(component: int, witness: IntPoly, scale: Fraction) -> DiffeoJet:
    """The elementary jet x_i -> x_i - scale*witness for i = ``component``,
    the identity in the other two components."""
    polys = list(_IDENTITY)
    q = scale.denominator
    polys[component] = poly_scaled_sum(
        [(q, polys[component]), (-scale.numerator, witness)], q)
    degree = max(max(sum(m) for m in witness[0]), 1)
    return DiffeoJet(jet_from_polys(polys, degree))


def _value(c: CurveGerm, poly: IntPoly, powers: list[list]) -> TruncSeries:
    """poly(c), known through the truncation of the curve."""
    return next(evaluate_polys([poly], *on_series(*c.components),
                               powers=powers))


def _removed(c: CurveGerm, i: int, scale: Fraction,
             value: TruncSeries) -> CurveGerm:
    """The step x_i -> x_i - scale*w applied to ``c``, given value = w(c):
    what :func:`apply_step` gives for the removal jet."""
    comps = [s.restrict(c.trunc) for s in c.components]
    comps[i] = c.components[i] - value.scale(scale)
    return CurveGerm(*comps)


def kill_semigroup_terms(c: CurveGerm, s: Semigroup) -> StepResult:
    """Remove component terms whose exponents the semigroup certifies.

    One ascending pass over (order d, component x, y, z) visits each term
    past its component's leading exponent once, reading the current curve:
    a removal at (d, i) subtracts a multiple of a witness of order d from
    component i alone, so it zeroes that t^d coefficient, changes nothing at
    lower orders, and never moves a leading exponent. The witness basis is
    re-derived when a witness goes stale. A term without a certificate, or
    whose removal step would be singular, is left in place and reported.
    """
    bound = s.bound
    b = _Builder(c)
    current_sg = s
    terms = [comp.numerators()[0] for comp in c.components]
    leads = [min(t, default=None) for t in terms]
    left: list[tuple[int, int, str]] = []
    for d in range(1, max(comp.trunc for comp in c.components) + 1):
        for idx in range(3):
            if d not in terms[idx] or d == leads[idx]:
                continue
            try:
                witness = current_sg.witness_for(d)
            except DomainError:
                left.append((idx, d, f"no certificate up to bound {bound}"))
                continue
            cur = b.current
            # the semigroup itself is invariant under these moves; only the
            # witnesses can go stale as the curve changes
            composed = _value(cur, witness, b.powers)
            if composed.order() != d:
                current_sg = semigroup(cur, bound)
                witness = current_sg.witness_for(d)
                composed = _value(cur, witness, b.powers)
                if composed.order() != d:
                    raise AssertionError(f"fresh witness for {d} has the wrong order")
            scale = cur.components[idx].coefficient(d) / composed.coefficient(d)
            try:
                jet = _removal_jet(idx, witness, scale)
            except DomainError:
                left.append((idx, d, "its removal step would be singular"))
                continue
            b.push(JetStep(jet), _removed(cur, idx, scale, composed))
            terms = [comp.numerators()[0] for comp in b.current.components]
    notes = tuple(f"left t^{d} in component {idx + 1} ({why})"
                  for idx, d, why in sorted(left))
    return StepResult(b.current, b.trace(), notes)


def _fraction_nth_root(q: Fraction, k: int) -> Fraction | None:
    if q <= 0:
        return None

    def iroot(n: int) -> int | None:
        if n == 0:
            return 0
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

    num = iroot(q.numerator)
    den = iroot(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def scale_normalize(c: CurveGerm) -> StepResult:
    """Set leading coefficients to 1 by diagonal scaling, then normalize the
    square class of a two-term planar second component when possible.

    Only exact rational scalings are used: when the classical move would
    need an irrational factor the coefficient keeps its square class and the
    term is left for the semigroup machinery to remove.
    """
    b = _Builder(c)
    factors = []
    for s in b.current.components:
        o = s.order()
        factors.append(Fraction(1) if o is None else 1 / s.coefficient(o))
    if any(f != 1 for f in factors):
        b.push(ScaleStep((factors[0], factors[1], factors[2])))
    cur = b.current
    if cur.z.is_zero() and not cur.x.is_zero() and not cur.y.is_zero():
        n, m = cur.x.order(), cur.y.order()
        yterms = cur.y.terms()
        if cur.x.terms() == [(n, Fraction(1))] and len(yterms) == 2 \
                and yterms[0] == (m, Fraction(1)):
            p, beta = yterms[1]
            if abs(beta) != 1:
                lam = _fraction_nth_root(1 / abs(beta), p - m)
                if lam is not None:
                    b.push(ReparamStep(TruncSeries({1: lam}, cur.trunc)))
                    b.push(ScaleStep((lam ** -n, lam ** -m, Fraction(1))))
    return StepResult(b.current, b.trace())


# -- the catalog pipeline ----------------------------------------------------


@dataclass(frozen=True)
class ReduceResult:
    status: str  # "reduced" or "outside-catalog"
    code: str
    curve: CurveGerm
    trace: ReductionTrace
    normal_form: tuple[int | None, int | None, int | None] | None = None
    notes: tuple[str, ...] = ()


def _pipeline(c: CurveGerm, bound: int) -> tuple[CurveGerm, ReductionTrace, tuple[str, ...]]:
    notes: list[str] = []
    res = scale_normalize(c)
    trace = res.trace
    cur = res.curve
    if not cur.x.is_zero():
        res = monomialize_first(cur)
        cur, trace = res.curve, trace.extend(res.trace)
    if cur.z.is_zero() and not cur.x.is_zero() and not cur.y.is_zero():
        while True:
            res = zariski_step(cur)
            cur, trace = res.curve, trace.extend(res.trace)
            if res.notes:
                if "not applicable" in res.notes[0]:
                    notes.extend(res.notes)
                break
    if not cur.is_constant() and well_parameterized(cur):
        sg = semigroup(cur, min(bound, cur.trunc))
        res = kill_semigroup_terms(cur, sg)
        cur, trace = res.curve, trace.extend(res.trace)
        notes.extend(res.notes)
    res = scale_normalize(cur)
    cur, trace = res.curve, trace.extend(res.trace)
    return cur, trace, tuple(notes)


def reduce_catalog(c: CurveGerm,
                   bound: int = DEFAULT_SEMIGROUP_BOUND) -> ReduceResult:
    """Drive a curve to its catalog normal form when its class is listed.

    The pipeline is scale, monomialize, short-parameterization steps (planar
    curves), semigroup-certified term removal, and a final scale; the result
    is matched exactly against the catalog for the curve's level-3 code.
    Multiplicity and semigroup are checked to survive the whole pipeline.
    """
    try:
        code = word_str(rvt_code(c, 3))
    except MTError as exc:
        return ReduceResult("outside-catalog", "", c, ReductionTrace(),
                            notes=(f"no level-3 code: {exc}",))
    before_mult = multiplicity(c)
    before_sg = semigroup(c, min(bound, c.trunc)).elements
    reduced, trace, notes = _pipeline(c, bound)
    after_bound = min(bound, reduced.trunc)
    if multiplicity(reduced) != before_mult or \
            semigroup(reduced, after_bound).elements != \
            tuple(e for e in before_sg if e <= after_bound):
        raise AssertionError("reduction pipeline failed to preserve invariants")
    if code in NORMAL_FORMS:
        for exponents, candidate in zip(NORMAL_FORMS[code],
                                        normal_form_curves(code, reduced.trunc)):
            if reduced.agrees_with(candidate):
                return ReduceResult("reduced", code, reduced, trace,
                                    normal_form=exponents, notes=notes)
    return ReduceResult("outside-catalog", code, reduced, trace, notes=notes)


# -- equivalence search --------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    phi: DiffeoJet
    tau: TruncSeries
    verified_through: int


@dataclass(frozen=True)
class Separation:
    invariant: str
    left: str
    right: str


@dataclass(frozen=True)
class EquivalenceResult:
    kind: str  # "equivalent", "separated", "unknown"
    certificate: Certificate | None = None
    separation: Separation | None = None
    notes: tuple[str, ...] = ()


def _compose_trace(trace: ReductionTrace, degree: int,
                   trunc: int) -> tuple[DiffeoJet, TruncSeries]:
    powers: list[list] = [[], [], []]
    phi = DiffeoJet.identity(degree)
    tau = TruncSeries.identity(trunc)
    for step in trace.steps:
        if isinstance(step, ReparamStep):
            tau = tau.compose(step.tau)
        else:
            polys = evaluate_polys(_jet_of(step).jet.polys,
                                   *on_polys(phi.jet.polys, degree),
                                   powers=powers)
            phi = DiffeoJet(jet_from_polys(polys, degree))
    return phi, tau


def apply_certificate(cert: Certificate, c: CurveGerm) -> CurveGerm:
    return cert.phi.apply_to_curve(c).reparametrize(cert.tau)


def equivalence_search(c1: CurveGerm, c2: CurveGerm,
                       bound: int = DEFAULT_SEMIGROUP_BOUND) -> EquivalenceResult:
    """Decide RL-equivalence within budget: separate by invariants, or
    normalize both curves and compose the traces into a certificate.

    The certificate pair (phi, tau) is verified by substitution before it is
    returned: phi o c1 o tau agrees with c2 through the reported order.
    """
    if bound < 1:
        raise DomainError("semigroup bound must be positive")
    for c in (c1, c2):
        if not well_parameterized(c):
            raise DomainError("equivalence search needs well-parameterized curves")
    if c1.agrees_with(c2):
        ident = Certificate(DiffeoJet.identity(),
                            TruncSeries.identity(min(c1.trunc, c2.trunc)),
                            min(c1.trunc, c2.trunc))
        return EquivalenceResult("equivalent", certificate=ident)
    sep = _separate(c1, c2, bound)
    if sep is not None:
        return EquivalenceResult("separated", separation=sep)
    r1, t1, n1 = _pipeline(c1, bound)
    r2, t2, n2 = _pipeline(c2, bound)
    if r1.agrees_with(r2):
        target = min(c1.trunc, c2.trunc)
        degree = target // max(multiplicity(c1), 1) + 1
        phi_a, tau_a = _compose_trace(t1, degree, c1.trunc)
        phi_b, tau_b = _compose_trace(t2, degree, c2.trunc)
        phi = phi_b.inverse(degree).compose(phi_a, degree)
        tau = tau_a.compose(tau_b.param_inverse())
        moved = phi.apply_to_curve(c1).reparametrize(tau)
        through = min(moved.trunc, c2.trunc)
        if not moved.agrees_with(c2, through):
            raise AssertionError("composed certificate failed verification")
        return EquivalenceResult(
            "equivalent",
            certificate=Certificate(phi, tau, through),
            notes=n1 + n2)
    return EquivalenceResult("unknown", notes=n1 + n2 + (
        "normal forms differ but no separating invariant was found",))


def _separate(c1: CurveGerm, c2: CurveGerm, bound: int) -> Separation | None:
    m1, m2 = multiplicity(c1), multiplicity(c2)
    if m1 != m2:
        return Separation("multiplicity", str(m1), str(m2))
    b = min(bound, c1.trunc, c2.trunc)
    s1, s2 = semigroup(c1, b).elements, semigroup(c2, b).elements
    if s1 != s2:
        return Separation(f"semigroup up to {b}", str(list(s1)), str(list(s2)))
    try:
        w1, w2 = rvt_code(c1, 3), rvt_code(c2, 3)
        if w1 != w2:
            return Separation("rvt code", word_str(w1), word_str(w2))
    except MTError:
        pass
    order = min(DEFAULT_PLANARITY_ORDER, c1.trunc, c2.trunc)
    v1 = planarity(c1, order_bound=order)
    v2 = planarity(c2, order_bound=order)
    if v1.kind != v2.kind and "undetermined" not in (v1.kind, v2.kind):
        return Separation("planarity", v1.kind, v2.kind)
    return None
