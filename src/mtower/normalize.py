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
                         Semigroup, multiplicity, planarity, poly_on_curve,
                         semigroup, well_parameterized)
from .jets import IntPoly, PolyJet3, jet_from_polys, monomials, poly_scaled_sum
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
        """Push the steps on one :class:`Reduction` of ``c``; the snapshots
        must be reproduced exactly up to the available truncation."""
        r = Reduction(c)
        for number, entry in enumerate(self.entries, 1):
            if not r.curve.agrees_with(entry.before):
                raise DomainError("trace replay diverged from its before-snapshot "
                                  f"at step {number} ({entry.step.kind})")
            r.push(entry.step)
            if not r.curve.agrees_with(entry.after):
                raise DomainError("trace replay diverged from its after-snapshot "
                                  f"at step {number} ({entry.step.kind})")
        return r.curve


class Reduction:
    """A curve under reduction: the current curve, the trace of the steps
    that led to it, the notes on what was left undone, and one table of
    monomial products (see :func:`series.evaluate_polys`) that every step and
    witness shares, so the components a step leaves in place keep their
    products. Each stage below extends a reduction in place, and
    :meth:`ReductionTrace.replay` pushes the recorded steps on a fresh one."""

    def __init__(self, start: CurveGerm):
        self.curve = start
        self.entries: list[TraceEntry] = []
        self.notes: list[str] = []
        self.products: dict = {}

    def push(self, step: Step) -> None:
        """Apply ``step`` to the current curve and record it."""
        before = self.curve
        if isinstance(step, ReparamStep):
            self.curve = before.reparametrize(step.tau)
        else:
            self.curve = before.map_jet(step.phi.jet, self.products)
        self.entries.append(TraceEntry(step, before, self.curve))

    @property
    def trace(self) -> ReductionTrace:
        return ReductionTrace(tuple(self.entries))


# -- individual reductions -----------------------------------------------------


def monomialize_first(r: Reduction) -> None:
    """Make the first component exactly t^m up to truncation.

    A diagonal scaling normalizes the leading coefficient, then the
    reparametrization by the inverse of t times the m-th root of the unit
    factor removes every higher term of the component at once.
    """
    x = r.curve.x
    if x.is_zero():
        raise DomainError("cannot monomialize a curve with zero first component")
    m = x.order()
    lead = x.coefficient(m)
    if lead != 1:
        r.push(ScaleStep((1 / lead, Fraction(1), Fraction(1))))
    unit = r.curve.x.shift(-m)
    if unit.numerators() != ({0: 1}, 1):
        root = unit.unit_root(m)
        s = TruncSeries.monomial(1, 1, root.trunc + 1) * root
        tau = s.param_inverse()
        r.push(ReparamStep(tau))


def _gap_exponents(y: TruncSeries, n: int, m: int) -> list[int]:
    """The exponents of y past m outside the semigroup generated by n and m."""
    members = {a * n + b * m for a, b, _ in monomials(y.trunc, (n, m, None))}
    return [d for d in y.numerators()[0] if d > m and d not in members]


def zariski_step(r: Reduction) -> bool:
    """One elimination step on a planar short parameterization.

    For x = t^n, y = t^m + b t^nu + ... with nu the smallest exponent
    outside the semigroup generated by n and m, the change x' = x + a y^j
    (a = bn/m, nu + n = (j+1)m) followed by re-monomialization pushes all
    gap terms of y past nu. Returns whether the step was made: a curve
    without gap terms is left as it is, and one where the step does not
    apply is left with a note saying why.
    """
    c = r.curve
    if not c.z.is_zero():
        raise DomainError("the short-parameterization step needs a planar curve (z = 0)")
    if c.x.is_zero() or c.y.is_zero():
        raise DomainError("the short-parameterization step needs nonzero x and y")
    n = c.x.order()
    m = c.y.order()
    if c.x.numerators() != ({n: 1}, 1) or c.y.coefficient(m) != 1:
        raise DomainError("monomialize and scale the curve before the "
                          "short-parameterization step")
    if not n < m:
        raise DomainError("expected ord(x) < ord(y) in the planar shape")
    gaps_present = _gap_exponents(c.y, n, m)
    if not gaps_present:
        return False
    nu = gaps_present[0]
    bcoef = c.y.coefficient(nu)
    if (nu + n) % m != 0 or (nu + n) // m < 2:
        r.notes.append(f"step not applicable: {nu}+{n} is outside the "
                       f"semigroup generated by {n} and {m}")
        return False
    j = (nu + n) // m - 1
    a = bcoef * n / m
    change = DiffeoJet(PolyJet3(
        [{(1, 0, 0): 1, (0, j, 0): a}, {(0, 1, 0): 1}, {(0, 0, 1): 1}],
        max(j, 1)))
    r.push(JetStep(change))
    monomialize_first(r)
    new_gaps = _gap_exponents(r.curve.y, n, m)
    if new_gaps and min(new_gaps) <= nu:
        raise AssertionError("short-parameterization step failed to advance")
    return True


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


def kill_semigroup_terms(r: Reduction, s: Semigroup) -> None:
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
    current_sg = s
    terms = [comp.numerators()[0] for comp in r.curve.components]
    leads = [min(t, default=None) for t in terms]
    left: list[tuple[int, int, str]] = []
    for d in range(1, max(comp.trunc for comp in r.curve.components) + 1):
        for idx in range(3):
            if d not in terms[idx] or d == leads[idx]:
                continue
            try:
                witness = current_sg.witness_for(d)
            except DomainError:
                left.append((idx, d, f"no certificate up to bound {bound}"))
                continue
            cur = r.curve
            # the semigroup itself is invariant under these moves; only the
            # witnesses can go stale as the curve changes
            composed = poly_on_curve(witness, cur, r.products)
            if composed.order() != d:
                current_sg = semigroup(cur, bound)
                witness = current_sg.witness_for(d)
                composed = poly_on_curve(witness, cur, r.products)
                if composed.order() != d:
                    raise AssertionError(f"fresh witness for {d} has the wrong order")
            scale = cur.components[idx].coefficient(d) / composed.coefficient(d)
            try:
                jet = _removal_jet(idx, witness, scale)
            except DomainError:
                left.append((idx, d, "its removal step would be singular"))
                continue
            r.push(JetStep(jet))
            terms = [comp.numerators()[0] for comp in r.curve.components]
    r.notes.extend(f"left t^{d} in component {idx + 1} ({why})"
                   for idx, d, why in sorted(left))


def _fraction_nth_root(q: Fraction, k: int) -> Fraction | None:
    """The rational k-th root of q > 0, or None when it is irrational."""
    def iroot(n: int) -> int:
        # floor(n ** (1/k)) for n >= 1: Newton's step from above decreases
        # until it reaches the floor
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        return r

    root = Fraction(iroot(q.numerator), iroot(q.denominator))
    return root if root ** k == q else None


def scale_normalize(r: Reduction) -> None:
    """Set leading coefficients to 1 by diagonal scaling, then normalize the
    square class of a two-term planar second component when possible.

    Only exact rational scalings are used: when the classical move would
    need an irrational factor the coefficient keeps its square class and the
    term is left for the semigroup machinery to remove.
    """
    factors = []
    for s in r.curve.components:
        o = s.order()
        factors.append(Fraction(1) if o is None else 1 / s.coefficient(o))
    if any(f != 1 for f in factors):
        r.push(ScaleStep((factors[0], factors[1], factors[2])))
    cur = r.curve
    if cur.z.is_zero() and not cur.x.is_zero() and not cur.y.is_zero():
        n, m = cur.x.order(), cur.y.order()
        ynum, yden = cur.y.numerators()
        if cur.x.numerators() == ({n: 1}, 1) and len(ynum) == 2 and ynum[m] == yden:
            p = max(ynum)
            beta = Fraction(ynum[p], yden)
            if abs(beta) != 1:
                lam = _fraction_nth_root(1 / abs(beta), p - m)
                if lam is not None:
                    r.push(ReparamStep(TruncSeries({1: lam}, cur.trunc)))
                    r.push(ScaleStep((lam ** -n, lam ** -m, Fraction(1))))


# -- the catalog pipeline ----------------------------------------------------


@dataclass(frozen=True)
class ReduceResult:
    status: str  # "reduced" or "outside-catalog"
    code: str
    curve: CurveGerm
    trace: ReductionTrace
    normal_form: tuple[int | None, int | None, int | None] | None = None
    notes: tuple[str, ...] = ()


def _pipeline(c: CurveGerm, bound: int) -> Reduction:
    r = Reduction(c)
    scale_normalize(r)
    if not r.curve.x.is_zero():
        monomialize_first(r)
    x, y, z = r.curve.components
    if z.is_zero() and not x.is_zero() and not y.is_zero() and x.order() < y.order():
        while zariski_step(r):
            pass
    cur = r.curve
    if not cur.is_constant() and well_parameterized(cur):
        kill_semigroup_terms(r, semigroup(cur, min(bound, cur.trunc)))
    scale_normalize(r)
    return r


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
    r = _pipeline(c, bound)
    reduced, notes = r.curve, tuple(r.notes)
    after_bound = min(bound, reduced.trunc)
    if multiplicity(reduced) != before_mult or \
            semigroup(reduced, after_bound).elements != \
            tuple(e for e in before_sg if e <= after_bound):
        raise AssertionError("reduction pipeline failed to preserve invariants")
    if code in NORMAL_FORMS:
        for exponents, candidate in zip(NORMAL_FORMS[code],
                                        normal_form_curves(code, reduced.trunc)):
            if reduced.agrees_with(candidate):
                return ReduceResult("reduced", code, reduced, r.trace,
                                    normal_form=exponents, notes=notes)
    return ReduceResult("outside-catalog", code, reduced, r.trace, notes=notes)


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


def _compose_trace(trace: ReductionTrace, degree: int, trunc: int,
                   outer: DiffeoJet | None = None) -> tuple[DiffeoJet, TruncSeries]:
    """``outer`` (of degree ``degree``; the identity by default) after the
    jet steps, folded from the outside so each step jet is the inner
    argument of a composition; and the reparametrizations in order."""
    phi = outer.jet if outer is not None else PolyJet3.identity(degree)
    tau = TruncSeries.identity(trunc)
    for step in trace.steps:
        if isinstance(step, ReparamStep):
            tau = tau.compose(step.tau)
    for step in reversed(trace.steps):
        if not isinstance(step, ReparamStep):
            phi = phi.compose(step.phi.jet, degree)
    return DiffeoJet(phi), tau


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
        through = min(c1.trunc, c2.trunc)
        return EquivalenceResult("equivalent", certificate=Certificate(
            DiffeoJet.identity(), TruncSeries.identity(through), through))
    sep = _separate(c1, c2, bound)
    if sep is not None:
        return EquivalenceResult("separated", separation=sep)
    r1, r2 = _pipeline(c1, bound), _pipeline(c2, bound)
    notes = tuple(r1.notes + r2.notes)
    if r1.curve.agrees_with(r2.curve):
        target = min(c1.trunc, c2.trunc)
        degree = target // max(multiplicity(c1), 1) + 1
        phi_b, tau_b = _compose_trace(r2.trace, degree, c2.trunc)
        phi, tau_a = _compose_trace(r1.trace, degree, c1.trunc,
                                    phi_b.inverse(degree))
        tau = tau_a.compose(tau_b.param_inverse())
        moved = phi.apply_to_curve(c1).reparametrize(tau)
        through = min(moved.trunc, c2.trunc)
        if not moved.agrees_with(c2, through):
            raise AssertionError("composed certificate failed verification")
        return EquivalenceResult(
            "equivalent",
            certificate=Certificate(phi, tau, through),
            notes=notes)
    return EquivalenceResult("unknown", notes=notes + (
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
