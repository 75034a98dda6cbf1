"""The three seeded workloads of the mtower benchmark.

Every workload draws its inputs from a finite pool. A pool member is built
from its own name, never from the run's seed, so the output of each member at
the seed commit is recorded once as a sha256 digest in
``expected/<workload>.json``; the run's seed only chooses which variant each
block of a round uses. Items are the public calls a user makes (or, for
``normalize``, whole ``mt`` invocations). A round is a list of blocks, one per
catalog curve or tower point, each mixing cheap and heavy items, so any
prefix of a round is a representative sample of the workload.

Inputs are built with the benchmark's own samplers from the basic
constructors, so a change to the engine's sampling helpers cannot move them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from mtower import census, cli, diffeo, formats, invariants, tower
from mtower.catalog import NORMAL_FORMS
from mtower.curves import CurveGerm, curve_to_obj, monomial_curve
from mtower.diffeo import DiffeoJet
from mtower.jets import PolyJet3
from mtower.series import TruncSeries, format_rational

#: The distinct catalog normal forms, in catalog order.
CATALOG = tuple(dict.fromkeys(e for forms in NORMAL_FORMS.values() for e in forms))

_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_QUADRATIC = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def _oracle():
    """The sympy checks, imported only when one runs, after the measurement."""
    import oracle
    return oracle


def exp_name(e) -> str:
    return ",".join("-" if x is None else str(x) for x in e)


def canonical(obj) -> str:
    """The engine's output form: sorted keys, indent 2, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


@dataclass
class Item:
    """One public call. ``to_obj`` gives the canonical output that is digested,
    ``after`` is harness work done outside the item's latency (writing a trace
    file a later item reads), ``oracle`` an independent check of the output."""

    key: str
    call: Callable[[], object]
    to_obj: Callable[[object], object]
    after: Callable[[object], None] | None = None
    oracle: Callable[[object], None] | None = None
    only_if: str | None = None  # key of an item that must return True first


class Workload:
    name = ""
    variants = 1
    #: Tail percentile: the highest whole percentile with ten items beyond it
    #: in two rounds, the least a run makes. It is fixed, so that a faster
    #: engine running more rounds still reports the same quantile.
    tail_pct: int

    def __init__(self, seed: int, work_dir: Path, expected: dict[str, str]):
        self.work_dir = work_dir
        self.expected = expected
        self.order = random.Random(f"{self.name}/{seed}").sample(
            range(self.variants), self.variants)
        self.trace_bytes: list[int] = []

    def variant(self, r: int, block: int = 0) -> int:
        """Variant used by a block of round ``r``: every round spreads the
        variants over its blocks, so runs differ in inputs, not in mix."""
        return self.order[(r + block) % self.variants]

    def blocks(self, r: int) -> list[list[Item]]:
        raise NotImplementedError

    def round(self, r: int) -> list[Item]:
        return [item for block in self.blocks(r) for item in block]

    def traced_items(self) -> list[Item]:
        """The fixed list the traced run measures: every other block of round 0."""
        return [item for block in self.blocks(0)[::2] for item in block]

    def warmup(self) -> list[Item]:
        raise NotImplementedError

    def smoke_items(self) -> list[Item]:
        raise NotImplementedError

    def pool(self) -> Iterator[Item]:
        """Every pool member, for recording the digests."""
        raise NotImplementedError

    def probe(self) -> tuple[Item, float] | None:
        """An item run untimed under a deadline (seconds), or None."""
        return None


# -- invariants ----------------------------------------------------------------


def signed_jet(rng: random.Random, constraints=()) -> DiffeoJet:
    """Degree-2 jet: every linear term and two quadratic terms per component,
    coefficients +-1 with seeded signs, the ``constraints`` (component,
    monomial) removed; signs are redrawn until the linear part is invertible.
    Only the signs vary, so the cost of the work a jet causes depends little
    on the seed."""
    while True:
        comps = []
        for i in range(3):
            comps.append({m: rng.choice((-1, 1))
                          for m in _AXES + (_QUADRATIC[i], _QUADRATIC[i + 3])})
        for component, mono in constraints:
            comps[component - 1].pop(mono, None)
        jet = PolyJet3(comps, 2)
        if jet.linear_det() != 0:
            return DiffeoJet(jet)


def _level4_points(trunc: int):
    points = dict(zip(("q10", "q11"), census.rvvv_points(trunc)))
    for e in CATALOG:
        p = tower.prolong_curve(monomial_curve(*e, trunc=trunc), 4).point
        if p not in points.values():
            points[f"{exp_name(e)}@4"] = p
    return points


class Invariants(Workload):
    """rvt_code, semigroup and planarity on sparse and moved catalog curves,
    semigroups of realized level-4 points, and the level 1-4 census."""

    name = "invariants"
    variants = 8
    tail_pct = 91
    TRUNC = 40
    BOUND = 16
    REALIZED_BOUND = 23
    PLANARITY = (7, 40)

    def __init__(self, seed, work_dir, expected):
        super().__init__(seed, work_dir, expected)
        self.sparse = {e: monomial_curve(*e, trunc=self.TRUNC) for e in CATALOG}
        self.realized = {name: tower.realize_point(p, self.TRUNC)
                         for name, p in _level4_points(self.TRUNC).items()}
        self.moved = {}
        for v in range(self.variants):
            for e in CATALOG:
                rng = random.Random(f"invariants/moved/{v}/{exp_name(e)}")
                phi = signed_jet(rng)
                tau = TruncSeries({1: 1, 2: rng.choice((-1, 1))}, self.TRUNC)
                self.moved[v, e] = phi.apply_to_curve(self.sparse[e]).reparametrize(tau)

    def _curve_items(self, prefix: str, c: CurveGerm) -> list[Item]:
        degree, order = self.PLANARITY
        return [
            Item(f"{prefix}/rvt3", lambda: tower.rvt_code(c, 3),
                 lambda w: {"code": "".join(w)}),
            Item(f"{prefix}/semigroup{self.BOUND}",
                 lambda: invariants.semigroup(c, self.BOUND),
                 formats.semigroup_to_obj,
                 oracle=lambda s: _oracle().check_semigroup(
                     curve_to_obj(c), formats.semigroup_to_obj(s))),
            Item(f"{prefix}/planarity{degree},{order}",
                 lambda: invariants.planarity(c, degree, order),
                 formats.planarity_to_obj,
                 oracle=lambda v: _oracle().check_planarity(
                     curve_to_obj(c), formats.planarity_to_obj(v))),
        ]

    def _realized_item(self, name: str) -> Item:
        c = self.realized[name]
        return Item(f"realized/{name}/semigroup{self.REALIZED_BOUND}",
                    lambda: invariants.semigroup(c, self.REALIZED_BOUND),
                    formats.semigroup_to_obj,
                    oracle=lambda s: _oracle().check_semigroup(
                        curve_to_obj(c), formats.semigroup_to_obj(s)))

    @staticmethod
    def _census_item(level: int) -> Item:
        return Item(f"census/{level}", lambda: census.orbit_census(level),
                    formats.census_to_obj)

    def blocks(self, r):
        extras = [self._realized_item(n) for n in self.realized] + \
            [self._census_item(level) for level in (1, 2, 3, 4)]
        blocks = []
        for i, e in enumerate(CATALOG):
            en = exp_name(e)
            v = self.variant(r, i)
            block = self._curve_items(f"sparse/{en}", self.sparse[e]) + \
                self._curve_items(f"moved/v{v}/{en}", self.moved[v, e])
            block += extras[i::len(CATALOG)]
            blocks.append(block)
        return blocks

    def warmup(self):
        return self._curve_items("sparse/2,3,-", self.sparse[(2, 3, None)])

    def smoke_items(self):
        v = self.variant(0)
        return (self._curve_items("sparse/2,3,-", self.sparse[(2, 3, None)])
                + self._curve_items("sparse/3,5,7", self.sparse[(3, 5, 7)])
                + self._curve_items(f"moved/v{v}/3,5,7", self.moved[v, (3, 5, 7)])[:1]
                + [self._realized_item("q10"), self._census_item(1),
                   self._census_item(2)])

    def pool(self):
        seen = set()
        for r in range(self.variants):
            for item in self.round(r):
                if item.key not in seen:
                    seen.add(item.key)
                    yield item


# -- action --------------------------------------------------------------------

#: Taylor coefficients cutting out the isotropy groups G1-G3 along the chain
#: of representative points (component, monomial).
_STAGES = {
    None: (),
    "G1": ((2, (1, 0, 0)), (3, (1, 0, 0))),
    "G2": ((2, (1, 0, 0)), (3, (1, 0, 0)), (3, (0, 1, 0))),
    "G3": ((2, (1, 0, 0)), (3, (1, 0, 0)), (3, (0, 1, 0)), (3, (2, 0, 0))),
}


class Action(Workload):
    """prolong_apply, isotropy_check and fiber_action at trunc 64 on seeded
    (jet, point) pairs over level 2-4 points, with and without the G1-G3
    isotropy constraints."""

    name = "action"
    variants = 4
    tail_pct = 97
    TRUNC = 64
    DIRECTIONS = ((1, 0), (0, 1), (1, 1))

    def __init__(self, seed, work_dir, expected):
        super().__init__(seed, work_dir, expected)
        p3 = census.rvv_point(self.TRUNC)
        q10, q11 = census.rvvv_points(self.TRUNC)
        by_level: dict[int, dict[str, object]] = {
            2: {"p2": tower.project_point(p3, 2)}, 3: {"p3": p3},
            4: {"q10": q10, "q11": q11}}
        for level in (2, 3, 4):
            for e in CATALOG:
                p = tower.prolong_curve(monomial_curve(*e, trunc=self.TRUNC), level).point
                if p not in by_level[level].values():
                    by_level[level][f"{exp_name(e)}@{level}"] = p
        # interleave the levels so that every prefix mixes cheap and heavy points
        columns = [list(by_level[level].items()) for level in (2, 3, 4)]
        self.points = [pair for row in itertools.zip_longest(*columns)
                       for pair in row if pair is not None]
        self.jets = {(pname, stage, v): signed_jet(
                         random.Random(f"action/{pname}/{stage}/{v}"), _STAGES[stage])
                     for pname, _ in self.points for stage in _STAGES
                     for v in range(self.variants)}
        # fiber_action needs a jet fixing the point; it runs on the pairs whose
        # jets fix the point in every variant, so each round has the same mix
        self.fixing = {(pname, stage) for pname, _ in self.points for stage in _STAGES
                       if all(f"{pname}/{stage or 'free'}/v{v}/fiber" in expected
                              for v in range(self.variants))}

    def _pair_items(self, pname: str, p, stage: str | None, v: int,
                    recording: bool = False) -> list[Item]:
        phi = self.jets[pname, stage, v]
        prefix = f"{pname}/{stage or 'free'}/v{v}"
        items = [
            Item(f"{prefix}/apply", lambda: diffeo.prolong_apply(phi, p, self.TRUNC),
                 lambda q: {"point": formats.point_to_obj(q)}),
            Item(f"{prefix}/isotropy",
                 lambda: diffeo.isotropy_check(phi, p, self.TRUNC),
                 lambda fixed: {"fixed": fixed}),
        ]
        fiber_key = f"{prefix}/fiber"
        if recording or (pname, stage) in self.fixing:
            items.append(Item(
                fiber_key,
                lambda: diffeo.fiber_action(phi, p, self.DIRECTIONS, self.TRUNC),
                lambda images: {"images": [[format_rational(a), format_rational(b)]
                                           for a, b in images]},
                only_if=f"{prefix}/isotropy"))
        return items

    def blocks(self, r, recording: bool = False):
        return [[item for stage in _STAGES
                 for item in self._pair_items(pname, p, stage, self.variant(r, i),
                                              recording)]
                for i, (pname, p) in enumerate(self.points)]

    def warmup(self):
        pname, p = self.points[0]
        return self._pair_items(pname, p, None, self.variant(0))

    def smoke_items(self):
        pname, p = self.points[0]
        return (self._pair_items(pname, p, None, self.variant(0))
                + self._pair_items(pname, p, "G2", self.variant(0)))

    def pool(self):
        for r in range(self.variants):
            for block in self.blocks(r, recording=True):
                yield from block


# -- normalize -----------------------------------------------------------------


def _perturbed(e, trunc: int, rng: random.Random) -> CurveGerm:
    """The catalog curve with the next-degree term, of seeded sign, added to
    each component, as in (t^3 + t^4, t^5, t^7)."""
    comps = []
    for x in e:
        table = {} if x is None else {x: 1, x + 1: rng.choice((-1, 1))}
        comps.append(TruncSeries(table, trunc))
    return CurveGerm(*comps)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``mt`` invocation with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_obj(result) -> dict:
    code, out = result
    return {"exit": code, "stdout": out}


class Normalize(Workload):
    """``mt reduce`` then ``mt replay`` of the emitted trace, and ``mt equiv``
    on equivalent and on separated pairs, all through ``cli.main``."""

    name = "normalize"
    variants = 4
    tail_pct = 82
    REDUCE_TRUNCS = (24, 32, 48)
    EQUIV_TRUNCS = (16, 20, 24)
    SEPARATED = (((3, 4, 5), (3, 5, 7)), ((3, 4, None), (3, 5, None)),
                 ((2, 3, None), (2, 5, None)), ((3, 5, 7), (3, 5, None)))
    SEPARATED_TRUNC = 24
    PROBE_DEADLINE_S = 10.0

    def __init__(self, seed, work_dir, expected):
        super().__init__(seed, work_dir, expected)
        self.curves: dict[str, dict] = {}
        for _ in self.pool():  # writes every input file before timing starts
            pass

    def _file(self, name: str, c: CurveGerm) -> str:
        """Path of the curve file ``name``, written on first use."""
        path = self.work_dir / f"{name}.json"
        if name not in self.curves:
            self.curves[name] = curve_to_obj(c)
            path.write_text(canonical(self.curves[name]), encoding="utf-8")
        return str(path)

    def _perturbed_file(self, e, trunc: int, v: int) -> tuple[str, str]:
        name = f"{exp_name(e)}_t{trunc}_v{v}"
        rng = random.Random(f"normalize/{exp_name(e)}/{trunc}/{v}")
        return name, self._file(name, _perturbed(e, trunc, rng))

    def _reduce_items(self, e, trunc: int, v: int) -> list[Item]:
        name, path = self._perturbed_file(e, trunc, v)
        trace_path = self.work_dir / f"trace_{name}.json"
        key = f"{exp_name(e)}/t{trunc}/v{v}"

        def store_trace(result):
            text = canonical(json.loads(result[1])["trace"])
            trace_path.write_text(text, encoding="utf-8")
            self.trace_bytes.append(len(text.encode("utf-8")))

        return [
            Item(f"reduce/{key}", lambda: run_cli(["reduce", "--curve", path]),
                 _cli_obj, after=store_trace),
            Item(f"replay/{key}",
                 lambda: run_cli(["replay", "--trace", str(trace_path),
                                  "--curve", path]), _cli_obj),
        ]

    def _equiv_item(self, key: str, left: str, right: str) -> Item:
        def check(result):
            out = json.loads(result[1])
            if out["kind"] == "equivalent":
                _oracle().check_certificate(self.curves[left], self.curves[right],
                                         out["certificate"])
        lpath = str(self.work_dir / f"{left}.json")
        rpath = str(self.work_dir / f"{right}.json")
        return Item(key, lambda: run_cli(["equiv", "--left", lpath, "--right", rpath]),
                    _cli_obj, oracle=check)

    def _equivalent_item(self, e, trunc: int, v: int) -> Item:
        left, _ = self._perturbed_file(e, trunc, v)
        right = f"{exp_name(e)}_t{trunc}_monomial"
        self._file(right, monomial_curve(*e, trunc=trunc))
        return self._equiv_item(f"equiv/{exp_name(e)}/t{trunc}/v{v}", left, right)

    def _separated_item(self, j: int, v: int) -> Item:
        a, b = self.SEPARATED[j]
        left, _ = self._perturbed_file(a, self.SEPARATED_TRUNC, v)
        right, _ = self._perturbed_file(b, self.SEPARATED_TRUNC, v)
        return self._equiv_item(f"separate/{exp_name(a)}~{exp_name(b)}/v{v}",
                                left, right)

    def blocks(self, r):
        blocks = []
        for i, e in enumerate(CATALOG):
            v = self.variant(r, i)
            k = (i + r) % 3
            block = self._reduce_items(e, self.REDUCE_TRUNCS[k], v)
            block.append(self._equivalent_item(e, self.EQUIV_TRUNCS[k], v))
            if i < len(self.SEPARATED):
                block.append(self._separated_item(i, v))
            blocks.append(block)
        return blocks

    def warmup(self):
        return self._reduce_items((2, 3, None), 24, self.variant(0))

    def smoke_items(self):
        v = self.variant(0)
        return (self._reduce_items((2, 3, None), 24, v)
                + [self._equivalent_item((2, 3, None), 16, v),
                   self._separated_item(2, v)])

    def pool(self):
        for v in range(self.variants):
            for e in CATALOG:
                for trunc in self.REDUCE_TRUNCS:
                    yield from self._reduce_items(e, trunc, v)
                for trunc in self.EQUIV_TRUNCS:
                    yield self._equivalent_item(e, trunc, v)
            for j in range(len(self.SEPARATED)):
                yield self._separated_item(j, v)

    def probe(self):
        """``mt equiv`` on the README pair (t^3+t^4, t^5, t^7) ~ (t^3, t^5, t^7)
        at the default trunc 64. It does not finish at the seed commit; the
        deadline is the ten-second target set for it."""
        left = CurveGerm(TruncSeries({3: 1, 4: 1}, 64), TruncSeries({5: 1}, 64),
                         TruncSeries({7: 1}, 64))
        lpath = self._file("readme_left_t64", left)
        rpath = self._file("readme_right_t64", monomial_curve(3, 5, 7, trunc=64))
        return (Item("probe/readme-equiv/t64",
                     lambda: run_cli(["equiv", "--left", lpath, "--right", rpath]),
                     _cli_obj), self.PROBE_DEADLINE_S)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Invariants, Action, Normalize)}
