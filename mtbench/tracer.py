"""Run-time span wrappers around the public functions of each mtower layer.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces the listed
functions and methods with wrappers, both where they are defined and
wherever another mtower module (or the package namespace) imported them, and
:meth:`Tracer.uninstall` puts the originals back.

A span is recorded only while an item is running (``Tracer.item`` is set),
so the harness's own digesting and file writing stay outside the trace.
Spans live in flat arrays in memory: name, parent span, item id, start, end
and the time the tracer itself spent observing direct children, which is
charged to nobody. Self time is a span's duration minus the durations of
its direct children and that observation time.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

#: Wrapped functions per layer; the layer is the mtower module name.
FUNCTIONS: dict[str, tuple[str, ...]] = {
    "series": ("mul", "compose", "reciprocal", "divide", "param_inverse",
               "unit_root"),
    "jets": ("compose", "inverse", "substitute"),
    "curves": ("map_jet", "reparametrize"),
    "tower": ("prolong_curve", "rvt_code", "realize_point"),
    "diffeo": ("prolong_apply", "isotropy_check", "fiber_action"),
    "invariants": ("semigroup", "planarity", "poly_on_curve"),
    "normalize": ("reduce_catalog", "equivalence_search", "replay"),
    "census": ("orbit_census",),
    "formats": ("dumps", "trace_from_obj"),
    "cli": ("main",),
}

#: Classes whose methods are wrapped; everything else is a module function.
_CLASSES = {"series": "TruncSeries", "jets": "PolyJet3", "curves": "CurveGerm",
            "normalize.replay": "ReductionTrace"}

ERROR_LAYERS = ("series", "tower", "diffeo", "invariants", "normalize")
ERROR_CLASSES = ("InsufficientTruncation", "DomainError")

_SERIES_RESULTS = frozenset(f"series.{f}" for f in FUNCTIONS["series"])


def _owner_and_attr(layer: str, func: str) -> tuple[object, str]:
    module = sys.modules[f"mtower.{layer}"]
    cls = _CLASSES.get(f"{layer}.{func}", _CLASSES.get(layer))
    if cls is None:
        return module, func
    return getattr(module, cls), "__mul__" if func == "mul" else func


def _coeff_bits(series) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in series.terms()), default=0)


class Tracer:
    """Span recorder plus the counters computed from operands and results."""

    def __init__(self):
        self.names: list[str] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._name = array("i")
        self._parent = array("q")
        self._item = array("q")
        self._start = array("d")
        self._end = array("d")
        self._excluded = array("d")
        self.errors: dict[str, int] = {}
        self.term_pairs = 0
        self.mul_trunc_sum = 0
        self.max_coeff_bits = 0
        self.semigroup_elements = 0
        self.trace_steps = 0
        self.bytes_out = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in all mtower namespaces."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "mtower" or n.startswith("mtower.")]
        for layer, funcs in FUNCTIONS.items():
            for func in funcs:
                owner, attr = _owner_and_attr(layer, func)
                original = vars(owner)[attr]
                wrapper = self._wrap(f"{layer}.{func}", layer, original)
                self._patch(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is original and ns is not owner:
                                self._patch(ns, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = self._observer(name)
        stack = self._stack
        names, parents, items = self._name, self._parent, self._item
        starts, ends, excluded = self._start, self._end, self._excluded
        layer_names = self.names

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            sid = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            items.append(self.item)
            excluded.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter()
                stack.pop()
                # count once per layer: where the exception leaves the layer
                if parent < 0 or not layer_names[names[parent]].startswith(layer + "."):
                    key = f"{layer}.errors.{type(exc).__name__}"
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            ends[sid] = perf_counter()
            stack.pop()
            if observe is not None:
                t0 = perf_counter()
                observe(args, result)
                if parent >= 0:
                    excluded[parent] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters computed from operands and results -------------------------

    def _observer(self, name: str):
        if name == "series.mul":
            def observe(args, result):
                if result is NotImplemented:
                    return
                a, b = args
                self.term_pairs += len(a.coeffs) * len(b.coeffs)
                self.mul_trunc_sum += result.trunc
                self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))
            return observe
        if name in _SERIES_RESULTS:
            def observe(args, result):
                if result is not NotImplemented:
                    self.max_coeff_bits = max(self.max_coeff_bits,
                                              _coeff_bits(result))
            return observe
        if name == "invariants.semigroup":
            def observe(args, result):
                self.semigroup_elements += len(result.elements)
            return observe
        if name == "normalize.reduce_catalog":
            def observe(args, result):
                self.trace_steps += len(result.trace)
            return observe
        if name == "formats.dumps":
            def observe(args, result):
                self.bytes_out += len(result.encode("utf-8"))
            return observe
        return None

    # -- results ----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self._start)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times from the recorded spans."""
        n = len(self._start)
        child = [0.0] * n
        semigroup_id = self.names.index("invariants.semigroup")
        poly_id = self.names.index("invariants.poly_on_curve")
        poly_in_semigroup = 0
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
                if self._name[i] == poly_id and self._name[p] == semigroup_id:
                    poly_in_semigroup += 1
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self._name[i]
            calls[nid] += 1
            self_s[nid] += (self._end[i] - self._start[i]) - child[i] - self._excluded[i]
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in FUNCTIONS}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            layer_self[name.split(".")[0]] += self_s[nid]
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        muls = calls[self.names.index("series.mul")]
        out["series.mul.term_pairs"] = self.term_pairs
        out["series.mul.mean_trunc"] = self.mul_trunc_sum / muls if muls else 0.0
        out["series.max_coeff_bits"] = self.max_coeff_bits
        out["invariants.semigroup.useful_ratio"] = (
            self.semigroup_elements / poly_in_semigroup if poly_in_semigroup else 0.0)
        out["normalize.trace_steps"] = self.trace_steps
        out["formats.bytes_out"] = self.bytes_out
        for layer in ERROR_LAYERS:
            for cls in ERROR_CLASSES:
                key = f"{layer}.errors.{cls}"
                out[key] = self.errors.get(key, 0)
        return out

    def write(self, path) -> None:
        """All spans, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\texcluded_s\n")
            for i in range(len(self._start)):
                fh.write(f"{i}\t{self._parent[i]}\t{self._item[i]}\t"
                         f"{self.names[self._name[i]]}\t{self._start[i]:.9f}\t"
                         f"{self._end[i]:.9f}\t{self._excluded[i]:.9f}\n")
