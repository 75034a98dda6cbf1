"""Benchmark outputs against the digests the benchmark recorded.

Every pool member of variant 0 of the ``normalize`` workload
(``mtbench/workloads.py``) whose truncation is at most 24 runs here: ``mt
reduce`` and ``mt replay`` at 24, ``mt equiv`` at 16, 20 and 24, and the four
separated pairs. Of the ``invariants`` workload, every semigroup item of all
variants runs, and the sparse and variant-0 planarity and RVT items and the
census. The sha256 of each output must equal the one in
``mtbench/expected/<workload>.json``. Input files and traces are written to a
temporary directory; nothing under ``mtbench/`` changes.
"""

import json
import re
from pathlib import Path

MTBENCH = Path(__file__).resolve().parent.parent / "mtbench"
MAX_TRUNC = 24


def test_normalize_digests_through_trunc_24(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(MTBENCH))
    import workloads

    expected = json.loads((MTBENCH / "expected" / "normalize.json").read_text())
    wl = workloads.Normalize(0, tmp_path, expected)

    def trunc(key: str) -> int:
        if key.startswith("separate/"):
            return wl.SEPARATED_TRUNC
        return int(re.search(r"/t([0-9]+)/", key).group(1))

    # pool order runs each reduce before the replay of its trace
    items = [item for item in wl.pool()
             if item.key.endswith("/v0") and trunc(item.key) <= MAX_TRUNC]
    assert len(items) == 44
    wrong = []
    for item in items:
        result = item.call()
        if item.after is not None:
            item.after(result)
        if workloads.digest(item.to_obj(result)) != expected[item.key]:
            wrong.append(item.key)
    assert wrong == []


def test_invariants_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(MTBENCH))
    import workloads

    expected = json.loads((MTBENCH / "expected" / "invariants.json").read_text())
    wl = workloads.Invariants(0, tmp_path, expected)
    items = [item for item in wl.pool()
             if "/semigroup" in item.key
             or item.key.startswith(("sparse/", "moved/v0/", "census/"))]
    assert len(items) == 118
    wrong = [item.key for item in items
             if workloads.digest(item.to_obj(item.call())) != expected[item.key]]
    assert wrong == []
