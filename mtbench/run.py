#!/usr/bin/env python3
"""The mtower benchmark: three seeded closed-loop workloads.

Run from the repository root::

    python3 mtbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0
    python3 mtbench/run.py --workload all --seed 1 --seconds 20   # one row each
    python3 mtbench/run.py --smoke                # tiny sizes, checks everything
    python3 mtbench/run.py --record normalize     # re-record expected digests

One process, one client, closed loop: an item starts only when the previous
one has returned, and no threads are started. The engine is imported from
``src/`` of the checkout the script sits in, the way a user imports it.

``--trace 0`` runs whole rounds of the workload, at least two and until
``--seconds`` have passed, and reports the end-to-end metrics. ``--trace 1`` runs a fixed item list (every other block
of round 0) once plainly and once with span wrappers installed, and reports
the per-layer metrics; its counts depend only on the seed. Every output is
compared with the digest recorded at the seed commit, and a seeded sample is
re-checked independently with sympy; the last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
NAMES = ("invariants", "action", "normalize")

#: Whole rounds a run measures at least; the tail percentiles are chosen to
#: have ten items beyond them in this many rounds.
ROUNDS = 2
#: Set-ups measured per run (this process plus fresh child processes).
SETUP_REPEATS = 3
#: Items per run re-checked with sympy.
ORACLE_SAMPLE = 3


@dataclass
class Record:
    item: object
    result: object
    error: BaseException | None
    latency: float


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM inside an item that overran its deadline."""


def fail(message: str) -> None:
    print(f"mtbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup(name: str, seed: int, work_dir: Path, recording: bool = False):
    """Import the engine, build the seeded inputs, warm up; returns the
    workload and the seconds it took."""
    start = time.perf_counter()
    if not (SRC / "mtower" / "__init__.py").is_file():
        fail(f"no engine sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import mtower
    if Path(mtower.__file__).resolve().parent != SRC / "mtower":
        fail(f"imported mtower from {mtower.__file__}, not from {SRC}")
    import workloads
    path = EXPECTED / f"{name}.json"
    if recording:
        expected = {}
    elif path.is_file():
        expected = json.loads(path.read_text(encoding="utf-8"))
    else:
        fail(f"no recorded digests at {path}")
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, work_dir, expected)
    for item in wl.warmup():
        run_one(item)
    return wl, time.perf_counter() - start


def run_one(item, tracer=None, item_id: int = 0) -> Record:
    if tracer is not None:
        tracer.item = item_id
    start = time.perf_counter()
    try:
        result, error = item.call(), None
    except Exception as exc:  # a raising item is a failed item, not a crash
        result, error = None, exc
    finally:
        if tracer is not None:
            tracer.item = None
    latency = time.perf_counter() - start
    if error is None and item.after is not None:
        try:
            item.after(result)
        except Exception as exc:  # e.g. an error object where a trace was due
            error = exc
    return Record(item, result, error, latency)


def timed_loop(wl, seconds: float) -> tuple[list[Record], float]:
    """Whole rounds, at least ``ROUNDS`` and until ``seconds`` have passed,
    so every run measures the same mix of items."""
    records: list[Record] = []
    gc.collect()
    start = time.perf_counter()
    r = 0
    while True:
        records += [run_one(item) for item in wl.round(r)]
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and r >= ROUNDS:
            return records, elapsed


def check(records: list[Record], expected: dict[str, str]) -> list[str]:
    """One line per failed record: it raised, or its output digest differs
    from the one recorded at the seed commit."""
    from workloads import digest
    problems = []
    for rec in records:
        key = rec.item.key
        if rec.error is not None:
            problems.append(f"{key}: raised {type(rec.error).__name__}: {rec.error}")
        elif expected.get(key) != digest(rec.item.to_obj(rec.result)):
            problems.append(f"{key}: output digest differs from the recorded one")
    return problems


def oracle_sample(records: list[Record], seed: int, k: int) -> tuple[int, list[str]]:
    """Independent sympy checks on a seeded sample of completed items."""
    candidates = {rec.item.key: rec for rec in records
                  if rec.error is None and rec.item.oracle is not None}
    keys = sorted(candidates)
    chosen = random.Random(f"oracle/{seed}").sample(keys, min(k, len(keys)))
    problems = []
    for key in chosen:
        rec = candidates[key]
        try:
            rec.item.oracle(rec.result)
        except Exception as exc:  # a malformed output fails its check too
            problems.append(f"{key}: independent check failed: "
                            f"{type(exc).__name__}: {exc}")
    return len(chosen), problems


def tail_rank(n: int, pct: int) -> int:
    """1-based nearest rank of the percentile."""
    return max(1, math.ceil(pct / 100 * n))


def end_to_end(records, wall: float, setups: list[float], tail_pct: int,
               failed: int) -> dict[str, tuple[float, str]]:
    latencies = sorted(rec.latency for rec in records)
    n = len(latencies)
    return {
        "items_per_s": ((n - failed) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (latencies[tail_rank(n, tail_pct) - 1] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def child_setups(name: str, seed: int, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_with_deadline(item, seconds: float) -> bool:
    """Run an item untimed under a wall-clock deadline; True when it missed."""
    def on_alarm(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            run_one(item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return True
    finally:
        signal.signal(signal.SIGALRM, previous)
    return False


def traced_pass(wl, items):
    """Run items with span wrappers installed; returns records, wall, tracer."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        start = time.perf_counter()
        records = [run_one(item, tracer, i) for i, item in enumerate(items)]
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return records, wall, tracer


def plain_pass(items) -> tuple[list[Record], float]:
    gc.collect()
    start = time.perf_counter()
    records = [run_one(item) for item in items]
    return records, time.perf_counter() - start


def per_layer(tracer, wl, plain_wall: float, traced_wall: float,
              deadline_misses: int) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for key, value in tracer.metrics().items():
        if key.endswith("self_s"):
            unit = "s"
        elif key == "series.mul.mean_trunc":
            unit = "degree"
        elif key == "series.max_coeff_bits":
            unit = "bits"
        elif key == "invariants.semigroup.useful_ratio":
            unit = "ratio"
        elif key == "formats.bytes_out":
            unit = "bytes"
        else:
            unit = "count"
        out[key] = (value, unit)
    sizes = wl.trace_bytes
    out["trace_kb"] = (sum(sizes) / len(sizes) / 1000 if sizes else 0.0, "kB")
    out["normalize.deadline_misses"] = (deadline_misses, "count")
    out["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return out


def is_count(metric: str) -> bool:
    return not metric.endswith("self_s") and metric != "trace.overhead_ratio"


def same_outputs(a: list[Record], b: list[Record]) -> list[str]:
    from workloads import digest
    return [ra.item.key + ": traced and untraced outputs differ"
            for ra, rb in zip(a, b)
            if ra.error is None and rb.error is None
            and digest(ra.item.to_obj(ra.result)) != digest(rb.item.to_obj(rb.result))]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def report_problems(problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"mtbench: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"mtbench: ... {len(problems) - 20} more", file=sys.stderr)


# -- modes -------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, work_dir: Path) -> None:
    wl, own_setup = setup(name, seed, work_dir)
    records, wall = timed_loop(wl, seconds)
    problems = check(records, wl.expected)
    failed = len(problems)
    setups = [own_setup] + child_setups(name, seed, SETUP_REPEATS - 1)
    # before the sympy checks, whose import would count in peak_rss_mb
    metrics = end_to_end(records, wall, setups, wl.tail_pct, failed)
    checked, oracle_problems = oracle_sample(records, seed, ORACLE_SAMPLE)
    n = len(records)
    rank = tail_rank(n, wl.tail_pct)
    sizes = wl.trace_bytes
    print(f"{name}: {n} items in {wall:.2f} s, p{wl.tail_pct} tail has "
          f"{n - rank} items beyond it; failed_share {failed / n:.4f} "
          f"({failed}/{n}); trace_kb "
          + (f"{sum(sizes) / len(sizes) / 1000:.1f}" if sizes else "-")
          + f"; {checked} outputs re-checked with sympy")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:12.4f} {unit}")
    report_problems(problems + oracle_problems)
    print(result_line(not problems and not oracle_problems, n, failed, metrics))


def trace_run(name: str, seed: int, work_dir: Path) -> None:
    wl, _ = setup(name, seed, work_dir)
    items = wl.traced_items()
    plain, plain_wall = plain_pass(items)
    wl.trace_bytes.clear()
    traced, traced_wall, tracer = traced_pass(wl, items)
    problems = check(plain, wl.expected) + check(traced, wl.expected) \
        + same_outputs(plain, traced)
    misses = 0
    probe = wl.probe()
    if probe is not None:
        misses = int(run_with_deadline(*probe))
    metrics = per_layer(tracer, wl, plain_wall, traced_wall, misses)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    failed = sum(rec.error is not None for rec in traced)
    print(f"{name}: traced {len(items)} items, {tracer.span_count()} spans "
          f"written to {spans_path.relative_to(ROOT)}; overhead "
          f"{traced_wall:.2f} s / {plain_wall:.2f} s")
    if probe is not None:
        print(f"  deadline probe {probe[0].key}: "
              + ("missed" if misses else "met") + f" {probe[1]:.0f} s deadline")
    report_problems(problems)
    print(result_line(not problems, len(items), failed, metrics))


def smoke(work_root: Path) -> int:
    """Tiny sizes: every metric emitted, digests match, traced == untraced,
    counts repeat exactly across two traced passes."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layer = {m["name"] for m in bench["per_layer"]}
    problems: list[str] = []
    for name in NAMES:
        wl, own_setup = setup(name, 0, work_root / name)
        items = wl.smoke_items()
        plain, plain_wall = plain_pass(items)
        problems += check(plain, wl.expected)
        failed = sum(rec.error is not None for rec in plain)
        e2e = end_to_end(plain, plain_wall, [own_setup], wl.tail_pct, failed)
        if set(e2e) != want_e2e:
            problems.append(f"{name}: end-to-end metrics {sorted(set(e2e) ^ want_e2e)}")
        counts = []
        for _ in range(2):
            wl.trace_bytes.clear()
            traced, traced_wall, tracer = traced_pass(wl, items)
            problems += check(traced, wl.expected) + same_outputs(plain, traced)
            layer = per_layer(tracer, wl, plain_wall, traced_wall, 0)
            counts.append({k: v for k, (v, _) in layer.items() if is_count(k)})
        if set(layer) != want_layer:
            problems.append(f"{name}: per-layer metrics {sorted(set(layer) ^ want_layer)}")
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: counts differ between traced passes: {diff}")
        checked, oracle_problems = oracle_sample(plain, 0, len(plain))
        problems += oracle_problems
        print(f"{name}: {len(items)} items, {checked} re-checked with sympy, "
              f"{len(problems)} problems so far")
    report_problems(problems)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def record(name: str, work_dir: Path) -> None:
    """Write expected/<name>.json: the digest of every pool member's output."""
    wl, _ = setup(name, 0, work_dir, recording=True)
    from workloads import digest
    digests: dict[str, str] = {}
    flags: dict[str, object] = {}
    for item in wl.pool():
        if item.key in digests:
            continue
        if item.only_if is not None and flags.get(item.only_if) is not True:
            continue
        rec = run_one(item)
        if rec.error is not None:
            fail(f"{item.key} raised {type(rec.error).__name__}: {rec.error}")
        if isinstance(rec.result, bool):
            flags[item.key] = rec.result
        digests[item.key] = digest(item.to_obj(rec.result))
        print(f"{item.key} {rec.latency:.3f} s", file=sys.stderr, flush=True)
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{name}.json").write_text(
        json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"{name}: recorded {len(digests)} digests")


def run_all(args) -> None:
    """One child process per workload; prints each workload's row."""
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", choices=NAMES)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    work_dir = HERE / "work" / f"{os.getpid()}"
    try:
        if args.smoke:
            raise SystemExit(smoke(work_dir))
        if args.record:
            record(args.record, work_dir)
        elif args.workload is None:
            parser.error("--workload is required")
        elif args.workload == "all":
            run_all(args)
        elif args.setup_only:
            _, seconds = setup(args.workload, args.seed, work_dir)
            print(json.dumps({"setup_s": seconds}))
        elif args.trace:
            trace_run(args.workload, args.seed, work_dir)
        else:
            measure(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
