"""Shared measurement helpers: percentiles, set-up timing, unit outcomes,
decision checks against the recorded table, and the result record."""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with at least
    ten samples beyond it: the 11th-largest sample, at percentile
    ``100 * (n - 10) / n``.  With ten samples or fewer it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def windowed_tail(values: Sequence[float], windows: int) -> float:
    """Median over ``windows`` consecutive equal slices of :func:`tail`.
    One short stall of a shared host moves a whole-run tail a lot; the
    median of window tails moves only when most windows do."""
    if windows <= 1 or len(values) < 11 * windows:
        return tail(values)[0]
    size = len(values) // windows
    return p50([tail(values[k * size:(k + 1) * size])[0]
                for k in range(windows)])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(workload: str, payload: Dict, repeats: int) -> List[float]:
    """Seconds of ``repeats`` set-ups, each in a fresh interpreter
    (``coldstart.py``), so every sample pays the imports and first-call
    loads a real start pays.  The payload goes to the child as an ``.npz``
    file it loads before its clock starts."""
    import numpy as np

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"setup-{workload}-{os.getpid()}.npz")
    np.savez(path, **payload)
    samples = []
    try:
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "coldstart.py"),
                 workload, path],
                capture_output=True, text=True, timeout=120, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"set-up of {workload} failed:\n"
                                   f"{proc.stderr}")
            samples.append(float(json.loads(lines[-1])["setup_s"]))
    finally:
        os.remove(path)
    return samples


def cpu_s() -> float:
    """User plus system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------- outcomes
@dataclass
class Tally:
    """Unit outcomes of one run: latencies and failures with reasons."""

    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    #: Units whose decision had no recorded reference to compare against.
    unreferenced: int = 0

    def ok(self, latency_ms: float) -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_ms)

    def record(self, reason: Optional[str], latency_ms: float) -> None:
        if reason:
            self.fail(reason, latency_ms)
        else:
            self.ok(latency_ms)

    def fail(self, reason: str, latency_ms: Optional[float] = None) -> None:
        self.attempted += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if latency_ms is not None:
            self.latencies_ms.append(latency_ms)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class Run:
    """One measured stretch of a workload."""

    tally: Tally
    wall_s: float
    #: Per-layer values the workload measured itself (metric names).
    counts: Dict[str, float]
    #: Where a following stretch continues (pass index), if it matters.
    next_start: int = 0
    #: Consecutive windows the latency tail is taken over (median).
    tail_windows: int = 1
    #: Facts about the run for the detail record.
    detail: Dict = field(default_factory=dict)

    @property
    def units_per_s(self) -> float:
        done = self.tally.attempted - self.tally.failed
        return done / self.wall_s if self.wall_s > 0 else 0.0


def unit_scope(tracer, unit_id):
    """Attribute the spans of the enclosed unit to ``unit_id``."""
    return tracer.unit(unit_id) if tracer is not None \
        else contextlib.nullcontext()


def hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Encoding-cache hit share between two ``encoding_cache_stats()``."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def load_reference() -> Dict:
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def decision_of(holds: Optional[bool]) -> str:
    return {True: "proved", False: "violated", None: "unknown"}[holds]


def check_decision(tally: Tally, got: str, expected: Optional[str]) -> Optional[str]:
    """The failure reason of a decision against its reference, if any."""
    if expected is None:
        tally.unreferenced += 1
        return None
    if got == "unknown" and expected != "unknown":
        return "inconclusive"
    if got != expected:
        return "decision_mismatch"
    return None


def witness_violates(network, objective, threshold: float, witness,
                     tol: float = 1e-6) -> bool:
    """Does a refutation's witness really exceed the threshold?"""
    import numpy as np

    if witness is None:
        return False
    value = float(np.dot(objective, network.forward(np.asarray(witness))))
    return value > threshold - tol


# ------------------------------------------------------------------- result
def end_to_end(setup_s: float, run: Run) -> Dict[str, float]:
    tally = run.tally
    completed = tally.attempted - tally.failed
    return {
        "setup_s": setup_s,
        "units_per_s": run.units_per_s,
        "latency_p50_ms": p50(tally.latencies_ms),
        "latency_tail_ms": windowed_tail(tally.latencies_ms,
                                         run.tail_windows),
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": completed / tally.attempted if tally.attempted else 0.0,
    }


def emit(values: Dict[str, float], units: Dict[str, str], tally: Tally,
         detail: Dict) -> None:
    """Print the detail record, then the one-line result (last line)."""
    value, pct, n = tail(tally.latencies_ms)
    detail = dict(detail)
    detail.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "unreferenced": tally.unreferenced,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "latency_tail": {"value_ms": value, "percentile": pct, "n": n},
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in values},
    }))
