"""Parallel frontier branch and bound: wall-clock vs worker count.

Measures the tentpole of the frontier search on a width-64 threshold
workload (the scale where one node LP costs enough for concurrency to
matter): prove ``max c @ f(x) <= threshold`` with

* the best-first search (``workers=1``, ``frontier_width=1``, the
  default on one worker and the baseline);
* the frontier search at ``frontier_width=FRONTIER_WIDTH`` and
  ``workers in {1, 2, 4, 8}`` -- ``workers=1`` isolates the wide
  frontier's own overhead/speculation, the wider runs add pure LP
  concurrency on top (the trajectory is identical across worker counts
  by construction, so their statuses must be byte-identical and their
  optima bitwise equal).

The speedup headline is ``speedup_vs_best_first`` at ``workers=4``; the
acceptance gate of the PR is >= 2x on a multi-core machine.  Wall-clock
numbers are only meaningful with real cores: the record carries
``cpu_count`` so single-core CI smoke runs are not misread as regressions
(the *correctness* cross-checks run everywhere and always assert).

Run standalone for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_parallel_bab.py [output.json] [--smoke]

(``--smoke`` shrinks the width and node budget to CI-smoke size) or
through pytest for the human-readable report plus the determinism and
parity gates.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # standalone: make src/ and repo root importable
    _ROOT = Path(__file__).resolve().parent.parent
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from repro.domains import Box
from repro.exact import FRONTIER_WIDTH, BaBSolver, NetworkEncoding

from benchmarks.common import emit_json

INPUT_DIM = 8
WIDTH = 64
SMOKE_WIDTH = 16
WORKER_COUNTS = (1, 2, 4, 8)
REPEATS = 3


def _workload(width, probe_limit, seed=1, weight_scale=0.4):
    """The width-``width`` threshold workload: a threshold just above the
    probe run's sound upper bound, so proving it demands search effort
    comparable to the probe's -- and the sweep's 3x node budget guarantees
    every configuration closes with ``threshold_proved``."""
    from repro.nn import random_relu_network

    network = random_relu_network([INPUT_DIM, width, width, 2], seed=seed,
                                  weight_scale=weight_scale)
    box = Box(-np.ones(INPUT_DIM), np.ones(INPUT_DIM))
    c = np.array([1.0, -1.0])
    probe = BaBSolver(network, box, node_limit=probe_limit).maximize(c)
    threshold = probe.upper_bound + max(1e-3, 5e-3 * abs(probe.upper_bound))
    return network, box, c, threshold


def _best_of(fn, repeats=REPEATS):
    best_s = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def run_worker_sweep(width=WIDTH, probe_limit=500, repeats=REPEATS,
                     worker_counts=WORKER_COUNTS):
    """Best-first baseline plus the frontier search per worker count."""
    network, box, c, threshold = _workload(width, probe_limit)
    node_limit = 3 * probe_limit

    def solve(workers, frontier_width):
        # A cold encoding per run keeps base assembly inside the timed
        # region for every configuration equally.
        encoding = NetworkEncoding(network, box)
        solver = BaBSolver(network, box, encoding=encoding,
                           node_limit=node_limit, workers=workers,
                           frontier_width=frontier_width)
        return solver.maximize(c, threshold=threshold)

    base, base_s = _best_of(lambda: solve(1, 1), repeats)
    rows = [{
        "mode": "best_first",
        "workers": 1,
        "status": base.status,
        "upper_bound": base.upper_bound,
        "lp_solves": base.lp_solves,
        "nodes": base.nodes,
        "rounds": base.rounds,
        "max_batch": base.max_batch,
        "wall_s": base_s,
        "speedup_vs_best_first": 1.0,
    }]
    for workers in worker_counts:
        res, wall_s = _best_of(
            lambda w=workers: solve(w, FRONTIER_WIDTH), repeats)
        rows.append({
            "mode": "frontier",
            "workers": workers,
            "status": res.status,
            "upper_bound": res.upper_bound,
            "lp_solves": res.lp_solves,
            "nodes": res.nodes,
            "rounds": res.rounds,
            "max_batch": res.max_batch,
            "mean_batch": res.mean_batch,
            "wall_s": wall_s,
            "speedup_vs_best_first": base_s / wall_s if wall_s > 0
            else float("inf"),
        })
    return {
        "width": width,
        "threshold": threshold,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }


def check_determinism(record):
    """The correctness gates every run must satisfy, any machine."""
    rows = record["rows"]
    frontier = [r for r in rows if r["mode"] == "frontier"]
    base = next(r for r in rows if r["mode"] == "best_first")
    # Byte-identical verdicts and bitwise-identical bounds across worker
    # counts (the trajectory does not depend on the pool width) ...
    assert len({r["status"] for r in frontier}) == 1, frontier
    assert len({r["upper_bound"] for r in frontier}) == 1, frontier
    assert len({r["lp_solves"] for r in frontier}) == 1, frontier
    # ... and agreement with the best-first search.  Width 1 vs width K
    # are different trajectories, so near the node budget the two can
    # legitimately land on different closing statuses; accept any pair of
    # sound "proof closed" verdicts, and require bound agreement only when
    # both ran to optimality.  (At "threshold_proved" the bound's *value*
    # at proof time is trajectory-dependent -- both must merely sit below
    # the threshold.)
    closed = {"threshold_proved", "optimal"}
    b, f = base["status"], frontier[0]["status"]
    assert b == f or (b in closed and f in closed), (b, f)
    if b == f == "optimal":
        assert abs(frontier[0]["upper_bound"] - base["upper_bound"]) <= 1e-6
    for r in (base, frontier[0]):
        if r["status"] == "threshold_proved":
            assert r["upper_bound"] <= record["threshold"] + 1e-6, r


def test_report_parallel_bab(capsys):
    record = run_worker_sweep(width=SMOKE_WIDTH, probe_limit=60, repeats=1,
                              worker_counts=(1, 2, 4))
    lines = [f"\nParallel frontier BaB, width {record['width']} "
             f"(cpu_count={record['cpu_count']})",
             f"  {'mode':>10} | {'workers':>7} | {'status':>17} | "
             f"{'lp_solves':>9} | {'wall [ms]':>9} | {'speedup':>7}"]
    for r in record["rows"]:
        lines.append(
            f"  {r['mode']:>10} | {r['workers']:>7} | {r['status']:>17} | "
            f"{r['lp_solves']:>9} | {1e3 * r['wall_s']:>9.1f} | "
            f"{r['speedup_vs_best_first']:>6.2f}x")
    with capsys.disabled():
        print("\n".join(lines))
    check_determinism(record)


def main(path=None, smoke=False):
    record = run_worker_sweep(
        width=SMOKE_WIDTH if smoke else WIDTH,
        probe_limit=60 if smoke else 500,
        repeats=1 if smoke else REPEATS,
        worker_counts=(1, 2, 4) if smoke else WORKER_COUNTS,
    )
    check_determinism(record)
    payload = {"smoke": smoke, "worker_sweep": record}
    emit_json("bench_parallel_bab", payload, path=path)


if __name__ == "__main__":
    argv = [a for a in sys.argv[1:]]
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    main(argv[0] if argv else None, smoke=smoke)
