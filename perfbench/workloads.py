"""The timed (``--trace 0``) and traced (``--trace 1``) runs, shared by the
workload modules.

A workload module provides ``PER_PASS`` (units per pass, or ``None`` for a
fixed schedule), ``make_inputs(seed, seconds) -> (payload, inputs)`` (the
set-up payload is a dict of plain arrays), ``setup(payload)``,
``close(system)`` and ``run(system, inputs, seconds, reference, seed,
tracer=None, start=0) -> harness.Run``.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict

import harness
from tracer import Tracer

#: Set-ups timed per run, each in a fresh interpreter; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 9
#: Metric -> span name whose self time it reports.
_SELF_TIME = {
    "exact.lp_solve_s": "exact.lp_solve",
    "exact.lp_build_s": "exact.lp_build",
    "exact.search_self_s": "exact.search",
    "domains.screen_s": "domains.screen",
    "certs.rescreen_s": "certs.rescreen",
    "core.reuse_self_s": "core.reuse",
    "lipschitz.bound_s": "lipschitz.bound",
    "api.wire_s": "api.wire",
    "api.engine_self_s": "api.engine",
    "serve.store_s": "serve.store",
}


def timed(name: str, seed: int, seconds: float, reference: Dict,
          metrics):
    """Time ``SETUP_SAMPLES`` set-ups in fresh interpreters (median), then
    set up once more here, untimed, for one untraced run."""
    mod = importlib.import_module(name)
    payload, inputs = mod.make_inputs(seed, seconds)
    samples = harness.setup_samples(name, payload, SETUP_SAMPLES)
    system = mod.setup(payload)
    try:
        run = mod.run(system, inputs, seconds, reference, seed)
    finally:
        mod.close(system)
    return harness.end_to_end(harness.p50(samples), run), run.tally, {
        "setup_samples_s": samples, "wall_s": run.wall_s,
        "tail_windows": run.tail_windows, **run.detail}


def traced(name: str, seed: int, seconds: float, reference: Dict,
           metrics):
    """An untraced half (counts, overhead base) and a traced half (self
    times) of ``seconds / 2`` each, on the same kind of units."""
    mod = importlib.import_module(name)
    half = seconds / 2
    payload, inputs = mod.make_inputs(seed, half)
    tracer = Tracer()
    system = mod.setup(payload)
    try:
        base = mod.run(system, inputs, half, reference, seed)
        if getattr(mod, "FRESH_SYSTEM", False):
            mod.close(system)
            system = mod.setup(payload)
        tracer.install()
        try:
            traced_run = mod.run(system, inputs, half, reference, seed,
                                 tracer=tracer, start=base.next_start)
        finally:
            tracer.uninstall()
    finally:
        mod.close(system)

    values = dict.fromkeys(metrics, 0.0)
    values.update(base.counts)
    layers = tracer.layers()
    # Self times per pass of the bag (or per schedule), so they compare
    # across versions that get through different numbers of units.
    units = traced_run.tally.attempted
    scale = mod.PER_PASS / units if mod.PER_PASS and units else 1.0
    for metric, span in _SELF_TIME.items():
        values[metric] = layers[span]["self_s"] * scale
    solve = layers["exact.lp_solve"]
    values["exact.lp_solve_ms_per_call"] = (
        solve["self_s"] * 1e3 / solve["calls"] if solve["calls"] else 0.0)
    # Work counts over a deterministic window: the first traced pass, or
    # the whole (fixed) schedule.
    first = f"p{base.next_start}u"
    window = tracer.layers(
        (lambda unit: str(unit).startswith(first)) if mod.PER_PASS else None)
    values["exact.lp_solves"] = window["exact.lp_solve"]["calls"]
    values["exact.nodes"] = window["exact.search"]["rows"]
    values["exact.lp_per_node"] = (values["exact.lp_solves"]
                                   / values["exact.nodes"]
                                   if values["exact.nodes"] else 0.0)
    values["domains.screen_calls"] = window["domains.screen"]["calls"]
    values["domains.screen_rows"] = window["domains.screen"]["rows"]
    rate = getattr(mod, "service_rate", lambda run: run.units_per_s)
    values["trace.overhead_ratio"] = (rate(traced_run) / rate(base)
                                      if rate(base) else 0.0)

    tally = base.tally
    for reason, count in traced_run.tally.failures.items():
        tally.failures[reason] = tally.failures.get(reason, 0) + count
    tally.attempted += traced_run.tally.attempted
    tally.unreferenced += traced_run.tally.unreferenced
    values["harness.failed_ratio"] = tally.failed / tally.attempted
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    trace_path = os.path.join(harness.OUT_DIR, f"trace-{name}-{seed}.jsonl")
    tracer.dump(trace_path)
    return values, tally, {
        "trace_file": os.path.relpath(trace_path),
        "bindings": dict(tracer.bindings),
        "layers": layers,
        "untraced": {"units": base.tally.attempted, "wall_s": base.wall_s},
        "traced": {"units": units, "wall_s": traced_run.wall_s},
        "self_time_per": "pass" if mod.PER_PASS else "schedule",
    }
