"""``loop``: the paper's engineering loop on the vehicle perception head.

Set-up is ``EngineeringLoop.initial_verification()`` (a from-scratch,
range-rigor proof).  The units are the events of a seeded chain -- small
fine-tuning steps, monitored domain enlargements and unsafe drift boxes --
fed to ``on_new_version`` / ``on_domain_enlarged`` under
``VerifyConfig(workers=1, certs="reuse")`` with an in-memory ``JobStore``
as the certificate table.  Every pass replays the chain from a copy of the
verified set-up state with an empty store, so each pass does the same work.
"""

from __future__ import annotations

import copy
import time

import gen
import harness

PER_PASS = len(gen.LOOP_PATTERN)
#: Strategy families counted as ``core.events_by_strategy.<name>``.
STRATEGIES = ("prop1", "prop2", "prop3", "prop4", "prop5", "prop6",
              "fixing", "full")
_LETTERS = {"P": "proved", "V": "violated", "U": "unknown"}


class CountingCerts:
    """Certificate provider in front of a ``JobStore``, counting lookups
    and hits as seen from the engine."""

    def __init__(self, store):
        self.store = store
        self.lookups = self.hits = 0

    def cert_get(self, cert_key):
        self.lookups += 1
        cert_json = self.store.cert_get(cert_key)
        self.hits += cert_json is not None
        return cert_json

    def cert_put(self, cert_key, cert_json):
        self.store.cert_put(cert_key, cert_json)


def make_inputs(seed: int, seconds: float):
    """``(set-up payload, run inputs)``."""
    inputs = gen.loop_inputs(seed)
    return inputs.payload, inputs


def setup(payload):
    from repro.api import VerifyConfig
    from repro.core import EngineeringLoop, VerificationProblem
    from repro.domains import Box

    problem = VerificationProblem(
        gen.to_network(gen.payload_layers(payload)),
        Box(payload["din_lo"].copy(), payload["din_hi"].copy()),
        Box(payload["dout_lo"].copy(), payload["dout_hi"].copy()))
    loop = EngineeringLoop(problem, state_buffer=0.05, rigor="range",
                           config=VerifyConfig(workers=1, certs="reuse"))
    step = loop.initial_verification()
    if step.holds is not True:
        raise RuntimeError(f"initial verification did not prove: {step}")
    return loop


def close(loop) -> None:
    """Nothing to release."""


def strategy_family(strategy: str) -> str:
    for family in ("fixing", "full"):
        if strategy.startswith(family):
            return family
    return strategy.split()[0] if strategy else "other"


def run(base, inputs, seconds: float, reference: dict, seed: int,
        tracer=None, start: int = 0) -> harness.Run:
    """Whole passes until ``seconds`` have passed (at least one); the
    counts describe the first pass."""
    from repro.exact.encoding import encoding_cache_stats
    from repro.serve import JobStore

    expected = [_LETTERS[c] for c in reference.get("loop", "")]
    tally = harness.Tally()
    counts: dict = {}
    walls = []
    index = start
    while index == start or sum(walls) < seconds:
        loop = copy.deepcopy(base)
        store = JobStore(":memory:")
        loop.certs = certs = CountingCerts(store)
        steps = []
        before = encoding_cache_stats()
        pass_start = time.perf_counter()
        for unit, (kind, payload, by_construction) in enumerate(inputs.events):
            t0 = time.perf_counter()
            try:
                with harness.unit_scope(tracer, f"p{index}u{unit}"):
                    step = _apply(loop, kind, payload)
            except Exception as exc:  # noqa: BLE001 - a unit that raises fails
                tally.fail(type(exc).__name__)
                continue
            latency = (time.perf_counter() - t0) * 1e3
            got = harness.decision_of(step.holds)
            if by_construction is False and got != "violated":
                reason = "decision_mismatch"
            else:
                reason = harness.check_decision(
                    tally, got, expected[unit] if unit < len(expected)
                    else None)
            tally.record(reason, latency)
            steps.append(step)
        walls.append(time.perf_counter() - pass_start)
        if index == start:
            counts = _counts(steps, certs, before, encoding_cache_stats())
        store.close()
        index += 1
    return harness.Run(tally, sum(walls), counts, index,
                       detail={"pass_walls_s": walls})


def _apply(loop, kind, payload):
    if kind == "version":
        return loop.on_new_version(payload)
    return loop.on_domain_enlarged(payload)


def _counts(steps, certs, before, after) -> dict:
    counts = {f"core.events_by_strategy.{name}": 0 for name in STRATEGIES}
    for step in steps:
        key = f"core.events_by_strategy.{strategy_family(step.strategy)}"
        if key in counts:
            counts[key] += 1
    counts.update({
        "core.reverified_ratio": (sum(s.reverified for s in steps)
                                  / max(len(steps), 1)),
        "certs.hit_ratio": certs.hits / certs.lookups if certs.lookups
        else 0.0,
        "certs.nodes_reused": sum(s.nodes_reused for s in steps),
        "certs.lp_solves_saved": sum(s.lp_solves_saved for s in steps),
        "exact.encoding_hit_ratio": harness.hit_ratio(before, after),
    })
    return counts


def decisions(base, inputs) -> str:
    """One letter per event of one pass (P proved, V violated, U unknown)
    -- what the reference table records.  The event pattern fixes each
    event's decision, so one string holds for every seed."""
    from repro.serve import JobStore

    loop = copy.deepcopy(base)
    loop.certs = JobStore(":memory:")
    letters = []
    for kind, payload, _ in inputs.events:
        holds = _apply(loop, kind, payload).holds
        letters.append({True: "P", False: "V", None: "U"}[holds])
    return "".join(letters)
