"""Span tracer that wraps public ``repro`` functions from the outside.

Nothing in ``src/`` is instrumented.  :meth:`Tracer.install` replaces each
target function at *every* module binding that holds it (so
``repro.exact.bab.solve_lp`` and ``repro.exact.parallel_bab.solve_lp`` are
both covered) and each target method on its class.  A target that no
longer exists is reported with zero calls instead of failing, so the
tracer survives refactors that move or replace a layer.

A span records its name, start, end, parent span and the unit (or serve
job) it belongs to.  The parent stack is thread-local because serve jobs
run on the service's worker thread and HTTP handlers on their own threads.
Spans stay in memory until :meth:`dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Serve-store methods timed as ``serve.store``.
_STORE_METHODS = (
    "submit", "get", "list_jobs", "counts", "queue_depth", "claim_next",
    "next_eligible_at", "requeue", "record_attempt", "attempt_log",
    "finish", "fail", "mark_cancelled", "cancel_queued", "cache_get",
    "cache_put", "cache_stats", "cert_get", "cert_put", "cert_stats")

#: ``(span name, "module:qualname")``.  A qualname with a dot is a method.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("exact.lp_solve", "repro.exact.lp:solve_lp"),
    ("exact.lp_build", "repro.exact.encoding:NetworkEncoding.build_lp"),
    ("exact.search", "repro.exact.bab:BaBSolver.maximize"),
    ("exact.search", "repro.exact.parallel_bab:maximize_frontier"),
    ("domains.screen", "repro.domains.batch:phase_clamped_node_bounds"),
    ("certs.rescreen", "repro.certs.reuse:reverify_with_certificate"),
    ("core.reuse",
     "repro.core.continuous:ContinuousVerifier.verify_domain_change"),
    ("core.reuse",
     "repro.core.continuous:ContinuousVerifier.verify_new_version"),
    ("lipschitz.bound", "repro.lipschitz.bounds:global_lipschitz_bound"),
    ("api.engine", "repro.api.engine:VerificationEngine.verify"),
) + tuple(
    ("api.wire", f"repro.api.specs:{name}")
    for name in ("spec_to_dict", "spec_from_dict", "spec_to_json",
                 "spec_from_json")
) + tuple(
    ("api.wire", f"repro.api.serialize:{name}")
    for name in ("config_to_json", "config_from_json", "verdict_to_dict",
                 "verdict_from_dict", "verdict_to_json", "verdict_from_json",
                 "certificate_to_json", "certificate_from_json")
) + tuple(
    ("serve.store", f"repro.serve.store:JobStore.{name}")
    for name in _STORE_METHODS
) + (
    ("serve.job", "repro.serve.scheduler:VerificationService._run_job"),
)


def _job_of(args) -> Optional[str]:
    """The job id of ``VerificationService._run_job(self, record)``."""
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _rows_of(args, result) -> int:
    """Boxes screened by ``phase_clamped_node_bounds(net, box, maps)``."""
    return len(args[2]) if len(args) > 2 else 0


def _nodes_of(args, result) -> int:
    """Branch-and-bound nodes of a search (its ``BaBResult.nodes``)."""
    return int(getattr(result, "nodes", 0) or 0)


_UNIT_FROM: Dict[str, Callable] = {"serve.job": _job_of}
#: Per-span work counts, summed over outermost spans of a name.
_ROWS_FROM: Dict[str, Callable] = {"domains.screen": _rows_of,
                                   "exact.search": _nodes_of}


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: span name -> number of bindings wrapped (0: target missing).
        self.bindings: Dict[str, int] = {}

    # --------------------------------------------------------------- context
    @contextmanager
    def unit(self, unit_id):
        """Attribute spans opened by this thread to ``unit_id``."""
        previous = getattr(self._local, "unit", None)
        self._local.unit = unit_id
        try:
            yield
        finally:
            self._local.unit = previous

    def _wrap(self, name: str, fn: Callable) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        unit_from, rows_from = _UNIT_FROM.get(name), _ROWS_FROM.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            previous_unit = getattr(local, "unit", None)
            if unit_from is not None:
                local.unit = unit_from(args)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                rows = rows_from(args, result) if rows_from else 0
                spans.append((span_id, name, start, end, parent,
                              getattr(local, "unit", None), rows))
                local.unit = previous_unit

        return traced

    # --------------------------------------------------------------- install
    def install(self) -> "Tracer":
        for name, target in TARGETS:
            self.bindings.setdefault(name, 0)
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name, None)
                fn = owner.__dict__.get(attr) if owner is not None else None
                if callable(fn):
                    self._patch(owner, attr, fn, self._wrap(name, fn))
                    self.bindings[name] += 1
                continue
            fn = getattr(module, qualname, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, fn, wrapped)
                        self.bindings[name] += 1
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --------------------------------------------------------------- results
    def layers(self, unit_filter: Optional[Callable] = None
               ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``rows``,
        over the spans whose unit passes ``unit_filter`` (all by default).

        Self time is a span's duration minus its direct children's; a
        thread's children run inside the parent one after another, so
        their durations never overlap.  ``rows`` sums the work counts of
        spans not nested in a span of the same name."""
        names = {span[0]: span[1] for span in self.spans}
        child_s: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}
            for name in self.bindings}
        for span_id, name, start, end, parent, unit, rows in self.spans:
            if unit_filter is not None and not unit_filter(unit):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s.get(span_id, 0.0)
            if names.get(parent) != name:
                entry["rows"] += rows
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, unit, rows in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "unit": unit, "rows": rows}) + "\n")
