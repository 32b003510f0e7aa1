"""Frontier branch and bound on the shared sparse encoding.

This is the one search behind :meth:`repro.exact.bab.BaBSolver.maximize`.
It expands the top-K open nodes per synchronous round, screens all their
children with one batched interval pass, builds each surviving child's LP
as *base + phase delta* on the shared
:class:`~repro.exact.encoding.NetworkEncoding`, and solves the round's LPs
concurrently on the shared worker pool of :mod:`repro.core.parallel`.  At
width 1 on one worker it is the classic best-first search.

One round
---------
1. *Pop.*  Take up to ``frontier_width`` best-bound nodes off the open
   heap (stopping early when bounds fall to the incumbent).
2. *Branch.*  Each popped node contributes its two phase-split children
   (activation-consistent nodes instead register their LP point as a
   feasible incumbent and settle).
3. *Screen.*  All children of the round are screened with **one**
   :func:`~repro.domains.batch.phase_clamped_node_bounds` call: empty
   regions, incumbent-dominated regions and threshold-closed regions settle
   without an LP.
4. *Solve.*  The survivors' delta-LPs are submitted together to
   :func:`~repro.core.parallel.run_parallel`; each worker composes
   ``base + phase delta`` from the one shared read-only encoding (never
   rebuilding -- the encoding's lazy base assembly is lock-protected) and
   HiGHS releases the GIL, so the solves genuinely overlap.  Idle workers
   pick up whatever task is next in the round's queue (pool-level work
   stealing), so heterogeneous node costs do not serialise the round.
5. *Fold.*  Results are folded back **in submission order** on the
   coordinating thread: incumbents update, surviving children are pushed.

Soundness
---------
The best-first invariant -- the true maximum never exceeds
``max(incumbent, screened_bound, max over open-node bounds)`` -- holds
with one addition: during a round, nodes that have been popped but whose
children are still being screened/solved ("in-flight" regions) are
covered by *their own* LP bounds, which are at least their children's
bounds (a child's feasible set is a subset of its parent's).
Every reported global bound is therefore taken as the max over the heap,
the bounds of the round's popped nodes, the interval-settled regions and
the incumbent -- a sound upper bound at every instant, including early
termination inside a round (node limit).  The covering-leaves invariant is
preserved the same way: every popped node either settles as a leaf or
contributes both children, each of which settles or returns to the heap.

Determinism
-----------
The width is fixed per solve by the rule in :func:`maximize_frontier`,
never by how many LPs the pool happens to run at once.  The sequence of
rounds -- which nodes are popped, which children are screened, which LPs
are solved, and the order results are folded -- is then a pure function
of the problem and the width, so for ``workers >= 2`` ``status`` is
byte-identical and ``optimum`` bitwise-identical across worker counts.
A different width changes the trajectory, not soundness: bounds and
verdicts agree within ``tol``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.exact.bab import (
    BAB_INFEASIBLE,
    BAB_NODE_LIMIT,
    BAB_OPTIMAL,
    BAB_PROVED,
    BAB_REFUTED,
    BaBResult,
    BaBSolver,
)
from repro.exact.encoding import PhaseMap
from repro.exact.lp import LP_INFEASIBLE, LP_OPTIMAL, LPResult, solve_lp

__all__ = ["FRONTIER_WIDTH", "maximize_frontier"]

#: Nodes expanded per synchronous round on a pool (``workers >= 2``).  A
#: fixed default (rather than a multiple of ``workers``) keeps the search
#: trajectory -- and hence the verdict -- identical across pool widths.
FRONTIER_WIDTH = 8


def maximize_frontier(solver: BaBSolver, c: np.ndarray,
                      threshold: Optional[float] = None,
                      initial_nodes: Optional[List[PhaseMap]] = None,
                      collect_leaves: Optional[List[PhaseMap]] = None,
                      start_screen=None,
                      collect_duals: Optional[dict] = None,
                      ) -> BaBResult:
    """Frontier ``max c @ f(x)``: the body of :meth:`BaBSolver.maximize`.

    Same contract as :meth:`BaBSolver.maximize` (thresholds, warm starts,
    covering leaves); per-round batch statistics are reported through the
    extra :class:`BaBResult` fields.

    Width rule: an explicit ``solver.frontier_width`` wins.  Otherwise the
    width is 1 on one worker (best-first search: every expansion sees the
    incumbent of all earlier rounds) and :data:`FRONTIER_WIDTH` on a pool
    (``workers >= 2``), where a round's LPs run concurrently.
    """
    # Imported lazily: repro.core.parallel pulls in the proposition
    # machinery, which sits *above* the exact layer in the import graph.
    from repro.core.parallel import (available_width, effective_workers,
                                     run_parallel)

    enc = solver.encoding
    tol = solver.tol
    workers = solver.workers
    #: Requests wider than the shared pool can admit (or nested inside a
    #: pool worker) would fall back to a fresh private pool *per round* --
    #: pure churn.  Clamp the in-flight LP concurrency instead; the
    #: trajectory (hence verdict/optimum) never depends on this.
    pool_workers = effective_workers(workers)
    if solver.frontier_width is not None:
        width = int(solver.frontier_width)
    else:
        width = 1 if workers == 1 else FRONTIER_WIDTH
    if width < 1:
        raise SolverError(f"frontier_width must be positive, got {width}")
    objective = enc.output_objective(np.asarray(c, dtype=np.float64))
    neg_obj = -objective  # linprog minimises
    c_vec = np.asarray(c, dtype=np.float64).reshape(-1)

    lp_solves = 0
    nodes = 0
    rounds = 0
    batches: List[int] = []
    counter = itertools.count()
    incumbent = -np.inf
    witness: Optional[np.ndarray] = None
    screened_bound = -np.inf
    use_screen = solver.interval_prune or solver.node_tighten

    def screen_nodes(phase_maps: List[PhaseMap]):
        return solver._screen_nodes(phase_maps, c_vec)

    def record_leaf(phases: PhaseMap) -> None:
        if collect_leaves is not None:
            collect_leaves.append(dict(phases))

    def capture_duals(phases: PhaseMap, res: LPResult) -> None:
        # Called on the coordinating thread only (results are folded in
        # submission order after each batch), so the caller's dict needs
        # no locking.
        if collect_duals is not None and res.optimal:
            collect_duals[tuple(sorted(phases.items()))] = (
                res.dual_ub if res.dual_ub is not None else np.zeros(0),
                res.dual_eq if res.dual_eq is not None else np.zeros(0))

    def node_thunk(phases: PhaseMap, tight_pre, label: str
                   ) -> Callable[[], LPResult]:
        """One worker task: compose base + delta, solve.  Reads the shared
        encoding only (its lazy base assembly is internally locked)."""
        def thunk() -> LPResult:
            system = enc.build_lp(phases, form=solver.lp_form,
                                  tight_pre=tight_pre)
            return solve_lp(neg_obj, system.a_ub, system.b_ub,
                            system.a_eq, system.b_eq, system.bounds,
                            label=label,
                            want_duals=collect_duals is not None)
        return thunk

    def solve_batch(items: List[Tuple[PhaseMap, object]],
                    stage: str) -> List[LPResult]:
        """Solve one round's surviving node LPs, order-preserving.

        ``workers > 1`` submits the whole batch to the shared pool in one
        :func:`run_parallel` call; a single worker (or a single task) runs
        inline -- identical results either way.
        """
        nonlocal lp_solves
        lp_solves += len(items)
        batches.append(len(items))
        thunks = [node_thunk(phases, tight, f"{stage} node {j}")
                  for j, (phases, tight) in enumerate(items)]
        # Re-clamp per batch against the width other callers currently
        # hold: while the pool is occupied elsewhere this degrades to
        # inline execution for the round (results identical) rather than
        # constructing a private pool every round.
        run_workers = min(pool_workers, available_width())
        if run_workers <= 1 or len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        tasks = [(f"{stage}-{j}", thunk) for j, thunk in enumerate(thunks)]
        return [value for _, value, _ in
                run_parallel(tasks, workers=run_workers)]

    def register_feasible(x_input: np.ndarray) -> None:
        nonlocal incumbent, witness
        value, x_clipped = solver._feasible_value(c_vec, x_input)
        if value > incumbent:
            incumbent = value
            witness = x_clipped

    # Max-heap on node upper bounds (negate for heapq).
    heap: List[Tuple[float, int, PhaseMap, np.ndarray]] = []

    # Warm-start economics: starts adopted from the caller, and how many
    # of them the batched float64 re-screen settled without an LP.
    nodes_reused = len(initial_nodes) if initial_nodes else 0
    lp_solves_saved = 0

    def result(status: str, bound: float) -> BaBResult:
        return BaBResult(
            status, max(bound, screened_bound), incumbent, witness,
            nodes, lp_solves, rounds=rounds,
            max_batch=max(batches, default=0),
            mean_batch=float(np.mean(batches)) if batches else 0.0,
            workers=workers,
            nodes_reused=nodes_reused,
            lp_solves_saved=lp_solves_saved,
        )

    def finish(status: str, bound: float) -> BaBResult:
        # Whatever remains open is part of the covering certificate.
        for _, __, phases, ___ in heap:
            record_leaf(phases)
        return result(status, bound)

    # ------------------------------------------------------------- warm start
    starts: List[PhaseMap] = (
        [dict(p) for p in initial_nodes] if initial_nodes else [{}]
    )
    start_ubs = start_feasible = start_tights = None
    if use_screen:
        # A caller-supplied screen (certificate reuse's dual-bound screen)
        # applies to the warm-start batch only; branching children below
        # always go through the stock batched screen.
        start_ubs, start_feasible, start_tights = \
            (start_screen or screen_nodes)(starts)
        if solver.interval_prune and threshold is not None and \
                np.all(start_ubs <= threshold + tol):
            for start in starts:
                record_leaf(start)
            lp_solves_saved = nodes_reused
            return result(BAB_PROVED, float(start_ubs.max()))
    surviving: List[Tuple[PhaseMap, object]] = []
    for j, start in enumerate(starts):
        ub_est = float(start_ubs[j]) if solver.interval_prune else None
        # Starts screen against an -inf incumbent: all surviving start LPs
        # solve in one batch, so no earlier start's incumbent exists yet.
        verdict = solver._screen_verdict(
            ub_est, not use_screen or bool(start_feasible[j]),
            -np.inf, threshold)
        if verdict != "open":
            if verdict == "proved":  # region closed below the threshold
                screened_bound = max(screened_bound, ub_est)
            if initial_nodes:
                lp_solves_saved += 1
            record_leaf(start)  # phase constraints emptied the region
            continue
        surviving.append((start, start_tights[j] if start_tights else None))
    any_feasible = False
    if surviving:
        rounds += 1
        for (start, _), res in zip(surviving, solve_batch(surviving, "start")):
            if res.status == LP_INFEASIBLE:
                record_leaf(start)
                continue
            if res.status != LP_OPTIMAL:
                raise SolverError(f"start LP ended with status {res.status}")
            any_feasible = True
            capture_duals(start, res)
            register_feasible(res.x[enc.input_slice])
            heapq.heappush(heap, (res.value, next(counter), start, res.x))
    if not any_feasible:
        if screened_bound > -np.inf:
            # Every LP-checked region was empty, but interval-screened
            # regions cover the rest below the threshold.
            return finish(BAB_PROVED, screened_bound)
        nodes = len(starts)  # every start was examined and found empty
        return result(BAB_INFEASIBLE, -np.inf)

    # ---------------------------------------------------------------- rounds
    while heap:
        top_bound = -heap[0][0]
        global_bound = max(top_bound, incumbent)
        if threshold is not None:
            if incumbent > threshold + tol:
                return finish(BAB_REFUTED, global_bound)
            if global_bound <= threshold + tol:
                return finish(BAB_PROVED, global_bound)
        if top_bound <= incumbent + tol:
            # The best remaining node cannot beat the incumbent: optimal.
            return finish(BAB_OPTIMAL, max(incumbent, top_bound))
        budget = solver.node_limit - nodes
        if budget <= 0:
            return finish(BAB_NODE_LIMIT, global_bound)

        # Pop the round's frontier (heap order => bounds non-increasing).
        popped: List[Tuple[float, PhaseMap, np.ndarray]] = []
        while heap and len(popped) < min(width, budget):
            neg_bound, cnt, phases, x_lp = heapq.heappop(heap)
            if -neg_bound <= incumbent + tol:
                # This and every later node is dominated; leave them open
                # (the next round's top-of-heap check settles the search).
                heapq.heappush(heap, (neg_bound, cnt, phases, x_lp))
                break
            popped.append((-neg_bound, phases, x_lp))

        rounds += 1
        children: List[PhaseMap] = []
        for bound, phases, x_lp in popped:
            nodes += 1
            branch_var = solver._most_violated(x_lp, phases)
            if branch_var is None:
                # LP solution is activation-consistent: bound is attained.
                register_feasible(x_lp[enc.input_slice])
                record_leaf(phases)
                continue
            for phase in (1, -1):
                child: PhaseMap = dict(phases)
                child[branch_var] = phase
                children.append(child)
        if not children:
            batches.append(0)
            continue

        # One batched pass screens the whole round's children at once.
        child_ubs = child_feasible = child_tights = None
        if use_screen:
            child_ubs, child_feasible, child_tights = screen_nodes(children)
        surviving = []
        for j, child in enumerate(children):
            ub_est = float(child_ubs[j]) if solver.interval_prune else None
            verdict = solver._screen_verdict(
                ub_est, not use_screen or bool(child_feasible[j]),
                incumbent, threshold)
            if verdict != "open":
                if verdict == "proved":  # closed below the threshold
                    screened_bound = max(screened_bound, ub_est)
                record_leaf(child)  # empty region / dominated bound
                continue
            surviving.append(
                (child, child_tights[j] if child_tights else None))

        # Concurrent delta-LP solves; results folded in submission order.
        for (child, _), res in zip(surviving,
                                   solve_batch(surviving, f"round{rounds}")):
            if res.status == LP_INFEASIBLE:
                record_leaf(child)  # the region is empty: settled
                continue
            if res.status != LP_OPTIMAL:
                # An unbounded child relaxation can never be *settled*:
                # recording it as a leaf would drop an infinite upper
                # bound from the search.  Node LPs over a bounded input
                # box are bounded, so this is a solver/encoding failure.
                raise SolverError(f"child LP ended with status {res.status}")
            child_bound = -res.value
            capture_duals(child, res)
            register_feasible(res.x[enc.input_slice])
            if child_bound <= incumbent + tol:
                record_leaf(child)
                continue
            heapq.heappush(heap, (-child_bound, next(counter), child, res.x))

    status, bound = solver._terminal_status(incumbent, screened_bound,
                                            threshold)
    return result(status, bound)
