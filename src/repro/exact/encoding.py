"""LP / MILP encodings of piecewise-linear networks over a box domain.

Implements the big-M encoding the paper cites ([12]-[14], Equation 2) plus
the LP *triangle* relaxation used by the branch-and-bound solver.  One
:class:`NetworkEncoding` owns the variable layout and the pre-activation
bounds; callers ask it for constraint matrices, either

* :meth:`NetworkEncoding.build_lp` -- an LP relaxation where each unstable
  (leaky-)ReLU is replaced by its convex triangle hull, optionally with some
  neuron phases *fixed* (the branching device of :mod:`repro.exact.bab`); or
* :meth:`NetworkEncoding.build_milp` -- the exact mixed-integer encoding with
  one binary indicator per unstable neuron (big-M style).

Variable layout: input ``x`` first, then per block its pre-activation vector
``z_k`` and (when the block has an activation) its post-activation ``a_k``.
Binary indicators, when requested, are appended at the end.

Sparse incremental kernel
-------------------------
The default ``form="sparse"`` path assembles the *phase-free* base system
exactly once per encoding, whole layers at a time as COO triplets collapsed
into CSR (no per-neuron dense rows), and composes every phase-constrained
branch-and-bound node as *base + small delta*: the forced neuron's triangle
rows are masked out and its two phase rows (one equality, one sign
inequality) are appended.  A child node therefore costs O(nnz) sparse row
surgery instead of a full dense rebuild -- same feasible set, same verdicts.
``form="dense"`` keeps the historical dense builder for comparison and for
the tiny-system fast path measured in ``benchmarks/bench_lp.py``.

Encodings themselves are reusable across solves: :meth:`NetworkEncoding.
for_problem` memoises encodings under a ``(network-weights, box)``
fingerprint so the continuous-verification loop re-proving the same
``(network, box)`` pair with different thresholds or phase sets never
re-runs symbolic propagation or base assembly (paper Sec. VI, proof reuse).
"""

from __future__ import annotations

import contextvars
import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import DomainError, UnsupportedLayerError
from repro.domains.box import Box
from repro.domains.symbolic import SymbolicPropagator
from repro.nn.layers import LeakyReLU, ReLU
from repro.nn.network import Network

__all__ = [
    "PhaseMap",
    "LinearSystem",
    "NetworkEncoding",
    "encoding_cache_stats",
    "count_encoding_reuse",
    "clear_encoding_cache",
]

#: Phase assignment for branching: ``{(block, neuron): +1 (active) | -1 (inactive)}``.
PhaseMap = Dict[Tuple[int, int], int]

#: Constraint matrices may be dense arrays or any scipy.sparse matrix.
Matrix = Union[np.ndarray, sp.spmatrix]

FORMS = ("auto", "sparse", "dense")

#: ``form="auto"`` builds dense at or below this many variables: tiny
#: systems (the Fig. 2 scale) solve dense anyway (see
#: :data:`repro.exact.lp.DENSE_FALLBACK_VARS`) and the per-node delta
#: machinery only pays for itself at real widths.
AUTO_DENSE_VARS = 48


@dataclass
class LinearSystem:
    """Constraint matrices in ``scipy.linprog`` form.

    ``a_ub`` / ``a_eq`` may be dense ``np.ndarray`` or ``scipy.sparse``
    matrices (HiGHS consumes either); ``integer_mask`` marks binary
    variables (``None`` normalises to all-``False`` for pure LPs).
    """

    num_vars: int
    a_ub: Optional[Matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[Matrix]
    b_eq: Optional[np.ndarray]
    bounds: List[Tuple[Optional[float], Optional[float]]]
    integer_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.integer_mask is None:
            self.integer_mask = np.zeros(self.num_vars, dtype=bool)
        else:
            self.integer_mask = np.asarray(self.integer_mask, dtype=bool)
            if self.integer_mask.shape != (self.num_vars,):
                raise DomainError(
                    f"integer_mask shape {self.integer_mask.shape} != "
                    f"({self.num_vars},)"
                )

    # ---------------------------------------------------------- introspection
    @property
    def is_sparse(self) -> bool:
        """Whether any constraint matrix is stored sparse."""
        return sp.issparse(self.a_ub) or sp.issparse(self.a_eq)

    @property
    def nnz(self) -> int:
        """Total structural nonzeros across both constraint matrices."""
        total = 0
        for matrix in (self.a_ub, self.a_eq):
            if matrix is None:
                continue
            total += matrix.nnz if sp.issparse(matrix) else int(
                np.count_nonzero(matrix))
        return total

    @property
    def num_constraints(self) -> int:
        """Total row count across both constraint groups."""
        return sum(matrix.shape[0] for matrix in (self.a_ub, self.a_eq)
                   if matrix is not None)

    # ------------------------------------------------------------- conversion
    def to_dense(self) -> "LinearSystem":
        """Copy with both constraint matrices densified."""
        def dense(matrix):
            if matrix is None:
                return None
            return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)

        return LinearSystem(self.num_vars, dense(self.a_ub), self.b_ub,
                            dense(self.a_eq), self.b_eq, list(self.bounds),
                            self.integer_mask)

    def with_extra_ub(self, rows: np.ndarray, rhs) -> "LinearSystem":
        """New system with extra ``rows @ x <= rhs`` constraints appended,
        preserving the storage form (the sparse-safe ``np.vstack``)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if rows.shape != (rhs.size, self.num_vars):
            raise DomainError(
                f"extra rows shape {rows.shape} != ({rhs.size}, {self.num_vars})"
            )
        if self.a_ub is None:
            a_ub: Matrix = rows
            b_ub = rhs
        elif sp.issparse(self.a_ub):
            a_ub = sp.vstack([self.a_ub, sp.csr_matrix(rows)], format="csr")
            b_ub = np.concatenate([self.b_ub, rhs])
        else:
            a_ub = np.vstack([self.a_ub, rows])
            b_ub = np.concatenate([self.b_ub, rhs])
        return LinearSystem(self.num_vars, a_ub, b_ub, self.a_eq, self.b_eq,
                            list(self.bounds), self.integer_mask)


class _RowBuilder:
    """Accumulates dense rows for one constraint group (legacy dense form)."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.rows: List[np.ndarray] = []
        self.rhs: List[float] = []

    def add(self, coeffs: Dict[int, float], rhs: float) -> None:
        row = np.zeros(self.num_vars)
        for idx, val in coeffs.items():
            row[idx] += val
        self.rows.append(row)
        self.rhs.append(float(rhs))

    def add_dense(self, row: np.ndarray, rhs: float) -> None:
        self.rows.append(np.asarray(row, dtype=np.float64))
        self.rhs.append(float(rhs))

    def matrices(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        if not self.rows:
            return None, None
        return np.vstack(self.rows), np.asarray(self.rhs)


class _CooBuilder:
    """Accumulates whole layers of constraint rows as COO triplets.

    Chunks arrive with *local* row indices (0-based within the chunk);
    :meth:`matrices` shifts them into place and collapses everything into
    one CSR matrix -- no dense intermediates at any point.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.num_rows = 0
        self._rows: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        self._data: List[np.ndarray] = []
        self._rhs: List[np.ndarray] = []

    def add_chunk(self, local_rows: np.ndarray, cols: np.ndarray,
                  data: np.ndarray, rhs: np.ndarray) -> int:
        """Append ``rhs.size`` rows; returns the global index of the first."""
        start = self.num_rows
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        self._rows.append(np.asarray(local_rows, dtype=np.int64) + start)
        self._cols.append(np.asarray(cols, dtype=np.int64))
        self._data.append(np.asarray(data, dtype=np.float64))
        self._rhs.append(rhs)
        self.num_rows += rhs.size
        return start

    def matrices(self) -> Tuple[Optional[sp.csr_matrix], Optional[np.ndarray]]:
        if self.num_rows == 0:
            return None, None
        rows = np.concatenate(self._rows) if self._rows else np.empty(0, np.int64)
        cols = np.concatenate(self._cols) if self._cols else np.empty(0, np.int64)
        data = np.concatenate(self._data) if self._data else np.empty(0)
        keep = data != 0.0  # drop explicit zeros; empty rows keep their slot
        matrix = sp.coo_matrix(
            (data[keep], (rows[keep], cols[keep])),
            shape=(self.num_rows, self.num_vars),
        ).tocsr()
        return matrix, np.concatenate(self._rhs)


@dataclass
class _NeuronInfo:
    """Static facts about one activation neuron used by delta composition."""

    z_index: int
    a_index: int
    slope: float
    stability: str
    tri_row: int = -1  # first of its 3 triangle rows in the base a_ub


@dataclass
class _LPBase:
    """The phase-free triangle-relaxation system, assembled once.

    ``ub_row_nnz`` caches per-row nonzero counts of ``a_ub`` so delta
    composition can drop triangle rows and append phase rows with raw
    vectorised CSR surgery (no ``scipy`` stacking overhead per node).
    """

    a_eq: Optional[sp.csr_matrix]
    b_eq: Optional[np.ndarray]
    a_ub: Optional[sp.csr_matrix]
    b_ub: Optional[np.ndarray]
    bounds: List[Tuple[Optional[float], Optional[float]]]
    info: Dict[Tuple[int, int], _NeuronInfo]
    ub_row_nnz: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.a_ub is not None and self.ub_row_nnz is None:
            self.ub_row_nnz = np.diff(self.a_ub.indptr)


# --------------------------------------------------------------------------
# Encoding cache (proof-reuse substrate: same (weights, box) => same system)
# --------------------------------------------------------------------------
# guarded-by: _ENCODING_CACHE_LOCK
_ENCODING_CACHE: "OrderedDict[tuple, NetworkEncoding]" = OrderedDict()
_ENCODING_CACHE_LOCK = threading.Lock()
_ENCODING_CACHE_SIZE = 32
_ENCODING_CACHE_STATS = {"hits": 0, "misses": 0}  # guarded-by: _ENCODING_CACHE_LOCK
#: The per-run tallies open in the current context, outermost first (see
#: :func:`count_encoding_reuse`); bumped under ``_ENCODING_CACHE_LOCK``.
_RUN_TALLIES: "contextvars.ContextVar[Tuple[Dict[str, int], ...]]" = \
    contextvars.ContextVar("repro_encoding_tallies", default=())
#: Guards the class-level construction counter (``NetworkEncoding.builds``):
#: ``+=`` on an attribute is not atomic in CPython, and encodings are
#: constructed from worker threads by the parallel proposition checks.
_BUILDS_LOCK = threading.Lock()


def _network_fingerprint(network: Network) -> bytes:
    """Digest of the architecture and every parameter value.

    Content-addressed (not ``id``-based) so in-place weight mutation can
    never serve a stale encoding, and structurally-equal subnetwork copies
    share one cache entry."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(network.input_dim).encode())
    for block in network.blocks():
        digest.update(np.ascontiguousarray(block.dense.weight).tobytes())
        digest.update(np.ascontiguousarray(block.dense.bias).tobytes())
        act = block.activation
        digest.update(type(act).__name__.encode())
        alpha = getattr(act, "alpha", None)
        if alpha is not None:
            digest.update(np.float64(alpha).tobytes())
    return digest.digest()


def encoding_cache_stats() -> Dict[str, int]:
    """Snapshot of :meth:`NetworkEncoding.for_problem` cache hits/misses,
    summed over the whole process."""
    with _ENCODING_CACHE_LOCK:
        return dict(_ENCODING_CACHE_STATS)


@contextmanager
def count_encoding_reuse() -> Iterator[Dict[str, int]]:
    """Tally the :meth:`NetworkEncoding.for_problem` hits/misses of one run.

    Yields a live ``{"hits", "misses"}`` dict that counts only the calls
    made inside the block's context: the calling thread, plus the pool
    tasks it submits through :func:`repro.core.parallel.run_parallel`
    (which run in a copy of the submitter's context).  Runs overlapping
    on other threads do not leak in, unlike a delta of the process-wide
    :func:`encoding_cache_stats`.  Blocks nest: a call counts in every
    enclosing tally.
    """
    tally = {"hits": 0, "misses": 0}
    token = _RUN_TALLIES.set(_RUN_TALLIES.get() + (tally,))
    try:
        yield tally
    finally:
        _RUN_TALLIES.reset(token)


def _count_locked(outcome: str) -> None:
    """Charge one cache ``outcome`` process-wide and to every open tally.
    Caller holds ``_ENCODING_CACHE_LOCK``."""
    _ENCODING_CACHE_STATS[outcome] += 1
    for tally in _RUN_TALLIES.get():
        tally[outcome] += 1


def clear_encoding_cache() -> None:
    """Drop all memoised encodings (test isolation hook)."""
    with _ENCODING_CACHE_LOCK:
        _ENCODING_CACHE.clear()


class NetworkEncoding:
    """Reusable encoding context for one ``(network, input_box)`` pair."""

    #: Total constructions process-wide (regression hook: one per solve).
    builds = 0

    def __init__(self, network: Network, input_box: Box,
                 pre_boxes: Optional[Sequence[Box]] = None):
        if input_box.dim != network.input_dim:
            raise DomainError(
                f"input box dim {input_box.dim} != network input {network.input_dim}"
            )
        self.network = network
        self.input_box = input_box
        for block in network.blocks():
            act = block.activation
            if act is not None and not isinstance(act, (ReLU, LeakyReLU)):
                raise UnsupportedLayerError(
                    f"exact encodings require piecewise-linear activations, "
                    f"found {type(act).__name__}"
                )
        if pre_boxes is None:
            pre_boxes = SymbolicPropagator().preactivation_boxes(network, input_box)
        self.pre_boxes: List[Box] = list(pre_boxes)
        if len(self.pre_boxes) != network.num_blocks:
            raise DomainError("need one pre-activation box per block")
        self._layout()
        self._base: Optional[_LPBase] = None
        #: One encoding is shared read-only by every concurrent node solve
        #: of the parallel frontier search; this lock makes the lazy base
        #: assembly happen exactly once (no duplicated work, no torn reads)
        #: and keeps the instrumentation counters exact under threads.
        self._base_lock = threading.Lock()
        #: Instrumentation: sparse base assemblies / LP compositions.
        self.base_builds = 0
        self.lp_builds = 0
        with _BUILDS_LOCK:
            NetworkEncoding.builds += 1

    # ------------------------------------------------------------- memoisation
    @classmethod
    def for_problem(cls, network: Network, input_box: Box) -> "NetworkEncoding":
        """Memoised encoding for ``(network, input_box)``.

        Keyed by a content fingerprint of the weights plus the box bounds:
        re-proving the same problem (different thresholds, different phase
        sets, warm-started certificates) reuses both the symbolic
        pre-activation propagation and the sparse base system.  Bounded LRU;
        thread-safe for the parallel proposition checks.
        """
        key = (
            _network_fingerprint(network),
            input_box.lower.tobytes(),
            input_box.upper.tobytes(),
        )
        with _ENCODING_CACHE_LOCK:
            cached = _ENCODING_CACHE.get(key)
            if cached is not None:
                _ENCODING_CACHE.move_to_end(key)
                _count_locked("hits")
                return cached
        encoding = cls(network, input_box)  # built outside the lock
        with _ENCODING_CACHE_LOCK:
            # Double-checked: a concurrent first-caller may have finished
            # first; keep its object so callers share one base per key.
            existing = _ENCODING_CACHE.get(key)
            if existing is not None:
                _ENCODING_CACHE.move_to_end(key)
                _count_locked("hits")
                return existing
            _count_locked("misses")
            _ENCODING_CACHE[key] = encoding
            while len(_ENCODING_CACHE) > _ENCODING_CACHE_SIZE:
                _ENCODING_CACHE.popitem(last=False)
        return encoding

    # ---------------------------------------------------------------- layout
    def _layout(self) -> None:
        net = self.network
        self.input_slice = slice(0, net.input_dim)
        cursor = net.input_dim
        self.z_slices: List[slice] = []
        self.a_slices: List[slice] = []
        for block in net.blocks():
            d = block.out_dim
            self.z_slices.append(slice(cursor, cursor + d))
            cursor += d
            if block.activation is not None:
                self.a_slices.append(slice(cursor, cursor + d))
                cursor += d
            else:
                # Linear block: post-activation is the pre-activation.
                self.a_slices.append(self.z_slices[-1])
        self.num_continuous = cursor

    @property
    def output_slice(self) -> slice:
        """Variables holding the network output."""
        return self.a_slices[-1]

    def output_objective(self, c: np.ndarray, num_vars: Optional[int] = None) -> np.ndarray:
        """Dense objective vector selecting ``c @ output``."""
        c = np.asarray(c, dtype=np.float64).reshape(-1)
        out = self.output_slice
        if c.size != out.stop - out.start:
            raise DomainError(
                f"objective dim {c.size} != output dim {out.stop - out.start}"
            )
        vec = np.zeros(num_vars if num_vars is not None else self.num_continuous)
        vec[out] = c
        return vec

    # ----------------------------------------------------------- neuron info
    def neuron_stability(self, block: int, neuron: int) -> str:
        """``"active"``, ``"inactive"`` or ``"unstable"`` from static bounds."""
        l = self.pre_boxes[block].lower[neuron]
        u = self.pre_boxes[block].upper[neuron]
        if l >= 0.0:
            return "active"
        if u <= 0.0:
            return "inactive"
        return "unstable"

    def _stability_masks(self, block: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised ``(active, inactive, unstable)`` masks for one block."""
        lower = self.pre_boxes[block].lower
        upper = self.pre_boxes[block].upper
        active = lower >= 0.0
        inactive = ~active & (upper <= 0.0)
        return active, inactive, ~active & ~inactive

    def unstable_neurons(self) -> List[Tuple[int, int]]:
        """All statically-unstable ``(block, neuron)`` pairs with activations."""
        pairs = []
        for k, block in enumerate(self.network.blocks()):
            if block.activation is None:
                continue
            _, __, unstable = self._stability_masks(k)
            pairs.extend((k, int(i)) for i in np.flatnonzero(unstable))
        return pairs

    @staticmethod
    def _block_slope(act) -> float:
        return 0.0 if isinstance(act, ReLU) else act.alpha

    # ------------------------------------------------------------- LP builder
    def _resolve_form(self, form: str, num_vars: int) -> str:
        if form not in FORMS:
            raise DomainError(f"unknown form {form!r}; choose from {FORMS}")
        if form == "auto":
            return "dense" if num_vars <= AUTO_DENSE_VARS else "sparse"
        return form

    def build_lp(self, fixed_phases: Optional[PhaseMap] = None,
                 form: str = "auto",
                 tight_pre: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
                 ) -> LinearSystem:
        """Triangle-relaxation LP of the network.

        ``fixed_phases`` forces unstable neurons into one linear piece,
        adding the corresponding sign constraint on the pre-activation --
        exactly the branching step of ReLU branch-and-bound.  The LP is a
        sound relaxation: every real execution of the network (consistent
        with the fixed phases) satisfies all constraints.

        A phase that *contradicts* the static stability (``-1`` on an
        always-active neuron, ``+1`` on an always-inactive one) names an
        empty branch region: the returned system is immediately infeasible
        instead of silently dropping the constraint.

        ``form="sparse"`` composes the cached phase-free base with a
        per-node delta; ``form="dense"`` rebuilds the historical dense
        system (same feasible set, row order interleaved); ``form="auto"``
        (default) picks dense for tiny systems and sparse otherwise.

        ``tight_pre`` optionally supplies per-block ``(lower, upper)``
        pre-activation vectors valid on this node's region (e.g. the
        batched phase-clamped interval pass); they become bounds on the
        ``z`` variables, tightening the relaxation without extra rows.
        """
        form = self._resolve_form(form, self.num_continuous)
        fixed_phases = fixed_phases or {}
        with self._base_lock:
            self.lp_builds += 1
        if self._find_contradiction(fixed_phases) is not None:
            system = self._infeasible_system(form)
        elif form == "dense":
            system = self._build_lp_dense(fixed_phases)
        else:
            system = self._build_lp_sparse(fixed_phases)
        if tight_pre is not None:
            self._apply_tight_pre(system, tight_pre)
        return system

    def _find_contradiction(self, fixed_phases: PhaseMap
                            ) -> Optional[Tuple[int, int]]:
        """First forced phase naming an empty branch region, if any."""
        for (k, i), phase in fixed_phases.items():
            if phase not in (1, -1):
                continue
            if not 0 <= k < self.network.num_blocks:
                continue
            block = self.network.block(k)
            if block.activation is None or not 0 <= i < block.out_dim:
                continue
            stability = self.neuron_stability(k, i)
            if (phase == -1 and stability == "active") or \
                    (phase == 1 and stability == "inactive"):
                return (k, i)
        return None

    def _infeasible_system(self, form: str) -> LinearSystem:
        """A trivially infeasible LP (``0 @ x <= -1``) over the layout."""
        n = self.num_continuous
        bounds = self._init_bounds(n)
        if form == "dense":
            a_ub: Matrix = np.zeros((1, n))
        else:
            a_ub = sp.csr_matrix((1, n))
        return LinearSystem(n, a_ub, np.array([-1.0]), None, None, bounds)

    def _apply_tight_pre(self, system: LinearSystem,
                         tight_pre: Sequence[Tuple[np.ndarray, np.ndarray]],
                         ) -> None:
        """Install per-node pre-activation bounds on the ``z`` variables."""
        if len(tight_pre) != self.network.num_blocks:
            raise DomainError(
                f"tight_pre needs one (lower, upper) pair per block, got "
                f"{len(tight_pre)} for {self.network.num_blocks}"
            )
        bounds = system.bounds
        for k, (lower, upper) in enumerate(tight_pre):
            sl = self.z_slices[k]
            lower = np.asarray(lower, dtype=np.float64).reshape(-1)
            upper = np.asarray(upper, dtype=np.float64).reshape(-1)
            if lower.size != sl.stop - sl.start:
                raise DomainError(
                    f"tight_pre block {k} has {lower.size} entries, expected "
                    f"{sl.stop - sl.start}"
                )
            for j in range(lower.size):
                lo, hi = bounds[sl.start + j]
                new_lo = float(lower[j]) if np.isfinite(lower[j]) else lo
                new_hi = float(upper[j]) if np.isfinite(upper[j]) else hi
                if lo is not None:
                    new_lo = lo if new_lo is None else max(new_lo, lo)
                if hi is not None:
                    new_hi = hi if new_hi is None else min(new_hi, hi)
                bounds[sl.start + j] = (new_lo, new_hi)

    # ------------------------------------------------- sparse base + deltas
    def _lp_base(self) -> _LPBase:
        """The cached phase-free sparse system (assembled exactly once,
        also under concurrent first use -- see ``_base_lock``)."""
        base = self._base
        if base is None:
            with self._base_lock:
                base = self._base
                if base is None:
                    base = self._assemble_base()
                    self.base_builds += 1
                    self._base = base
        return base

    def _init_bounds(self, n: int) -> List[Tuple[Optional[float], Optional[float]]]:
        """Fresh variable-bounds list: input box, everything else free."""
        bounds: List[Tuple[Optional[float], Optional[float]]] = [(None, None)] * n
        box = self.input_box
        for i in range(box.dim):
            bounds[i] = (float(box.lower[i]), float(box.upper[i]))
        return bounds

    def _emit_affine_rows(self, eq: _CooBuilder, k: int, prev_a: slice) -> None:
        """``z_k = W a_{k-1} + b`` for one whole block: the identity
        diagonal plus every (structurally nonzero) weight entry."""
        block = self.network.block(k)
        w, b = block.dense.weight, block.dense.bias
        out_dim = block.out_dim
        w_rows, w_cols = np.nonzero(w)
        eq.add_chunk(
            np.concatenate([np.arange(out_dim), w_rows]),
            np.concatenate([self.z_slices[k].start + np.arange(out_dim),
                            prev_a.start + w_cols]),
            np.concatenate([np.ones(out_dim), -w[w_rows, w_cols]]),
            b,
        )

    def _emit_stable_rows(self, eq: _CooBuilder, k: int, stable: np.ndarray,
                          active: np.ndarray, slope: float) -> None:
        """``a = z`` (active) or ``a = slope * z`` (inactive), stacked."""
        if not stable.size:
            return
        z0, a0 = self.z_slices[k].start, self.a_slices[k].start
        coeff = np.where(active[stable], 1.0, slope)
        m = stable.size
        eq.add_chunk(
            np.concatenate([np.arange(m), np.arange(m)]),
            np.concatenate([a0 + stable, z0 + stable]),
            np.concatenate([np.ones(m), -coeff]),
            np.zeros(m),
        )

    @staticmethod
    def _unstable_a_bounds(slope: float, l: np.ndarray,
                           u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Post-activation variable bounds of unstable neurons."""
        return np.minimum(0.0, slope * l), np.maximum(u, 0.0)

    def _assemble_base(self) -> _LPBase:
        n = self.num_continuous
        eq = _CooBuilder(n)
        ub = _CooBuilder(n)
        bounds = self._init_bounds(n)
        info: Dict[Tuple[int, int], _NeuronInfo] = {}

        prev_a = self.input_slice
        for k, block in enumerate(self.network.blocks()):
            z_sl, a_sl = self.z_slices[k], self.a_slices[k]
            self._emit_affine_rows(eq, k, prev_a)
            act = block.activation
            if act is not None:
                slope = self._block_slope(act)
                pre = self.pre_boxes[k]
                active, inactive, unstable = self._stability_masks(k)
                z0, a0 = z_sl.start, a_sl.start
                self._emit_stable_rows(eq, k, np.flatnonzero(~unstable),
                                       active, slope)
                free = np.flatnonzero(unstable)
                if free.size:
                    l = pre.lower[free]
                    u = pre.upper[free]
                    lam = (u - slope * l) / (u - l)
                    m = free.size
                    zi = z0 + free
                    ai = a0 + free
                    triple = 3 * np.arange(m)
                    # r0: z - a <= 0; r1: slope*z - a <= 0;
                    # r2: a - lam*z <= slope*l - lam*l  (triangle hull).
                    rows = np.concatenate([
                        triple, triple,
                        triple + 1, triple + 1,
                        triple + 2, triple + 2,
                    ])
                    cols = np.concatenate([zi, ai, zi, ai, ai, zi])
                    data = np.concatenate([
                        np.ones(m), -np.ones(m),
                        np.full(m, slope), -np.ones(m),
                        np.ones(m), -lam,
                    ])
                    rhs = np.zeros(3 * m)
                    rhs[2::3] = (slope - lam) * l
                    start = ub.add_chunk(rows, cols, data, rhs)
                    lo_a, hi_a = self._unstable_a_bounds(slope, l, u)
                    for j, i in enumerate(free):
                        bounds[a0 + int(i)] = (float(lo_a[j]), float(hi_a[j]))
                        info[(k, int(i))] = _NeuronInfo(
                            z_index=z0 + int(i), a_index=a0 + int(i),
                            slope=slope, stability="unstable",
                            tri_row=start + 3 * j,
                        )
                for i in np.flatnonzero(~unstable):
                    info[(k, int(i))] = _NeuronInfo(
                        z_index=z0 + int(i), a_index=a0 + int(i), slope=slope,
                        stability="active" if active[i] else "inactive",
                    )
            prev_a = a_sl

        a_eq, b_eq = eq.matrices()
        a_ub, b_ub = ub.matrices()
        return _LPBase(a_eq, b_eq, a_ub, b_ub, bounds, info)

    def _build_lp_sparse(self, fixed_phases: PhaseMap) -> LinearSystem:
        """Compose ``base + delta`` for one branch-and-bound node.

        The delta replaces each forced neuron's triangle rows with its
        phase equality (``a = z`` or ``a = slope*z``) plus the sign row
        (``z >= 0`` / ``z <= 0``) -- the same feasible set the dense
        builder produces, at O(delta) assembly cost.
        """
        base = self._lp_base()
        n = self.num_continuous
        bounds = list(base.bounds)
        if not fixed_phases:
            return LinearSystem(n, base.a_ub, base.b_ub, base.a_eq, base.b_eq,
                                bounds)

        drop_rows: List[int] = []
        eq_cols: List[int] = []
        eq_data: List[float] = []
        eq_rows: List[int] = []
        ub_cols: List[int] = []
        ub_data: List[float] = []
        num_eq = 0
        num_ub = 0
        for pair, phase in fixed_phases.items():
            if phase not in (1, -1):
                continue
            neuron = base.info.get(pair)
            if neuron is None or neuron.stability != "unstable":
                # Stable neurons already carry their piece's equality (the
                # contradictory case was rejected before composition).
                continue
            zi, ai = neuron.z_index, neuron.a_index
            drop_rows.extend((neuron.tri_row, neuron.tri_row + 1,
                              neuron.tri_row + 2))
            bounds[ai] = (None, None)
            if phase == 1:
                # a = z and -z <= 0.
                eq_rows.extend((num_eq, num_eq))
                eq_cols.extend((ai, zi))
                eq_data.extend((1.0, -1.0))
                ub_cols.append(zi)
                ub_data.append(-1.0)
            else:
                # a = slope * z and z <= 0.
                eq_rows.append(num_eq)
                eq_cols.append(ai)
                eq_data.append(1.0)
                if neuron.slope != 0.0:
                    eq_rows.append(num_eq)
                    eq_cols.append(zi)
                    eq_data.append(-neuron.slope)
                ub_cols.append(zi)
                ub_data.append(1.0)
            num_eq += 1
            num_ub += 1

        # Raw CSR surgery (concatenate data/indices, extend indptr): one
        # vectorised copy each, no scipy stacking machinery per node.
        a_eq, b_eq = base.a_eq, base.b_eq
        if num_eq:
            row_nnz = np.bincount(np.asarray(eq_rows), minlength=num_eq)
            if a_eq is None:
                indptr = np.concatenate([[0], np.cumsum(row_nnz)])
                a_eq = sp.csr_matrix(
                    (np.asarray(eq_data), np.asarray(eq_cols), indptr),
                    shape=(num_eq, n))
                b_eq = np.zeros(num_eq)
            else:
                indptr = np.concatenate([
                    a_eq.indptr,
                    a_eq.indptr[-1] + np.cumsum(row_nnz),
                ])
                a_eq = sp.csr_matrix(
                    (np.concatenate([a_eq.data, eq_data]),
                     np.concatenate([a_eq.indices, eq_cols]),
                     indptr),
                    shape=(a_eq.shape[0] + num_eq, n))
                b_eq = np.concatenate([b_eq, np.zeros(num_eq)])

        a_ub, b_ub = base.a_ub, base.b_ub
        if a_ub is None:
            if num_ub:
                indptr = np.arange(num_ub + 1)
                a_ub = sp.csr_matrix(
                    (np.asarray(ub_data), np.asarray(ub_cols), indptr),
                    shape=(num_ub, n))
                b_ub = np.zeros(num_ub)
        elif drop_rows or num_ub:
            keep = np.ones(a_ub.shape[0], dtype=bool)
            keep[drop_rows] = False
            entry_keep = np.repeat(keep, base.ub_row_nnz)
            kept_nnz = base.ub_row_nnz[keep]
            indptr = np.empty(kept_nnz.size + num_ub + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(np.concatenate([kept_nnz, np.ones(num_ub, np.int64)]),
                      out=indptr[1:])
            a_ub = sp.csr_matrix(
                (np.concatenate([a_ub.data[entry_keep], ub_data]),
                 np.concatenate([a_ub.indices[entry_keep], ub_cols]),
                 indptr),
                shape=(kept_nnz.size + num_ub, n))
            b_ub = np.concatenate([b_ub[keep], np.zeros(num_ub)])

        return LinearSystem(n, a_ub, b_ub, a_eq, b_eq, bounds)

    # --------------------------------------------------- dense LP (legacy)
    def _build_lp_dense(self, fixed_phases: PhaseMap) -> LinearSystem:
        n = self.num_continuous
        ub = _RowBuilder(n)
        eq = _RowBuilder(n)
        bounds: List[Tuple[Optional[float], Optional[float]]] = [(None, None)] * n
        box = self.input_box
        for i in range(box.dim):
            bounds[i] = (float(box.lower[i]), float(box.upper[i]))

        prev_a = self.input_slice
        for k, block in enumerate(self.network.blocks()):
            w, b = block.dense.weight, block.dense.bias
            z_sl, a_sl = self.z_slices[k], self.a_slices[k]
            # z_k = W a_{k-1} + b
            for i in range(block.out_dim):
                row = np.zeros(n)
                row[z_sl.start + i] = 1.0
                row[prev_a] = -w[i]
                eq.add_dense(row, b[i])
            act = block.activation
            if act is not None:
                slope = self._block_slope(act)
                self._encode_activation_lp(
                    k, slope, fixed_phases, ub, eq, bounds, z_sl, a_sl
                )
            prev_a = a_sl

        a_ub, b_ub = ub.matrices()
        a_eq, b_eq = eq.matrices()
        return LinearSystem(n, a_ub, b_ub, a_eq, b_eq, bounds)

    def _encode_activation_lp(self, k: int, slope: float,
                              fixed_phases: PhaseMap,
                              ub: _RowBuilder, eq: _RowBuilder,
                              bounds, z_sl: slice, a_sl: slice) -> None:
        pre = self.pre_boxes[k]
        for i in range(z_sl.stop - z_sl.start):
            zi, ai = z_sl.start + i, a_sl.start + i
            l, u = float(pre.lower[i]), float(pre.upper[i])
            phase = fixed_phases.get((k, i))
            stability = self.neuron_stability(k, i)
            if phase == 1 or stability == "active":
                # a = z, and when forced, z >= 0.
                eq.add({ai: 1.0, zi: -1.0}, 0.0)
                if phase == 1 and stability == "unstable":
                    ub.add({zi: -1.0}, 0.0)  # -z <= 0
            elif phase == -1 or stability == "inactive":
                # a = slope * z, and when forced, z <= 0.
                eq.add({ai: 1.0, zi: -slope}, 0.0)
                if phase == -1 and stability == "unstable":
                    ub.add({zi: 1.0}, 0.0)  # z <= 0
            else:
                # Triangle relaxation: a >= z, a >= slope*z,
                # a <= lam*(z - l) + slope*l with lam = (u - slope*l)/(u - l).
                lam = (u - slope * l) / (u - l)
                ub.add({zi: 1.0, ai: -1.0}, 0.0)        # z - a <= 0
                ub.add({zi: slope, ai: -1.0}, 0.0)      # slope*z - a <= 0
                ub.add({ai: 1.0, zi: -lam}, slope * l - lam * l)
                bounds[ai] = (min(0.0, slope * l), max(u, 0.0))

    # ----------------------------------------------------------- MILP builder
    def build_milp(self, form: str = "auto") -> LinearSystem:
        """Exact big-M MILP encoding (one binary per unstable neuron).

        For an unstable ReLU neuron with pre-activation bounds ``[l, u]``::

            a >= z,  a >= slope*z,
            a <= slope*z + (1 - slope)*u*delta,
            a <= z - (1 - slope)*l*(1 - delta),       delta in {0, 1}

        ``delta = 1`` forces the active piece (``a = z``), ``delta = 0`` the
        negative-side piece (``a = slope*z``) -- the classic big-M encoding
        of the paper's Equation 2 with ``l``/``u`` as the big-M constants.
        ``form="sparse"`` emits whole layers as CSR triplets; ``"auto"``
        (default) falls back to dense for tiny systems.
        """
        num_vars = self.num_continuous + len(self.unstable_neurons())
        form = self._resolve_form(form, num_vars)
        if form == "dense":
            return self._build_milp_dense()
        return self._build_milp_sparse()

    def _build_milp_sparse(self) -> LinearSystem:
        unstable = self.unstable_neurons()
        n = self.num_continuous + len(unstable)
        delta_index = {pair: self.num_continuous + j
                       for j, pair in enumerate(unstable)}

        eq = _CooBuilder(n)
        ub = _CooBuilder(n)
        bounds = self._init_bounds(n)
        for di in delta_index.values():
            bounds[di] = (0.0, 1.0)

        prev_a = self.input_slice
        for k, block in enumerate(self.network.blocks()):
            z_sl, a_sl = self.z_slices[k], self.a_slices[k]
            self._emit_affine_rows(eq, k, prev_a)
            act = block.activation
            if act is not None:
                slope = self._block_slope(act)
                pre = self.pre_boxes[k]
                active, inactive, unstable_mask = self._stability_masks(k)
                z0, a0 = z_sl.start, a_sl.start
                self._emit_stable_rows(eq, k, np.flatnonzero(~unstable_mask),
                                       active, slope)
                free = np.flatnonzero(unstable_mask)
                if free.size:
                    l = pre.lower[free]
                    u = pre.upper[free]
                    m = free.size
                    zi = z0 + free
                    ai = a0 + free
                    di = np.array([delta_index[(k, int(i))] for i in free])
                    quad = 4 * np.arange(m)
                    # r0: z - a <= 0
                    # r1: slope*z - a <= 0
                    # r2: a - slope*z - (1-slope)*u*delta <= 0
                    # r3: a - z - (1-slope)*l*delta <= -(1-slope)*l
                    rows = np.concatenate([
                        quad, quad,
                        quad + 1, quad + 1,
                        quad + 2, quad + 2, quad + 2,
                        quad + 3, quad + 3, quad + 3,
                    ])
                    cols = np.concatenate([
                        zi, ai,
                        zi, ai,
                        ai, zi, di,
                        ai, zi, di,
                    ])
                    data = np.concatenate([
                        np.ones(m), -np.ones(m),
                        np.full(m, slope), -np.ones(m),
                        np.ones(m), np.full(m, -slope), -(1 - slope) * u,
                        np.ones(m), -np.ones(m), -(1 - slope) * l,
                    ])
                    rhs = np.zeros(4 * m)
                    rhs[3::4] = -(1 - slope) * l
                    ub.add_chunk(rows, cols, data, rhs)
                    lo_a, hi_a = self._unstable_a_bounds(slope, l, u)
                    for j, i in enumerate(free):
                        bounds[a0 + int(i)] = (float(lo_a[j]), float(hi_a[j]))
            prev_a = a_sl

        a_eq, b_eq = eq.matrices()
        a_ub, b_ub = ub.matrices()
        integer_mask = np.zeros(n, dtype=bool)
        for di in delta_index.values():
            integer_mask[di] = True
        return LinearSystem(n, a_ub, b_ub, a_eq, b_eq, bounds, integer_mask)

    def _build_milp_dense(self) -> LinearSystem:
        unstable = self.unstable_neurons()
        n = self.num_continuous + len(unstable)
        delta_index = {pair: self.num_continuous + j for j, pair in enumerate(unstable)}

        ub = _RowBuilder(n)
        eq = _RowBuilder(n)
        bounds: List[Tuple[Optional[float], Optional[float]]] = [(None, None)] * n
        box = self.input_box
        for i in range(box.dim):
            bounds[i] = (float(box.lower[i]), float(box.upper[i]))
        for pair, di in delta_index.items():
            bounds[di] = (0.0, 1.0)

        prev_a = self.input_slice
        for k, block in enumerate(self.network.blocks()):
            w, b = block.dense.weight, block.dense.bias
            z_sl, a_sl = self.z_slices[k], self.a_slices[k]
            for i in range(block.out_dim):
                row = np.zeros(n)
                row[z_sl.start + i] = 1.0
                row[prev_a] = -w[i]
                eq.add_dense(row, b[i])
            act = block.activation
            if act is not None:
                slope = self._block_slope(act)
                pre = self.pre_boxes[k]
                for i in range(block.out_dim):
                    zi, ai = z_sl.start + i, a_sl.start + i
                    l, u = float(pre.lower[i]), float(pre.upper[i])
                    stability = self.neuron_stability(k, i)
                    if stability == "active":
                        eq.add({ai: 1.0, zi: -1.0}, 0.0)
                    elif stability == "inactive":
                        eq.add({ai: 1.0, zi: -slope}, 0.0)
                    else:
                        di = delta_index[(k, i)]
                        ub.add({zi: 1.0, ai: -1.0}, 0.0)
                        ub.add({zi: slope, ai: -1.0}, 0.0)
                        ub.add({ai: 1.0, zi: -slope, di: -(1 - slope) * u}, 0.0)
                        ub.add({ai: 1.0, zi: -1.0, di: -(1 - slope) * l},
                               -(1 - slope) * l)
                        bounds[ai] = (min(0.0, slope * l), max(u, 0.0))
            prev_a = a_sl

        a_ub, b_ub = ub.matrices()
        a_eq, b_eq = eq.matrices()
        integer_mask = np.zeros(n, dtype=bool)
        for di in delta_index.values():
            integer_mask[di] = True
        return LinearSystem(n, a_ub, b_ub, a_eq, b_eq, bounds, integer_mask)
