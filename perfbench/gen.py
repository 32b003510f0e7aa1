"""Seeded input generators for the workloads.

Everything here is plain numpy plus the public network constructors of
``repro.nn`` (and, for ``loop``, the public vehicle substrate that renders,
trains and drives).  Nothing in this module asks the verifier anything, so
the inputs of a seed stay the same when the program under test changes.

Networks travel as lists of ``(W, b)`` arrays until :func:`to_network`
turns them into ``repro.nn.Network`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

Layers = List[Tuple[np.ndarray, np.ndarray]]

#: Master seed of the fixed serve instance pool.  Per-run seeds only choose
#: equivalence transforms and order, never the instances themselves.
MASTER_SEED = 20210201


# ------------------------------------------------------------ plain MLP math
def forward(layers: Layers, x: np.ndarray) -> np.ndarray:
    """ReLU MLP (linear last layer) on a batch ``x`` of shape ``(N, d)``."""
    for k, (w, b) in enumerate(layers):
        x = x @ w.T + b
        if k < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return x


def interval_pass(layers: Layers, lo: np.ndarray, hi: np.ndarray):
    """Interval propagation: ``(number of unstable ReLUs, out_lo, out_hi)``
    with ``out_lo``/``out_hi`` the bounds of the first output."""
    unstable = 0
    for k, (w, b) in enumerate(layers):
        centre, radius = (lo + hi) / 2, (hi - lo) / 2
        mid, rad = w @ centre + b, np.abs(w) @ radius
        lo, hi = mid - rad, mid + rad
        if k < len(layers) - 1:
            unstable += int(np.sum((lo < 0) & (hi > 0)))
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return unstable, float(lo[0]), float(hi[0])


def best_point(layers: Layers, lo: np.ndarray, hi: np.ndarray,
               rng: np.random.Generator, n: int = 1024, rounds: int = 10,
               keep: int = 16) -> Tuple[np.ndarray, float]:
    """Shrinking random search for a high output value inside the box."""
    x = rng.uniform(lo, hi, size=(n, lo.size))
    y = forward(layers, x)[:, 0]
    radius = (hi - lo) / 4
    for _ in range(rounds):
        top = x[np.argsort(y)[-keep:]]
        step = rng.uniform(-1.0, 1.0, size=(n - keep, lo.size)) * radius
        cand = np.clip(np.repeat(top, (n - keep) // keep, axis=0) + step,
                       lo, hi)
        x = np.vstack([top, cand])
        y = forward(layers, x)[:, 0]
        radius = radius * 0.6
    i = int(np.argmax(y))
    return x[i], float(y[i])


def steepest_point(layers: Layers, lo: np.ndarray, hi: np.ndarray,
                   rng: np.random.Generator, starts: int = 32,
                   steps: int = 40) -> Tuple[np.ndarray, float]:
    """Multi-start projected sign-gradient ascent on the first output."""
    x = rng.uniform(lo, hi, size=(starts, lo.size))
    step = (hi - lo) / 4
    best_x, best_y = x[0], -np.inf
    for _ in range(steps):
        acts, masks = x, []
        for k, (w, b) in enumerate(layers):
            acts = acts @ w.T + b
            if k < len(layers) - 1:
                masks.append(acts > 0)
                acts = np.maximum(acts, 0.0)
        y = acts[:, 0]
        i = int(np.argmax(y))
        if y[i] > best_y:
            best_x, best_y = x[i].copy(), float(y[i])
        grad = np.repeat(layers[-1][0][:1], len(x), axis=0)
        for k in range(len(layers) - 2, -1, -1):
            grad = (grad * masks[k]) @ layers[k][0]
        x = np.clip(x + step * np.sign(grad), lo, hi)
        step = step * 0.9
    return best_x, best_y


def to_network(layers: Layers):
    from repro.nn import Dense, Network, ReLU

    stack = []
    for k, (w, b) in enumerate(layers):
        stack.append(Dense(w.shape[1], w.shape[0], weight=w.copy(),
                           bias=b.copy()))
        if k < len(layers) - 1:
            stack.append(ReLU())
    return Network(stack, input_dim=layers[0][0].shape[1])


def random_layers(dims: Sequence[int], rng: np.random.Generator) -> Layers:
    """He-initialised weights with small random biases."""
    return [(rng.normal(0.0, np.sqrt(2.0 / dims[k]),
                        size=(dims[k + 1], dims[k])),
             rng.normal(0.0, 0.1, size=dims[k + 1]))
            for k in range(len(dims) - 1)]


# ---------------------------------------------------------- threshold tasks
@dataclass
class Instance:
    """One threshold query ``max f(x) <= threshold`` over ``[lo, hi]``."""

    layers: Layers
    lo: np.ndarray
    hi: np.ndarray
    threshold: float
    master: int
    #: Best output found at the master, the gap to its interval bound, and
    #: the output scale a transform applied (thresholds move with it).
    best: float = 0.0
    gap: float = 0.0
    scale: float = 1.0

    def with_offset(self, offset: float) -> "Instance":
        """The same query with the threshold ``offset`` gaps from best."""
        return replace(self, threshold=self.scale * (self.best
                                                      + offset * self.gap))

    def spec(self):
        return payload_spec(self.payload())

    def payload(self) -> dict:
        """The query as plain arrays (see :func:`payload_spec`)."""
        payload = layers_payload(self.layers)
        payload.update(lo=self.lo, hi=self.hi,
                       threshold=np.asarray(float(self.threshold)))
        return payload


# ------------------------------------------------------- set-up payloads
# A set-up is timed in a fresh interpreter that has not imported ``repro``
# yet, so its inputs travel as a dict of plain arrays (an ``.npz`` file).
def layers_payload(layers: Layers) -> dict:
    payload = {}
    for k, (w, b) in enumerate(layers):
        payload[f"w{k}"], payload[f"b{k}"] = w, b
    return payload


def payload_layers(payload: dict) -> Layers:
    depth = sum(1 for key in payload if key[0] == "w" and key[1:].isdigit())
    return [(payload[f"w{k}"], payload[f"b{k}"]) for k in range(depth)]


def payload_spec(payload: dict):
    """The ``ThresholdSpec`` of a query payload (layers, lo, hi, threshold)."""
    from repro.api import ThresholdSpec
    from repro.domains import Box

    return ThresholdSpec(network=to_network(payload_layers(payload)),
                         input_box=Box(payload["lo"].copy(),
                                       payload["hi"].copy()),
                         objective=np.ones(1),
                         threshold=float(payload["threshold"]))


def _radius_for(layers: Layers, x0: np.ndarray, unstable: int) -> float:
    """Largest box radius around ``x0`` with at most ``unstable`` interval-
    unstable ReLUs (bisection) -- a solver-independent hardness knob."""
    a, b = 0.0, 1.0
    for _ in range(30):
        m = (a + b) / 2
        if interval_pass(layers, x0 - m, x0 + m)[0] <= unstable:
            a = m
        else:
            b = m
    return a


def threshold_instance(master: int, pool: dict, offset: float) -> Instance:
    """Master instance ``master`` of ``pool``: a local query around a random
    centre whose radius leaves ``pool["unstable"]`` interval-unstable ReLUs.
    The threshold sits ``offset`` (a signed share of the gap to the interval
    bound) from the best point found, so a negative offset is violated by
    construction."""
    rng = np.random.default_rng([MASTER_SEED, master])
    d = int(rng.choice(pool["dims"]))
    w = int(rng.choice(pool["widths"]))
    layers = random_layers([d] + [w] * pool["depth"] + [1], rng)
    x0 = rng.uniform(-1.0, 1.0, size=d)
    eps = _radius_for(layers, x0, pool["unstable"])
    lo, hi = x0 - eps, x0 + eps
    _, best = best_point(layers, lo, hi, rng)
    gap = interval_pass(layers, lo, hi)[2] - best
    return Instance(layers, lo, hi, best + offset * gap, master, best, gap)


def transform(inst: Instance, rng: np.random.Generator) -> Instance:
    """A function-preserving copy: hidden neurons permuted, inputs permuted
    and reflected, output scaled by a power of two.  The decision of the
    query is unchanged, and so (up to LP ties) is the search."""
    layers = [(w.copy(), b.copy()) for w, b in inst.layers]
    d = layers[0][0].shape[1]
    perm_in = rng.permutation(d)
    flip = rng.random(d) < 0.5
    sign = np.where(flip, -1.0, 1.0)
    w0, b0 = layers[0]
    layers[0] = (w0[:, perm_in] * sign[perm_in], b0)
    lo = np.where(flip, -inst.hi, inst.lo)[perm_in]
    hi = np.where(flip, -inst.lo, inst.hi)[perm_in]
    for k in range(len(layers) - 1):
        perm = rng.permutation(layers[k][0].shape[0])
        w, b = layers[k]
        layers[k] = (w[perm], b[perm])
        w_next, b_next = layers[k + 1]
        layers[k + 1] = (w_next[:, perm], b_next)
    scale = float(2.0 ** rng.integers(-2, 3))
    w_out, b_out = layers[-1]
    layers[-1] = (w_out * scale, b_out * scale)
    return replace(inst, layers=layers, lo=lo, hi=hi,
                   threshold=inst.threshold * scale,
                   scale=inst.scale * scale)


# ------------------------------------------------------------------- serve
#: Serve pool: fig2-scale queries (2-3 inputs, two hidden layers of 6-10).
SERVE_POOL = {"dims": (2, 3), "widths": (6, 8, 10), "depth": 2,
              "unstable": 8}
#: Masters whose every variant closes with a single node LP, so fresh jobs
#: cost the same few milliseconds and no one query class sets the tail.
SERVE_MASTERS = (1000, 1001, 1003, 1006, 1007, 1010, 1014, 1017, 1019, 1023,
                 1027, 1031, 1033, 1034, 1035, 1036)
#: Threshold variants asked of every model (signed shares of the gap).
SERVE_OFFSETS = (0.3, 0.05, -0.02, -0.3)
#: Share of jobs that exactly repeat an earlier job (verdict-cache hits),
#: and how far back (in jobs) the earliest repeat source may lie.
SERVE_REPEAT_SHARE = 0.25
SERVE_REPEAT_LAG = 40


@dataclass
class Job:
    #: The model copy (plain arrays) and threshold variant asked; the spec
    #: is built just before the job is sent, so the schedule stays small.
    model: Instance
    variant: int
    key: str            # "master:variant" -- the reference-table key
    repeat_of: Optional[int] = None

    def spec(self):
        return self.model.with_offset(SERVE_OFFSETS[self.variant]).spec()


def serve_schedule(seed: int, count: int) -> List[Job]:
    """``count`` jobs: a share of exact repeats of earlier jobs, the rest
    fresh queries, each a (model copy, variant) pair not asked before.  A
    model copy -- one transform of a master -- serves every variant, so
    fresh jobs share encodings but never a verdict."""
    rng = np.random.default_rng([seed, 2])
    repeat = [i >= SERVE_REPEAT_LAG and rng.random() < SERVE_REPEAT_SHARE
              for i in range(count)]
    per_copy = len(SERVE_MASTERS) * len(SERVE_OFFSETS)
    copies = -(-(count - sum(repeat)) // per_copy)
    pairs = [(m, c, k) for c in range(copies)
             for m in range(len(SERVE_MASTERS))
             for k in range(len(SERVE_OFFSETS))]
    masters = [threshold_instance(m, SERVE_POOL, 0.0) for m in SERVE_MASTERS]
    models = {}
    fresh = iter(rng.permutation(len(pairs)))
    jobs: List[Job] = []
    for i in range(count):
        if repeat[i]:
            source = int(rng.integers(0, i - SERVE_REPEAT_LAG + 1))
            while jobs[source].repeat_of is not None:
                source = jobs[source].repeat_of
            jobs.append(replace(jobs[source], repeat_of=source))
            continue
        m, c, k = pairs[next(fresh)]
        if (m, c) not in models:
            models[m, c] = transform(masters[m],
                                     np.random.default_rng([seed, 3, m, c]))
        jobs.append(Job(models[m, c], k, f"{SERVE_MASTERS[m]}:{k}"))
    return jobs


def serve_warmup() -> dict:
    return threshold_instance(999, SERVE_POOL, 0.05).payload()


# -------------------------------------------------------------------- loop
#: Hidden widths of the verified perception head (27 features -> 1 output).
LOOP_HEAD = (10, 6)
LOOP_TRAIN_SEED = 201
#: Events of one pass: ``v`` a small fine-tuning step (settled by proof
#: reuse), ``d`` a monitored domain enlargement (settled by reuse, then the
#: artifacts are re-verified from scratch), ``D`` a drift enlargement that
#: is unsafe by construction (full re-verification with certificates; the
#: second offer of the same box after a new version reuses them).
LOOP_PATTERN = "vvdvvDvD" * 2
#: Safety margin of Dout around the head's interval range over Din.
DOUT_PAD = 0.1
#: Largest widening of the domain tried for a drift box (in widths).
DRIFT_MAX_GROW = 16.0


@dataclass
class LoopInputs:
    head: object            # trained repro.nn.Network
    din: object             # repro.domains.Box
    dout: object            # repro.domains.Box
    #: ``(kind, payload, expected)``: kind ``"domain"``/``"version"``;
    #: payload a Box or a Network; expected ``False`` for unsafe-by-
    #: construction events, else ``None`` (decided by the recorded table).
    events: list
    #: Head, Din and Dout as plain arrays, for the set-up.
    payload: dict


def _head_layers(net) -> Layers:
    return [(layer.weight, layer.bias) for layer in net.layers
            if hasattr(layer, "weight")]


def loop_inputs(seed: int) -> LoopInputs:
    """Train the head on rendered frames, then roll the event chain."""
    from repro.domains import Box
    from repro.nn import TrainConfig, fine_tune, train
    from repro.vehicle import (Camera, DriveConfig, Perception,
                               PerceptionConfig, ScenarioConfig, Track,
                               VehiclePlatform, feature_dataset,
                               generate_dataset)

    # The deployed head is trained once from the master seed, like a fixed
    # model in the field; the run seed drives the events that follow.
    rng = np.random.default_rng([seed, 1])
    track = Track(radius=3.0, width=0.6)
    camera = Camera(frame_size=32)
    perception = Perception.build(PerceptionConfig(hidden_dims=LOOP_HEAD))
    data = generate_dataset(track, camera, 200,
                            ScenarioConfig(seed=LOOP_TRAIN_SEED))
    x, y = feature_dataset(perception.extractor, data)
    train(perception.head, x, y,
          TrainConfig(epochs=40, learning_rate=3e-3, optimizer="adam",
                      seed=LOOP_TRAIN_SEED))
    head = perception.head
    # Post-ReLU features are non-negative: the domain is floored at zero.
    span = x.max(axis=0) - x.min(axis=0)
    din = Box(np.maximum(x.min(axis=0) - 0.04 * span, 0.0),
              x.max(axis=0) + 0.04 * span)
    # Dout: the buffered interval chain's output box (the chain the
    # state abstractions are built from), inflated by a safety margin.
    lo, hi = din.lower, din.upper
    for k, (w, b) in enumerate(_head_layers(head)):
        centre, radius = w @ ((lo + hi) / 2) + b, np.abs(w) @ ((hi - lo) / 2)
        lo, hi = centre - radius, centre + radius
        if k < len(LOOP_HEAD):
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    pad = DOUT_PAD * (hi - lo) + 0.02
    dout = Box(lo - pad, hi + pad)

    events = []
    net, domain, drift = head, din, None
    for i, kind in enumerate(LOOP_PATTERN):
        if kind == "v":
            jitter = rng.normal(0.0, 0.01, size=y.shape)
            net = fine_tune(net, x, y + jitter, learning_rate=1e-3,
                            epochs=1, seed=seed * 100 + i)
            events.append(("version", net, None))
        elif kind == "d":
            platform = VehiclePlatform(track, camera,
                                       perception.with_head(net))
            seen = platform.drive(DriveConfig(
                steps=20, brightness=1.3 + 0.02 * i,
                disturbance_std=0.4 + 0.02 * i,
                seed=seed * 100 + i)).feature_matrix()
            low = np.maximum(seen.min(axis=0) - 0.04 * span, 0.0)
            domain = Box(np.minimum(domain.lower, low),
                         np.maximum(domain.upper,
                                    seen.max(axis=0) + 0.04 * span))
            events.append(("domain", domain, None))
        else:
            # The first D of a pair draws a fresh drift box; the second
            # re-offers it to the version that arrived in between.
            if drift is None:
                drift = _unsafe_drift(net, domain, dout, rng)
                events.append(("domain", drift, False))
            else:
                unsafe = _violates(net, drift, dout, rng)
                events.append(("domain", drift, False if unsafe else None))
                drift = None
    payload = layers_payload(_head_layers(head))
    payload.update(din_lo=din.lower, din_hi=din.upper, dout_lo=dout.lower,
                   dout_hi=dout.upper)
    return LoopInputs(head=head, din=din, dout=dout, events=events,
                      payload=payload)


def _extreme(net, box, rng, sign: float) -> float:
    """Best found ``sign * f(x)`` over ``box`` (a witness-backed value)."""
    layers = _head_layers(net)
    w, b = layers[-1]
    return steepest_point(layers[:-1] + [(sign * w, sign * b)],
                          box.lower, box.upper, rng)[1]


def _violates(net, box, dout, rng) -> bool:
    """Is there a found point of ``box`` whose output leaves ``dout``?"""
    return (_extreme(net, box, rng, 1.0) > dout.upper[0]
            or -_extreme(net, box, rng, -1.0) < dout.lower[0])


def _unsafe_drift(net, domain, dout, rng):
    """``domain`` widened, per feature on the side that lowers the output,
    until a found point falls below ``dout`` while every found point stays
    under its upper bound -- so full re-verification proves the upper
    bound (recording a certificate) before it refutes the lower one."""
    from repro.domains import Box

    layers = _head_layers(net)
    width = domain.upper - domain.lower
    probe = rng.uniform(domain.lower, domain.upper, size=(256, width.size))
    eps = 1e-3 * width
    slope = np.array([
        (forward(layers, probe + eps[i] * np.eye(width.size)[i])
         - forward(layers, probe)).mean() for i in range(width.size)])
    down = slope > 0
    fallback = None
    for grow in np.linspace(0.25, DRIFT_MAX_GROW, 64):
        box = Box(np.maximum(domain.lower - grow * width * down, 0.0),
                  domain.upper + grow * width * ~down)
        low = -_extreme(net, box, rng, -1.0) < dout.lower[0]
        high = _extreme(net, box, rng, 1.0) > dout.upper[0]
        if low and not high:
            return box
        if (low or high) and fallback is None:
            fallback = box  # unsafe all the same, just without a cert
    if fallback is not None:
        return fallback
    raise RuntimeError("no unsafe drift found for this head")
