"""Golden differential test of the branch-and-bound search trajectory.

``tests/golden/bab_trajectories.json`` holds the values the scalar
best-first loop (the search ``BaBSolver.maximize`` ran on one worker
before the frontier search replaced it) produced for 192 cases over 48
seeded ReLU networks:

* optimise mode (``max c @ f(x)``);
* threshold mode, with a threshold just above the optimum (proved) and
  one just below it (refuted);
* a warm start from the proved case's covering leaves on a perturbed
  copy of the network.

The default search on one worker -- the frontier search at width 1 --
must reproduce every case: status, ``upper_bound``, incumbent, witness,
the sorted covering leaves, ``nodes`` and ``lp_solves``.

The two searches differ in one rule.  The scalar loop screened its second
sibling against the incumbent that its first sibling's LP had just
raised, and could skip that LP; the frontier screens both siblings before
solving either.  The cases where this changes the trajectory are listed
in ``SIBLING_PRUNING`` with both values; their decisions, bounds and
witnesses still match.

Trajectories (leaves, node and LP counts, exact witnesses) are properties
of one LP solver build: degenerate LPs may return another optimal vertex
elsewhere.  Under a SciPy other than the recording one, only decisions
and bounds are compared.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.certs import leaves_cover
from repro.domains import Box
from repro.exact import FRONTIER_WIDTH, BaBSolver
from repro.nn import random_relu_network

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden"
                     / "bab_trajectories.json").read_text())
CASES = GOLDEN["cases"]
SAME_SOLVER = GOLDEN["scipy"] == scipy.__version__
SEEDS = range(48)
MODES = ("optimise", "proved", "refuted", "warm")

#: Cases where the frontier solves a second sibling's LP that the scalar
#: loop skipped: ``case id -> {field: (scalar, frontier)}``.  In case
#: 26-optimise the extra LP's point raises the incumbent, so the search
#: then branches once more and settles one more leaf.
SIBLING_PRUNING = {
    "8-optimise": {"lp_solves": (10, 11)},
    "26-optimise": {"nodes": (3, 4), "lp_solves": (5, 6),
                    "leaves": (4, 5)},
    "26-refuted": {"lp_solves": (4, 5)},
}


def case_problem(seed):
    """The seeded network, input box and objective of one case."""
    rng = np.random.default_rng(1000 + seed)
    d_in = int(rng.integers(2, 5))
    d_out = int(rng.integers(1, 3))
    dims = [d_in, int(rng.integers(3, 7)), int(rng.integers(3, 6)), d_out]
    net = random_relu_network(dims, seed=seed, weight_scale=0.9)
    box = Box(-np.ones(d_in), np.ones(d_in))
    c = rng.normal(size=d_out)
    return net, box, c


def observe(result, leaves):
    """The compared fields of one solve, in the golden file's form."""
    return {
        "status": result.status,
        "upper_bound": float(result.upper_bound),
        "incumbent": float(result.incumbent),
        "witness": None if result.witness is None
        else [float(v) for v in result.witness],
        "nodes": int(result.nodes),
        "lp_solves": int(result.lp_solves),
        "leaves": sorted([list(k) + [int(p)] for k, p in sorted(leaf.items())]
                         for leaf in leaves),
    }


def _leaf_maps(observed):
    return [{(k, i): p for k, i, p in leaf} for leaf in observed["leaves"]]


def run_case(seed, mode, **solver_kwargs):
    """Solve one case on the golden file's inputs: thresholds 2 % off the
    recorded optimum, warm starts from the recorded proved leaves."""
    net, box, c = case_problem(seed)
    threshold, initial = None, None
    if mode != "optimise":
        optimum = CASES[f"{seed}-optimise"]["upper_bound"]
        margin = 0.02 * max(1.0, abs(optimum))
        threshold = optimum - margin if mode == "refuted" else optimum + margin
    if mode == "warm":
        net = net.perturb(0.02, np.random.default_rng(5000 + seed))
        initial = _leaf_maps(CASES[f"{seed}-proved"])
    leaves = []
    result = BaBSolver(net, box, **solver_kwargs).maximize(
        c, threshold=threshold, initial_nodes=initial, collect_leaves=leaves)
    return observe(result, leaves)


@pytest.fixture(scope="module")
def current():
    return {f"{seed}-{mode}": run_case(seed, mode)
            for seed in SEEDS for mode in MODES}


def assert_matches_golden(case_id, got, want):
    assert got["status"] == want["status"], case_id
    tol = 1e-9 if SAME_SOLVER else 1e-6
    for field in ("upper_bound", "incumbent"):
        assert got[field] == pytest.approx(want[field], rel=tol, abs=tol), \
            (case_id, field)
    assert (got["witness"] is None) == (want["witness"] is None), case_id
    if not SAME_SOLVER:
        return
    if want["witness"] is not None:
        assert got["witness"] == pytest.approx(want["witness"], rel=tol,
                                               abs=tol), case_id
    differs = SIBLING_PRUNING.get(case_id, {})
    for field in ("nodes", "lp_solves"):
        pair = (want[field], got[field])
        assert pair == differs.get(field, (want[field], want[field])), \
            (case_id, field, pair)
    if "leaves" in differs:
        pair = (len(want["leaves"]), len(got["leaves"]))
        assert pair == differs["leaves"], (case_id, pair)
        assert leaves_cover(_leaf_maps(got)), case_id
    else:
        assert got["leaves"] == want["leaves"], case_id


def test_golden_covers_every_case():
    assert set(CASES) == {f"{seed}-{mode}" for seed in SEEDS
                          for mode in MODES}
    statuses = {mode: {CASES[f"{s}-{mode}"]["status"] for s in SEEDS}
                for mode in MODES}
    assert statuses["optimise"] == {"optimal"}
    assert statuses["refuted"] == {"threshold_refuted"}
    assert statuses["proved"] <= {"threshold_proved", "optimal"}


@pytest.mark.parametrize("mode", MODES)
def test_search_matches_golden(current, mode):
    for seed in SEEDS:
        case_id = f"{seed}-{mode}"
        assert_matches_golden(case_id, current[case_id], CASES[case_id])


def test_sibling_pruning_list_is_exact(current):
    if not SAME_SOLVER:
        pytest.skip("LP counts are compared under the recording SciPy only")
    differing = {case_id for case_id in CASES
                 if CASES[case_id]["lp_solves"] != current[case_id]["lp_solves"]}
    assert differing == set(SIBLING_PRUNING)


@pytest.mark.parametrize("seed", [8, 26])
def test_width_rule(current, seed):
    """``frontier_width=None`` is width 1 on one worker and
    ``FRONTIER_WIDTH`` on a pool."""
    assert run_case(seed, "optimise", frontier_width=1) == \
        current[f"{seed}-optimise"]
    assert run_case(seed, "optimise", workers=2) == \
        run_case(seed, "optimise", workers=2, frontier_width=FRONTIER_WIDTH)
