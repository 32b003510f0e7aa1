"""Solver-level proof reuse (Section VI): branching certificates + presolve.

The paper's concluding remarks ask how exact solvers can be engineered to
enable proof reuse, observing that MILP *cuts* lose validity upon domain
enlargement.  Branching decisions, unlike cuts, are partitions -- they
survive both fine-tuning and enlargement.  This bench measures:

* **cold vs warm threshold proofs**: LP count and wall time of a full
  branch-and-bound proof (a :class:`~repro.api.ThresholdSpec` through the
  engine) vs re-proving the fine-tuned network warm-started from the
  recorded certificate (:func:`repro.certs.prove_threshold` with
  ``cert=``);
* **LP bound tightening**: the node-count reduction exact search gains from
  optimisation-based presolve, against its LP cost.
"""

import numpy as np
import pytest

from repro.api import ThresholdSpec, VerificationEngine, VerifyConfig
from repro.certs import certificate_key, load_certificate, prove_threshold
from repro.domains import Box
from repro.exact import BaBSolver, tighten_preactivation_bounds
from repro.exact.encoding import NetworkEncoding
from repro.nn import random_relu_network
from repro.serve import JobStore

C = np.array([1.0])
CONFIG = VerifyConfig()

@pytest.fixture(scope="module")
def hard_instance():
    """An instance whose threshold proof needs a non-trivial tree."""
    net = random_relu_network([5, 14, 12, 1], seed=11, weight_scale=0.9)
    box = Box(-0.8 * np.ones(5), 0.8 * np.ones(5))
    opt = BaBSolver(net, box, node_limit=20000).maximize(C)
    threshold = opt.upper_bound + 1e-3  # tight: forces real bounding work
    return net, box, threshold


def cold_proof(net, box, threshold, certs=None):
    """From-scratch threshold proof through the engine."""
    config = CONFIG if certs is None else CONFIG.replace(certs="record")
    return VerificationEngine(config, certs=certs).verify(ThresholdSpec(
        network=net, input_box=box, objective=C, threshold=threshold))


def recorded_certificate(net, box, threshold):
    """The certificate a recording engine stores for a cold proof."""
    with JobStore() as store:
        assert cold_proof(net, box, threshold, certs=store).holds is True
        cert_json = store.cert_get(
            certificate_key(net, box, C, threshold, CONFIG))
    return load_certificate(cert_json)


def warm_proof(net, box, threshold, cert):
    result, _ = prove_threshold(net, box, C, threshold, CONFIG, cert=cert)
    return result


def test_certificate_roundtrip(hard_instance):
    net, box, threshold = hard_instance
    cert = recorded_certificate(net, box, threshold)
    tuned = net.perturb(1e-5, np.random.default_rng(0))
    warm = warm_proof(tuned, box, threshold, cert)
    assert warm.status in ("threshold_proved", "optimal")


def test_report_cold_vs_warm(hard_instance, capsys):
    net, box, threshold = hard_instance
    cert = recorded_certificate(net, box, threshold)
    tuned = net.perturb(1e-5, np.random.default_rng(0))
    cold_again = cold_proof(tuned, box, threshold).result
    warm = warm_proof(tuned, box, threshold, cert)
    with capsys.disabled():
        print("\nBranching-certificate reuse (fine-tuned network, "
              f"threshold {threshold:.4g})")
        print(f"  cold proof : {cold_again.lp_solves:>5} LPs, "
              f"{cold_again.nodes:>4} nodes")
        print(f"  warm proof : {warm.lp_solves:>5} LPs, "
              f"{warm.nodes:>4} nodes  "
              f"(certificate: {cert.num_leaves} leaves)")
    assert warm.status in ("threshold_proved", "optimal")
    # Warm re-proof never *branches* more than the cold proof did.
    assert warm.nodes <= max(cold_again.nodes, 1)


def test_report_tightening(hard_instance, capsys):
    net, box, _ = hard_instance
    plain = BaBSolver(net, box, node_limit=20000).maximize(np.array([1.0]))
    tightened, stats = tighten_preactivation_bounds(net, box)
    enc = NetworkEncoding(net, box, pre_boxes=tightened)
    boosted = BaBSolver(net, box, encoding=enc,
                        node_limit=20000).maximize(np.array([1.0]))
    with capsys.disabled():
        print("\nLP bound tightening (presolve) on exact optimisation")
        print(f"  presolve   : {stats.lp_solves} LPs, "
              f"{stats.neurons_stabilized} neurons stabilised, "
              f"{stats.width_reduction:.1%} width removed")
        print(f"  plain BaB  : {plain.nodes:>4} nodes, {plain.lp_solves:>5} LPs")
        print(f"  boosted BaB: {boosted.nodes:>4} nodes, "
              f"{boosted.lp_solves:>5} LPs")
    assert boosted.upper_bound == pytest.approx(plain.upper_bound, abs=1e-5)
    # Node counts are not monotone (tightened bounds change the branching
    # order); the invariant is identical optima from fewer *unstable*
    # neurons to ever branch on.
    assert stats.neurons_stabilized >= 0


def test_benchmark_cold_proof(hard_instance, benchmark):
    net, box, threshold = hard_instance
    benchmark.pedantic(lambda: cold_proof(net, box, threshold),
                       rounds=3, iterations=1)


def test_benchmark_warm_proof(hard_instance, benchmark):
    net, box, threshold = hard_instance
    cert = recorded_certificate(net, box, threshold)
    tuned = net.perturb(1e-5, np.random.default_rng(0))
    benchmark.pedantic(lambda: warm_proof(tuned, box, threshold, cert),
                       rounds=3, iterations=1)


def test_benchmark_tightening_pass(hard_instance, benchmark):
    net, box, _ = hard_instance
    benchmark.pedantic(
        lambda: tighten_preactivation_bounds(net, box, max_lp_solves=200),
        rounds=3, iterations=1)
