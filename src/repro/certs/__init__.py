"""Delta verification: reusable certificates for warm-starting BaB.

The paper's engineering loop re-verifies after every weight change, and a
from-scratch branch and bound pays the full search each time even though
consecutive networks differ by a small perturbation.  This package turns a
*proved* threshold solve into a persistent :class:`Certificate` -- the
final covering frontier of settled phase-map leaves, their per-leaf bounds
and verdicts, their node-LP **dual multipliers**, plus the fingerprints
pinning what was proved -- and replays it against the *next* network
version: one batched float64 re-screen of all stored leaves against the
new weights (phase-clamped interval/affine bounds, tightened per leaf by
a Lagrangian evaluation of the stored duals -- weak duality makes any
multipliers sound), then delta-LP re-solves only for the leaves whose
bounds actually moved.

Soundness contract (the one rule everything here obeys): a stored
certificate is **never trusted**.  Its leaves are only *hints* -- a warm
start for :meth:`repro.exact.bab.BaBSolver.maximize`, whose batched
re-screen re-derives every reused bound in float64 against the current
network before acceptance, and whose search completes whatever the screen
leaves open.  A stale, corrupted, or adversarial certificate is either
rejected outright by :func:`validate_certificate` (malformed payload,
wrong architecture, non-covering leaves) or degrades into a slower -- but
still sound and complete -- solve.  It can never flip a verdict.

Certificate payloads cross module boundaries only as ``*_json`` wire
strings (see :func:`repro.api.serialize.certificate_to_json`) and are
persisted only through the serve-side :class:`~repro.serve.store.JobStore`
API -- the ``cert-discipline`` lint rule enforces both.
"""

from repro.certs.certificate import (
    CERT_VERSION,
    BranchCertificate,
    Certificate,
    certificate_key,
    content_fingerprint,
    leaves_cover,
    load_certificate,
    structural_fingerprint,
    validate_certificate,
)
from repro.certs.reuse import (
    dual_start_screen,
    extract_certificate,
    prove_threshold,
)

__all__ = [
    "BranchCertificate",
    "CERT_VERSION",
    "Certificate",
    "certificate_key",
    "content_fingerprint",
    "dual_start_screen",
    "extract_certificate",
    "leaves_cover",
    "load_certificate",
    "prove_threshold",
    "structural_fingerprint",
    "validate_certificate",
]
