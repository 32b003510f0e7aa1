"""JSON-safe encodings of the object model the Specs reference.

Spec files must survive ``json.dumps`` / ``json.loads`` byte-exactly --
*and* be readable by non-Python peers (the ROADMAP plans remote executors
speaking this wire form) -- so everything here maps to strict RFC-8259
JSON:

* arrays -> nested lists (Python's ``json`` emits ``repr``-style doubles,
  which round-trip binary64 exactly); non-finite values, legal for box
  bounds and recorded timings, are encoded as the strings ``"inf"`` /
  ``"-inf"`` / ``"nan"`` instead of the non-standard ``Infinity``/``NaN``
  tokens (``float()`` parses them back exactly);
* networks -> ``{"input_dim", "layers": [{"class", "config", "arrays"}]}``
  reusing each layer's own ``config()`` / ``arrays()`` contract (the same
  one the ``.npz`` serializer trusts);
* proof artifacts -> the :func:`repro.core.artifacts.save_artifacts`
  layout transliterated to JSON, with the network abstraction stored as
  its deterministic build recipe.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional

import numpy as np

from repro.errors import SerializationError
from repro.domains.box import Box
from repro.nn.network import Network
from repro.nn.serialize import _LAYER_CLASSES
from repro.core.artifacts import (
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
)
from repro.core.problem import VerificationProblem

__all__ = [
    "float_to_jsonable",
    "array_to_jsonable",
    "array_from_jsonable",
    "box_to_jsonable",
    "box_from_jsonable",
    "network_to_jsonable",
    "network_from_jsonable",
    "artifacts_to_jsonable",
    "artifacts_from_jsonable",
    "config_to_json",
    "config_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "VERDICT_TAGS",
    "verdict_to_dict",
    "verdict_from_dict",
    "verdict_to_json",
    "verdict_from_json",
    "canonical_verdict_json",
    "verdict_decision_json",
]


# ------------------------------------------------------------------- floats
def float_to_jsonable(value: float):
    """A strict-JSON scalar: the float itself, or ``"inf"``/``"-inf"``/
    ``"nan"`` for the values RFC 8259 cannot carry (``float()`` inverts)."""
    value = float(value)
    return value if math.isfinite(value) else str(value)


def _encode_nested(values):
    if isinstance(values, list):
        return [_encode_nested(v) for v in values]
    return float_to_jsonable(values)


# ------------------------------------------------------------------- arrays
def array_to_jsonable(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=np.float64)
    nested = arr.tolist()
    if np.isfinite(arr).all():
        return nested
    return _encode_nested(nested)


def array_from_jsonable(data) -> np.ndarray:
    # np.float64 parses the "inf"/"-inf"/"nan" string encoding directly.
    return np.asarray(data, dtype=np.float64)


# -------------------------------------------------------------------- boxes
def box_to_jsonable(box: Box) -> Dict:
    return {"lower": array_to_jsonable(box.lower),
            "upper": array_to_jsonable(box.upper)}


def box_from_jsonable(data: Dict) -> Box:
    return Box(array_from_jsonable(data["lower"]),
               array_from_jsonable(data["upper"]))


# ----------------------------------------------------------------- networks
def network_to_jsonable(network: Network) -> Dict:
    return {
        "input_dim": int(network.input_dim),
        "layers": [
            {
                "class": type(layer).__name__,
                "config": layer.config(),
                "arrays": {name: array_to_jsonable(arr)
                           for name, arr in layer.arrays().items()},
            }
            for layer in network.layers
        ],
    }


def network_from_jsonable(data: Dict) -> Network:
    layers = []
    for spec in data["layers"]:
        cls_name = spec["class"]
        if cls_name not in _LAYER_CLASSES:
            raise SerializationError(f"unknown layer class {cls_name!r}")
        arrays = {name: array_from_jsonable(arr)
                  for name, arr in spec["arrays"].items()}
        layers.append(_LAYER_CLASSES[cls_name]._from_parts(spec["config"], arrays))
    return Network(layers, input_dim=int(data["input_dim"]))


# ---------------------------------------------------------------- artifacts
def artifacts_to_jsonable(artifacts: ProofArtifacts) -> Dict:
    """JSON twin of :func:`repro.core.artifacts.save_artifacts`."""
    data: Dict = {
        "problem": {
            "network": network_to_jsonable(artifacts.problem.network),
            "din": box_to_jsonable(artifacts.problem.din),
            "dout": box_to_jsonable(artifacts.problem.dout),
        },
        "states_prove_safety": bool(artifacts.states_prove_safety),
        "original_time": float_to_jsonable(artifacts.original_time),
        "notes": dict(artifacts.notes),
        "states": None,
        "lipschitz": None,
        "netabs": None,
        "output_range": None,
    }
    if artifacts.states is not None:
        data["states"] = {
            "domain": artifacts.states.domain,
            "boxes": [box_to_jsonable(b) for b in artifacts.states.boxes],
        }
    if artifacts.lipschitz is not None:
        data["lipschitz"] = {
            # ell is validated finite, but ord=inf (the L∞ norm) is legal.
            "ell": float_to_jsonable(artifacts.lipschitz.ell),
            "ord": float_to_jsonable(artifacts.lipschitz.ord),
            "method": artifacts.lipschitz.method,
        }
    if artifacts.network_abstraction is not None:
        absn = artifacts.network_abstraction
        data["netabs"] = {
            "num_groups": int(absn.num_groups),
            "margin": float(absn.margin),
        }
    if artifacts.output_range is not None:
        data["output_range"] = box_to_jsonable(artifacts.output_range)
    return data


def artifacts_from_jsonable(data: Dict) -> ProofArtifacts:
    network = network_from_jsonable(data["problem"]["network"])
    problem = VerificationProblem(
        network=network,
        din=box_from_jsonable(data["problem"]["din"]),
        dout=box_from_jsonable(data["problem"]["dout"]),
    )
    states = None
    if data.get("states") is not None:
        states = StateAbstractions(
            boxes=[box_from_jsonable(b) for b in data["states"]["boxes"]],
            domain=data["states"]["domain"],
        )
    lipschitz = None
    if data.get("lipschitz") is not None:
        lip = data["lipschitz"]
        lipschitz = LipschitzCertificate(
            ell=float(lip["ell"]), ord=float(lip["ord"]), method=lip["method"])
    netabs = None
    if data.get("netabs") is not None:
        from repro.netabs.abstraction import build_abstraction

        recipe = data["netabs"]
        netabs = build_abstraction(network, problem.din,
                                   num_groups=int(recipe["num_groups"]),
                                   margin=float(recipe["margin"]))
    output_range = None
    if data.get("output_range") is not None:
        output_range = box_from_jsonable(data["output_range"])
    return ProofArtifacts(
        problem=problem,
        states=states,
        lipschitz=lipschitz,
        network_abstraction=netabs,
        output_range=output_range,
        states_prove_safety=bool(data["states_prove_safety"]),
        original_time=float(data["original_time"]),
        notes=dict(data.get("notes", {})),
    )


# ------------------------------------------------------------------ configs
def config_to_json(config, **dumps_kwargs) -> str:
    """Canonical JSON of a :class:`~repro.api.config.VerifyConfig`.

    ``sort_keys`` is forced so one config value maps to one byte string --
    the serving layer fingerprints ``(spec, config)`` pairs with this.
    """
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(config.to_dict(), allow_nan=False, **dumps_kwargs)


def config_from_json(text: str):
    """Inverse of :func:`config_to_json` (unknown keys rejected loudly)."""
    from repro.api.config import VerifyConfig

    data = json.loads(text)
    if not isinstance(data, dict):
        raise SerializationError(
            f"a VerifyConfig document must be a JSON object, got "
            f"{type(data).__name__}")
    return VerifyConfig.from_dict(data)


# ------------------------------------------------------------- certificates
def _phase_leaves_to_jsonable(leaves) -> list:
    # PhaseMap items are sorted so one leaf set has one canonical byte
    # form regardless of solver-side dict insertion order.
    return [
        [[int(layer), int(unit), int(phase)]
         for (layer, unit), phase in sorted(leaf.items())]
        for leaf in leaves
    ]


def _phase_leaves_from_jsonable(data) -> list:
    return [{(int(layer), int(unit)): int(phase)
             for layer, unit, phase in leaf}
            for leaf in data]


def _leaf_duals_to_jsonable(duals) -> list:
    # Per leaf: [dual_ub, dual_eq] float lists, or None where the record
    # solve had no usable multipliers (infeasible leaf, absent rows).
    return [
        None if entry is None else
        [array_to_jsonable(np.asarray(part, dtype=np.float64))
         for part in entry]
        for entry in duals
    ]


def _leaf_duals_from_jsonable(data) -> list:
    return [
        None if entry is None else
        tuple(array_from_jsonable(part) for part in entry)
        for entry in data
    ]


def certificate_to_json(cert, **dumps_kwargs) -> str:
    """Canonical wire form of a :class:`repro.certs.Certificate`.

    ``sort_keys`` is forced: the serve-side store persists and compares
    these strings, so one certificate value must map to one byte string.
    This is the *only* form certificate payloads travel in between
    modules (the ``cert-discipline`` lint rule holds callers to it).
    """
    data = {
        "version": int(cert.version),
        "objective": array_to_jsonable(cert.objective),
        "threshold": float_to_jsonable(cert.threshold),
        "leaves": _phase_leaves_to_jsonable(cert.leaves),
        "leaf_bounds": [float_to_jsonable(b) for b in cert.leaf_bounds],
        "leaf_verdicts": [str(v) for v in cert.leaf_verdicts],
        "leaf_duals": _leaf_duals_to_jsonable(cert.leaf_duals),
        "block_dims": [int(d) for d in cert.block_dims],
        "structural_fp": str(cert.structural_fp),
        "content_fp": str(cert.content_fp),
        "config_digest": str(cert.config_digest),
        "status": str(cert.status),
        "upper_bound": float_to_jsonable(cert.upper_bound),
        "lp_solves": int(cert.lp_solves),
    }
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(data, allow_nan=False, **dumps_kwargs)


def certificate_from_json(text: str):
    """Inverse of :func:`certificate_to_json`.

    Raises :class:`SerializationError` on structural garbage; numeric
    fields parse strictly.  Callers replaying *untrusted* store content
    should go through :func:`repro.certs.load_certificate`, which funnels
    every malformation into one rejection path.
    """
    from repro.certs.certificate import Certificate

    data = json.loads(text)
    if not isinstance(data, dict):
        raise SerializationError(
            f"a certificate document must be a JSON object, got "
            f"{type(data).__name__}")
    return Certificate(
        objective=array_from_jsonable(data["objective"]),
        threshold=float(data["threshold"]),
        leaves=_phase_leaves_from_jsonable(data["leaves"]),
        leaf_bounds=[float(b) for b in data.get("leaf_bounds", [])],
        leaf_verdicts=[str(v) for v in data.get("leaf_verdicts", [])],
        leaf_duals=_leaf_duals_from_jsonable(data.get("leaf_duals", [])),
        block_dims=[int(d) for d in data["block_dims"]],
        structural_fp=str(data["structural_fp"]),
        content_fp=str(data.get("content_fp", "")),
        config_digest=str(data["config_digest"]),
        status=str(data.get("status", "")),
        upper_bound=float(data.get("upper_bound", 0.0)),
        lp_solves=int(data.get("lp_solves", 0)),
        version=int(data["version"]),
    )


# ----------------------------------------------------------------- verdicts
#: Wire tag <-> Verdict class name (classes resolved lazily; the verdict
#: module sits above the solver layers this module must not eagerly pull).
VERDICT_TAGS = {
    "containment": "ContainmentVerdict",
    "range": "RangeVerdict",
    "threshold": "ThresholdVerdict",
    "maximize": "MaximizeVerdict",
    "proposition": "PropositionVerdict",
    "continuous": "ContinuousVerdict",
    "baseline": "BaselineVerdict",
    "failed": "FailedVerdict",
}


def _provenance_to_jsonable(prov) -> Dict:
    return {
        "elapsed": float_to_jsonable(prov.elapsed),
        "lp_solves": int(prov.lp_solves),
        "nodes": int(prov.nodes),
        "rounds": int(prov.rounds),
        "workers": int(prov.workers),
        "encoding_reuse": {str(k): int(v)
                           for k, v in prov.encoding_reuse.items()},
        "cached": bool(prov.cached),
        "nodes_reused": int(prov.nodes_reused),
        "lp_solves_saved": int(prov.lp_solves_saved),
        "cert_hit": bool(prov.cert_hit),
    }


def _provenance_from_jsonable(data: Dict):
    from repro.api.verdict import Provenance

    return Provenance(
        elapsed=float(data["elapsed"]),
        lp_solves=int(data["lp_solves"]),
        nodes=int(data["nodes"]),
        rounds=int(data["rounds"]),
        workers=int(data["workers"]),
        encoding_reuse={str(k): int(v)
                        for k, v in data.get("encoding_reuse", {}).items()},
        cached=bool(data.get("cached", False)),
        # .get defaults: pre-certificate wire documents lack these keys.
        nodes_reused=int(data.get("nodes_reused", 0)),
        lp_solves_saved=int(data.get("lp_solves_saved", 0)),
        cert_hit=bool(data.get("cert_hit", False)),
    )


def _opt_array_to_jsonable(arr) -> Optional[list]:
    return None if arr is None else array_to_jsonable(arr)


def _opt_array_from_jsonable(data) -> Optional[np.ndarray]:
    return None if data is None else array_from_jsonable(data)


def _bab_result_to_jsonable(result) -> Dict:
    return {
        "status": result.status,
        "upper_bound": float_to_jsonable(result.upper_bound),
        "incumbent": float_to_jsonable(result.incumbent),
        "witness": _opt_array_to_jsonable(result.witness),
        "nodes": int(result.nodes),
        "lp_solves": int(result.lp_solves),
        "rounds": int(result.rounds),
        "max_batch": int(result.max_batch),
        "mean_batch": float_to_jsonable(result.mean_batch),
        "workers": int(result.workers),
        "nodes_reused": int(result.nodes_reused),
        "lp_solves_saved": int(result.lp_solves_saved),
    }


def _bab_result_from_jsonable(data: Dict):
    from repro.exact.bab import BaBResult

    return BaBResult(
        status=data["status"],
        upper_bound=float(data["upper_bound"]),
        incumbent=float(data["incumbent"]),
        witness=_opt_array_from_jsonable(data.get("witness")),
        nodes=int(data["nodes"]),
        lp_solves=int(data["lp_solves"]),
        rounds=int(data.get("rounds", 0)),
        max_batch=int(data.get("max_batch", 0)),
        mean_batch=float(data.get("mean_batch", 0.0)),
        workers=int(data.get("workers", 1)),
        nodes_reused=int(data.get("nodes_reused", 0)),
        lp_solves_saved=int(data.get("lp_solves_saved", 0)),
    )


def _containment_result_to_jsonable(result) -> Dict:
    return {
        "holds": result.holds,
        "method": result.method,
        "counterexample": _opt_array_to_jsonable(result.counterexample),
        "violation": float_to_jsonable(result.violation),
        "elapsed": float_to_jsonable(result.elapsed),
        "lp_solves": int(result.lp_solves),
        "nodes": int(result.nodes),
        "detail": result.detail,
    }


def _containment_result_from_jsonable(data: Dict):
    from repro.exact.verify import ContainmentResult

    return ContainmentResult(
        holds=data["holds"],
        method=data["method"],
        counterexample=_opt_array_from_jsonable(data.get("counterexample")),
        violation=float(data.get("violation", 0.0)),
        elapsed=float(data.get("elapsed", 0.0)),
        lp_solves=int(data.get("lp_solves", 0)),
        nodes=int(data.get("nodes", 0)),
        detail=data.get("detail", ""),
    )


def _certificate_to_jsonable(cert) -> Dict:
    return {
        "objective": array_to_jsonable(cert.objective),
        "threshold": float_to_jsonable(cert.threshold),
        "leaves": _phase_leaves_to_jsonable(cert.leaves),
        "block_dims": [int(d) for d in cert.block_dims],
    }


def _certificate_from_jsonable(data: Dict):
    from repro.certs.certificate import BranchCertificate

    return BranchCertificate(
        objective=array_from_jsonable(data["objective"]),
        threshold=float(data["threshold"]),
        leaves=_phase_leaves_from_jsonable(data["leaves"]),
        block_dims=[int(d) for d in data["block_dims"]],
    )


def _subproblem_to_jsonable(sub) -> Dict:
    return {
        "name": sub.name,
        "holds": sub.holds,
        "elapsed": float_to_jsonable(sub.elapsed),
        "detail": sub.detail,
        "lp_solves": int(sub.lp_solves),
    }


def _subproblem_from_jsonable(data: Dict):
    from repro.core.propositions import SubproblemReport

    return SubproblemReport(
        name=data["name"],
        holds=data["holds"],
        elapsed=float(data["elapsed"]),
        detail=data.get("detail", ""),
        lp_solves=int(data.get("lp_solves", 0)),
    )


def _proposition_result_to_jsonable(result) -> Dict:
    return {
        "proposition": result.proposition,
        "holds": result.holds,
        "subproblems": [_subproblem_to_jsonable(s)
                        for s in result.subproblems],
        "elapsed": float_to_jsonable(result.elapsed),
        "detail": result.detail,
    }


def _proposition_result_from_jsonable(data: Dict):
    from repro.core.propositions import PropositionResult

    return PropositionResult(
        proposition=data["proposition"],
        holds=data["holds"],
        subproblems=[_subproblem_from_jsonable(s)
                     for s in data.get("subproblems", [])],
        elapsed=float(data.get("elapsed", 0.0)),
        detail=data.get("detail", ""),
    )


def _fixing_result_to_jsonable(result) -> Optional[Dict]:
    if result is None:
        return None
    return {
        "holds": result.holds,
        "strategy": result.strategy,
        "replaced_layer": result.replaced_layer,
        "reentry_layer": result.reentry_layer,
        "subproblems": [_subproblem_to_jsonable(s)
                        for s in result.subproblems],
        "elapsed": float_to_jsonable(result.elapsed),
    }


def _fixing_result_from_jsonable(data) -> Optional[object]:
    if data is None:
        return None
    from repro.core.fixing import FixingResult

    return FixingResult(
        holds=data["holds"],
        strategy=data["strategy"],
        replaced_layer=data.get("replaced_layer"),
        reentry_layer=data.get("reentry_layer"),
        subproblems=[_subproblem_from_jsonable(s)
                     for s in data.get("subproblems", [])],
        elapsed=float(data.get("elapsed", 0.0)),
    )


def _continuous_result_to_jsonable(result) -> Dict:
    return {
        "holds": result.holds,
        "strategy": result.strategy,
        "attempts": [_proposition_result_to_jsonable(a)
                     for a in result.attempts],
        "fixing": _fixing_result_to_jsonable(result.fixing),
        "elapsed": float_to_jsonable(result.elapsed),
        "winning_max_subproblem_time":
            float_to_jsonable(result.winning_max_subproblem_time),
        "winning_time": float_to_jsonable(result.winning_time),
        "encoding_reuse": {str(k): int(v)
                           for k, v in result.encoding_reuse.items()},
        "nodes_reused": int(result.nodes_reused),
        "lp_solves_saved": int(result.lp_solves_saved),
    }


def _continuous_result_from_jsonable(data: Dict):
    from repro.core.continuous import ContinuousResult

    return ContinuousResult(
        holds=data["holds"],
        strategy=data["strategy"],
        attempts=[_proposition_result_from_jsonable(a)
                  for a in data.get("attempts", [])],
        fixing=_fixing_result_from_jsonable(data.get("fixing")),
        elapsed=float(data.get("elapsed", 0.0)),
        winning_max_subproblem_time=float(
            data.get("winning_max_subproblem_time", 0.0)),
        winning_time=float(data.get("winning_time", 0.0)),
        encoding_reuse={str(k): int(v)
                        for k, v in data.get("encoding_reuse", {}).items()},
        nodes_reused=int(data.get("nodes_reused", 0)),
        lp_solves_saved=int(data.get("lp_solves_saved", 0)),
    )


def _baseline_outcome_to_jsonable(outcome) -> Dict:
    return {
        "holds": outcome.holds,
        "artifacts": artifacts_to_jsonable(outcome.artifacts),
        "elapsed": float_to_jsonable(outcome.elapsed),
        "detail": outcome.detail,
        "lp_solves": int(outcome.lp_solves),
        "nodes": int(outcome.nodes),
    }


def _baseline_outcome_from_jsonable(data: Dict):
    from repro.core.verifier import BaselineOutcome

    return BaselineOutcome(
        holds=data["holds"],
        artifacts=artifacts_from_jsonable(data["artifacts"]),
        elapsed=float(data["elapsed"]),
        detail=data.get("detail", ""),
        lp_solves=int(data.get("lp_solves", 0)),
        nodes=int(data.get("nodes", 0)),
    )


def verdict_to_dict(verdict) -> Dict:
    """The JSON-safe wire form of any :class:`~repro.api.verdict.Verdict`.

    The envelope is ``{"verdict": <tag>, "spec_type", "holds", "detail",
    "provenance", ...payload}`` -- strict RFC-8259 like the Spec wire form
    (non-finite floats travel as ``"inf"``/``"-inf"``/``"nan"`` strings),
    so remote executors can ship verdicts back over any JSON channel.
    """
    from repro.api import verdict as verdict_module

    tag = None
    for candidate, cls_name in VERDICT_TAGS.items():
        if type(verdict) is getattr(verdict_module, cls_name):
            tag = candidate
            break
    if tag is None:
        raise SerializationError(
            f"not a wire-serializable Verdict: {type(verdict).__name__}")
    data: Dict = {
        "verdict": tag,
        "spec_type": verdict.spec_type,
        "holds": verdict.holds,
        "detail": verdict.detail,
        "provenance": _provenance_to_jsonable(verdict.provenance),
    }
    if tag == "containment":
        data["result"] = _containment_result_to_jsonable(verdict.result)
    elif tag == "range":
        data["output_range"] = box_to_jsonable(verdict.output_range)
    elif tag == "threshold":
        data["result"] = _bab_result_to_jsonable(verdict.result)
        data["certificate"] = (
            None if verdict.certificate is None
            else _certificate_to_jsonable(verdict.certificate))
    elif tag == "maximize":
        data["result"] = _bab_result_to_jsonable(verdict.result)
    elif tag == "proposition":
        data["result"] = _proposition_result_to_jsonable(verdict.result)
    elif tag == "continuous":
        data["result"] = _continuous_result_to_jsonable(verdict.result)
    elif tag == "baseline":
        data["result"] = _baseline_outcome_to_jsonable(verdict.result)
    else:  # failed
        data["error"] = verdict.error
        data["error_type"] = verdict.error_type
    return data


def verdict_from_dict(data: Dict):
    """Inverse of :func:`verdict_to_dict`."""
    from repro.api import verdict as verdict_module

    try:
        tag = data["verdict"]
    except (TypeError, KeyError):
        raise SerializationError(
            'a verdict dict needs a "verdict" tag '
            f"(one of {sorted(VERDICT_TAGS)})") from None
    if tag not in VERDICT_TAGS:
        raise SerializationError(
            f"unknown verdict type {tag!r}; known: {sorted(VERDICT_TAGS)}")
    cls = getattr(verdict_module, VERDICT_TAGS[tag])
    try:
        common = {
            "spec_type": data["spec_type"],
            "holds": data["holds"],
            "detail": data.get("detail", ""),
            "provenance": _provenance_from_jsonable(data["provenance"]),
        }
        if tag == "containment":
            return cls(result=_containment_result_from_jsonable(
                data["result"]), **common)
        if tag == "range":
            return cls(output_range=box_from_jsonable(data["output_range"]),
                       **common)
        if tag == "threshold":
            certificate = data.get("certificate")
            return cls(
                result=_bab_result_from_jsonable(data["result"]),
                certificate=None if certificate is None
                else _certificate_from_jsonable(certificate),
                **common)
        if tag == "maximize":
            return cls(result=_bab_result_from_jsonable(data["result"]),
                       **common)
        if tag == "proposition":
            return cls(result=_proposition_result_from_jsonable(
                data["result"]), **common)
        if tag == "continuous":
            return cls(result=_continuous_result_from_jsonable(
                data["result"]), **common)
        if tag == "baseline":
            return cls(result=_baseline_outcome_from_jsonable(
                data["result"]), **common)
        return cls(error=data.get("error", ""),
                   error_type=data.get("error_type", ""), **common)
    except KeyError as exc:
        raise SerializationError(
            f"verdict type {tag!r} is missing required key {exc.args[0]!r}"
        ) from None


def verdict_to_json(verdict, **dumps_kwargs) -> str:
    """``json.dumps`` of :func:`verdict_to_dict` (strict RFC-8259)."""
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(verdict_to_dict(verdict), allow_nan=False,
                      **dumps_kwargs)


def verdict_from_json(text: str):
    """Inverse of :func:`verdict_to_json`."""
    return verdict_from_dict(json.loads(text))


#: Keys that describe *how long / how cached* a particular run was, not
#: what the answer is; stripped recursively by the canonical form.
#: ``nodes_reused``/``lp_solves_saved`` are warm-start economics embedded
#: in result payloads -- bookkeeping of one run, like ``elapsed``.
_RUN_BOOKKEEPING_KEYS = frozenset({
    "provenance", "elapsed", "winning_time", "winning_max_subproblem_time",
    "original_time", "encoding_reuse", "nodes_reused", "lp_solves_saved",
})


def _strip_bookkeeping(value):
    if isinstance(value, dict):
        return {k: _strip_bookkeeping(v) for k, v in value.items()
                if k not in _RUN_BOOKKEEPING_KEYS}
    if isinstance(value, list):
        return [_strip_bookkeeping(v) for v in value]
    return value


def canonical_verdict_json(verdict) -> str:
    """The *value* of a verdict as one canonical byte string.

    Provenance and embedded timings (wall clocks, cache counters, pool
    width live under ``provenance``; legacy results also carry their own
    ``elapsed`` fields) are bookkeeping about a particular run, not part
    of the answer; they are stripped recursively so the same spec solved
    directly, over HTTP, or replayed from the verdict cache compares
    byte-identical.
    """
    return json.dumps(_strip_bookkeeping(verdict_to_dict(verdict)),
                      allow_nan=False, sort_keys=True)


def verdict_decision_json(verdict) -> str:
    """The *decision* of a verdict as one canonical byte string.

    Even the canonical form keeps the full result payload -- LP counts,
    search-derived bounds, witnesses -- which are properties of one search
    *trajectory*.  A warm-started delta verification re-proves the same
    property along a different trajectory (that is the point), so its
    soundness gate compares decisions: what was asked, what was answered,
    and how the solver terminated.  Everything else is cost, not answer.
    """
    data = verdict_to_dict(verdict)
    decision = {
        "verdict": data["verdict"],
        "spec_type": data["spec_type"],
        "holds": data["holds"],
    }
    result = data.get("result")
    if isinstance(result, dict) and "status" in result:
        status = result["status"]
        if data["holds"] is True and status in ("optimal",
                                                "threshold_proved"):
            # Both statuses certify the same decision (bound at or below
            # the threshold); which one a search lands on depends on
            # whether the optimality gap or the threshold prune closes
            # first -- trajectory, not answer.
            status = "proved"
        decision["status"] = status
    return json.dumps(decision, allow_nan=False, sort_keys=True)
