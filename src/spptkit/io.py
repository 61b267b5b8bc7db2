"""JSON serialization for states, certificates, and verdicts.

State file format: a UTF-8 JSON object

    {"d": int, "normalized": bool, "rho": [[[re, im], ...], ...]}

with the 2d x 2d matrix as nested row-major lists of [re, im] pairs.
Floats are written with shortest round-trip precision (up to 17 significant
digits), so write -> read -> write is bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from . import range_criterion, separability, sppt
from .errors import ParseError
from .states import QubitQuditState, make_state


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested [re, im] lists for a complex matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def pairs_to_matrix(data) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed matrix data: {exc}") from exc
    if len({len(row) for row in rows}) > 1:
        raise ParseError("matrix rows differ in length")
    m = np.array(rows, dtype=complex)
    if m.ndim != 2:
        raise ParseError("matrix data must be two-dimensional")
    return m


def vector_to_pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def state_to_dict(s: QubitQuditState) -> dict:
    return {"d": s.d, "normalized": s.normalized, "rho": matrix_to_pairs(s.rho)}


def state_from_dict(data) -> QubitQuditState:
    if not isinstance(data, dict):
        raise ParseError("state file must contain a JSON object")
    try:
        d, normalized, rho = data["d"], data["normalized"], data["rho"]
    except KeyError as exc:
        raise ParseError(f"state file is missing key {exc}") from exc
    # JSON booleans load as bool, a subclass of int: rule them out for d.
    if not isinstance(d, int) or isinstance(d, bool):
        raise ParseError(f"d must be an integer, got {d!r}")
    if not isinstance(normalized, bool):
        raise ParseError(f"normalized must be true or false, got {normalized!r}")
    return make_state(d, pairs_to_matrix(rho), normalized=normalized)


def dumps_state(s: QubitQuditState) -> str:
    return json.dumps(state_to_dict(s), separators=(",", ":")) + "\n"


def loads_state(text: str) -> QubitQuditState:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data)


def save_state(s: QubitQuditState, path) -> None:
    Path(path).write_text(dumps_state(s), encoding="utf-8")


def load_state(path) -> QubitQuditState:
    return loads_state(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Certificates and verdicts
# ---------------------------------------------------------------------------

def decomposition_to_dict(dec: separability.SeparableDecomposition) -> dict:
    return {
        "type": "decomposition",
        "terms": [{"qubit": matrix_to_pairs(q), "qudit": matrix_to_pairs(p)}
                  for q, p in dec.terms],
    }


def product_vector_to_dict(pv: range_criterion.ProductVector) -> dict:
    return {
        "e": vector_to_pairs(pv.e),
        "f": vector_to_pairs(pv.f),
        "residual_range": pv.residual_range,
        "residual_pt_range": pv.residual_pt_range,
    }


def range_certificate_to_dict(cert: range_criterion.RangeSearchCertificate) -> dict:
    return {
        "type": "range_search",
        "note": cert.note,
        "search": cert.search,
        "exclusion_threshold": cert.exclusion_threshold,
        "certified_bound": cert.certified_bound,
        "worst_min_residual": cert.worst_min_residual,
        "minima": cert.refined_minima,
        "conclusion": cert.conclusion,
        "found": [product_vector_to_dict(pv) for pv in cert.found],
    }


def reduction_to_dict(r: separability.ReductionResult) -> dict:
    out = {
        "type": "reduction",
        "k": r.k,
        "dk": [float(x) for x in np.diagonal(r.dk)] if r.k else [],
        "v": matrix_to_pairs(r.v),
        "tail": matrix_to_pairs(r.tail),
    }
    if r.reduced is not None:
        out["reduced"] = state_to_dict(r.reduced)
    return out


def certificate_to_dict(cert) -> dict:
    if isinstance(cert, separability.SeparableDecomposition):
        return decomposition_to_dict(cert)
    if isinstance(cert, separability.NptCertificate):
        return {"type": "npt", "min_eigenvalue": cert.min_eigenvalue,
                "eigenvector": vector_to_pairs(cert.eigenvector)}
    if isinstance(cert, range_criterion.RangeSearchCertificate):
        return range_certificate_to_dict(cert)
    if isinstance(cert, separability.TheoremCertificate):
        out = {"type": "by_theorem", "k": cert.k, "reason": cert.reason,
               "min_pt_eigenvalue": cert.min_pt_eigenvalue}
        if cert.reduction is not None:
            out["reduction"] = reduction_to_dict(cert.reduction)
        if cert.partial_terms is not None and cert.partial_terms.terms:
            out["partial_terms"] = decomposition_to_dict(cert.partial_terms)
        if cert.support_isometry is not None:
            out["support_isometry"] = matrix_to_pairs(cert.support_isometry)
        return out
    if isinstance(cert, separability.ReductionChain):
        return {"type": "reduction_chain",
                "reduction": reduction_to_dict(cert.reduction),
                "inner": verdict_to_dict(cert.inner)}
    if isinstance(cert, dict):
        return {"type": "diagnostics",
                **{k: (certificate_to_dict(v)
                       if dataclasses.is_dataclass(v) and not isinstance(v, type)
                       else v)
                   for k, v in cert.items()}}
    raise TypeError(f"no JSON form for certificate of type {type(cert).__name__}")


def verdict_to_dict(v: separability.Verdict) -> dict:
    return {
        "class": v.classification,
        "certificate": certificate_to_dict(v.certificate),
        "residuals": v.residuals,
        "trace_log": v.trace_log,
    }
