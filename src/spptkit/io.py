"""JSON serialization for states, certificates, and verdicts.

State file format: a UTF-8 JSON object

    {"d": int, "normalized": bool, "rho": [[[re, im], ...], ...]}

with the 2d x 2d matrix as nested row-major lists of [re, im] pairs.
Floats are written with shortest round-trip precision (up to 17 significant
digits), so write -> read -> write is bit-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import range_criterion, separability
from .errors import ParseError
from .states import QubitQuditState, make_state


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested [re, im] lists of Python floats for a complex vector or matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _not_two_numbers(re, im):
    raise TypeError(f"entry {[re, im]!r} does not hold two numbers")


def pairs_to_matrix(data) -> np.ndarray:
    """The complex matrix of rows of [re, im] entries, each two JSON numbers
    (int or float, not bool); the type tests are inline, as a helper call
    per entry would double the cost of reading a state."""
    try:
        rows = [[complex(re, im) if (type(re) is float or type(re) is int)
                 and (type(im) is float or type(im) is int) else _not_two_numbers(re, im)
                 for re, im in row] for row in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix data, entries must be [re, im]: {exc}") from exc
    if len({len(row) for row in rows}) > 1:
        raise ParseError("matrix rows differ in length")
    m = np.array(rows, dtype=complex)
    if m.ndim != 2:
        raise ParseError("matrix data must be two-dimensional")
    return m


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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data)


def save_state(s: QubitQuditState, path) -> None:
    Path(path).write_text(dumps_state(s), encoding="utf-8")


def load_state(path) -> QubitQuditState:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"state file is not UTF-8: {exc}") from exc
    return loads_state(text)


# ---------------------------------------------------------------------------
# Certificates and verdicts
# ---------------------------------------------------------------------------

def terms_to_list(terms: list) -> list:
    """[{"qubit": pairs, "qudit": pairs}, ...] for (qubit, qudit) terms; the
    qubit factors and the qudit factors are each converted as one stack."""
    if not terms:
        return []
    qubits, qudits = (matrix_to_pairs(np.array(stack)) for stack in zip(*terms))
    return [{"qubit": q, "qudit": p} for q, p in zip(qubits, qudits)]


def decomposition_to_dict(dec: separability.SeparableDecomposition) -> dict:
    return {"type": "decomposition", "terms": terms_to_list(dec.terms)}


def product_vector_to_dict(pv: range_criterion.ProductVector) -> dict:
    return {
        "e": matrix_to_pairs(pv.e),
        "f": matrix_to_pairs(pv.f),
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


def reduction_to_dict(r: separability.Reduction) -> dict:
    """The fields every reduction shares, a theorem certificate included:
    rho = sum of terms + (1 (x) V) core (1 (x) V)^dag with V = embed."""
    return {"type": "reduction", "k": r.k, "terms": terms_to_list(r.terms),
            "core": state_to_dict(r.core), "embed": matrix_to_pairs(r.embed)}


def certificate_to_dict(cert) -> dict:
    if isinstance(cert, separability.SeparableDecomposition):
        return decomposition_to_dict(cert)
    if isinstance(cert, separability.NptCertificate):
        return {"type": "npt", "min_eigenvalue": cert.min_eigenvalue,
                "eigenvector": matrix_to_pairs(cert.eigenvector)}
    if isinstance(cert, range_criterion.RangeSearchCertificate):
        return range_certificate_to_dict(cert)
    if isinstance(cert, separability.TheoremCertificate):
        return {**reduction_to_dict(cert), "type": "by_theorem", "reason": cert.reason,
                "min_pt_eigenvalue": cert.min_pt_eigenvalue}
    if isinstance(cert, separability.ReductionChain):
        return {"type": "reduction_chain",
                "reduction": reduction_to_dict(cert.reduction),
                "inner": verdict_to_dict(cert.inner)}
    if isinstance(cert, dict):  # PptUndecided
        return {"type": "diagnostics", "sppt": cert["sppt"],
                "range_search": range_certificate_to_dict(cert["range_search"]),
                "subtraction_status": cert["subtraction_status"]}
    raise TypeError(f"no JSON form for certificate of type {type(cert).__name__}")


def verdict_to_dict(v: separability.Verdict) -> dict:
    return {
        "class": v.classification,
        "certificate": certificate_to_dict(v.certificate),
        "residuals": v.residuals,
        "trace_log": v.trace_log,
    }
