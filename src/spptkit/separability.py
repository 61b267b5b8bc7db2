"""Constructive separability engine and the classification pipeline.

Two constructive routes cover every strong-PPT state whose factor rank
permits them:

* invertible x1: the strong-PPT condition forces s to be normal, so its
  spectral decomposition s = sum_i lambda_i P_i over rank-one orthogonal
  projectors turns the state into an explicit sum of product terms

      sum_i sigma_i (x) (x1^dag P_i x1) + |1><1| (x) (x2^dag x2),
      sigma_i = [[1, lambda_i], [conj(lambda_i), |lambda_i|^2]];

* rank-deficient x1 (rank k): an SVD of x1 conjugates the state into a
  2 x k core plus a tail supported on the qubit-|1> block.  The core is
  PPT whenever the factors satisfy the strong-PPT condition, and a
  separable decomposition of it lifts back through the conjugation.

A 2 x k PPT state with k <= 3 is separable outright (positivity of the
partial transpose is sufficient in 2 x 2 and 2 x 3), which closes the
k <= 3 reductions without an explicit decomposition.

For PPT states outside these routes, a best-effort prover subtracts
product vectors that satisfy both range conditions, each with the largest
weight that keeps the remainder and its partial transpose positive (a
closed form); it succeeds when the remainder hits zero or lands in a
constructively certified case.  Classification runs
sound certificates first (negative partial-transpose eigenvalue, small
dimension, strong-PPT constructions, the range criterion's certified bound)
and only then the best-effort subtraction, so a verdict never depends on a
heuristic when a proof exists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg, range_criterion, sppt, states
from .errors import (
    BadParameter,
    InvalidDecomposition,
    NotSppt,
    SingularX1,
    ValidationError,
)
from .range_criterion import edge_check
from .sppt import SpptVerdict, sppt_check, sppt_residual
from .states import QubitQuditState, SpptFactors, assemble_state, blocks, join_blocks

DEFAULT_TOL = 1e-9
# Floor of every tolerance a construction is gated or validated with: the
# spectral, reduction and lifting steps each lose a few digits to the
# conditioning of the factors, and a core validated below this floor can
# fail on valid input.
TOL_FLOOR = 1e-8

SEPARABLE = "Separable"
SEPARABLE_BY_THEOREM = "SeparableByTheorem"
ENTANGLED_NPT = "EntangledNpt"
ENTANGLED_RANGE = "EntangledRange"
PPT_UNDECIDED = "PptUndecided"


@dataclass(frozen=True)
class SeparableDecomposition:
    """A list of PSD product terms summing to a state."""

    terms: list  # of (qubit 2x2, qudit d x d) PSD pairs

    def reconstruct(self) -> np.ndarray:
        qubit0, qudit0 = self.terms[0]
        out = np.kron(qubit0, qudit0)
        for qubit, qudit in self.terms[1:]:
            out = out + np.kron(qubit, qudit)
        return out

    def reconstruction_residual(self, rho: np.ndarray) -> float:
        return linalg.frob(self.reconstruct() - rho)

    def min_factor_eig(self) -> float:
        worst = np.inf
        for qubit, qudit in self.terms:
            worst = min(worst, linalg.min_eig(qubit), linalg.min_eig(qudit))
        return worst

    def validate(self, rho: np.ndarray, tol: float = DEFAULT_TOL) -> float:
        residual = self.reconstruction_residual(rho)
        scale = max(linalg.frob(rho), 1e-300)
        if residual > tol * scale:
            raise InvalidDecomposition(
                f"decomposition misses the state by {residual:g} (> {tol * scale:g})"
            )
        # Each factor against its own norm: a unit qubit projector's rounding
        # says nothing about the scale of the state or of its qudit partner.
        for factor in (m for term in self.terms for m in term):
            if linalg.min_eig(factor) < -1e-10 * linalg.frob(factor):
                raise InvalidDecomposition("a decomposition factor is not PSD")
        return residual


@dataclass(frozen=True)
class ReductionResult:
    """SVD reduction of factors (x1, s, x2) to a 2 x k core plus tail.

    With x1 = u diag(dk, 0) v^dag and s_tilde = u^dag s u partitioned at k,
    the state equals the v-conjugated, zero-padded ``reduced`` core plus
    |1><1| (x) tail.  The core blocks are (dk^2, dk s11 dk,
    dk (s11^dag s11 + s21^dag s21) dk), so (dk, s11) are the x1 and s of
    the core's factors; of the blocks of s_tilde only s11 is kept.
    """

    v: np.ndarray
    dk: np.ndarray
    k: int
    s11: np.ndarray
    reduced: Optional[QubitQuditState]
    tail: np.ndarray

    @property
    def tail_weight(self) -> float:
        return linalg.frob(self.tail)


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with its certificate and pipeline trace.

    Certificates and residuals are in the units of the classified state:
    a decomposition sums to it, an NPT eigenvalue is one of its partial
    transpose.
    """

    classification: str
    certificate: object
    trace_log: list
    residuals: dict = field(default_factory=dict)

    @property
    def is_separable_class(self) -> bool:
        return self.classification in (SEPARABLE, SEPARABLE_BY_THEOREM)

    @property
    def is_entangled_class(self) -> bool:
        return self.classification in (ENTANGLED_NPT, ENTANGLED_RANGE)


@dataclass(frozen=True)
class NptCertificate:
    min_eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class TheoremCertificate:
    """Separability by dimension: a PPT 2 x k state with k <= 3."""

    k: int
    min_pt_eigenvalue: float
    reason: str
    reduction: Optional[ReductionResult] = None
    partial_terms: Optional[SeparableDecomposition] = None
    support_isometry: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ReductionChain:
    """A reduction step wrapping the verdict of the reduced core."""

    reduction: ReductionResult
    inner: Verdict


@dataclass(frozen=True)
class SubtractionResult:
    """Outcome of the product-vector subtraction loop."""

    terms: SeparableDecomposition
    remainder: QubitQuditState
    status: str  # decomposed | small_support | sppt_core | budget_exhausted | stalled
    iterations: int
    detail: dict = field(default_factory=dict)


def decompose_full_rank(f: SpptFactors, tol: float = DEFAULT_TOL) -> SeparableDecomposition:
    """Explicit separable decomposition for invertible x1 and normal s.

    Emits d + 1 terms: one rank-one-qubit term per eigenvalue of s plus the
    |1><1| tail (which may be zero).  The result is validated against the
    assembled state before being returned.
    """
    d = f.d
    if f.x1_svd.rank < d:
        raise SingularX1("x1 must be invertible for the spectral construction")
    values, vectors = linalg.normal_eig(f.s, rtol=max(tol, TOL_FLOOR))
    terms = []
    for lam, z in zip(values, vectors.T):
        qubit = np.array([[1.0, lam], [np.conj(lam), abs(lam) ** 2]], dtype=complex)
        proj = np.outer(z, z.conj())
        terms.append((qubit, f.x1.conj().T @ proj @ f.x1))
    tail_qubit = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    terms.append((tail_qubit, f.x2.conj().T @ f.x2))
    dec = SeparableDecomposition(terms=terms)
    # Validation tolerance matches the normality gate: the spectral step
    # loses exactly the normality defect of s.
    dec.validate(assemble_state(f).rho, tol=max(tol, TOL_FLOOR))
    return dec


def svd_reduce(f: SpptFactors, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Reduce factors to the 2 x k core via the SVD of x1.

    Requires the strong-PPT condition to hold for the factors; the core
    then satisfies the conjugated condition
    dk (s11^dag s11 + s21^dag s21) dk = dk (s11 s11^dag + s12 s12^dag) dk
    and is PPT.
    """
    # Both gates scale with the state, as the residuals do: ||x1|| times the
    # square root of the state's trace tr(a) + tr(c).
    trace = linalg.frob(f.x1) ** 2 + linalg.frob(f.s @ f.x1) ** 2 + linalg.frob(f.x2) ** 2
    scale = max(linalg.frob(f.x1) * np.sqrt(trace) * max(linalg.frob(f.s), 1.0), 1e-300)
    residual = sppt_residual(f.x1, f.s)
    if residual > max(tol, TOL_FLOOR) * scale:
        raise NotSppt(f"factors violate the strong-PPT condition by {residual:g}")
    u, sigma, v = f.x1_svd
    k = f.x1_svd.rank
    s_tilde = u.conj().T @ f.s @ u
    dk = np.diag(sigma[:k])
    s11 = s_tilde[:k, :k]
    s12 = s_tilde[:k, k:]
    s21 = s_tilde[k:, :k]
    tail = f.x2.conj().T @ f.x2
    if k == 0:
        reduced = None
    else:
        a_r = dk @ dk
        b_r = dk @ s11 @ dk
        c_r = dk @ (s11.conj().T @ s11 + s21.conj().T @ s21) @ dk
        core_identity = linalg.frob(
            c_r - dk @ (s11 @ s11.conj().T + s12 @ s12.conj().T) @ dk
        )
        if core_identity > max(tol, TOL_FLOOR) * max(scale, trace):
            raise NotSppt(
                f"conjugated strong-PPT identity fails by {core_identity:g}"
            )
        reduced = states._state(
            k, join_blocks(linalg.hermitianize(a_r), b_r, linalg.hermitianize(c_r))
        )
    return ReductionResult(v=v, dk=dk, k=k, s11=s11, reduced=reduced, tail=tail)


def lift_decomposition(r: ReductionResult, dec: Optional[SeparableDecomposition],
                       tol: float = DEFAULT_TOL) -> SeparableDecomposition:
    """Lift a decomposition of the reduced core back to the full state.

    Pads each k-dimensional qudit factor with zeros, conjugates by the
    right singular basis v, and appends the |1><1| (x) tail term.  With
    k = 0 the lift is the tail term alone.
    """
    d = r.v.shape[0]
    terms = []
    if r.k > 0:
        if dec is None:
            raise InvalidDecomposition("a core decomposition is required when k > 0")
        dec.validate(r.reduced.rho, tol=max(tol, TOL_FLOOR))
        for qubit, qudit in dec.terms:
            padded = np.zeros((d, d), dtype=complex)
            padded[:r.k, :r.k] = qudit
            terms.append((qubit, r.v @ padded @ r.v.conj().T))
    tail_qubit = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    terms.append((tail_qubit, r.tail))
    return SeparableDecomposition(terms=terms)


# ---------------------------------------------------------------------------
# Product-vector subtraction
# ---------------------------------------------------------------------------

def _rank_one_weight(m: np.ndarray, v: np.ndarray) -> float:
    """Largest lam with m - lam |v><v| PSD, for PSD m and unit v.

    That is 1 / <v|m^+|v> when v lies in the range of m, and 0 when v has a
    component above ``range_criterion.ENUMERATION_TOL`` on eigenvalues at or
    below ``linalg.RANK_CUTOFF`` times the largest.  Every candidate the
    subtraction search accepts passes that test: its residual against the
    wider kernel at ``range_criterion.ENUMERATION_KERNEL_CUTOFF`` is within
    the same bound.
    """
    eig = linalg.EigResult.of(m)
    c = eig.vectors.conj().T @ v
    keep = eig.support(linalg.RANK_CUTOFF)
    if linalg.frob(c[~keep]) > range_criterion.ENUMERATION_TOL:
        return 0.0
    return 1.0 / float(np.sum(np.abs(c[keep]) ** 2 / eig.values[keep]))


def _max_subtraction_weight(rho: np.ndarray, pt: np.ndarray,
                            e: np.ndarray, f: np.ndarray) -> float:
    """Largest weight of |e,f><e,f| keeping the state and its partial
    transpose PSD, capped by the trace.

    The partial transpose of |e,f><e,f| is |e*,f><e*,f|, so both limits
    are rank-one closed forms.
    """
    return min(float(rho.trace().real),
               _rank_one_weight(rho, np.kron(e, f)),
               _rank_one_weight(pt, np.kron(np.conj(e), f)))


def _qudit_support(rho: np.ndarray, d: int, cutoff: float = 1e-9):
    """Isometry onto the joint qudit support of the two diagonal blocks."""
    eig = linalg.EigResult.of(rho[:d, :d] + rho[d:, d:])
    return eig.vectors[:, eig.support(cutoff)]


def _compress_qudit(rho: np.ndarray, d: int, iso: np.ndarray) -> np.ndarray:
    k = iso.shape[1]
    out = np.zeros((2 * k, 2 * k), dtype=complex)
    out[:k, :k] = iso.conj().T @ rho[:d, :d] @ iso
    out[:k, k:] = iso.conj().T @ rho[:d, d:] @ iso
    out[k:, :k] = iso.conj().T @ rho[d:, :d] @ iso
    out[k:, k:] = iso.conj().T @ rho[d:, d:] @ iso
    return out


def subtract_product_vectors(s: QubitQuditState, budget: Optional[int] = None,
                             tol: float = DEFAULT_TOL) -> SubtractionResult:
    """Greedy separable-part extraction for a PPT state.

    Repeatedly finds a product vector |e, f> in the range of the remainder
    (with |e*, f> in the partial-transpose range), subtracts the largest
    weight keeping both the remainder and its partial transpose PSD, and
    stops when the remainder vanishes (``decomposed``), is PPT on fewer
    than d and at most 3 qudit levels (``small_support``: 2 x 3 PPT, hence
    separable), or passes the strong-PPT check with factor rank d or at
    most 3 (``sppt_core``).  Best effort: exhausting the budget or running
    out of candidates proves nothing about the input.

    On 2 x 2 and 2 x 3 PPT states every exit left is constructive and the
    loop terminates: qualifying vectors exist for every PPT remainder
    there, and a maximal subtraction drops the rank of the remainder or of
    its partial transpose, so a budget of twice the total rank suffices.
    """
    d = s.d
    if budget is None:
        budget = 4 * d
    rho = np.array(s.rho)
    scale0 = max(linalg.frob(rho), 1e-300)
    terms = []
    status = "budget_exhausted"
    detail: dict = {}
    iterations = 0
    for iterations in range(budget + 1):
        if linalg.frob(rho) <= max(tol, 1e-10) * scale0:
            status = "decomposed"
            break
        iso = _qudit_support(rho, d)
        if iso.shape[1] <= 3 and iso.shape[1] < d:
            core = _compress_qudit(rho, d, iso)
            pt_min, _ = states.pt_min_eig(core, iso.shape[1])
            if pt_min >= -max(tol, TOL_FLOOR) * scale0:
                status = "small_support"
                detail = {"support_isometry": iso, "compressed": core,
                          "compressed_min_pt_eig": pt_min}
                break
        remainder_state = states._state(d, rho)
        verdict = sppt_check(remainder_state, tol=max(tol, TOL_FLOOR))
        if verdict.status == "Sppt":
            k = verdict.factors.x1_svd.rank
            if k == d or k <= 3:
                status = "sppt_core"
                detail = {"verdict": verdict}
                break
        if iterations == budget:
            break
        pt = states.partial_transpose_matrix(rho, d)
        # Prefer subtractions that shrink the qudit support (the certified
        # exit), then the largest admissible weight; greedy max-weight alone
        # can strand the remainder in an edge-like state.
        best = None
        lam_floor = 1e-10 * float(rho.trace().real)
        candidates = range_criterion.product_vectors_in_range(remainder_state)
        for e, f in ((pv.e, pv.f) for pv in candidates):
            lam = _max_subtraction_weight(rho, pt, e, f)
            if lam <= lam_floor:
                continue
            trial = rho - lam * np.kron(np.outer(e, e.conj()), np.outer(f, f.conj()))
            key = (_qudit_support(trial, d).shape[1], -lam)
            if best is None or key < best[0]:
                best = (key, lam, e, f)
        if best is None:
            status = "stalled"
            break
        _, lam, e, f = best
        terms.append((np.outer(e, e.conj()), lam * np.outer(f, f.conj())))
        rho = linalg.hermitianize(rho - lam * np.kron(terms[-1][0], np.outer(f, f.conj())))
    return SubtractionResult(
        terms=SeparableDecomposition(terms=terms),
        remainder=states._state(d, rho),
        status=status,
        iterations=iterations,
        detail=detail,
    )


def decompose_small(s: QubitQuditState, tol: float = DEFAULT_TOL) -> SeparableDecomposition:
    """Explicit decomposition of a PPT 2 x 2 or 2 x 3 state.

    Such states are separable outright, so the subtraction loop (budget
    12 d) ends in a constructive exit, which is completed here: a remainder
    on k < d qudit levels, or the PPT 2 x k core behind a theorem of the
    strong-PPT router ``_classify_sppt``, is decomposed in turn and mapped
    back.  Each recursion is on a strictly smaller state.
    """
    if s.d > 3:
        raise ValidationError("decompose_small handles qudit dimension <= 3 only")
    sub = subtract_product_vectors(s, budget=12 * s.d, tol=tol)
    rest = [] if sub.status == "decomposed" else None
    if sub.status == "small_support":
        iso = sub.detail["support_isometry"]
        core = decompose_small(states._state(iso.shape[1], sub.detail["compressed"]), tol=tol)
        rest = [(qubit, iso @ qudit @ iso.conj().T) for qubit, qudit in core.terms]
    elif sub.status == "sppt_core":
        outcome = _classify_sppt(sub.remainder, sub.detail["verdict"], tol, None, [], {})
        if outcome is not None:
            classification, cert = outcome
            if classification == SEPARABLE_BY_THEOREM:
                core = decompose_small(cert.reduction.reduced, tol=tol)
                cert = lift_decomposition(cert.reduction, core, tol=tol)
            rest = cert.terms
    if rest is None:
        raise InvalidDecomposition(
            f"subtraction did not terminate constructively ({sub.status})")
    dec = SeparableDecomposition(terms=sub.terms.terms + rest)
    dec.validate(s.rho, tol=max(tol, TOL_FLOOR))
    return dec


# ---------------------------------------------------------------------------
# Classification pipeline
# ---------------------------------------------------------------------------

def classify(s: QubitQuditState, tol: float = DEFAULT_TOL,
             budget: Optional[int] = None) -> Verdict:
    """Classify a 2 x d state as separable or entangled, with certificate.

    Pipeline (sound certificates before heuristics):

    1. negative partial-transpose eigenvalue -> EntangledNpt;
    2. d <= 3 -> SeparableByTheorem (PPT suffices in 2 x 2 and 2 x 3);
    3. strong-PPT with invertible x1 -> explicit decomposition -> Separable;
    4. strong-PPT with factor rank k <= 3 -> reduction -> SeparableByTheorem;
    5. strong-PPT with 4 <= k < d -> reduce and classify the 2 x k core;
       separable cores lift unconditionally, entangled cores transfer only
       when the factorization tail is negligible;
    6. the range-criterion branch-and-bound excludes every qualifying
       product vector -> EntangledRange; its certificate carries a lower
       bound on the residual over the whole qubit Bloch sphere, a proof up
       to floating point and the kernel cutoff;
    7. product-vector subtraction succeeds -> Separable / SeparableByTheorem
       (a strong-PPT remainder goes through the router of steps 3-4, with
       the subtracted terms prepended); otherwise PptUndecided.  A search that
       finds a product vector, or ends Inconclusive at its resolution floor
       or evaluation cap, leads here, never to EntangledRange.

    The state is classified as given, with tolerances relative to its
    norm: certificates and residuals are in its units, whatever its trace.
    Raises BadParameter unless ``tol`` is finite and positive and
    ``budget`` is None or at least 0.
    """
    linalg.check_tol(tol)
    if budget is not None and budget < 0:
        raise BadParameter(f"budget must be None or >= 0, got {budget!r}")
    if s.trace() <= 0:
        raise ValidationError("state must have positive trace")
    scale = max(s.norm(), 1e-300)
    log: list = []
    residuals: dict = {}

    def done(classification, certificate):
        return Verdict(classification=classification, certificate=certificate,
                       trace_log=log, residuals=residuals)

    # 1: NPT test
    min_pt, pt_vec = states.pt_min_eig(s.rho, s.d)
    residuals["min_pt_eigenvalue"] = min_pt
    if min_pt < -tol * scale:
        log.append(f"partial transpose has eigenvalue {min_pt:.3e} < 0: NPT")
        return done(ENTANGLED_NPT, NptCertificate(min_eigenvalue=min_pt,
                                                  eigenvector=pt_vec))
    log.append(f"partial transpose PSD (min eigenvalue {min_pt:.3e}): PPT")

    # 2: small qudit dimension
    if s.d <= 3:
        log.append(f"2x{s.d} PPT: positivity of the partial transpose is "
                   "sufficient for separability here")
        return done(SEPARABLE_BY_THEOREM, TheoremCertificate(
            k=s.d, min_pt_eigenvalue=min_pt,
            reason="PPT is sufficient for separability in 2x2 and 2x3"))

    # 3-5: strong-PPT constructions (the state is PPT, tested above)
    verdict = sppt._check_ppt(s, tol)
    residuals["sppt_residual"] = verdict.residual
    log.append(f"sppt_check: {verdict.status} (residual {verdict.residual:.3e})")
    if verdict.status == "Sppt":
        outcome = _classify_sppt(s, verdict, tol, budget, log, residuals)
        if outcome is not None:
            return done(*outcome)

    # 6: range-criterion search
    cert = edge_check(s)
    residuals["range_search_min"] = cert.worst_min_residual
    residuals["range_certified_bound"] = cert.certified_bound
    log.append(f"range search: {cert.conclusion} "
               f"(certified bound {cert.certified_bound:.3e}, best residual "
               f"{cert.worst_min_residual:.3e}, {cert.search['evaluations']} evaluations)")
    if cert.conclusion == "NoneFound":
        return done(ENTANGLED_RANGE, cert)

    # 7: subtraction prover
    sub = subtract_product_vectors(s, budget=budget, tol=tol)
    log.append(f"subtraction: {sub.status} after {sub.iterations} iterations, "
               f"remainder norm {sub.remainder.norm():.3e}")
    outcome = _verdict_from_subtraction(s, sub, tol, log, residuals)
    if outcome is not None:
        return done(*outcome)

    log.append("no sound certificate found; the state stays undecided")
    return done(PPT_UNDECIDED, {"sppt": verdict.note, "range_search": cert,
                                "subtraction_status": sub.status})


def _classify_sppt(work, verdict: SpptVerdict, tol, budget, log, residuals):
    """Steps 3-5: route a confirmed strong-PPT state by its factor rank;
    the one rank router, also behind the prover's exit and decompose_small."""
    factors = verdict.factors
    k = factors.x1_svd.rank
    if k == work.d:
        try:
            dec = decompose_full_rank(factors, tol=tol)
        except (ValidationError, np.linalg.LinAlgError) as exc:
            log.append(f"spectral construction failed ({exc}); falling through")
            return None
        residuals["decomposition_residual"] = dec.reconstruction_residual(work.rho)
        log.append(f"invertible x1: spectral construction with {len(dec.terms)} "
                   "terms validates")
        return SEPARABLE, dec

    reduction = svd_reduce(factors, tol=tol)
    if reduction.k == 0:
        lifted = lift_decomposition(reduction, None, tol=tol)
        lifted.validate(work.rho, tol=max(tol, TOL_FLOOR))
        log.append("x1 vanishes: the state is a single product term")
        return SEPARABLE, lifted
    pt_core_min, _ = states.pt_min_eig(reduction.reduced.rho, reduction.k)
    if k <= 3:
        log.append(f"factor rank {k} <= 3: reduced 2x{k} core is PPT "
                   f"(min eigenvalue {pt_core_min:.3e}), hence separable; "
                   "the lift preserves separability")
        return SEPARABLE_BY_THEOREM, TheoremCertificate(
            k=k, min_pt_eigenvalue=pt_core_min,
            reason="reduction to a PPT 2x3-or-smaller core", reduction=reduction)

    log.append(f"factor rank {k}: classifying the reduced 2x{k} core")
    # The core is 2 x k with k < d, so this recursion ends.
    inner = classify(reduction.reduced, tol=tol, budget=budget)
    log.append(f"core verdict: {inner.classification}")
    if inner.classification == SEPARABLE:
        lifted = lift_decomposition(reduction, inner.certificate)
        lifted.validate(work.rho, tol=max(tol, TOL_FLOOR))
        return SEPARABLE, lifted
    if inner.classification == SEPARABLE_BY_THEOREM:
        return SEPARABLE_BY_THEOREM, ReductionChain(reduction=reduction, inner=inner)
    tail_weight = reduction.tail_weight
    if inner.is_entangled_class:
        if tail_weight <= max(tol, TOL_FLOOR) * max(work.norm(), 1e-300):
            log.append("tail is negligible, so the core verdict transfers")
            return inner.classification, ReductionChain(reduction=reduction,
                                                        inner=inner)
        log.append(f"core is entangled but the tail has weight {tail_weight:.3e}; "
                   "the verdict does not transfer")
    return None


def _verdict_from_subtraction(work, sub: SubtractionResult, tol, log, residuals):
    """Step 7: translate a subtraction outcome into a verdict."""
    if sub.status == "decomposed":
        dec = sub.terms
        dec.validate(work.rho, tol=max(tol, TOL_FLOOR))
        log.append(f"full decomposition with {len(dec.terms)} product terms")
        return SEPARABLE, dec
    if sub.status == "small_support":
        iso = sub.detail["support_isometry"]
        log.append(f"remainder supported on {iso.shape[1]} qudit levels and PPT: "
                   "separable by dimension")
        return SEPARABLE_BY_THEOREM, TheoremCertificate(
            k=iso.shape[1], min_pt_eigenvalue=sub.detail["compressed_min_pt_eig"],
            reason="subtraction reduced the remainder to a PPT 2x3-or-smaller support",
            partial_terms=sub.terms, support_isometry=iso)
    if sub.status == "sppt_core":
        # The prover exits here only at factor rank d or <= 3, so the router
        # ends in a decomposition or a theorem, never in a further core.
        log.append("remainder is strong-PPT: routing it by its factor rank")
        outcome = _classify_sppt(sub.remainder, sub.detail["verdict"], tol, None, log, residuals)
        if outcome is None:
            return None
        classification, certificate = outcome
        if classification == SEPARABLE:
            dec = SeparableDecomposition(terms=sub.terms.terms + certificate.terms)
            dec.validate(work.rho, tol=max(tol, TOL_FLOOR))
            residuals["decomposition_residual"] = dec.reconstruction_residual(work.rho)
            log.append("subtracted terms and remainder decomposition validate together")
            return SEPARABLE, dec
        return classification, dataclasses.replace(certificate, partial_terms=sub.terms)
    return None
