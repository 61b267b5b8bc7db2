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
constructively certified case.  Such a subtraction leaves
0 <= rho' <= rho and 0 <= rho'^Gamma <= rho^Gamma, so the remainder's
ranges lie in the state's and its qualifying product vectors are among
the state's: the prover searches the Bloch sphere afresh only at its
first iteration or after an enumeration that was not exhaustive, and
otherwise re-checks the vectors it last enumerated.  Classification runs
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
from .errors import InvalidDecomposition, NotSppt, SingularX1, ValidationError
from .linalg import DEFAULT_TOL, TOL_FLOOR
from .range_criterion import edge_check
from .sppt import SpptVerdict
from .states import QubitQuditState, SpptFactors, assemble_state, join_blocks

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
        return sum(_product_term(qubit, qudit) for qubit, qudit in self.terms)

    def reconstruction_residual(self, rho: np.ndarray) -> float:
        return linalg.frob(self.reconstruct() - rho)

    def _factor_stacks(self):
        """The qubit factors, then the qudit factors, each as one stack."""
        return [np.array(factors) for factors in zip(*self.terms)]

    def min_factor_eig(self) -> float:
        return min((float(linalg.min_eigs(stack).min()) for stack in self._factor_stacks()),
                   default=np.inf)

    def validate(self, rho: np.ndarray, tol: float = DEFAULT_TOL) -> float:
        residual = self.reconstruction_residual(rho)
        scale = max(linalg.frob(rho), 1e-300)
        if residual > tol * scale:
            raise InvalidDecomposition(
                f"decomposition misses the state by {residual:g} (> {tol * scale:g})"
            )
        # Each factor against its own norm: a unit qubit projector's rounding
        # says nothing about the scale of the state or of its qudit partner.
        for stack in self._factor_stacks():
            if (linalg.min_eigs(stack) < -1e-10 * np.linalg.norm(stack, axis=(1, 2))).any():
                raise InvalidDecomposition("a decomposition factor is not PSD")
        return residual


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
class Reduction:
    """rho = sum of ``terms`` + (1 (x) V) core (1 (x) V)^dag, with explicit PSD
    product ``terms``, a 2 x k ``core`` (None when k = 0) and a d x k
    isometry V = ``embed``."""

    terms: list  # of (qubit 2x2, qudit d x d) PSD pairs
    core: Optional[QubitQuditState]
    embed: np.ndarray

    @property
    def k(self) -> int:
        return self.embed.shape[1]

    def explicit(self, core_dec) -> SeparableDecomposition:
        """The reduction's terms, then those of ``core_dec`` (a decomposition
        or theorem certificate of the core; None without a core), embedded."""
        if self.core is None:
            return SeparableDecomposition(terms=list(self.terms))
        v = self.embed
        embedded = [(qubit, v @ qudit @ v.conj().T) for qubit, qudit in core_dec.terms]
        return SeparableDecomposition(terms=self.terms + embedded)


@dataclass(frozen=True)
class TheoremCertificate(Reduction):
    """Separability by dimension: a reduction whose core is a PPT 2 x k
    state with k <= 3, separable as PPT suffices there."""

    min_pt_eigenvalue: float
    reason: str


@dataclass(frozen=True)
class ReductionChain:
    """A reduction step wrapping the entangled verdict of its core."""

    reduction: Reduction
    inner: Verdict


@dataclass(frozen=True)
class SubtractionResult:
    """Outcome of the product-vector subtraction loop: the subtracted terms
    and the remainder as a ``reduction`` (at ``small_support``, the theorem
    certificate of the remainder on its qudit support), at ``sppt_core`` the
    remainder's verdict, the number of subtractions (``iterations``, the
    length of the reduction's terms), and how many enumerations searched
    the Bloch sphere (``searches``) and how many re-checked the last one
    (``rechecks``), with the ``evaluations``, ``polishes`` and
    ``isolation_drops`` summed over the records of those enumerations."""

    reduction: Reduction
    remainder: QubitQuditState
    status: str  # decomposed | small_support | sppt_core | budget_exhausted | stalled
    iterations: int
    searches: int
    rechecks: int
    evaluations: int
    polishes: int
    isolation_drops: int
    sppt: Optional[SpptVerdict] = None


def decompose_full_rank(f: SpptFactors) -> SeparableDecomposition:
    """Explicit separable decomposition for invertible x1 and normal s.

    Emits one rank-one-qubit term per eigenvalue of s plus the |1><1| tail
    unless it is zero up to rounding (``_spectral_terms``, which
    ``classify`` calls directly and validates against its input).  The
    result is validated against the assembled state before being returned.
    """
    rho = assemble_state(f).rho
    dec = SeparableDecomposition(terms=_spectral_terms(f, linalg.frob(rho)))
    # Validation tolerance matches the normality gate: the spectral step
    # loses exactly the normality defect of s.
    dec.validate(rho, tol=TOL_FLOOR)
    return dec


def _spectral_terms(f: SpptFactors, scale: float) -> list:
    """The terms of ``decompose_full_rank``, unvalidated, with the tail term
    left out at most ``linalg.RANK_CUTOFF`` times ``scale``, the norm of
    the state the factors assemble."""
    if f.x1_svd.rank < f.d:
        raise SingularX1("x1 must be invertible for the spectral construction")
    values, vectors = linalg.normal_eig(f.s)
    terms = []
    for lam, z in zip(values, vectors.T):
        qubit = np.array([[1.0, lam], [np.conj(lam), abs(lam) ** 2]], dtype=complex)
        proj = np.outer(z, z.conj())
        terms.append((qubit, f.x1.conj().T @ proj @ f.x1))
    return terms + _tail_terms(f.x2.conj().T @ f.x2, scale)


def svd_reduce(f: SpptFactors) -> Reduction:
    """Reduce factors to a 2 x k core via the SVD of x1.

    With x1 = u diag(dk, 0) v^dag (``f.x1_svd``; u = v for the hermitian
    PSD x1 that ``sppt`` builds, whose SVD it seeds from the
    eigendecomposition of the state's a-block, so the embedding is then
    spanned by eigenvectors of a) and s_tilde = u^dag s u partitioned at k,
    the state is the core conjugated by V = v[:, :k] plus the term
    |1><1| (x) x2^dag x2.  The core blocks are (dk^2, dk s11 dk,
    dk (s11^dag s11 + s21^dag s21) dk), so (dk, s11) are the x1 and s of
    its factors.  Requires the strong-PPT condition to hold for the
    factors; the core then satisfies the conjugated condition
    dk (s11^dag s11 + s21^dag s21) dk = dk (s11 s11^dag + s12 s12^dag) dk
    and is PPT.  One gate checks both: x1^dag (s^dag s - s s^dag) x1 =
    v diag(D, 0) v^dag for D the left minus the right side of the core's
    condition, so ||D|| is ``sppt_residual(x1, s)`` up to rounding; the gate
    reads the residual cached on the factors (``f.sppt_residual``), which
    ``sppt`` already computed to accept them.  The
    tail term is left out when its Frobenius norm is at most
    ``linalg.RANK_CUTOFF`` times the core's; both parts are PSD, so the
    state's norm is at least the core's.  With k = 0 there is no core, and
    the tail term is the whole state.
    """
    # The gate scales with the state, as the residual does: ||x1|| times the
    # square root of the state's trace tr(a) + tr(c).
    trace = linalg.frob(f.x1) ** 2 + linalg.frob(f.s @ f.x1) ** 2 + linalg.frob(f.x2) ** 2
    scale = max(linalg.frob(f.x1) * np.sqrt(trace) * max(linalg.frob(f.s), 1.0), 1e-300)
    residual = f.sppt_residual
    if residual > TOL_FLOOR * scale:
        raise NotSppt(f"factors violate the strong-PPT condition by {residual:g}")
    u, sigma, v = f.x1_svd
    k = f.x1_svd.rank
    tail = f.x2.conj().T @ f.x2
    if k == 0:
        return Reduction(terms=[(_TAIL_QUBIT, tail)], core=None, embed=v[:, :0])
    s_tilde = u.conj().T @ f.s @ u
    dk = np.diag(sigma[:k])
    s11 = s_tilde[:k, :k]
    s21 = s_tilde[k:, :k]
    a_r = dk @ dk
    b_r = dk @ s11 @ dk
    c_r = dk @ (s11.conj().T @ s11 + s21.conj().T @ s21) @ dk
    core = states._state(k, join_blocks(linalg.hermitianize(a_r), b_r, linalg.hermitianize(c_r)))
    return Reduction(terms=_tail_terms(tail, core.norm()), core=core, embed=v[:, :k])


_TAIL_QUBIT = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _tail_terms(tail: np.ndarray, scale: float) -> list:
    """The |1><1| (x) tail term, or none when the tail's Frobenius norm is at
    most ``linalg.RANK_CUTOFF`` times ``scale``."""
    if linalg.frob(tail) <= linalg.RANK_CUTOFF * scale:
        return []
    return [(_TAIL_QUBIT, tail)]


# ---------------------------------------------------------------------------
# Product-vector subtraction
# ---------------------------------------------------------------------------

def _rank_one_weight(eig: linalg.EigResult, v: np.ndarray) -> float:
    """Largest lam with m - lam |v><v| PSD, for PSD m = ``eig`` and unit v.

    That is 1 / <v|m^+|v> when v lies in the range of m, and 0 when v has a
    component above ``range_criterion.ENUMERATION_TOL`` on eigenvalues at or
    below ``linalg.RANK_CUTOFF`` times the largest.  Every candidate the
    subtraction search accepts passes that test: its residual against the
    wider kernel at ``range_criterion.ENUMERATION_KERNEL_CUTOFF`` is within
    the same bound.
    """
    c = eig.vectors.conj().T @ v
    keep = eig.support(linalg.RANK_CUTOFF)
    if linalg.frob(c[~keep]) > range_criterion.ENUMERATION_TOL:
        return 0.0
    return 1.0 / float(np.sum(np.abs(c[keep]) ** 2 / eig.values[keep]))


def _product_term(qubit: np.ndarray, qudit: np.ndarray) -> np.ndarray:
    """np.kron(qubit, qudit) of a 2 x 2 and a d x d matrix, by broadcasting:
    the same products, without np.kron's general reshaping."""
    d = len(qudit)
    return (qubit[:, None, :, None] * qudit[None, :, None, :]).reshape(2 * d, 2 * d)


def _max_subtraction_weight(rho: linalg.EigResult, pt: linalg.EigResult,
                            e: np.ndarray, f: np.ndarray, trace: float) -> float:
    """Largest weight of |e,f><e,f| keeping the state and its partial
    transpose PSD, capped by the state's trace.

    The partial transpose of |e,f><e,f| is |e*,f><e*,f|, so both limits
    are rank-one closed forms of the two eigendecompositions.
    """
    return min(trace,
               _rank_one_weight(rho, np.outer(e, f).ravel()),
               _rank_one_weight(pt, np.outer(np.conj(e), f).ravel()))


# Relative cutoff of the small-support exit's qudit support.  Looser than
# ``linalg.RANK_CUTOFF``: a subtraction drains a direction only up to the
# rounding of its weight, which the remainder's conditioning lifts above
# 1e-12; what it cuts off stays an order below ``TOL_FLOOR``.
SUPPORT_CUTOFF = 1e-9


def _qudit_support(rho: np.ndarray, d: int):
    """Isometry onto the joint qudit support of the two diagonal blocks."""
    eig = linalg.EigResult.of(rho[:d, :d] + rho[d:, d:])
    return eig.vectors[:, eig.support(SUPPORT_CUTOFF)]


def _compress_qudit(rho: np.ndarray, d: int, iso: np.ndarray) -> QubitQuditState:
    """The 2 x k state (1 (x) V)^dag rho (1 (x) V) for the d x k isometry V."""
    halves = (slice(None, d), slice(d, None))
    return states._state(iso.shape[1], np.block(
        [[iso.conj().T @ rho[i, j] @ iso for j in halves] for i in halves]))


def subtract_product_vectors(s: QubitQuditState,
                             budget: Optional[int] = None) -> SubtractionResult:
    """Greedy separable-part extraction for a PPT state.

    Repeatedly finds a product vector |e, f> in the range of the remainder
    (with |e*, f> in the partial-transpose range), subtracts the largest
    weight keeping both the remainder and its partial transpose PSD, and
    stops when the remainder vanishes (``decomposed``, at ``DEFAULT_TOL``),
    is PPT on fewer than d and at most 3 qudit levels (``small_support``:
    2 x 3 PPT, hence separable), or passes the strong-PPT check with factor
    rank d or at most 3 (``sppt_core``), both at ``TOL_FLOOR``.  Best
    effort: exhausting the budget (4 d iterations by default) or running
    out of candidates proves nothing about the input.

    Past those exits, each iteration eigendecomposes the remainder and its
    partial transpose once, for the strong-PPT check, the weights and the
    enumeration's kernels; an eigenvalue of either below ``-TOL_FLOOR``
    times its largest magnitude (a maximal subtraction can leave one on an
    ill-conditioned remainder) first ends the loop ``stalled``.

    The candidates come from ``range_criterion``'s enumeration.  A
    subtraction that keeps rho' = rho - lam |e,f><e,f| and rho'^Gamma PSD
    gives rho' <= rho and rho'^Gamma <= rho^Gamma, so range rho' lies in
    range rho, range rho'^Gamma in range rho^Gamma, and every product vector
    that qualifies for rho' qualifies for rho.  The sphere is therefore
    searched only at the first iteration and after an enumeration that was
    not exhaustive (the continuum case of fewer kernel constraints than d,
    ``ENUMERATION_CANDIDATES`` reached, or the search ending inconclusive);
    after an exhaustive one, its vectors are re-checked against the
    remainder (``range_criterion._recheck``), and none left means
    ``stalled``, as a fresh search would find none either.

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
    reduction = sppt_verdict = enumeration = None
    iterations = searches = rechecks = 0
    effort = dict.fromkeys(("evaluations", "polishes", "isolation_drops"), 0)
    for iterations in range(budget + 1):
        if linalg.frob(rho) <= DEFAULT_TOL * scale0:
            status = "decomposed"
            break
        iso = _qudit_support(rho, d)
        if iso.shape[1] <= 3 and iso.shape[1] < d:
            core = _compress_qudit(rho, d, iso)
            pt_min, _ = states.pt_min_eig(core.rho, core.d)
            if pt_min >= -TOL_FLOOR * scale0:
                status = "small_support"
                reduction = _theorem(
                    Reduction(terms=terms, core=core, embed=iso),
                    "subtraction reduced the remainder to a PPT 2x3-or-smaller support", pt_min)
                break
        rho_eig = linalg.EigResult.of(rho)
        pt_eig = linalg.EigResult.of(states.partial_transpose_matrix(rho, d))
        if any(eig.values[0] < -TOL_FLOOR * eig.scale for eig in (rho_eig, pt_eig)):
            status = "stalled"
            break
        remainder_state = states._state(d, rho)
        verdict = sppt._check_ppt(remainder_state, TOL_FLOOR)
        if verdict.status == "Sppt":
            k = verdict.factors.x1_svd.rank
            if k == d or k <= 3:
                status = "sppt_core"
                sppt_verdict = verdict
                break
        if iterations == budget:
            break
        # Prefer subtractions that shrink the qudit support (the certified
        # exit), then the largest admissible weight; greedy max-weight alone
        # can strand the remainder in an edge-like state.
        best = None
        trace = float(rho.trace().real)
        lam_floor = 1e-10 * trace
        con = range_criterion._enumeration_constraints(d, rho_eig, pt_eig)
        if enumeration is not None and enumeration.exhaustive:
            enumeration = range_criterion._recheck(remainder_state, con, enumeration)
            rechecks += 1
        else:
            enumeration = range_criterion._enumerate(remainder_state, con)
            searches += 1
        for key in effort:
            effort[key] += enumeration.search[key]
        for e, f in ((pv.e, pv.f) for pv in enumeration.found):
            lam = _max_subtraction_weight(rho_eig, pt_eig, e, f, trace)
            if lam <= lam_floor:
                continue
            trial = rho - lam * _product_term(np.outer(e, e.conj()), np.outer(f, f.conj()))
            key = (_qudit_support(trial, d).shape[1], -lam)
            if best is None or key < best[0]:
                best = (key, lam, e, f)
        if best is None:
            status = "stalled"
            break
        _, lam, e, f = best
        terms.append((np.outer(e, e.conj()), lam * np.outer(f, f.conj())))
        rho = linalg.hermitianize(rho - lam * _product_term(terms[-1][0], np.outer(f, f.conj())))
    remainder = states._state(d, rho)
    if reduction is None:
        reduction = Reduction(terms=terms, core=remainder, embed=np.eye(d, dtype=complex))
    return SubtractionResult(reduction=reduction, remainder=remainder, status=status,
                             iterations=iterations, searches=searches, rechecks=rechecks,
                             sppt=sppt_verdict, **effort)


def decompose_small(s: QubitQuditState) -> SeparableDecomposition:
    """Explicit decomposition of a PPT 2 x 2 or 2 x 3 state.

    Such states are separable outright, so the subtraction loop (budget
    12 d) ends in a constructive exit, read as ``classify`` reads it and
    validated at ``TOL_FLOOR``.  A theorem there is made explicit by
    decomposing its PPT 2 x k core in turn; the core has k < d qudit
    levels, so the recursion ends.  Raises
    ValidationError, as ``classify`` does, for a state without positive
    trace, which has no terms to decompose into.
    """
    if s.d > 3:
        raise ValidationError("decompose_small handles qudit dimension <= 3 only")
    if s.trace() <= 0:
        raise ValidationError("state must have positive trace")
    sub = subtract_product_vectors(s, budget=12 * s.d)
    outcome = _verdict_from_subtraction(s, sub, [], {})
    if outcome is None:
        raise InvalidDecomposition(
            f"subtraction did not terminate constructively ({sub.status})")
    classification, cert = outcome
    if classification == SEPARABLE_BY_THEOREM:
        _, cert = _lift(cert, (SEPARABLE, decompose_small(cert.core)), s)
    return cert


# ---------------------------------------------------------------------------
# Classification pipeline
# ---------------------------------------------------------------------------

def classify(s: QubitQuditState) -> Verdict:
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
    The NPT and strong-PPT tests read ``DEFAULT_TOL``, every construction
    is gated and validated at ``TOL_FLOOR``, and the subtraction prover
    runs its default budget of 4 d iterations.
    """
    if s.trace() <= 0:
        raise ValidationError("state must have positive trace")
    log: list = []
    residuals: dict = {}

    def done(classification, certificate):
        return Verdict(classification=classification, certificate=certificate,
                       trace_log=log, residuals=residuals)

    # 1: NPT test
    min_pt, pt_vec = states.pt_min_eig(s.rho, s.d)
    residuals["min_pt_eigenvalue"] = min_pt
    if states.is_npt(min_pt, s):
        log.append(f"partial transpose has eigenvalue {min_pt:.3e} < 0: NPT")
        return done(ENTANGLED_NPT, NptCertificate(min_eigenvalue=min_pt,
                                                  eigenvector=pt_vec))
    log.append(f"partial transpose PSD (min eigenvalue {min_pt:.3e}): PPT")

    # 2: small qudit dimension
    if s.d <= 3:
        log.append(f"2x{s.d} PPT: positivity of the partial transpose is "
                   "sufficient for separability here")
        return done(SEPARABLE_BY_THEOREM, _theorem(
            Reduction(terms=[], core=s, embed=np.eye(s.d, dtype=complex)),
            "PPT is sufficient for separability in 2x2 and 2x3", min_pt))

    # 3-5: strong-PPT constructions (the state is PPT, tested above)
    verdict = sppt._check_ppt(s, DEFAULT_TOL)
    residuals["sppt_residual"] = verdict.residual
    log.append(f"sppt_check: {verdict.status} (residual {verdict.residual:.3e})")
    if verdict.status == "Sppt":
        outcome = _classify_sppt(s, verdict, log, residuals)
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
    sub = subtract_product_vectors(s)
    residuals["subtraction_evaluations"] = sub.evaluations
    residuals["subtraction_polishes"] = sub.polishes
    residuals["subtraction_isolation_drops"] = sub.isolation_drops
    log.append(f"subtraction: {sub.status} after {sub.iterations} subtractions and "
               f"{sub.searches + sub.rechecks} enumerations "
               f"({sub.searches} searched the sphere, {sub.rechecks} re-checked; "
               f"{sub.evaluations} evaluations, {sub.polishes} polishes, "
               f"{sub.isolation_drops} isolation drops), "
               f"remainder norm {sub.remainder.norm():.3e}")
    outcome = _verdict_from_subtraction(s, sub, log, residuals)
    if outcome is not None:
        return done(*outcome)

    log.append("no sound certificate found; the state stays undecided")
    return done(PPT_UNDECIDED, {"sppt": verdict.note, "range_search": cert,
                                "subtraction_status": sub.status})


def _classify_sppt(work, verdict: SpptVerdict, log, residuals):
    """Steps 3-5: route a confirmed strong-PPT state by its factor rank;
    the one rank router, also behind the prover's exit and decompose_small."""
    factors = verdict.factors
    k = factors.x1_svd.rank
    if k == work.d:
        # One validation, against the state classified: the check a
        # Separable verdict needs (decompose_full_rank would also validate
        # against the state the factors assemble).
        try:
            dec = SeparableDecomposition(terms=_spectral_terms(factors, work.norm()))
            residuals["decomposition_residual"] = dec.validate(work.rho, tol=TOL_FLOOR)
        except (ValidationError, np.linalg.LinAlgError) as exc:
            log.append(f"spectral construction failed ({exc}); falling through")
            return None
        log.append(f"invertible x1: spectral construction with {len(dec.terms)} "
                   "terms validates")
        return SEPARABLE, dec

    reduction = svd_reduce(factors)
    if reduction.core is None:
        dec = reduction.explicit(None)
        dec.validate(work.rho, tol=TOL_FLOOR)
        log.append("x1 vanishes: the state is a single product term")
        return SEPARABLE, dec
    if k <= 3:
        cert = _theorem(reduction, "reduction to a PPT 2x3-or-smaller core",
                        states.pt_min_eig(reduction.core.rho, k)[0])
        log.append(f"factor rank {k} <= 3: reduced 2x{k} core is PPT "
                   f"(min eigenvalue {cert.min_pt_eigenvalue:.3e}), hence separable; "
                   "the lift preserves separability")
        return SEPARABLE_BY_THEOREM, cert

    log.append(f"factor rank {k}: classifying the reduced 2x{k} core")
    # The core is 2 x k with k < d, so this recursion ends.
    inner = classify(reduction.core)
    log.append(f"core verdict: {inner.classification}")
    if inner.is_separable_class:
        return _lift(reduction, (inner.classification, inner.certificate), work)
    # The tail term, when kept, is the only term; one left out weighs at
    # most linalg.RANK_CUTOFF times the core's norm, well inside the gate.
    tail_weight = sum(linalg.frob(qudit) for _, qudit in reduction.terms)
    if inner.is_entangled_class:
        if tail_weight <= TOL_FLOOR * max(work.norm(), 1e-300):
            log.append("tail is negligible, so the core verdict transfers")
            return inner.classification, ReductionChain(reduction=reduction,
                                                        inner=inner)
        log.append(f"core is entangled but the tail has weight {tail_weight:.3e}; "
                   "the verdict does not transfer")
    return None


def _verdict_from_subtraction(work, sub: SubtractionResult, log, residuals):
    """Step 7: translate a subtraction outcome into a verdict."""
    reduction = sub.reduction
    if sub.status == "decomposed":
        dec = SeparableDecomposition(terms=reduction.terms)
        dec.validate(work.rho, tol=TOL_FLOOR)
        log.append(f"full decomposition with {len(dec.terms)} product terms")
        return SEPARABLE, dec
    if sub.status == "small_support":
        log.append(f"remainder supported on {reduction.k} qudit levels and PPT: "
                   "separable by dimension")
        return SEPARABLE_BY_THEOREM, reduction
    if sub.status == "sppt_core":
        # The prover exits here only at factor rank d or <= 3, so the router
        # ends in a decomposition or a theorem, never in a further core.
        log.append("remainder is strong-PPT: routing it by its factor rank")
        outcome = _classify_sppt(reduction.core, sub.sppt, log, residuals)
        if outcome is None:
            return None
        classification, certificate = _lift(reduction, outcome, work)
        if classification == SEPARABLE:
            residuals["decomposition_residual"] = certificate.reconstruction_residual(work.rho)
            log.append("subtracted terms and remainder decomposition validate together")
        return classification, certificate
    return None


def _theorem(reduction: Reduction, reason: str, min_pt: float) -> TheoremCertificate:
    """The theorem certificate of a reduction whose core is a PPT 2 x k
    state with k <= 3, with the core's least partial-transpose eigenvalue
    ``min_pt``, as its caller computed it."""
    return TheoremCertificate(**vars(reduction), min_pt_eigenvalue=min_pt, reason=reason)


def _lift(reduction: Reduction, core_outcome: tuple, work):
    """The outcome of ``work`` from the separable outcome of the core of its
    ``reduction``, with the terms of ``reduction.explicit`` less those of
    Frobenius norm at most ``linalg.RANK_CUTOFF`` times that of ``work``.
    A core decomposition comes validated against the core at ``TOL_FLOOR``
    by whatever built it (``classify``, ``_classify_sppt`` or
    ``decompose_small``); the lifted one is validated against ``work``."""
    classification, cert = core_outcome
    floor = linalg.RANK_CUTOFF * work.norm()
    terms = [(qubit, qudit) for qubit, qudit in reduction.explicit(cert).terms
             if linalg.frob(qubit) * linalg.frob(qudit) > floor]
    if classification == SEPARABLE_BY_THEOREM:
        return classification, dataclasses.replace(cert, terms=terms,
                                                   embed=reduction.embed @ cert.embed)
    dec = SeparableDecomposition(terms=terms)
    dec.validate(work.rho, tol=TOL_FLOOR)
    return classification, dec
