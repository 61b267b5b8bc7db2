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
the state's: the prover enumerates them afresh, by the roots of a
polynomial system or, where those are not known to be isolated, at six
canonical qubit directions, only at its first iteration or after an
enumeration that was not exhaustive, and otherwise re-solves the qudit
vectors of the remainder at the qubit directions it last enumerated.  On
inputs of rank d + k it exits after k subtractions that
each drop the rank, once the remainder has rank d and an invertible
a-block (a 2 x d PPT state of rank d is separable; Kraus, Cirac, Karnas
and Lewenstein, PRA 61, 062302, 2000).  Classification runs
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
from .errors import InvalidDecomposition, NotPpt, NotSppt, SingularX1, ValidationError
from .linalg import DEFAULT_TOL, TOL_FLOOR
from .range_criterion import edge_check
from .sppt import SpptVerdict
from .states import QubitQuditState, SpptFactors, join_blocks

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
        """The sum of the terms' Kronecker products, one contraction of the
        factor stacks over the terms (a matrix product)."""
        qubits, qudits = self._factor_stacks()
        d = qudits.shape[-1]
        total = np.tensordot(qubits, qudits, axes=(0, 0))       # (2, 2, d, d)
        return total.transpose(0, 2, 1, 3).reshape(2 * d, 2 * d)

    def reconstruction_residual(self, rho: np.ndarray) -> float:
        """||sum of the terms - rho||_F; with no terms, ||rho||_F."""
        if not self.terms:
            return linalg.frob(rho)
        return linalg.frob(self.reconstruct() - rho)

    def _factor_stacks(self):
        """The qubit factors, then the qudit factors, each as one stack."""
        return [np.array(factors) for factors in zip(*self.terms)]

    def min_factor_eig(self) -> float:
        return min((float(linalg.min_eigs(stack).min()) for stack in self._factor_stacks()),
                   default=np.inf)

    def validate(self, rho: np.ndarray, tol: float = TOL_FLOOR) -> float:
        """The reconstruction residual against ``rho``; raises
        InvalidDecomposition when it exceeds ``tol`` (``TOL_FLOOR``, the
        tolerance every construction is validated at) times ``||rho||_F``
        or a factor is not PSD."""
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

    def reconstruction_residual(self, rho: np.ndarray) -> float:
        """||sum of the terms + (1 (x) V) core (1 (x) V)^dag - rho||_F."""
        lift = np.kron(np.eye(2), self.embed)
        core = 0.0 if self.core is None else lift @ self.core.rho @ lift.conj().T
        return SeparableDecomposition(terms=self.terms).reconstruction_residual(rho - core)

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
    length of the reduction's terms), and the search record of each
    enumeration, in order (``enumerations``; its ``method`` is "roots",
    "canonical" or "recheck")."""

    reduction: Reduction
    remainder: QubitQuditState
    status: str  # decomposed | small_support | sppt_core | budget_exhausted | stalled
    iterations: int
    enumerations: list
    sppt: Optional[SpptVerdict] = None


def _spectral_terms(f: SpptFactors, scale: float) -> list:
    """Explicit product terms for invertible x1 and normal s, unvalidated:
    one rank-one-qubit term per eigenvalue of s, then the |1><1| tail term,
    left out when at most ``linalg.RANK_CUTOFF`` times ``scale``, the norm
    of the state the factors assemble.  ``_classify_sppt`` validates them
    against the state it classifies."""
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

def _rank_one_weights(eig: linalg.EigResult, vs: np.ndarray) -> np.ndarray:
    """Largest lam with m - lam |v><v| PSD, for PSD m = ``eig`` and each unit
    row v of ``vs`` (n, m).

    That is 1 / <v|m^+|v> when v lies in the range of m, and 0 when v has a
    component above ``range_criterion.ENUMERATION_TOL`` on eigenvalues at or
    below ``linalg.RANK_CUTOFF`` times the largest.  Every candidate the
    subtraction search accepts passes that test: its residual against the
    wider kernel at ``range_criterion.ENUMERATION_KERNEL_CUTOFF`` is within
    the same bound.  The support mask is taken once for every row, and a
    row with nothing on the support (an all-kernel spectrum) divides by
    nothing.
    """
    c = vs @ np.conj(eig.vectors)
    keep = eig.support(linalg.RANK_CUTOFF)
    inside = np.linalg.norm(c[:, ~keep], axis=1) <= range_criterion.ENUMERATION_TOL
    quad = (np.abs(c[:, keep]) ** 2 / eig.values[keep]).sum(axis=1)
    return np.divide(1.0, quad, out=np.zeros(len(quad)), where=inside & (quad > 0))


def _product_term(qubit: np.ndarray, qudit: np.ndarray) -> np.ndarray:
    """np.kron(qubit, qudit) of a 2 x 2 and a d x d matrix, by broadcasting:
    the same products, without np.kron's general reshaping."""
    d = len(qudit)
    return (qubit[:, None, :, None] * qudit[None, :, None, :]).reshape(2 * d, 2 * d)


# Relative cutoff of the prover's qudit support, the support of the
# marginal a + c, and the slack of its drained-level test.  Looser than
# ``linalg.RANK_CUTOFF``: a subtraction drains a direction only up to the
# rounding of its weight, which the remainder's conditioning lifts above
# 1e-12; what it cuts off stays an order below ``TOL_FLOOR``.
SUPPORT_CUTOFF = 1e-9
# Least weight, relative to the working state's trace, of a product term the
# prover subtracts: a candidate whose maximal weight is at most this is
# skipped.
WEIGHT_FLOOR = 1e-10


def _max_subtraction_weights(rho: linalg.EigResult, pt: linalg.EigResult, es: np.ndarray,
                             fs: np.ndarray, trace: float) -> np.ndarray:
    """Largest weight of each |e,f><e,f|, for the rows e of ``es`` (n, 2)
    and f of ``fs`` (n, d), keeping the state and its partial transpose PSD,
    capped by the state's trace.

    The partial transpose of |e,f><e,f| is |e*,f><e*,f|, so both limits
    are rank-one closed forms of the two eigendecompositions.
    """
    rho_limit, pt_limit = (
        _rank_one_weights(eig, (qubits[:, :, None] * fs[:, None, :]).reshape(-1, 2 * fs.shape[1]))
        for eig, qubits in ((rho, es), (pt, np.conj(es))))
    return np.minimum(trace, np.minimum(rho_limit, pt_limit))


def _drains_levels(eig: linalg.EigResult, vs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Whether subtracting lam |v><v| (unit v) from a PSD matrix m drains a
    level of its support, for each row v of ``vs`` and its entry of ``lam``,
    given the eigendecomposition ``eig`` of m: the prover reads it on a
    state's qudit marginal M = a + c with v = f (the remainder's marginal is
    M - lam |f><f|, PSD when the remainder is).

    m - lam |v><v| is PSD only for lam <= w = 1 / <v|m^+|v>
    (``_rank_one_weights``).  A rank-one downdate drains at most one level,
    and exactly at lam = w; at the support's cutoff it does when w > 0 and
    lam >= (1 - ``SUPPORT_CUTOFF``) w.  A zero w (v off the support) drains
    none.
    """
    w = (1 - SUPPORT_CUTOFF) * _rank_one_weights(eig, vs)
    return (0 < w) & (w <= lam)


def _pick(lam: np.ndarray, drains: np.ndarray, trace: float):
    """Index of the candidate the prover subtracts, or None: among those of
    weight above ``WEIGHT_FLOOR`` times ``trace``, one that drains a level
    first, then the largest weight, and of equals the first."""
    live = np.flatnonzero(lam > WEIGHT_FLOOR * trace)
    if not len(live):
        return None
    return int(live[np.lexsort((-lam[live], ~drains[live]))[0]])


def _compress_qudit(rho: np.ndarray, d: int, iso: np.ndarray) -> QubitQuditState:
    """The 2 x k state (1 (x) V)^dag rho (1 (x) V) for the d x k isometry V."""
    halves = (slice(None, d), slice(d, None))
    return states._state(iso.shape[1], np.block(
        [[iso.conj().T @ rho[i, j] @ iso for j in halves] for i in halves]))


def _exit(state: QubitQuditState, terms: list, scale0: float):
    """The prover's exit tests on its working ``state``, after the
    subtraction of ``terms`` from an input of norm ``scale0``, in order:
    ``decomposed``, ``small_support``, ``stalled`` and ``sppt_core`` (see
    ``subtract_product_vectors``).  Returns the status, None when no test
    ends the loop; the theorem certificate of a ``small_support`` exit or
    the strong-PPT verdict of an ``sppt_core`` one; and the
    eigendecomposition of the state's qudit marginal M = a + c (None at
    ``decomposed``), which ranks the next candidates.

    On the prover's input, the first call's strong-PPT test does not repeat
    ``classify``'s ``sppt_check``: that one decides at ``DEFAULT_TOL``,
    this one retries at ``TOL_FLOOR``.  ``ill_conditioned_sppt(11)`` and
    ``(34)`` of the tests' helpers read ``Undecided`` there and ``Sppt``
    here, and so end ``Separable`` by this exit after 0 subtractions and 0
    enumerations; without the retry both stay ``PptUndecided``."""
    d = state.d
    if state.norm() <= DEFAULT_TOL * scale0:
        return "decomposed", None, None
    marginal = linalg.EigResult.of(state.rho[:d, :d] + state.rho[d:, d:])
    iso = marginal.vectors[:, marginal.support(SUPPORT_CUTOFF)]
    if iso.shape[1] <= 3 and iso.shape[1] < d:
        core = _compress_qudit(state.rho, d, iso)
        if core.pt_eig.values[0] >= -TOL_FLOOR * scale0:
            return "small_support", _theorem(
                Reduction(terms=terms, core=core, embed=iso),
                "subtraction reduced the remainder to a PPT 2x3-or-smaller support"), marginal
    if any(eig.values[0] < -TOL_FLOOR * eig.scale for eig in (state.eig, state.pt_eig)):
        return "stalled", None, marginal
    verdict = sppt._check_ppt(state, TOL_FLOOR)
    if verdict.status == "Sppt":
        k = verdict.factors.x1_svd.rank
        if k == d or k <= 3:
            return "sppt_core", verdict, marginal
    return None, None, marginal


def _subtract(state: QubitQuditState, lam: float, e: np.ndarray, f: np.ndarray):
    """The product term lam |e><e| (x) |f><f| and the state less it."""
    qubit, qudit = np.outer(e, e.conj()), np.outer(f, f.conj())
    return (qubit, lam * qudit), states._state(state.d, linalg.hermitianize(
        state.rho - lam * _product_term(qubit, qudit)))


def subtract_product_vectors(s: QubitQuditState) -> SubtractionResult:
    """Greedy separable-part extraction for a PPT state.

    Repeatedly finds a product vector |e, f> in the range of the remainder
    (with |e*, f> in the partial-transpose range), subtracts the largest
    weight keeping both the remainder and its partial transpose PSD, and
    stops when the remainder vanishes (``decomposed``, at ``DEFAULT_TOL``),
    is PPT on fewer than d and at most 3 qudit levels (``small_support``:
    2 x 3 PPT, hence separable), or passes the strong-PPT check with factor
    rank d or at most 3 (``sppt_core``), both at ``TOL_FLOOR``.  Best
    effort: exhausting the budget of 8 d subtractions or running out of
    candidates proves nothing about the input.

    The loop holds one working state, ``s`` at first and a new state after
    each subtraction, and one helper, ``_exit``, runs the exit tests on it.
    Their positivity rule reads the state's cached spectra (``eig`` and
    ``pt_eig``; at the first iteration, those ``classify`` already took),
    as the weights and the enumeration's kernels do: an eigenvalue of
    either below ``-TOL_FLOOR`` times its largest magnitude (a maximal
    subtraction can leave one on an ill-conditioned remainder) ends the
    loop ``stalled`` before the strong-PPT test, which reads the state's
    ``a_eig``, at the first iteration the one ``classify``'s
    ``sppt_check`` took.

    Each iteration eigendecomposes the qudit marginal M = a + c once; its
    support at ``SUPPORT_CUTOFF`` is the small-support exit's, and its
    spectrum ranks the candidates.  A candidate that drains a level of
    that support comes first, then the largest weight, and of equals the
    first (``_pick``); draining is a closed form (``_drains_levels``: lam
    >= (1 - ``SUPPORT_CUTOFF``) / <f|M^+|f> > 0), so no candidate's
    remainder is built or eigendecomposed.  Every candidate of an
    enumeration is weighed and tested in one array pass: its two weight
    limits and its drain test are one product each against the spectra
    (``_max_subtraction_weights``, ``_drains_levels``).

    The candidates come from ``range_criterion``'s enumeration.  A
    subtraction that keeps rho' = rho - lam |e,f><e,f| and rho'^Gamma PSD
    gives rho' <= rho and rho'^Gamma <= rho^Gamma, so range rho' lies in
    range rho, range rho'^Gamma in range rho^Gamma, and every product vector
    that qualifies for rho' qualifies for rho.  An enumeration therefore
    runs afresh only at the first iteration and after one that was not
    exhaustive: the roots where their gates pass, exhaustive, and otherwise
    the null vectors at six canonical qubit directions, not exhaustive
    (the continuum case of fewer kernel constraints than d, or a qualifying
    set not known to be finite, where each direction, and a seventh, is
    first polished onto it); after an exhaustive one, its qubit directions
    are kept and each qudit vector is re-solved against the remainder's
    constraints, one batched SVD for them all and no polish.  That decision
    is ``range_criterion._enumerate``'s, which the prover calls with its
    last enumeration each iteration.  None
    left within ``ENUMERATION_TOL`` means ``stalled``, as a fresh
    enumeration would find none either.

    A maximal subtraction drops the rank of the remainder or of its partial
    transpose, and rank rho + rank rho^Gamma <= 4 d, so the budget of 8 d,
    twice that, is not what ends a run that makes progress.  On 2 x 2 and
    2 x 3 PPT states every exit left is constructive and the loop
    terminates: qualifying vectors exist for every PPT remainder there.
    """
    d = s.d
    budget = 8 * d
    state = s
    scale0 = max(s.norm(), 1e-300)
    terms = []
    enumeration = None
    records = []
    for iterations in range(budget + 1):
        status, detail, marginal = _exit(state, terms, scale0)
        if status is not None or iterations == budget:
            break
        trace = state.trace()
        con = range_criterion._constraints_of(state, range_criterion.ENUMERATION_KERNEL_CUTOFF)
        enumeration = range_criterion._enumerate(state, con, enumeration)
        records.append(enumeration.search)
        # Prefer subtractions that drain a qudit level (the certified exit),
        # then the largest admissible weight; greedy max-weight alone can
        # strand the remainder in an edge-like state.
        es = np.array([pv.e for pv in enumeration.found]).reshape(-1, 2)
        fs = np.array([pv.f for pv in enumeration.found]).reshape(-1, d)
        lam = _max_subtraction_weights(state.eig, state.pt_eig, es, fs, trace)
        best = _pick(lam, _drains_levels(marginal, fs, lam), trace)
        if best is None:
            status = "stalled"
            break
        term, state = _subtract(state, lam[best], es[best], fs[best])
        terms.append(term)
    if status is None:
        status = "budget_exhausted"
    reduction = detail if status == "small_support" else Reduction(
        terms=terms, core=state, embed=np.eye(d, dtype=complex))
    return SubtractionResult(reduction=reduction, remainder=state, status=status,
                             iterations=iterations, enumerations=records,
                             sppt=detail if status == "sppt_core" else None)


def decompose_small(s: QubitQuditState) -> SeparableDecomposition:
    """Explicit decomposition of a PPT 2 x 2 or 2 x 3 state.

    Such states are separable outright, so the subtraction loop (its
    budget of 8 d, as in ``classify``) ends in a constructive exit, read as
    ``classify`` reads it and validated at ``TOL_FLOOR``.  A theorem there
    is made explicit by decomposing its PPT 2 x k core in turn; the core
    has k < d qudit levels, so the recursion ends.  Raises
    ValidationError, as ``classify`` does, for a state without positive
    trace, which has no terms to decompose into, and NotPpt, naming the
    least partial-transpose eigenvalue, for a state that ``states.is_npt``
    finds entangled.
    """
    if s.d > 3:
        raise ValidationError("decompose_small handles qudit dimension <= 3 only")
    if s.trace() <= 0:
        raise ValidationError("state must have positive trace")
    if states.is_npt(s):
        raise NotPpt(f"state is NPT (partial transpose eigenvalue {s.pt_eig.values[0]:.3e})")
    sub = subtract_product_vectors(s)
    outcome = _verdict_from_subtraction(s, sub, [], {})
    if outcome is None:
        raise InvalidDecomposition(
            f"subtraction did not terminate constructively ({sub.status})")
    classification, cert = outcome
    if classification == SEPARABLE_BY_THEOREM:
        _, cert = _lift(cert, (SEPARABLE, decompose_small(cert.core)), s, {})
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
       or evaluation cap, goes on to this step, never to EntangledRange.

    The state is classified as given, with tolerances relative to its
    norm: certificates and residuals are in its units, whatever its trace.
    The NPT and strong-PPT tests read ``DEFAULT_TOL``, every construction
    is gated and validated at ``TOL_FLOOR``, and the subtraction prover
    runs its budget of 8 d subtractions.  A separable verdict records its
    ``decomposition_residual``: a ``Separable`` one that of its validation,
    a ``SeparableByTheorem`` one that of its terms and embedded core against
    the state, which no gate reads.
    """
    if s.trace() <= 0:
        raise ValidationError("state must have positive trace")
    log: list = []
    residuals: dict = {}

    def done(classification, certificate):
        if classification == SEPARABLE_BY_THEOREM:
            residuals["decomposition_residual"] = certificate.reconstruction_residual(s.rho)
        return Verdict(classification=classification, certificate=certificate,
                       trace_log=log, residuals=residuals)

    # 1: NPT test
    min_pt = float(s.pt_eig.values[0])
    residuals["min_pt_eigenvalue"] = min_pt
    if states.is_npt(s):
        log.append(f"partial transpose has eigenvalue {min_pt:.3e} < 0: NPT")
        return done(ENTANGLED_NPT, NptCertificate(min_eigenvalue=min_pt,
                                                  eigenvector=s.pt_eig.vectors[:, 0]))
    log.append(f"partial transpose PSD (min eigenvalue {min_pt:.3e}): PPT")

    # 2: small qudit dimension
    if s.d <= 3:
        log.append(f"2x{s.d} PPT: positivity of the partial transpose is "
                   "sufficient for separability here")
        return done(SEPARABLE_BY_THEOREM, _theorem(
            Reduction(terms=[], core=s, embed=np.eye(s.d, dtype=complex)),
            "PPT is sufficient for separability in 2x2 and 2x3"))

    # 3-5: strong-PPT constructions; sppt_check's NPT test reads the
    # cached pt_eig that step 1 read
    verdict = sppt.sppt_check(s)
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
    for key in ("evaluations", "polishes"):
        residuals[f"subtraction_{key}"] = sum(record[key] for record in sub.enumerations)
    methods = [record["method"] for record in sub.enumerations]
    log.append(f"subtraction: {sub.status} after {sub.iterations} subtractions and "
               f"{len(methods)} enumerations "
               f"({methods.count('canonical')} at canonical directions, "
               f"{methods.count('roots')} solved by roots, "
               f"{methods.count('recheck')} re-checked; "
               f"{residuals['subtraction_evaluations']} evaluations, "
               f"{residuals['subtraction_polishes']} polishes), "
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
        # Separable verdict needs.
        try:
            dec = SeparableDecomposition(terms=_spectral_terms(factors, work.norm()))
            residuals["decomposition_residual"] = dec.validate(work.rho)
        except (ValidationError, np.linalg.LinAlgError) as exc:
            log.append(f"spectral construction failed ({exc}); falling through")
            return None
        log.append(f"invertible x1: spectral construction with {len(dec.terms)} "
                   "terms validates")
        return SEPARABLE, dec

    reduction = svd_reduce(factors)
    if reduction.core is None:
        dec = reduction.explicit(None)
        residuals["decomposition_residual"] = dec.validate(work.rho)
        log.append("x1 vanishes: the state is a single product term")
        return SEPARABLE, dec
    if k <= 3:
        cert = _theorem(reduction, "reduction to a PPT 2x3-or-smaller core")
        log.append(f"factor rank {k} <= 3: reduced 2x{k} core is PPT "
                   f"(min eigenvalue {cert.min_pt_eigenvalue:.3e}), hence separable; "
                   "the lift preserves separability")
        return SEPARABLE_BY_THEOREM, cert

    log.append(f"factor rank {k}: classifying the reduced 2x{k} core")
    # The core is 2 x k with k < d, so this recursion ends.
    inner = classify(reduction.core)
    log.append(f"core verdict: {inner.classification}")
    if inner.is_separable_class:
        return _lift(reduction, (inner.classification, inner.certificate), work, residuals)
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
        residuals["decomposition_residual"] = dec.validate(work.rho)
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
        classification, certificate = _lift(reduction, outcome, work, residuals)
        if classification == SEPARABLE:
            log.append("subtracted terms and remainder decomposition validate together")
        return classification, certificate
    return None


def _theorem(reduction: Reduction, reason: str) -> TheoremCertificate:
    """The theorem certificate of a reduction whose core is a PPT 2 x k
    state with k <= 3, with the core's least partial-transpose eigenvalue,
    read from its cached spectrum ``reduction.core.pt_eig``."""
    return TheoremCertificate(**vars(reduction), reason=reason,
                              min_pt_eigenvalue=float(reduction.core.pt_eig.values[0]))


def _lift(reduction: Reduction, core_outcome: tuple, work, residuals: dict):
    """The outcome of ``work`` from the separable outcome of the core of its
    ``reduction``, with the terms of ``reduction.explicit`` less those of
    Frobenius norm at most ``linalg.RANK_CUTOFF`` times that of ``work``.
    A core decomposition comes validated against the core at ``TOL_FLOOR``
    by whatever built it (``classify``, ``_classify_sppt`` or
    ``decompose_small``); the lifted one is validated against ``work``, and
    that residual is recorded in ``residuals`` as the
    ``decomposition_residual``."""
    classification, cert = core_outcome
    floor = linalg.RANK_CUTOFF * work.norm()
    terms = [(qubit, qudit) for qubit, qudit in reduction.explicit(cert).terms
             if linalg.frob(qubit) * linalg.frob(qudit) > floor]
    if classification == SEPARABLE_BY_THEOREM:
        return classification, dataclasses.replace(cert, terms=terms,
                                                   embed=reduction.embed @ cert.embed)
    dec = SeparableDecomposition(terms=terms)
    residuals["decomposition_residual"] = dec.validate(work.rho)
    return classification, dec
