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
otherwise re-solves the qudit vectors of the remainder at the qubit
directions it last enumerated.  Inside ``classify``
it first subtracts the product vector that the range search found on the
sphere, then the one a range search finds on the sphere of each
remainder, each only when its weight drains a level of the state (a
closed form), and stops when a remainder exits, as it does on inputs of
rank d + k after k subtractions that each drop the rank, once the
remainder has rank d and an invertible a-block (a 2 x d PPT state of
rank d is separable; Kraus, Cirac, Karnas and Lewenstein, PRA 61,
062302, 2000).  Classification runs
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
        return sum(_product_term(qubit, qudit) for qubit, qudit in self.terms)

    def reconstruction_residual(self, rho: np.ndarray) -> float:
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
    (``rechecks``), with the ``evaluations`` and ``polishes`` summed over
    the records of those enumerations and of the chain's range searches.
    ``chained`` counts the range-search product vectors the chain
    subtracted before the loop, each one whose weight drained a level of
    the state, ``chain_searches`` the range searches it ran on their
    remainders, and ``led`` says whether the chain ended the loop; when it
    did not, the loop ran from the input and the chain's subtractions are
    not among the ``reduction``'s terms."""

    reduction: Reduction
    remainder: QubitQuditState
    status: str  # decomposed | small_support | sppt_core | budget_exhausted | stalled
    iterations: int
    searches: int
    rechecks: int
    evaluations: int
    polishes: int
    sppt: Optional[SpptVerdict] = None
    chained: int = 0
    chain_searches: int = 0
    led: bool = False


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


# Relative cutoff of the prover's qudit support, the support of the
# marginal a + c, and the slack of its drained-level test.  Looser than
# ``linalg.RANK_CUTOFF``: a subtraction drains a direction only up to the
# rounding of its weight, which the remainder's conditioning lifts above
# 1e-12; what it cuts off stays an order below ``TOL_FLOOR``.
SUPPORT_CUTOFF = 1e-9
# Least weight, relative to the working state's trace, of a product term the
# prover subtracts: a candidate whose maximal weight is at most this is
# skipped by the loop and ends the chain.
WEIGHT_FLOOR = 1e-10


def _drains_level(eig: linalg.EigResult, v: np.ndarray, lam: float) -> bool:
    """Whether subtracting lam |v><v| (unit v) from a PSD matrix m drains a
    level of its support, given the eigendecomposition ``eig`` of m: the
    prover reads it on a state's qudit marginal M = a + c with v = f (the
    remainder's marginal is M - lam |f><f|, PSD when the remainder is), and
    its chain on the state itself with v = |e, f>.

    m - lam |v><v| is PSD only for lam <= w = 1 / <v|m^+|v>
    (``_rank_one_weight``).  A rank-one downdate drains at most one level,
    and exactly at lam = w; at the support's cutoff it does when w > 0 and
    lam >= (1 - ``SUPPORT_CUTOFF``) w.  A zero w (v off the support) drains
    none.
    """
    return 0 < (1 - SUPPORT_CUTOFF) * _rank_one_weight(eig, v) <= lam


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


def _chain_vector(state: QubitQuditState, effort: dict):
    """The product vector that ``edge_check`` finds for ``state`` by
    searching the Bloch sphere, with the search's work added to ``effort``;
    None when it finds none there, returns only the continuum case's
    canonical vectors (no evaluations), or raises ValidationError."""
    try:
        cert = edge_check(state)
    except ValidationError:
        return None
    for key in effort:
        effort[key] += cert.search[key]
    if cert.conclusion != "FoundProductVector" or cert.search["evaluations"] == 0:
        return None
    return cert.found[0]


def subtract_product_vectors(s: QubitQuditState,
                             lead: Optional[range_criterion.ProductVector] = None
                             ) -> SubtractionResult:
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

    A ``lead``, a product vector of ``s``'s ranges that ``classify``'s range
    search found by searching the sphere, starts a chain after the first
    exit tests and before the first enumeration.  A weight that the state,
    not its partial transpose, limits drops the state's rank by one, and a
    PPT remainder stays in both ranges; so on a 2 x d input of rank d + k,
    k such subtractions leave a PPT remainder of rank d, which is separable
    (Kraus, Cirac, Karnas and Lewenstein, PRA 61, 062302, 2000) and, with
    an invertible a-block, taken by the strong-PPT exit.  The chain
    therefore subtracts a vector only when its maximal weight drains a
    level of the state, the closed form ``_drains_level`` read against the
    state's cached ``eig`` (the (1 - ``SUPPORT_CUTOFF``) slack keeps the
    exact ties of a state- and a transpose-limited weight); while the
    remainder does not exit, ``edge_check`` searches the remainder and the
    vector it finds on the sphere is tried in turn.  When a remainder ends
    the loop by ``decomposed``, ``small_support`` or ``sppt_core``, the
    prover returns after the chain's subtractions and no enumeration.  The
    chain stops when a vector's weight does not drain a level (it is not
    subtracted), a remainder is ``stalled``, a remainder's search finds no
    vector on the sphere (the continuum case's canonical vectors do not
    count) or raises ValidationError, or the chain reaches the budget.
    The loop then goes on from ``s`` as without a lead.  The chain's
    searches go through the name ``edge_check`` of this module, and their
    work counts in the result's ``evaluations`` and ``polishes`` whether or
    not the chain ends the loop.

    Each iteration eigendecomposes the qudit marginal M = a + c once; its
    support at ``SUPPORT_CUTOFF`` is the small-support exit's, and its
    spectrum ranks the candidates.  A candidate that drains a level of
    that support comes first, then the largest weight; draining is a
    closed form (``_drains_level``: lam >= (1 - ``SUPPORT_CUTOFF``) /
    <f|M^+|f> > 0), so no candidate's remainder is built or
    eigendecomposed.

    The candidates come from ``range_criterion``'s enumeration.  A
    subtraction that keeps rho' = rho - lam |e,f><e,f| and rho'^Gamma PSD
    gives rho' <= rho and rho'^Gamma <= rho^Gamma, so range rho' lies in
    range rho, range rho'^Gamma in range rho^Gamma, and every product vector
    that qualifies for rho' qualifies for rho.  The sphere is therefore
    searched only at the first iteration and after an enumeration that was
    not exhaustive (the continuum case of fewer kernel constraints than d,
    ``ENUMERATION_CANDIDATES`` reached, or the search ending inconclusive);
    after an exhaustive one, its qubit directions are kept and each
    qudit vector is re-solved against the remainder's constraints, one
    SVD per direction and no polish (``range_criterion._recheck``); none
    left within ``ENUMERATION_TOL`` means ``stalled``, as a fresh search
    would find none either.

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
    iterations = searches = rechecks = 0
    effort = dict.fromkeys(("evaluations", "polishes"), 0)
    # The loop's first exit tests, then the chain: the lead and each vector
    # the range search finds on the sphere of the last remainder, in turn,
    # each subtracted only when its weight drains a level of the state.
    outcome = _exit(s, terms, scale0)
    chain, work, pv, led, chain_searches = [], s, lead, False, 0
    while pv is not None and outcome[0] is None and len(chain) < budget:
        trace = work.trace()
        lam = _max_subtraction_weight(work.eig, work.pt_eig, pv.e, pv.f, trace)
        if (lam <= WEIGHT_FLOOR * trace
                or not _drains_level(work.eig, np.outer(pv.e, pv.f).ravel(), lam)):
            break
        term, remainder = _subtract(work, lam, pv.e, pv.f)
        tried = _exit(remainder, chain + [term], scale0)
        chain.append(term)
        if tried[0] is not None:
            if tried[0] != "stalled":
                terms, state, outcome, led = chain, remainder, tried, True
            break
        work, pv = remainder, _chain_vector(remainder, effort)
        chain_searches += 1
    for iterations in range(len(terms), budget + 1):
        status, detail, marginal = outcome or _exit(state, terms, scale0)
        outcome = None
        if status is not None or iterations == budget:
            break
        trace = state.trace()
        # Prefer subtractions that drain a qudit level (the certified exit),
        # then the largest admissible weight; greedy max-weight alone can
        # strand the remainder in an edge-like state.
        best = None
        con = range_criterion._constraints_of(state, range_criterion.ENUMERATION_KERNEL_CUTOFF)
        if enumeration is not None and enumeration.exhaustive:
            enumeration = range_criterion._recheck(state, con, enumeration)
            rechecks += 1
        else:
            enumeration = range_criterion._enumerate(state, con)
            searches += 1
        for key in effort:
            effort[key] += enumeration.search[key]
        for e, f in ((pv.e, pv.f) for pv in enumeration.found):
            lam = _max_subtraction_weight(state.eig, state.pt_eig, e, f, trace)
            if lam <= WEIGHT_FLOOR * trace:
                continue
            key = (not _drains_level(marginal, f, lam), -lam)
            if best is None or key < best[0]:
                best = (key, lam, e, f)
        if best is None:
            status = "stalled"
            break
        _, lam, e, f = best
        term, state = _subtract(state, lam, e, f)
        terms.append(term)
    if status is None:
        status = "budget_exhausted"
    reduction = detail if status == "small_support" else Reduction(
        terms=terms, core=state, embed=np.eye(d, dtype=complex))
    return SubtractionResult(reduction=reduction, remainder=state, status=status,
                             iterations=iterations, searches=searches, rechecks=rechecks,
                             sppt=detail if status == "sppt_core" else None,
                             chained=len(chain), chain_searches=chain_searches, led=led,
                             **effort)


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
       or evaluation cap, leads here, never to EntangledRange.  A vector
       that step 6 found by searching the sphere is the prover's ``lead``,
       the first of a chain of range-search vectors subtracted before any
       enumeration, each only when its weight drains a level of the state:
       the chain ends the proof when a remainder exits (as at rank d + k
       after k subtractions, where the remainder has rank d), and
       otherwise the prover starts again from the state.

    The state is classified as given, with tolerances relative to its
    norm: certificates and residuals are in its units, whatever its trace.
    The NPT and strong-PPT tests read ``DEFAULT_TOL``, every construction
    is gated and validated at ``TOL_FLOOR``, and the subtraction prover
    runs its budget of 8 d subtractions.
    """
    if s.trace() <= 0:
        raise ValidationError("state must have positive trace")
    log: list = []
    residuals: dict = {}

    def done(classification, certificate):
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

    # 7: subtraction prover, led by the vector the search found on the
    # sphere (not the continuum case's canonical directions)
    lead = cert.found[0] if cert.found and cert.search["evaluations"] > 0 else None
    sub = subtract_product_vectors(s, lead=lead)
    residuals["subtraction_evaluations"] = sub.evaluations
    residuals["subtraction_polishes"] = sub.polishes
    # A chain that stopped before any search left nothing in the counts; one
    # that stopped after a search was set aside, as the loop ran from the input.
    chained = ""
    if sub.led or sub.chain_searches:
        chained = (f"; a chain of {sub.chained} range-search product vectors and "
                   f"{sub.chain_searches} range searches "
                   + ("ended it" if sub.led else "stopped and was set aside"))
    log.append(f"subtraction: {sub.status} after {sub.iterations} subtractions and "
               f"{sub.searches + sub.rechecks} enumerations "
               f"({sub.searches} searched the sphere, {sub.rechecks} re-checked; "
               f"{sub.evaluations} evaluations, {sub.polishes} polishes), "
               f"remainder norm {sub.remainder.norm():.3e}{chained}")
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
