"""Strong-PPT factorizations: residual test and the decision check.

A 2 x d state of the form rho = X^dag X with block upper-triangular

    X = [[x1, s @ x1], [0, x2]]

has blocks a = x1^dag x1, b = x1^dag s x1, c = x1^dag s^dag s x1 + x2^dag x2.
Its partial transpose equals Y^dag Y, Y = [[x1, s^dag @ x1], [0, x2]],
exactly when

    x1^dag s^dag s x1 = x1^dag s s^dag x1,                      (*)

and a state admitting such a factorization is called strong-PPT (SPPT).
Every SPPT state is PPT by construction; the converse fails.

For a PPT state with invertible a the factorization is essentially unique
(x1 = a^{1/2}, s the whitened b-block), so (*) reduces to the closed-form
criterion  b^dag a^-1 b = b a^-1 b^dag.  The check answers NotSppt only
when ||b^dag a^-1 b - b a^-1 b^dag||_F exceeds both ``linalg.DEFAULT_TOL``
times ||rho||_F and the rounding bound of forming it, c d cond(a) eps
||rho||_F (``sppt_check``); a residual between the two reads Undecided, as
rounding alone could have made it.  With singular a the
state may still be SPPT through couplings into ker(a); ``sppt_check``
searches two canonical candidates for those couplings and accepts only
factorizations that replay (reassemble the state and satisfy (*) within
tolerance), reporting Undecided otherwise.  a = 0 is the
search's rank-0 case: x1 = s = 0 and x2 = c^{1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, states
from .errors import DimensionMismatch, NotPpt
from .states import QubitQuditState, SpptFactors, assemble_state, blocks


@dataclass(frozen=True)
class SpptVerdict:
    """Outcome of ``sppt_check`` with the factorization actually tested.

    ``status`` is one of "Sppt", "NotSppt", "Undecided".  A "Sppt" verdict
    always carries the factors it accepted, so it can be replayed
    independently (``assemble_state``).  What was verified depends on a.
    With invertible a, the canonical factors x1 = a^{1/2}, s = a^{-1/2} b
    a^{-1/2} and x2 = (c - b^dag a^-1 b)^{1/2} reassemble the state by
    construction and are not reassembled: the verdict rests on the
    closed-form residual ||b^dag a^-1 b - b a^-1 b^dag||_F and on both
    Schur complements being PSD, each within the check's tolerance.  With
    singular a, a candidate's strong-PPT residual and its reassembly
    against the state are both verified.  "NotSppt" is only issued in the
    invertible-a regime, where ``residual_matrix`` holds  b^dag a^-1 b -
    b a^-1 b^dag, when its norm exceeds both the check's tolerance and the
    rounding bound of forming it (``sppt_check``), so rounding alone cannot
    produce it; below that bound the invertible-a verdict is "Undecided",
    with a note that names cond(a).
    """

    status: str
    residual: float
    factors: Optional[SpptFactors] = None
    note: str = ""
    residual_matrix: Optional[np.ndarray] = None


# The constant c of the NotSppt gate's rounding bound c d cond(a) eps ||rho||_F,
# derived in ``sppt_check``.
_ROUNDING = 16


def sppt_residual(x1, s) -> float:
    """Frobenius norm of x1^dag (s^dag s - s s^dag) x1; zero iff SPPT holds."""
    x1 = linalg.as_matrix(x1)
    s = linalg.as_matrix(s)
    if x1.shape != s.shape or x1.shape[0] != x1.shape[1]:
        raise DimensionMismatch("x1 and s must be square and equal size")
    return states._sppt_residual(x1, s)


def _full_rank_factors(s: QubitQuditState, a_inv: np.ndarray, b, c, tol: float) -> SpptFactors:
    """The canonical factors of a PPT state with invertible a-block, from a^-1
    and the state's eigendecomposition of a, ``s.a_eig``: x1 = a^{1/2}, s =
    a^{-1/2} b a^{-1/2}, x2 = (c - b^dag a^-1 b)^{1/2}.  Raises NotPpt when
    either Schur complement fails positivity (the state or its partial
    transpose is not PSD) by more than ``tol`` times the state's norm."""
    schur = linalg.EigResult.of(c - b.conj().T @ a_inv @ b)
    min_pt = linalg.min_eig(c - b @ a_inv @ b.conj().T)
    if min(schur.values[0], min_pt) < -tol * max(s.norm(), 1e-300):
        raise NotPpt("a Schur complement of the state is not PSD")
    # Clamp against the state scale: the Schur complement itself may be a
    # numerically zero matrix.
    x2 = schur.apply(_clamped_sqrt)
    a_mhalf = s.a_eig.apply(lambda values: 1.0 / np.sqrt(values))
    x1, sigma = _root(s.a_eig, s.d)
    return states._with_svd(SpptFactors(x1=x1, s=a_mhalf @ b @ a_mhalf, x2=x2),
                            s.a_eig.vectors[:, ::-1], sigma)


def _root(eig: linalg.EigResult, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """x1 = a^{1/2} on the ``rank`` largest eigenvalues of a, zero on the
    others, from the eigendecomposition of a, with its singular values,
    descending: x1 is hermitian PSD, so its singular vectors are a's
    eigenvectors, ``eig.vectors[:, ::-1]``.  Eigenvalues above
    ``linalg.RANK_CUTOFF`` times the largest have square roots above 1e-6
    times the largest, so x1's rank is ``rank``."""
    root = np.zeros(len(eig.values))
    root[len(root) - rank:] = np.sqrt(eig.values[len(root) - rank:])
    return (eig.vectors * root) @ eig.vectors.conj().T, root[::-1]


def _clamped_sqrt(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(values, 0.0))


def _psd_factor_rows(eig: linalg.EigResult, n_rows: int) -> np.ndarray:
    """G with n_rows rows and G^dag G = p, for PSD p of rank <= n_rows,
    from the eigendecomposition of p.

    Rows are sqrt(eigenvalue) * eigenvector^dag for the largest eigenvalues,
    zero-padded; negative noise eigenvalues are clamped.
    """
    values, vectors = eig
    r = len(values)
    order = np.argsort(-values)
    g = np.zeros((n_rows, r), dtype=complex)
    for i in range(min(n_rows, r)):
        g[i, :] = np.sqrt(max(values[order[i]], 0.0)) * vectors[:, order[i]].conj()
    return g


def _check_singular_support(s: QubitQuditState, b, c, eig: linalg.EigResult,
                            rank: int, tol: float) -> SpptVerdict:
    """Decision attempt for singular a: search couplings into ker(a).

    Any factorization can be brought to x1 = a^{1/2}; the on-support block
    of s is then fixed by b, and the strong-PPT condition couples the two
    off-support Gram matrices P = s21^dag s21 and Q = s12 s12^dag through

        P - Q = s11 s11^dag - s11^dag s11 =: delta,

    while c must dominate the on-support part of x1^dag s^dag s x1.  Two
    candidates are tried in turn: the positive part of delta (smallest
    coupling) and the Schur-complement upper bound p_max (largest admissible
    coupling, which is exact when x2 = 0).  p_max, a pseudo-inverse and a
    Schur complement, is formed only when the first candidate fails; the
    first candidate's Gram matrices, the positive and negative parts of
    delta, share delta's eigendecomposition.  Each candidate must pass rank
    and positivity gates at ``linalg.TOL_FLOOR`` and is then verified by
    reassembly; failure of both leaves the existence question open, hence
    Undecided.  x1 = a^{1/2} on the support of a, and its SVD, come once
    from the eigendecomposition of a (``_root``); the residual that accepts
    a candidate stays cached on its factors.

    a = 0 is the rank-0 case: the support is empty, so b must vanish, and
    delta, P and Q are 0 x 0; the first candidate then gives x1 = s = 0 and
    x2 = c^{1/2}, with residual 0.
    """
    d = s.d
    m_dim = d - rank
    scale = max(s.norm(), 1e-300)
    q = eig.vectors[:, d - rank:]      # support of a (eigenvalues ascending)
    q_perp = eig.vectors[:, :d - rank]

    proj = q @ q.conj().T
    b_loss = linalg.frob(b - proj @ b @ proj)
    if b_loss > tol * scale:
        return SpptVerdict(
            status="Undecided",
            residual=b_loss,
            note="b-block has content outside the support of a; the canonical "
                 "factorization cannot reproduce it",
        )

    x1, x1_sigma = _root(eig, rank)
    # In the basis q, a is diagonal: a^{1/2} and a^{-1/2} are too.
    root = np.sqrt(eig.values[d - rank:])
    a_half, a_mhalf = np.diag(root), np.diag(1.0 / root)
    s11 = a_mhalf @ (q.conj().T @ b @ q) @ a_mhalf
    delta = linalg.hermitianize(s11 @ s11.conj().T - s11.conj().T @ s11)
    compressed_residual = linalg.frob(a_half @ delta @ a_half)

    def candidates():
        """(P, Q) eigendecompositions of each candidate coupling in turn."""
        w, vectors = linalg.EigResult.of(delta)
        yield (linalg.EigResult(np.maximum(w, 0.0), vectors),
               linalg.EigResult(np.maximum(-w[::-1], 0.0), vectors[:, ::-1]))
        # Slack of c against the on-support part, split along support/kernel.
        t11 = linalg.hermitianize(
            q.conj().T @ c @ q - a_half @ s11.conj().T @ s11 @ a_half
        )
        t12 = q.conj().T @ c @ q_perp
        t22 = linalg.hermitianize(q_perp.conj().T @ c @ q_perp)
        t22_pinv = np.linalg.pinv(t22, rcond=1e-10)
        schur = linalg.hermitianize(t11 - t12 @ t22_pinv @ t12.conj().T)
        p_h = linalg.hermitianize(a_mhalf @ schur @ a_mhalf)
        yield linalg.EigResult.of(p_h), linalg.EigResult.of(p_h - delta)

    omega = np.hstack([q, q_perp])
    for eig_p, eig_q in candidates():
        # At rank 0 both are 0 x 0: an empty spectrum's least eigenvalue
        # reads 0, so the candidate passes.
        if any(eig.values.min(initial=0.0) < -linalg.TOL_FLOOR * eig.scale
               or eig.support(linalg.TOL_FLOOR).sum() > m_dim for eig in (eig_p, eig_q)):
            continue
        s21 = _psd_factor_rows(eig_p, m_dim)
        s12 = _psd_factor_rows(eig_q, m_dim).conj().T
        s_tilde = np.zeros((d, d), dtype=complex)
        s_tilde[:rank, :rank] = s11
        s_tilde[:rank, rank:] = s12
        s_tilde[rank:, :rank] = s21
        s_full = omega @ s_tilde @ omega.conj().T
        inner = a_half @ (s11.conj().T @ s11 + s21.conj().T @ s21) @ a_half
        tail = linalg.EigResult.of(c - q @ inner @ q.conj().T)
        # Noise floor is set by the state scale; the reassembly check below
        # is the binding validation.
        if tail.values[0] < -linalg.TOL_FLOOR * scale:
            continue
        cand = states._with_svd(SpptFactors(x1=x1, s=s_full, x2=tail.apply(_clamped_sqrt)),
                                eig.vectors[:, ::-1], x1_sigma)
        if (cand.sppt_residual <= tol * scale
                and linalg.frob(assemble_state(cand).rho - s.rho) <= 10 * tol * scale):
            return SpptVerdict(
                status="Sppt",
                residual=cand.sppt_residual,
                factors=cand,
                note=f"singular a (rank {rank}); factorization found by "
                     f"kernel-coupling search and verified by reassembly",
            )
    return SpptVerdict(
        status="Undecided",
        residual=compressed_residual,
        note=f"a is singular (rank {rank}) and the candidate kernel couplings "
             f"do not reproduce the state; existence of another factorization "
             f"is open (compressed-core residual {compressed_residual:.3e})",
    )


def sppt_check(s: QubitQuditState) -> SpptVerdict:
    """Decide the strong-PPT property of a PPT state, at ``linalg.DEFAULT_TOL``.

    Non-PPT input yields Undecided with note "NPT" (the property is defined
    within PPT states).  With invertible a the closed-form criterion
    decides: Sppt with the canonical factors when the residual R = b^dag
    a^-1 b - b a^-1 b^dag has ||R||_F at most ``linalg.DEFAULT_TOL`` times
    ||rho||_F, NotSppt when ||R||_F also exceeds the rounding bound

        ``_ROUNDING`` d cond(a) eps ||rho||_F,

    cond(a) read from the state's eigendecomposition of a (``a_eig``), and
    Undecided in between, with a note that names cond(a).  With singular a
    a verified factorization gives Sppt, otherwise the verdict is
    Undecided, never NotSppt.

    The bound is the first-order rounding of R for a strong-PPT state, whose
    exact R is 0, in the usual model that the eigensolver and each product
    of d x d matrices err by at most d eps times the norms involved
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, sections 3.5 and 14.1).  Write kappa = cond(a), and b =
    a^{1/2} s a^{1/2} for the canonical s.

    * a^-1 is formed from a's eigendecomposition, exact for a + E with
      ||E|| <= d eps ||a||, through eigenvectors orthonormal to d eps, so
      the computed inverse is a^-1 + D with ||a^{1/2} D a^{1/2}|| <= 3 d eps
      kappa (1 for E, 2 for the vectors on either side).
    * b^dag D b = (s a^{1/2})^dag (a^{1/2} D a^{1/2}) (s a^{1/2}), and
      ||s a^{1/2}||^2 = ||b^dag a^-1 b|| <= ||c|| because rho is PSD; the
      same holds for b D b^dag and ||s^dag a^{1/2}||^2 = ||b a^-1 b^dag||
      <= ||c||, as rho^Gamma is PSD.  Each term: 3 d eps kappa ||c||.
    * Each term takes two products, of rounding at most d eps ||b||^2
      ||a^-1|| <= d eps kappa ||c|| each, as ||b||^2 <= ||a|| ||c||: 2 d eps
      kappa ||c|| per term.
    * Two terms: ||R|| <= 10 d eps kappa ||c|| <= 10 d eps kappa ||rho||_F.

    ``_ROUNDING`` = 16 leaves 60% on top of the 10 for the second-order
    terms and the final subtraction (2 eps ||c||).  Measured on the
    strong-PPT ``ill_conditioned_sppt`` family of the tests (cond(a) 1e8 to
    1e12), ||R|| reads 0.006 to 0.8 times kappa eps ||rho||_F, at least 80
    times under the bound; on inputs that are not strong-PPT
    (``horodecki_2x4``, the counterexamples, generic separable mixtures)
    it reads 7e12 to 2e15 times it.
    """
    if states.is_npt(s):
        return SpptVerdict(status="Undecided", residual=0.0,
                           note=f"NPT (partial transpose eigenvalue {s.pt_eig.values[0]:.3e})")
    return _check_ppt(s, linalg.DEFAULT_TOL)


def _check_ppt(s: QubitQuditState, tol: float) -> SpptVerdict:
    """``sppt_check`` at ``tol`` of a state whose partial transpose is known to be PSD."""
    scale = max(s.norm(), 1e-300)
    _, b, c = blocks(s)
    eig = s.a_eig
    rank = int(eig.support(linalg.RANK_CUTOFF).sum())
    if rank == s.d:
        a_inv = eig.apply(np.reciprocal)
        residual_matrix = b.conj().T @ a_inv @ b - b @ a_inv @ b.conj().T
        residual = linalg.frob(residual_matrix)
        if residual <= tol * scale:
            factors = _full_rank_factors(s, a_inv, b, c, tol)
            return SpptVerdict(
                status="Sppt", residual=residual, factors=factors,
                note="invertible a; closed-form criterion",
                residual_matrix=residual_matrix,
            )
        cond = float(eig.values[-1] / eig.values[0])
        rounding = _ROUNDING * s.d * cond * np.finfo(float).eps * scale
        if residual <= rounding:
            return SpptVerdict(
                status="Undecided", residual=residual,
                note=f"invertible a; closed-form residual {residual:.3e} is within "
                     f"the rounding bound {rounding:.3e} of forming it at cond(a) = "
                     f"{cond:.3e}, so the criterion cannot decide",
                residual_matrix=residual_matrix,
            )
        return SpptVerdict(
            status="NotSppt", residual=residual,
            note="invertible a; closed-form criterion",
            residual_matrix=residual_matrix,
        )
    return _check_singular_support(s, b, c, eig, rank, tol)
