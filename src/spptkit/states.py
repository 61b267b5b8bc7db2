"""Qubit-qudit (2 x d) density operators, strong-PPT factors and state generators.

Basis convention: the first tensor factor is the qubit, with |0> = (1, 0)^t
and |1> = (0, 1)^t.  Row index ``a * d + j`` of the 2d x 2d matrix refers to
|a> tensor |j>, so a state splits into d x d blocks

    rho = [[a, b], [b^dag, c]],  a = <0|rho|0>, b = <0|rho|1>, c = <1|rho|1>,

and the partial transpose on the qubit maps (a, b, c) -> (a, b^dag, c).

States may be stored unnormalized; classification works on them as given,
with relative tolerances.  All values are immutable (the stored matrix is marked
read-only), so states can be shared and certificates replayed safely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPsd,
    SingularTransform,
    ValidationError,
)


@dataclass(frozen=True)
class QubitQuditState:
    """A 2 x d density operator, possibly unnormalized.

    The eigendecompositions of rho, of its partial transpose and of its
    a-block <0|rho|0> are cached, read-only like rho: each is computed at
    most once per state and shared by every reader of that spectrum (the
    NPT rule, the theorem certificate, the range criterion's kernels and
    the subtraction prover read the first two; the strong-PPT check and
    its factors the third).
    """

    d: int
    rho: np.ndarray
    normalized: bool = False

    def trace(self) -> float:
        return float(self.rho.trace().real)

    def norm(self) -> float:
        return linalg.frob(self.rho)

    @cached_property
    def eig(self) -> linalg.EigResult:
        """Eigendecomposition of rho, computed once."""
        return _freeze_eig(self.rho)

    @cached_property
    def pt_eig(self) -> linalg.EigResult:
        """Eigendecomposition of the partial transpose of rho, computed once."""
        return _freeze_eig(partial_transpose_matrix(self.rho, self.d))

    @cached_property
    def a_eig(self) -> linalg.EigResult:
        """Eigendecomposition of the a-block <0|rho|0>, computed once."""
        return _freeze_eig(self.rho[:self.d, :self.d])


class BlockView(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.flags.writeable = False
    return out


def _freeze_eig(m: np.ndarray) -> linalg.EigResult:
    eig = linalg.EigResult.of(m)
    for part in eig:
        part.flags.writeable = False
    return eig


def _state(d: int, rho: np.ndarray, normalized: bool = False) -> QubitQuditState:
    """Internal constructor that skips validation (used for derived matrices)."""
    return QubitQuditState(d=d, rho=_freeze(rho), normalized=normalized)


def _integer(value, what: str, error: type[ValidationError]) -> int:
    """``value`` as an int, numpy's integers included, or ``error``: a float,
    a bool (an int subclass, which ``operator.index`` admits) or any other
    non-integer is rejected."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, (bool, np.bool_)):
        raise error(f"{what} must be an integer, got {value!r}")
    return index


def _dimension(d) -> int:
    """The qudit dimension ``d`` as an int >= 1, or BadDimensions."""
    d = _integer(d, "qudit dimension", BadDimensions)
    if d < 1:
        raise BadDimensions(f"qudit dimension must be >= 1, got {d}")
    return d


def make_state(d: int, entries, normalized: bool = False) -> QubitQuditState:
    """Validate and wrap a 2d x 2d matrix as a qubit-qudit state.

    Checks dimensions (``d`` an integer, numpy's included, but not a bool
    or a float), finiteness of the entries and of ``||rho||_F``, hermiticity
    (within ``linalg.HERM_RTOL`` of ``||rho||_F``), positivity (least
    eigenvalue at least ``-linalg.PSD_RTOL * ||rho||_F``) and, when
    ``normalized``, unit trace.  Every check is relative to ``||rho||_F``,
    so a matrix whose norm overflows (entries near 1e154 and above), or
    that is not all zero and whose norm is below sqrt of the smallest
    normal double (``np.finfo(float).tiny``, about 1.49e-154), where its
    squared entries are subnormal and lose their precision, is rejected,
    naming its largest entry: no relative check could hold it.  The rule
    is for scalings such as 1e-160, where ``random_separable(5, 7,
    seed=0)``'s state would classify ``PptUndecided`` with no error (at
    1e-170 its norm underflows to 0); it also refuses that state scaled by
    1e-154 to 1e-158, which would still classify ``Separable``.
    This is the only place the package validates a state; everything it
    derives from one is hermitianized instead.
    """
    d = _dimension(d)
    rho = linalg.as_matrix(entries)
    if rho.shape != (2 * d, 2 * d):
        raise BadDimensions(f"expected shape {(2 * d, 2 * d)}, got {rho.shape}")
    with np.errstate(over="ignore"):
        norm = linalg.frob(rho)
    tiny = np.sqrt(np.finfo(float).tiny)
    if norm == np.inf or (norm < tiny and rho.any()):
        fault = ("overflows" if norm == np.inf else "underflows to 0" if norm == 0 else
                 f"{norm:.3e} is below {tiny:.3e}, where the squared entries are subnormal,")
        raise ValidationError(f"the Frobenius norm {fault} at largest entry "
                              f"{np.abs(rho).max():.3e}; rescale the state")
    scale = max(norm, 1e-300)
    if linalg.frob(rho - rho.conj().T) > linalg.HERM_RTOL * scale:
        raise NotHermitian(f"state is not hermitian within relative tolerance {linalg.HERM_RTOL:g}")
    min_eig = linalg.min_eig(rho)
    if min_eig < -linalg.PSD_RTOL * scale:
        raise NotPsd(f"state has negative eigenvalue {min_eig:g}")
    if normalized and abs(rho.trace().real - 1.0) > linalg.PSD_RTOL * max(norm, 1.0):
        raise NotNormalized(f"trace {rho.trace().real!r} is not 1")
    return _state(d, rho, normalized)


def blocks(s: QubitQuditState) -> BlockView:
    """The (a, b, c) block view; a + c is the reduced qudit operator."""
    d = s.d
    return BlockView(
        a=s.rho[:d, :d].copy(),
        b=s.rho[:d, d:].copy(),
        c=s.rho[d:, d:].copy(),
    )


def join_blocks(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Assemble [[a, b], [b^dag, c]], filling one preallocated array."""
    d = len(a)
    out = np.empty((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = a
    out[:d, d:] = b
    out[d:, :d] = b.conj().T
    out[d:, d:] = c
    return out


def partial_transpose_matrix(rho: np.ndarray, d: int) -> np.ndarray:
    """Partial transpose on the qubit factor of a raw 2d x 2d matrix."""
    out = np.array(rho, dtype=complex)
    out[:d, d:] = rho[:d, d:].conj().T
    out[d:, :d] = rho[d:, :d].conj().T
    return out


def is_npt(s: QubitQuditState) -> bool:
    """The one NPT rule, of ``classify``, ``sppt_check`` and the CLI: the
    least partial-transpose eigenvalue of ``s`` (``s.pt_eig``) certifies
    entanglement when it is below -``linalg.DEFAULT_TOL`` times the state's
    norm."""
    return float(s.pt_eig.values[0]) < -linalg.DEFAULT_TOL * max(s.norm(), 1e-300)


def partial_transpose(s: QubitQuditState) -> QubitQuditState:
    """Partial transpose on the qubit: blocks (a, b, c) -> (a, b^dag, c).

    The result is hermitian with the same trace but is NOT validated for
    positivity; a negative eigenvalue certifies entanglement of the input.
    """
    return _state(s.d, partial_transpose_matrix(s.rho, s.d), s.normalized)


def local_qudit_transform(s: QubitQuditState, v) -> QubitQuditState:
    """Congruence (1 (x) v)^dag rho (1 (x) v) with invertible v on the qudit.

    Preserves positivity and the strong-PPT property; the result is returned
    unnormalized.  Raises SingularTransform when v's least singular value
    is at most ``linalg.RANK_CUTOFF`` times its largest.
    """
    v = linalg.as_matrix(v)
    if v.shape != (s.d, s.d):
        raise BadDimensions(f"transform must be {s.d} x {s.d}, got {v.shape}")
    sigma = np.linalg.svd(v, compute_uv=False)
    if sigma[-1] <= linalg.RANK_CUTOFF * sigma[0]:
        raise SingularTransform("qudit transform is singular within tolerance")
    a, b, c = blocks(s)
    vh = v.conj().T
    return _state(s.d, join_blocks(vh @ a @ v, vh @ b @ v, vh @ c @ v))


def maximally_mixed(d: int) -> QubitQuditState:
    """The normalized maximally mixed 2 x d state; ``d`` as ``make_state``
    takes it, else BadDimensions."""
    d = _dimension(d)
    return _state(d, np.eye(2 * d, dtype=complex) / (2 * d), normalized=True)


@dataclass(frozen=True)
class SpptFactors:
    """The triple (x1, s, x2) of equal-size d x d matrices.

    The SVD of x1 and the strong-PPT residual are cached: each is computed
    at most once per triple and shared by every rank gate, reduction and
    residual gate that reads it.  ``sppt`` builds x1 as a square root of
    the state's a-block and seeds the SVD from the eigendecomposition of a
    it has already taken (``_with_svd``), so its factors run no SVD at all.
    """

    x1: np.ndarray
    s: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        for name in ("x1", "s", "x2"):
            m = linalg.as_matrix(getattr(self, name))
            if m.shape != self.x1.shape or m.shape[0] != m.shape[1]:
                raise DimensionMismatch("factors must be square and equal size")

    @property
    def d(self) -> int:
        return self.x1.shape[0]

    @cached_property
    def x1_svd(self) -> linalg.SvdResult:
        """SVD of x1, computed once and shared by every rank gate and reduction."""
        return linalg.svd(self.x1)

    @cached_property
    def sppt_residual(self) -> float:
        """``sppt.sppt_residual(x1, s)``: the Frobenius norm of
        x1^dag (s^dag s - s s^dag) x1, zero iff the factors are strong-PPT."""
        return _sppt_residual(self.x1, self.s)


def _sppt_residual(x1: np.ndarray, s: np.ndarray) -> float:
    g = s.conj().T @ s - s @ s.conj().T
    return linalg.frob(x1.conj().T @ g @ x1)


def _with_svd(factors: SpptFactors, vectors: np.ndarray, sigma: np.ndarray) -> SpptFactors:
    """``factors`` with the SVD of x1 seeded as u = v = ``vectors``, singular
    values ``sigma`` (descending): the caller built the hermitian PSD x1 as
    vectors @ diag(sigma) @ vectors^dag."""
    factors.__dict__["x1_svd"] = linalg.SvdResult(vectors, sigma, vectors)
    return factors


def assemble_state(f: SpptFactors) -> QubitQuditState:
    """rho = X^dag X for X = [[x1, s x1], [0, x2]]; PSD by construction."""
    a = f.x1.conj().T @ f.x1
    b = f.x1.conj().T @ f.s @ f.x1
    c = f.x1.conj().T @ f.s.conj().T @ f.s @ f.x1 + f.x2.conj().T @ f.x2
    rho = join_blocks(linalg.hermitianize(a), b, linalg.hermitianize(c))
    return _state(f.d, rho)


# ---------------------------------------------------------------------------
# Reference states
# ---------------------------------------------------------------------------

def sppt_counterexample_2x3() -> QubitQuditState:
    """A 2 x 3 PPT (hence separable) state that is not strong-PPT.

    All four of a, c, and the two Schur complements c - b^dag a^-1 b and
    c - b a^-1 b^dag are positive definite, so the state and its partial
    transpose are positive definite, yet b^dag a^-1 b != b a^-1 b^dag.
    Entries are exact small integers; the trace is 21.

    CLI alias: ``rho1``.
    """
    a = np.array([[3, 0, 0], [0, 4, 2], [0, 2, 3]], dtype=complex)
    b = np.array([[0, 0, 0], [0, 0, 1], [1, -1, 0]], dtype=complex)
    c = np.array([[2, 1, -1], [1, 6, 1], [-1, 1, 3]], dtype=complex)
    return _state(3, join_blocks(a, b, c))


def sppt_counterexample_2x4() -> QubitQuditState:
    """The 2 x 3 counterexample embedded in 2 x 4 with one extra product level.

    The fourth qudit level carries weight 1 in the qubit-|0> block and 0 in
    the qubit-|1> block, so the state stays separable and PPT while still
    failing the strong-PPT condition.  Trace is 22.

    CLI alias: ``rho2``.
    """
    base = sppt_counterexample_2x3()
    a3, b3, c3 = blocks(base)
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    c = np.zeros((4, 4), dtype=complex)
    a[:3, :3] = a3
    a[3, 3] = 1.0
    b[:3, :3] = b3
    c[:3, :3] = c3
    return _state(4, join_blocks(a, b, c))


class FamilyInstance(NamedTuple):
    state: QubitQuditState
    factors: SpptFactors
    meta: dict


def entangled_sppt_2x5(b: float) -> FamilyInstance:
    """The one-parameter family of entangled 2 x 5 strong-PPT states.

    For 0 < b < 1, build the factors

        x1 = diag(1, 1, 1, 1, 0),   x2 = 0,
        s  = shift-type matrix with couplings
             beta1 = sqrt((1-b)/(2b)) and beta2 = sqrt((1+b)/(2b)),

    and assemble rho = X^dag X.  The strong-PPT condition holds exactly
    because beta2^2 = 1 + beta1^2.  The qubit-|1> block has diagonal
    couplings gamma1 = (1+b)/(2b) and off-diagonal gamma2 = beta1 * beta2
    = sqrt(1-b^2)/(2b); hermiticity forces the real root here, which the
    metadata records.  The state is supported on the first four qudit
    levels and its core is a bound entangled 2 x 4 state of Horodecki type,
    so the full state is entangled despite being strong-PPT.

    CLI alias: ``rho0``.
    """
    if not 0.0 < b < 1.0:
        raise BadParameter(f"parameter b must lie strictly in (0, 1), got {b}")
    beta1 = np.sqrt((1.0 - b) / (2.0 * b))
    beta2 = np.sqrt((1.0 + b) / (2.0 * b))
    x1 = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)
    s = np.zeros((5, 5), dtype=complex)
    s[0, 1] = 1.0
    s[0, 4] = beta1
    s[1, 2] = 1.0
    s[2, 3] = 1.0
    s[3, 4] = beta2
    s[4, 0] = beta2
    s[4, 3] = beta1
    x2 = np.zeros((5, 5), dtype=complex)
    factors = SpptFactors(x1=x1, s=s, x2=x2)
    state = assemble_state(factors)
    meta = {
        "b": b,
        "beta1": float(beta1),
        "beta2": float(beta2),
        "gamma1": (1.0 + b) / (2.0 * b),
        "gamma2": float(beta1 * beta2),
        "gamma2_note": (
            "gamma2 = sqrt(1-b^2)/(2b) = beta1*beta2; the assembled state is "
            "hermitian only with this real root (an imaginary value here "
            "would not arise from X^dag X)"
        ),
    }
    return FamilyInstance(state=state, factors=factors, meta=meta)


def horodecki_2x4(b: float) -> QubitQuditState:
    """The bound entangled 2 x 4 core of the 2 x 5 family, in closed form.

    Blocks: a = identity, b-block = the upper shift (ones on the first
    superdiagonal), and c carrying gamma1 = (1+b)/(2b) on levels 0 and 3
    with off-diagonal coupling gamma2 = sqrt(1-b^2)/(2b).  PPT for all
    0 < b < 1, with both Schur complements rank-1 and singular, yet no
    product vector |e, f> lies in the range of rho with |e*, f> in the
    range of the partial transpose, so the state is entangled.

    CLI alias: ``horodecki``.
    """
    if not 0.0 < b < 1.0:
        raise BadParameter(f"parameter b must lie strictly in (0, 1), got {b}")
    gamma1 = (1.0 + b) / (2.0 * b)
    gamma2 = np.sqrt(1.0 - b * b) / (2.0 * b)
    a = np.eye(4, dtype=complex)
    bb = np.zeros((4, 4), dtype=complex)
    bb[0, 1] = bb[1, 2] = bb[2, 3] = 1.0
    c = np.array(
        [
            [gamma1, 0.0, 0.0, gamma2],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [gamma2, 0.0, 0.0, gamma1],
        ],
        dtype=complex,
    )
    return _state(4, join_blocks(a, bb, c))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``; BadParameter for a seed that is not
    an integer (a bool or a float included) or is negative, which numpy
    would take or reject with a bare error."""
    seed = _integer(seed, "seed", BadParameter)
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _random_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _shift_with_defect(delta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A k x k matrix whose commutator defect m m^dag - m^dag m equals delta.

    Diagonalize the traceless hermitian target, then use a weighted shift:
    with descending eigenvalues the prefix sums are nonnegative, and a
    superdiagonal of weights sqrt(prefix sums) telescopes to the desired
    diagonal defect.  Random phases and a random scalar shift keep the
    sample from being special.
    """
    k = delta.shape[0]
    values, w = linalg.EigResult.of(delta)
    values = values[::-1]
    w = w[:, ::-1]
    prefix = np.maximum(np.cumsum(values)[:-1], 0.0)
    core = np.zeros((k, k), dtype=complex)
    for j in range(k - 1):
        core[j, j + 1] = np.sqrt(prefix[j]) * np.exp(2j * np.pi * rng.uniform())
    core += (rng.normal() + 1j * rng.normal()) * np.eye(k)
    return w @ core @ w.conj().T


def random_sppt(d: int, rank: int, normal_s: bool = True, seed: int = 0,
                with_tail: bool = False):
    """Draw a random strong-PPT instance, returning ``(state, factors)``.

    ``x1`` has the prescribed rank.  With ``normal_s`` the middle factor is
    a random unitary conjugation of a random complex diagonal, which makes
    the strong-PPT condition hold for any x1.  Otherwise (requires
    rank < d) the condition is enforced on the support of x1 by
    construction: the off-support couplings are drawn freely and the
    on-support block is built to carry exactly the commutator defect they
    require.  ``with_tail`` adds a random full-rank x2, which gives the
    assembled state rank d + rank, full only when rank = d.  Deterministic
    per seed.  A qudit dimension that is not an integer >= 1 raises
    BadDimensions, as in ``make_state``; a rank or seed that is not an
    integer (bools and floats included), a rank outside [1, d] and a
    negative seed raise BadParameter.
    """
    d = _dimension(d)
    rank = _integer(rank, "rank", BadParameter)
    if not 1 <= rank <= d:
        raise BadParameter(f"need 1 <= rank <= d, got rank={rank}, d={d}")
    rng = _rng(seed)
    u = linalg.haar_unitary(d, rng)
    v = linalg.haar_unitary(d, rng)
    sigma = np.sort(rng.uniform(0.5, 1.5, size=rank))[::-1]
    x1 = u @ np.diag(np.concatenate([sigma, np.zeros(d - rank)])) @ v.conj().T

    if normal_s or rank == d:
        # For full-rank x1 the strong-PPT condition forces a normal s.
        w = linalg.haar_unitary(d, rng)
        eigs = rng.normal(size=d) + 1j * rng.normal(size=d)
        s = (w * eigs) @ w.conj().T
    else:
        m = d - rank
        s21 = rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))
        s12 = rng.normal(size=(rank, m)) + 1j * rng.normal(size=(rank, m))
        # The commutator defect of the on-support block is traceless, so the
        # two couplings must carry equal weight.
        s12 *= np.sqrt(
            np.trace(s21.conj().T @ s21).real / np.trace(s12 @ s12.conj().T).real
        )
        delta = s21.conj().T @ s21 - s12 @ s12.conj().T
        s11 = _shift_with_defect(delta, rng)
        s_tilde = np.zeros((d, d), dtype=complex)
        s_tilde[:rank, :rank] = s11
        s_tilde[:rank, rank:] = s12
        s_tilde[rank:, :rank] = s21
        s_tilde[rank:, rank:] = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        s = u @ s_tilde @ u.conj().T

    if with_tail:
        x2 = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
    else:
        x2 = np.zeros((d, d), dtype=complex)

    factors = SpptFactors(x1=x1, s=s, x2=x2)
    return assemble_state(factors), factors


def random_separable(d: int, n_terms: int | None = None, seed: int = 0):
    """A random convex mixture of product states, with its terms.

    Returns ``(state, terms)`` where ``terms`` is a list of
    ``(weight, e, f)`` with unit vectors e (qubit) and f (qudit).  The
    mixture is normalized.  When ``n_terms`` is None a count in [1, 2d] is
    drawn.  A qudit dimension that is not an integer >= 1 raises
    BadDimensions, as in ``make_state``; a term count or seed that is not
    an integer (bools and floats included), a count below 1 and a negative
    seed raise BadParameter.
    """
    d = _dimension(d)
    if n_terms is not None:
        n_terms = _integer(n_terms, "n_terms", BadParameter)
    rng = _rng(seed)
    if n_terms is None:
        n_terms = int(rng.integers(1, 2 * d + 1))
    if n_terms < 1:
        raise BadParameter("need at least one product term")
    weights = rng.uniform(0.2, 1.0, size=n_terms)
    weights /= weights.sum()
    rho = np.zeros((2 * d, 2 * d), dtype=complex)
    terms = []
    for w in weights:
        e = _random_unit(2, rng)
        f = _random_unit(d, rng)
        rho += w * np.kron(np.outer(e, e.conj()), np.outer(f, f.conj()))
        terms.append((float(w), e, f))
    return _state(d, rho, normalized=True), terms
