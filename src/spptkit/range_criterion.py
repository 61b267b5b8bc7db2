"""Product vectors in the range of a 2 x d state, and the range criterion.

A separable state must contain product vectors |e, f> in its range such
that the partially conjugated |e*, f> lies in the range of the partial
transpose.  Membership in a range is equivalent to orthogonality against
the kernel, so for a fixed qubit direction e both conditions are linear
in the qudit vector f: stacking the contracted kernel vectors of rho (with
e) and of rho^{T_A} (with e*) gives a constraint matrix M(e) whose smallest
"d-th" singular value

    mu(e) = min_{|f|=1} ||M(e) f||

vanishes exactly when a qualifying product vector exists at e.  The qubit
direction is a point of the Bloch sphere, e = (cos(theta/2),
e^{i phi} sin(theta/2)); mu does not depend on the phase of e.

``edge_check`` searches the sphere through the Bloch-sphere
branch-and-bound of ``sphere``: this module supplies its objective, mu, as
``_Constraints``, with a lower bound on mu over cells (``_mu_batch``), a
Gauss-Newton polish on M(e) f = 0 (``_polish``) and a start for it, the
least-mu direction of six canonical ones, which the search polishes before
it bounds a cell.  On a separable input that one polish usually ends the
search: the range criterion proves only entanglement, so a product vector
found decides nothing, and the sooner it is found the better.  The bound
at the centre comes from the d x d Gram matrix G(e) = M(e)^dag M(e), whose least
eigenvalue is mu^2: G(e) is a fixed combination of four precomputed
blocks, so a batch of centres costs one matrix product and one batched
hermitian eigensolve, and a margin covering their rounding keeps the bound
below mu.  Over the cell the bound is the larger of two: the centre's less
a Lipschitz constant (Weyl's inequality) times the cell radius, and a
first-order bound from the same eigenpair, which follows the actual slope
of mu at the centre and so excludes cells of a flat landscape levels
earlier.  Before the eigensolve, each cell's G is tested by a batched
LDL^H factorization (``linalg.positive_definite``), several times cheaper,
wherever the search has a finite line to test against: all pivots positive
proves that the eigensolve would give a bound too large to change what the
search reports, so only the other cells are solved.  ``edge_check`` stops
at the first product vector at ``EXCLUSION_THRESHOLD``.

The subtraction prover's enumeration (``_enumerate``) searches nothing.  It
wants every qualifying vector with residual at most ``ENUMERATION_TOL``,
against the wider kernel at ``ENUMERATION_KERNEL_CUTOFF``.  With at least
d constraint rows there are finitely many, generically (Kraus, Cirac,
Karnas and Lewenstein, PRA 61, 062302, 2000), the roots of a polynomial
system in the qubit direction, and ``_roots`` finds them all with one
eigensolve of a resultant's companion matrix, and their qudit vectors,
unpolished, with one batched SVD; such an enumeration is exhaustive.
Where one of its gates fails (a determinant that vanishes to rounding, a
leading coefficient ill-conditioned at both of its shifts or an ambiguous
root), the qualifying set is not known to be finite.  There, as with fewer
constraint rows than d, where mu vanishes identically, the enumeration
takes the null vectors at six canonical directions (``_continuum``, which
``edge_check`` takes in the continuum case too) and is not exhaustive;
with at least d rows, each direction, and a seventh, is first polished
onto the zero set of mu.  The prover subtracts a product term and keeps
the remainder and its partial transpose PSD, so both ranges only shrink
and every qualifying vector of the remainder qualifies for the state
before; given an exhaustive previous
enumeration, ``_enumerate`` keeps each direction it found and re-solves its
qudit vector against the remainder's constraints, all in one batched SVD,
instead of enumerating again; what it keeps is again exhaustive.  Every
candidate's residuals are recomputed from the definitions in one pass over
the enumeration (``_product_vectors_at``).  When every cell is excluded
``edge_check`` concludes ``NoneFound`` with a lower bound on mu
over the whole sphere: a proof, up to floating point and the kernel
cutoff, that no qualifying product vector exists, which for a PPT state
certifies entanglement.

Index convention: a kernel vector w of the 2d x 2d state is reshaped to a
2 x d array W with the qubit index first, so <w, e (x) f> = sum_{a,j}
conj(W[a, j]) e_a f_j and the constraint row for f is e contracted against
conj(W).  This convention is pinned by the pure-product recovery test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, sphere
from .errors import NotPsd
from .states import QubitQuditState

EXCLUSION_THRESHOLD = 1e-6
KERNEL_CUTOFF = 1e-10
# The enumeration behind the subtraction prover: a looser kernel cutoff than
# the range criterion's, and candidates within residual 1e-7.
ENUMERATION_KERNEL_CUTOFF = 1e-8
ENUMERATION_TOL = 1e-7
_POLISH_ITERATIONS = 30
_POLISH_STALL = 3                  # steps without halving the residual before giving up
_POLISH_TOL = 1e-14                # residual at which Gauss-Newton stops
_SLICE = 1024                      # cells formed, tested and solved together
_UNIT = np.array([[1.0], [1j]])    # a complex unknown's real and imaginary column
# The enumeration's root finder (``_roots``): its fixed qubit frame U, its
# Moebius shifts sigma (the second tried where the first fails the cond
# gate), the node whose powers combine surplus constraint rows, its three
# gates, and the Bloch angle within which two roots are one.
_FRAME = np.array([[0.8, -0.36 + 0.48j], [0.36 + 0.48j, 0.8]])
_SHIFTS = (0.3 - 0.2j, -1.0)
_NODE = np.exp(2j * np.pi * 0.6180339887498949)
_ROOT_DET = 1e-8                   # |det| over Hadamard's bound above which p is not = 0
_ROOT_COND = 1e3                   # largest condition number of the shifted leading coefficient
_ROOT_MU = 1e-4                    # mu at a root below which it must qualify
_SAME = 1e-6                       # Bloch angle (rad) within which two directions are one


@dataclass(frozen=True)
class ProductVector:
    """A candidate product vector with its two range residuals.

    ``residual_range`` is the norm of the projection of e (x) f onto the
    kernel of rho (distance to range membership); ``residual_pt_range`` is
    the same for e* (x) f against the partial transpose.  Both recompute
    from (e, f) alone, so certificates can be replayed.
    """

    e: np.ndarray
    f: np.ndarray
    residual_range: float
    residual_pt_range: float

    @property
    def combined_residual(self) -> float:
        return float(np.hypot(self.residual_range, self.residual_pt_range))


@dataclass(frozen=True)
class RangeSearchCertificate:
    """Record of the branch-and-bound search over the qubit direction.

    ``certified_bound`` is a lower bound on mu over the whole Bloch sphere
    (0 where the search's start is found, before any cell is bounded);
    ``worst_min_residual`` is the smallest mu seen, the least of the Gram
    lower bounds at the cell centres and the SVD values at the polished
    points, the start's included, so it is at least ``certified_bound``;
    ``refined_minima`` records every Gauss-Newton polish, the start's
    first, and ``search`` the kernels, the Lipschitz constant, the rounding
    margin ``mu_margin`` and the work done.
    """

    search: dict
    certified_bound: float
    worst_min_residual: float
    refined_minima: list
    conclusion: str         # "FoundProductVector", "NoneFound" or "Inconclusive"
    found: list = field(default_factory=list)
    exclusion_threshold: float = EXCLUSION_THRESHOLD
    note: str = "range-criterion search certificate"


def _kernel(eig: linalg.EigResult, norm: float, cutoff: float) -> np.ndarray:
    """Orthonormal kernel basis (rows) of a PSD matrix of Frobenius norm
    ``norm`` from its eigendecomposition ``eig``: the eigenvectors with
    eigenvalue at most ``cutoff`` times the largest.  The positivity gate
    reads the Frobenius norm, as ``states.make_state`` and ``states.is_npt``
    do: a state they accept, and its partial transpose, pass it."""
    if eig.values[0] < -max(cutoff, linalg.PSD_RTOL) * max(norm, 1e-300):
        raise NotPsd(f"a kernel needs a PSD matrix, min eigenvalue {eig.values[0]:g}")
    return eig.vectors[:, ~eig.support(cutoff)].T


@dataclass(frozen=True)
class _Constraints:
    """Precontracted kernel data of a state and its partial transpose, and
    ``sphere.search``'s objective mu: ``lipschitz``, ``bounds`` (``_mu_batch``),
    ``polish`` (``_polish``) and ``start``.

    ``gram`` holds the d x d blocks H_ab, flattened and in the order 00, 01,
    10, 11, with M(e)^dag M(e) = sum_ab conj(e_a) e_b H_ab; ``margin`` and
    ``ldl_margin`` are the rounding margins of ``_mu_batch``'s eigensolve and
    positive-definiteness test; ``operator``, built once, gives M(e) for any
    batch of e in one product (``_constraint_rows``).
    """

    d: int
    cutoff: float
    w_state: np.ndarray     # (k1, 2, d): conj of kernel vectors of rho
    w_pt: np.ndarray        # (k2, 2, d): conj of kernel vectors of rho^{T_A}
    gram: np.ndarray        # (4, d * d)
    margin: float
    ldl_margin: float

    @property
    def n_rows(self) -> int:
        return self.w_state.shape[0] + self.w_pt.shape[0]

    @cached_property
    def operator(self) -> np.ndarray:
        """The (4, n_rows d) operator taking (e_0, e_1, conj(e_0), conj(e_1))
        to M(e), flattened: the state rows are linear in e, the
        partial-transpose rows in conj(e), and the other blocks are zero."""
        k1 = self.w_state.shape[0]
        op = np.zeros((4, self.n_rows, self.d), dtype=complex)
        op[:2, :k1] = self.w_state.transpose(1, 0, 2)
        op[2:, k1:] = self.w_pt.transpose(1, 0, 2)
        return op.reshape(4, -1)

    @cached_property
    def lipschitz(self) -> float:
        """L with |mu(e) - mu(e')| <= L min_phi ||e - e^{i phi} e'||.

        The state rows of M are X(e) f = W (e (x) f), with W the (k, 2d)
        matrix of the conjugated kernel rows, and the partial-transpose rows
        are Y(e) f = V (e* (x) f).  So X(e) - X(e') = W ((e - e') (x) I)
        moves by at most ||W||_2 ||e - e'|| in operator norm, and Y by
        ||V||_2 ||e - e'||.  The parts are stacked, ||[X; Y] f||^2 = ||X f||^2
        + ||Y f||^2, so M moves by at most L ||e - e'|| with L = sqrt(||W||_2^2
        + ||V||_2^2); Weyl's inequality carries that over to mu, which does
        not depend on the phase of e.  The same argument gives ||M(e)||_2 <=
        L for a unit e.  The kernel rows are orthonormal, so L is 1 per
        non-empty part up to rounding.

        No SVD is taken: ||W||_2^2 is the largest eigenvalue of the k x k
        Gram G = W W^dag, at most its largest absolute row sum (Gershgorin),
        and so for V.  Each computed entry of G, an inner product over m =
        2d terms, is within (m + 4) eps ||W_i|| ||W_j|| of the exact one, so
        the row norms ||W_i|| are at most sqrt|G_ii| (1 + (m + 6) eps) and
        the exact row sum of row i at most the computed one, widened by (k +
        1) eps for its absolute values and sum, plus (m + 4) eps ||W_i||
        sum_j ||W_j||.  The factor 1 + 8 eps on L covers the rounding of
        these bounds, of their sum over the parts and of the square root.
        For orthonormal rows the bound is within ~(m + 4) k eps of the SVD's
        norm.
        """
        eps, squares = np.finfo(float).eps, 0.0
        for w in (self.w_state, self.w_pt):
            if len(w):
                k, m = len(w), w[0].size
                w = w.reshape(k, m)
                gram = w @ w.conj().T
                norms = np.sqrt(np.abs(gram.diagonal())) * (1.0 + (m + 6) * eps)
                sums = np.abs(gram).sum(axis=1) * (1.0 + (k + 1) * eps)
                squares += float(np.max(sums + (m + 4) * eps * norms * norms.sum()))
        return float(np.sqrt(squares) * (1.0 + 8.0 * eps))

    @cached_property
    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """The search's first polish, ``(e, f)``: the direction of least mu
        among the six ``_CANONICAL`` ones and its eigenvector of
        lambda_1(G(e)), from one eigensolve of their six Grams."""
        values, vectors = linalg.eigh(_grams(self, _CANONICAL))
        i = int(np.argmin(values[:, 0]))
        return _CANONICAL[i], vectors[i, :, 0]

    def bounds(self, e_batch, radius, above):
        return _mu_batch(self, e_batch, radius, above)

    def polish(self, e, start):
        return _polish(self, e, start)


def _constraints_of(s: QubitQuditState, cutoff: float) -> _Constraints:
    """The constraints of ``s``, from the kernels of its cached spectra
    ``s.eig`` and ``s.pt_eig`` behind ``_kernel``'s positivity gate (the
    partial transpose has the state's Frobenius norm)."""
    kernels = (_kernel(eig, s.norm(), cutoff) for eig in (s.eig, s.pt_eig))
    return _constraints(s.d, *kernels, cutoff)


def _constraints(d: int, ker: np.ndarray, ker_pt: np.ndarray, cutoff: float) -> _Constraints:
    w_state, w_pt = np.conj(ker.reshape(-1, 2, d)), np.conj(ker_pt.reshape(-1, 2, d))
    # The state rows are linear in e, so they give W_a^dag W_b; the
    # partial-transpose rows are linear in e*, so they give V_b^dag V_a.
    gram = (np.einsum("kai,kbj->abij", np.conj(w_state), w_state)
            + np.einsum("kbi,kaj->abij", np.conj(w_pt), w_pt))
    rounding = float(d * np.finfo(float).eps * (len(w_state) + len(w_pt)))
    return _Constraints(d=d, cutoff=cutoff, w_state=w_state, w_pt=w_pt,
                        gram=gram.reshape(4, d * d),
                        margin=16 * rounding, ldl_margin=4 * rounding)


def _constraint_rows(con: _Constraints, e_batch: np.ndarray) -> np.ndarray:
    """M(e) for a batch of unit qubit vectors of shape (n, 2): (n, n_rows, d),
    one product against ``con.operator``."""
    e4 = np.concatenate([e_batch, np.conj(e_batch)], axis=1)
    return (e4 @ con.operator).reshape(len(e_batch), con.n_rows, con.d)


def _grams(con: _Constraints, e: np.ndarray) -> np.ndarray:
    """G(e) = M(e)^dag M(e) for unit qubit vectors e (n, 2): (n, d, d), one
    product against ``con.gram``."""
    weights = (np.conj(e)[:, :, None] * e[:, None, :]).reshape(-1, 4)
    return (weights @ con.gram).reshape(-1, con.d, con.d)


def _mu_batch(con: _Constraints, e_batch: np.ndarray, radius, above=None):
    """Lower bounds on mu at cell centres (n, 2) and over the cells round them.

    Returns ``(mu_lo, lower, vectors)``: mu_lo <= mu at each centre, lower
    <= mu on each cell of Bloch radius ``radius`` (one per centre, or one
    for all), lower = max(mu_lo - L r / 2, the first-order bound below),
    and per centre the computed unit eigenvector of lambda_1(G), zero where
    no eigensolve ran; the search starts its polishes from it.

    mu(e)^2 is the least eigenvalue of G(e) = sum_ab conj(e_a) e_b H_ab, and
    mu_lo = sqrt(max(lambda_1 - delta, 0)) for the computed lambda_1 and
    delta = ``con.margin`` = 16 d eps n, n the number of constraint rows.
    By Weyl's inequality delta need only bound the spectral norm of the
    rounding, which has three parts, each in units of eps n:

    * the blocks H_ab, inner products over at most 2d kernel rows: entrywise
      at most (2d + 2) eps sum_k |W_ka,i| |W_kb,j|;
    * the products conj(e_a) e_b and their sum against H_ab: entrywise at
      most 6 eps sum_ab |e_a e_b| |H_ab,ij|;
    * the eigensolver's backward error, p(d) eps ||G||_2 with p(d) = d
      (LAPACK states a modestly growing p; its own error estimates take 1).

    Here W runs over the kernel rows of both parts.  The first two are
    bounded entrywise by multiples of the nonnegative matrix U^T U,
    U_ki = sum_a |e_a| |W_ka,i|, so in spectral norm by those multiples of
    ||U||_F^2 <= sum_k ||W_k||^2 = n (Cauchy-Schwarz over a, with
    |e_0|^2 + |e_1|^2 = 1; the kernel rows are unit vectors); and
    ||G||_2 <= ||M(e)||_F^2 <= n.  The total, (3d + 8) eps n, is at most
    7 d eps n for d >= 2 (11 d eps n at d = 1); the constant 16 is above
    both.  Every computed eigenvalue lambda_i is within it of the exact
    one, not only the least.

    First-order bound.  A cell of Bloch radius r round the centre c holds,
    up to phase, the vectors (c + t c_perp) / sqrt(1 + |t|^2) with |t| <=
    tau = tan(r / 2) and c_perp = (-conj(c_1), conj(c_0)).  M is linear in
    e on the state rows and in e* on the partial-transpose rows, so M(c +
    t c_perp) = M(c) + N with N = [t X; conj(t) Y] for [X; Y] = M(c_perp),
    and ||N f|| = |t| ||M(c_perp) f|| <= tau L ||f||.  Take any unit v (the
    computed eigenvector of lambda_1 serves; nothing below asks it to be
    exact), w = M(c) v = [w_s; w_p], a = v^dag G v = ||w||^2 and the
    residual rho = ||G v - a v||.  Split a unit f = alpha v + beta g with g
    a unit vector orthogonal to v, and the rows into u = w / ||w|| and its
    complement, with projector Q:

    * u^dag M(c) g = (G v - a v)^dag g / ||w|| is at most rho / ||w|| in
      modulus, and u^dag (M(c) + N) v = ||w|| + (t p_s + conj(t) p_p) /
      ||w|| with p_s = w_s^dag X v and p_p = w_p^dag Y v.  As |x + z| >= x
      + Re z for real x > 0 and Re(t p_s + conj(t) p_p) = Re(t (p_s +
      conj(p_p))) >= -tau p sigma_1 with the slope p sigma_1 = |p_s +
      conj(p_p)|, this is at least ||w|| - tau p sigma_1 / ||w||.  With
      ||w|| >= sigma_1 = sqrt(lambda_1 - delta) and x - tau p sigma_1 / x
      rising in x, |u^dag (M(c) + N) f| >= |alpha| A - |beta| B, with A =
      sigma_1 - tau p and B = tau L + rho / sigma_1.
    * The compression of G to span(v, g) has, by Cauchy interlacing, its
      two eigenvalues above lambda_1 and lambda_2, and its trace is a +
      g^dag G g, so ||M(c) g||^2 >= lambda_1 + lambda_2 - a.  (lambda_2 -
      rho is no bound for every v: it fails for the top eigenvector of a
      2 x 2 G.)  Q w = 0, so ||Q (M(c) + N) f|| >= |beta| C - D, with C^2
      = lambda_1 + lambda_2 - a - (rho / sigma_1)^2 <= ||Q M(c) g||^2 and
      D = tau L.

    ||(M(c) + N) f|| is at least both.  For A > 0, with b = |beta| and
    |alpha| = sqrt(1 - b^2) exactly, the first, sqrt(1 - b^2) A - b B,
    falls in b on [0, 1] while the second, b C - D, rises; at b = 0 the
    first is the larger, at b = 1 not, as D <= B + C, so the least over b
    of the larger is where they cross.  Squaring sqrt(1 - b^2) A = b S - D,
    S = B + C, leaves b* = (D S + A sqrt(S^2 + A^2 - D^2)) / (S^2 + A^2)
    (the other root has b S < D), and F = b* C - D (``_crossing``).  So mu
    >= F / sqrt(1 + tau^2) on the cell.  The chord |alpha| >= 1 - b only
    lowers the first, so F is never below the chord's crossing, (A C - D
    (A + B)) / (A + B + C); where lambda_1 and lambda_2 are close it is
    well above it.  At d = 1, beta = 0 and F = A.  For an exact
    eigenvector, rho = 0 and a = lambda_1, so B = D = tau L and C =
    sqrt(lambda_2).  Near a simple zero of mu the first order gains most:
    the zero-order bound subtracts L r / 2, this one about tau p, with p
    the actual slope of mu along c_perp in place of L.

    F rises in A and C and falls in B and D, so each input is taken at a
    bound in the safe direction.  Both lambda less delta, by Weyl's
    inequality as above.  a, p sigma_1 and rho are formed from the computed
    G and M rows and a computed v, unit up to d eps; against the exact ones
    for the unit v / ||v||, a and p sigma_1 are off by at most (6d + 10) eps
    n <= delta (the rows' and G's rounding as above, the products with v,
    the inner products over at most 2d rows, p_s and p_p summed into one;
    ||M(c)||_2, ||M(c_perp)||_2 <= L and the entrywise bound by U again),
    rho by at most twice that: each is taken plus delta, rho plus 2 delta.
    The factor 1 + 1e-12 on tau covers the rounding of tan, of L and of tau
    L.  ``_crossing`` takes the rounding of its square root and division
    off F, at most 8 eps (C + D); F is then taken less delta, which covers
    the rounding of A, B, C, D from those inputs and of the division by
    sqrt(1 + tau^2).

    ``above`` holds, per vector, a value past which its bound need not be
    known; None, like an infinite value, settles no vector.  Each computed
    G with a finite ``above`` is first tested by ``linalg.positive_definite``
    against tau_LDL = above^2 (1 + 1e-12) + 2 delta + delta_LDL, and a
    vector that passes gets +inf for both bounds and no eigensolve; an
    infinite tau_LDL would fail every matrix, so the others skip the test.
    A pass proves lambda_min(G) > tau_LDL - 4 d eps tr(G - tau_LDL I) for
    the computed G.  The exact G has tr G <=
    ||M(e)||_F^2 <= n, and the rounding of the first two parts above adds
    at most d (2d + 8) eps n to the computed trace, so a pass proves
    lambda_min(G) > tau_LDL - delta_LDL = above^2 (1 + 1e-12) + 2 delta,
    with delta_LDL = ``con.ldl_margin`` = 4 d eps n, up to a relative
    1e-13 of delta_LDL.  The eigensolve's lambda is within its backward
    error d eps n <= delta / 16 of lambda_min(G), so it would exceed above^2
    (1 + 1e-12) + delta, the second delta covering both, and the computed
    mu_lo would be at least above: the factor 1e-12 covers the rounding of
    above^2, of lambda - delta and of the square root, and of a caller's
    mu_lo - slack for 0 <= slack <= above.  Vectors are formed, tested and
    solved ``_SLICE`` at a time; LAPACK solves each matrix of a stack on
    its own and every other step is per vector, so the vectors that are
    solved get the same bounds bit for bit, whichever others were settled.
    """
    n = len(e_batch)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (n,))
    if above is None:
        above = np.full(n, np.inf)
    shift = above ** 2 * (1.0 + 1e-12) + 2.0 * con.margin + con.ldl_margin
    tau = np.tan(radius / 2.0) * (1.0 + 1e-12)
    lam, first = np.full(n, np.inf), np.full(n, np.inf)
    least = np.zeros((n, con.d), dtype=complex)
    for i in range(0, n, _SLICE):
        e = e_batch[i:i + _SLICE]
        gram = _grams(con, e)
        settled = np.zeros(len(e), dtype=bool)
        test = np.flatnonzero(np.isfinite(shift[i:i + _SLICE]))
        if len(test):
            settled[test] = linalg.positive_definite(gram[test], shift[i + test])
        rest = np.flatnonzero(~settled)
        if len(rest):
            values, vectors = linalg.eigh(gram[rest])
            lam[i + rest] = values[:, 0]
            least[i + rest] = vectors[:, :, 0]
            first[i + rest] = _first_order(con, e[rest], tau[i + rest], values,
                                           vectors[:, :, 0], gram[rest])
    mu = np.sqrt(np.maximum(lam - con.margin, 0.0))
    return mu, np.maximum(mu - con.lipschitz * radius / 2.0, first), least


def _first_order(con: _Constraints, e: np.ndarray, tau: np.ndarray, values: np.ndarray,
                 v: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The first-order lower bound on mu over cells round centres e (n, 2),
    -inf where it has none (see ``_mu_batch``): the centre's sigma_1 less
    tau times the slope |p_s + conj(p_p)|, against the complement's growth,
    crossed on the circle |alpha|^2 + |beta|^2 = 1 by ``_crossing``.

    ``tau`` is tan(r / 2) per cell, inflated; ``values`` the computed
    eigenvalues of the computed G(e) ``gram``, ascending; ``v`` any unit
    vectors (n, d).
    """
    delta, lip, n = con.margin, con.lipschitz, len(e)
    perp = np.stack([-np.conj(e[:, 1]), np.conj(e[:, 0])], axis=1)
    rows = _constraint_rows(con, np.concatenate([e, perp])) @ np.concatenate([v, v])[:, :, None]
    # w = M(c) v and M(c_perp) v; the slope adds p_s and conj(p_p), the
    # overlaps of the two parts
    overlap = np.conj(rows[:n, :, 0]) * rows[n:, :, 0]
    k1 = con.w_state.shape[0]
    p_sigma = np.abs(overlap[:, :k1].sum(axis=1) + np.conj(overlap[:, k1:].sum(axis=1))) + delta
    gv = (gram @ v[:, :, None])[:, :, 0]
    a = np.sum(np.conj(v) * gv, axis=1).real
    residual = np.linalg.norm(gv - a[:, None] * v, axis=1) + 2.0 * delta
    sigma1 = np.sqrt(np.maximum(values[:, 0] - delta, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        big_a = sigma1 - tau * p_sigma / sigma1
        if con.d == 1:
            bound = big_a
        else:
            big_c = np.sqrt(np.maximum(values[:, 0] + values[:, 1] - a - 3.0 * delta
                                       - (residual / sigma1) ** 2, 0.0))
            bound = _crossing(big_a, tau * lip + residual / sigma1, big_c, tau * lip)
    return np.where(big_a > 0.0, (bound - delta) / np.sqrt(1.0 + tau ** 2), -np.inf)


def _crossing(big_a, big_b, big_c, big_d):
    """min over b in [0, 1] of max(sqrt(1 - b^2) A - b B, b C - D), less
    its rounding, for A > 0, B >= D >= 0 and C >= 0 (see ``_mu_batch``).

    The least is at b* = (D S + A sqrt(R)) / (S^2 + A^2), S = B + C, with R
    = S^2 + A^2 - D^2 formed as (S - D)(S + D) + A^2 and S - D as (B - D) +
    C.  Then every operation but the last, F = b* C - D, adds or multiplies
    nonnegative numbers, subtracts D from the input B >= D, divides or
    takes a root, each off by at most u = eps / 2 relative: R is within 6
    u, its root within 4 u, numerator and
    denominator within 6 u and 4 u, so b* within 11 u and b* C within 12
    u.  With b* <= 1 the computed F is off by at most 13 u C + u D, and 8
    eps (C + D) is taken off; its own rounding is within the slack.
    """
    s = big_b + big_c
    root = np.sqrt(((big_b - big_d) + big_c) * (s + big_d) + big_a * big_a)
    beta = (big_d * s + big_a * root) / (s * s + big_a * big_a)
    return beta * big_c - big_d - 8.0 * np.finfo(float).eps * (big_c + big_d)


def _null_vector(con: _Constraints, e: np.ndarray) -> tuple[np.ndarray, float]:
    """The unit f minimizing ||M(e) f||, and mu(e); needs n_rows >= d."""
    _, sigma, vh = np.linalg.svd(_constraint_rows(con, e[None, :])[0])
    return np.conj(vh[con.d - 1]), float(sigma[con.d - 1])


def _polish(con: _Constraints, e: np.ndarray, f: np.ndarray):
    """Gauss-Newton on the bilinear system M(e) f = 0, from unit e and f.

    Each step solves the real least-squares linearization for a move t of
    e along its orthogonal complement e_perp (the tangent plane modulo
    phase) and a move of f orthogonal to f (the gauge f^H df = 0); it
    converges quadratically onto a zero of mu.  It stops at the first of
    three rules: the residual ||M(e) f|| is at most ``_POLISH_TOL``;
    ``_POLISH_STALL`` steps in a row have not halved the best residual; or
    a step whose own linear model cannot halve the residual has been
    taken, that is, the residual ``lstsq`` reports for the linearization
    is above half the residual it started from.  There the iterate after
    the step is still evaluated, and then the polish stops.  Where
    ``lstsq`` reports no residual (a square system, n_rows = d, or a
    rank-deficient one) only the first two rules apply.  Returns ``(e, f,
    mu(e))`` at the best iterate, with f the null vector of M(e) there.

    After a step that has not halved the best residual, and that the
    polish does not stop at, f is re-solved at the new e: the least right
    singular vector of M(e) (n_rows >= d, as in every search), one SVD, and the residual is taken again with
    it before the stall rule counts the step.  Near a zero of mu where the
    two least singular values of M(e) are both small, the linearization
    otherwise moves f far along the second one, and the iterates wander an
    order or more above the zero until the stall rule gives up; with f
    re-solved they converge, from nearly every start, to the zero itself.

    e is carried as two complex scalars, and a step forms M(e) and
    M(e_perp) in one product against ``con.operator``.  It spans f's
    complement by the columns j >= 1 of the Householder reflection I - v
    v^dag / (1 + |f_0|), v = f + (f_0 / |f_0|) 1_0, which maps f to a
    multiple of the first unit vector 1_0, applied without forming it; the
    minimal-norm solution does not depend on the orthonormal basis of the
    complement, so the step is the one any such basis gives.  The complex
    columns are filled in place into one array whose real view,
    transposed, is the real 2n x 2d system with the real and imaginary
    part of each row next to each other; the unknowns are ordered Re t, Im
    t, then the real and imaginary part of each coordinate of the move of
    f in turn, so the solution's tail is that move as a complex view.
    Neither order changes the minimal-norm solution.
    """
    d, n, k1 = con.d, con.n_rows, con.w_state.shape[0]
    # The state rows are linear in e, the partial-transpose rows in e*: the
    # columns for Re t and Im t are M(e_perp) f times these.
    tangent = np.ones((2, n), dtype=complex)
    tangent[1, :k1], tangent[1, k1:] = 1j, -1j
    columns = np.empty((2 * d, n), dtype=complex)
    system = columns.view(float).T
    moves = columns[2:].reshape(d - 1, 2, n)
    e0, e1 = complex(e[0]), complex(e[1])
    best, best_e, stalled, last = np.inf, (e0, e1), 0, False
    for _ in range(_POLISH_ITERATIONS):
        c0, c1 = e0.conjugate(), e1.conjugate()
        rows = (np.array([[e0, e1, c0, c1], [-c1, c0, -e1, e0]]) @ con.operator).reshape(2, n, d)
        r, g = rows @ f
        norm = float(np.sqrt(np.vdot(r, r).real))
        if not last and _POLISH_TOL < norm and norm >= 0.5 * best:
            # the step did not halve the residual: f is re-solved at e
            f = np.conj(np.linalg.svd(rows[0])[2][d - 1])
            r, g = rows @ f
            norm = float(np.sqrt(np.vdot(r, r).real))
        stalled = 0 if norm < 0.5 * best else stalled + 1
        if norm < best:
            best, best_e = norm, (e0, e1)
        if norm <= _POLISH_TOL or stalled >= _POLISH_STALL or last:
            break
        head = abs(f[0])
        v = f.copy()
        v[0] += f[0] / head if head > 0.0 else 1.0
        w = np.conj(v[1:]) / (1.0 + head)
        m = rows[0]
        np.multiply(g, tangent, out=columns[:2])
        np.multiply((m.T[1:] - np.outer(w, m @ v))[:, None], _UNIT, out=moves)
        x, model = np.linalg.lstsq(system, -r.view(float), rcond=None)[:2]
        # model holds the squared residual of the linearization, or nothing
        last = len(model) > 0 and float(np.sqrt(model[0])) > 0.5 * norm
        t = complex(x[0], x[1])
        e0, e1 = e0 - t * c1, e1 + t * c0
        scale = math.hypot(e0.real, e0.imag, e1.real, e1.imag)
        e0, e1 = e0 / scale, e1 / scale
        z = x[2:].view(complex)
        f = f - (w @ z) * v
        f[1:] += z
        f /= np.sqrt(np.vdot(f, f).real)
    best_e = np.array(best_e)
    f, mu = _null_vector(con, best_e)
    return best_e, f, mu


def _product_vectors_at(s: QubitQuditState, con: _Constraints, es, fs) -> list:
    """ProductVectors at the unit qubit vectors ``es`` (n, 2) and qudit
    vectors ``fs`` (n, d), in order, with residuals recomputed from the
    definitions: the products e (x) f and e* (x) f of every pair against
    each kernel block, one matrix product per block."""
    if len(es) == 0:
        return []
    es = np.array(es, dtype=complex).reshape(-1, 2)
    fs = np.array(fs, dtype=complex).reshape(-1, s.d)
    residuals = [np.linalg.norm((qubits[:, :, None] * fs[:, None, :]).reshape(-1, 2 * s.d)
                                @ w.reshape(-1, 2 * s.d).T, axis=1)
                 for qubits, w in ((es, con.w_state), (np.conj(es), con.w_pt))]
    return [ProductVector(e=e, f=f, residual_range=float(r1), residual_pt_range=float(r2))
            for e, f, r1, r2 in zip(es, fs, *residuals)]


def _best_first(vectors: list) -> list:
    return sorted(vectors, key=lambda pv: pv.combined_residual)


# The qubit vectors at the poles and at four points on the equator
_CANONICAL = np.array([sphere._bloch(theta, phi) for theta, phi in (
    (0.0, 0.0), (np.pi, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi),
    (np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2))])


@dataclass(frozen=True)
class _Enumeration:
    """What ``_enumerate`` returns: the vectors, best first (the canonical
    directions' in ``_continuum``'s order), its search record, and whether
    the vectors are every qualifying one (see the module docstring)."""

    found: list
    search: dict
    exhaustive: bool


def _continuum(s: QubitQuditState, con: _Constraints) -> list:
    """The product vectors at six canonical directions, from one batched
    SVD: an orthonormal basis of the nullspace of M(e) at each, best
    residual first (uncapped), with the rank cut of ``linalg.nullspace``.
    Nothing is searched: no cell is bounded or split.

    With fewer constraint rows than d (the continuum case), M(e) has a
    nullspace at every e and mu vanishes identically, so the directions are
    taken as they are.  With at least d rows (the enumeration where
    ``_roots`` fails a gate), each is first moved onto the zero set of mu by
    one ``_polish`` from its ``_null_vector``, and so is a seventh
    direction, the centre of least mu among the 112 of
    ``sphere._FIRST_LEVEL`` (one batched SVD): where the zero set is a
    small curve (2 x 2 remainders with one kernel row per part), every
    canonical direction's polish can end in a local minimum of mu off it.
    A direction whose polish ends off the zero set has no null vector and
    gives none, so this may return nothing.
    """
    es = _CANONICAL
    if con.n_rows >= s.d:
        cells = sphere._FIRST_LEVEL[4]
        mu = np.linalg.svd(_constraint_rows(con, cells), compute_uv=False)[:, s.d - 1]
        es = np.array([_polish(con, e, _null_vector(con, e)[0])[0]
                       for e in (*_CANONICAL, cells[np.argmin(mu)])])
    _, sigma, vh = np.linalg.svd(_constraint_rows(con, es))
    pairs = [(e, np.conj(v)) for e, values, rows in zip(es, sigma, vh)
             for v in rows[linalg._rank(values, linalg.NULL_CUTOFF):][::-1]]
    return _product_vectors_at(s, con, [e for e, _ in pairs], [f for _, f in pairs])


def _search_record(con: _Constraints, method: str, evaluations: int = 0, levels: int = 0,
                   first_order: int = 0, polishes: int = 0) -> dict:
    return {"method": method, "kernel_cutoff": con.cutoff,
            "kernel_dims": [int(con.w_state.shape[0]), int(con.w_pt.shape[0])],
            "evaluations": evaluations, "levels": levels,
            "first_order_exclusions": first_order,
            "polishes": polishes,
            "cell_floor": sphere.CELL_FLOOR, "evaluation_cap": sphere.EVALUATION_CAP}


def _combined(rows: np.ndarray, count: int) -> np.ndarray:
    """``count`` fixed combinations of the k constraint rows ``rows`` (2, k,
    d), or the rows themselves when k = count: row c takes row j with weight
    ``_NODE`` ** ((c + 1) (j + 1)), a Vandermonde matrix on k distinct nodes
    of the unit circle, of full rank."""
    k = rows.shape[1]
    if k == count:
        return rows
    mix = _NODE ** np.outer(np.arange(1, count + 1), np.arange(1, k + 1))
    return np.einsum("cj,tji->tci", mix, rows)


def _roots(con: _Constraints):
    """Every qualifying direction of ``con`` as a root of a polynomial
    system, or None where a gate fails; needs n_rows >= d.  Returns the
    ``(e, f)`` of each and the number of roots examined.

    Write e = U (1, z) in the frame U = ``_FRAME``.  The state rows of M(e)
    are then A0 + z A1, linear in z, and the partial-transpose rows B0 + w
    B1, linear in w = conj(z).  Take a = clamp(ceil(d / 2), d - k2, k1)
    state rows and b = d - a partial-transpose rows, a block with more rows
    than that combined by ``_combined``.  A qualifying e makes this square
    system S(z, w) singular at w = conj(z), so its z is a root of p(z, w) =
    det S(z, w), of bidegree (a, b).  The coefficients of p come from one
    batched det on the (a + 1) x (b + 1) grid of roots of unity and a 2-D
    FFT.  Gate: |p| exceeds ``_ROOT_DET`` times Hadamard's bound, the
    product of the rows' norms, somewhere on the grid; where it does not, p
    vanishes to rounding, and what qualifies, if anything, is a continuum.

    With q(z, w) = conj(p(conj(w), conj(z))), q(z, conj(z)) = conj(p(z,
    conj(z))) vanishes too, so z is a root of the resultant of p and q in
    w, det Syl(z) for their d x d Sylvester matrix, whose entries are
    polynomials in z of degree at most m = max(a, b).  The Moebius shift z
    = sigma + 1 / y makes y^m Syl(sigma + 1 / y) a matrix polynomial in y
    with leading coefficient Syl(sigma); a root at z = infinity comes out at
    y = 0, e = U (0, 1), and one eigensolve of the block companion matrix,
    of size m d (at most 32 for d <= 8), gives every root.  Gate: cond
    Syl(sigma) <= ``_ROOT_COND`` for the first sigma of ``_SHIFTS`` that
    passes it; Syl(sigma) is singular where sigma is a root, so a shift
    that lands near one fails it, and the second shift, far from the
    first, is tried before the enumeration falls back.  Where a or b is 0
    the system is the pencil A0 + z A1, or B0 + w B1 with z = conj(w),
    shifted alike.

    One batched SVD of the full M(e) gives mu at every root and its qudit
    vector f, the least right singular vector; a root qualifies when its mu
    is at most ``ENUMERATION_TOL``, unpolished.  Gate: no root is
    ambiguous, with mu above ``ENUMERATION_TOL`` but below ``_ROOT_MU``,
    and no two qualifying roots are within ``_SAME`` of each other.
    The roots certify nothing: a missed root costs the prover a candidate,
    never soundness.
    """
    d, k1, k2 = con.d, len(con.w_state), len(con.w_pt)
    a = min(max(-(-d // 2), d - k2), k1)
    b = d - a
    # the coefficients of 1 and z of the state rows, of 1 and w of the others
    state = _combined(np.einsum("kai,ab->bki", con.w_state, _FRAME), a)
    pt = _combined(np.einsum("kai,ab->bki", con.w_pt, np.conj(_FRAME)), b)
    z, w = (np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))[:, None, None] for n in (a, b))
    top = np.broadcast_to((state[0] + z * state[1])[:, None], (a + 1, b + 1, a, d))
    bottom = np.broadcast_to(pt[0] + w * pt[1], (a + 1, b + 1, b, d))
    grid = np.concatenate([top, bottom], axis=2)
    det = np.linalg.det(grid)
    if not (np.abs(det) > _ROOT_DET * np.linalg.norm(grid, axis=-1).prod(axis=-1)).any():
        return None
    if a == 0 or b == 0:
        coef = pt if a == 0 else state
    else:
        c = np.fft.fft2(det) / det.size        # c[i, k] multiplies z^i w^k
        coef = np.zeros((max(a, b) + 1, d, d), dtype=complex)
        for r in range(a):
            coef[:a + 1, r, r:r + b + 1] = c
        for r in range(b):
            coef[:b + 1, a + r, r:r + a + 1] = np.conj(c).T
    # Taylor coefficients at sigma, lowest first: y^m Syl(sigma + 1 / y)
    # holds them highest first
    m = len(coef) - 1
    for shift in _SHIFTS:
        taylor = np.array([[math.comb(j, t) * shift ** (j - t) for j in range(m + 1)]
                           for t in range(m + 1)])
        shifted = np.tensordot(taylor, coef, axes=1)
        if np.linalg.cond(shifted[0]) <= _ROOT_COND:
            break
    else:
        return None
    companion = np.eye(m * d, k=-d, dtype=complex)
    companion[:d] = -np.linalg.solve(shifted[0], shifted[1:].transpose(1, 0, 2).reshape(d, m * d))
    y = np.linalg.eigvals(companion)
    v = np.stack([y, shift * y + 1.0], axis=1)           # y (1, z)
    e = (np.conj(v) if a == 0 else v) @ _FRAME.T
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    _, sigma, vh = np.linalg.svd(_constraint_rows(con, e))
    mu = sigma[:, d - 1]
    if ((ENUMERATION_TOL < mu) & (mu < _ROOT_MU)).any():
        return None
    keep = np.flatnonzero(mu <= ENUMERATION_TOL)
    apart = sphere._bloch_angle(e[keep], e[keep])
    np.fill_diagonal(apart, np.inf)
    if (apart < _SAME).any():
        return None
    return (e[keep], np.conj(vh[keep, d - 1])), len(y)


def _enumerate(s: QubitQuditState, con: _Constraints,
               previous: _Enumeration | None = None) -> _Enumeration:
    """The prover's candidates, product vectors in both ranges of ``s``, best
    first, and their record, on ``s``'s constraints ``con`` at
    ``ENUMERATION_KERNEL_CUTOFF``; ``previous`` is the prover's last
    enumeration, of a state whose two ranges contain those of ``s``, or
    None.

    With fewer constraint rows than d they are the continuum's vectors
    (``_continuum``), not exhaustive, in a record of method "canonical"
    with no work.  After an exhaustive ``previous``, every qualifying vector
    of ``s`` qualifies for the earlier state, so its qubit direction is one of
    ``previous``'s: each of those directions is kept unchanged, its qudit
    vector re-solved as the least right singular vector of M(e) (one
    batched SVD for every direction, no polish), and the vector kept when
    its combined residual, recomputed from the definitions, is at most
    ``ENUMERATION_TOL``.  The vectors kept are again exhaustive; the
    record, of method "recheck", counts the directions re-solved as
    evaluations.  Otherwise, where the gates of ``_roots`` pass, they are
    every qualifying vector, uncapped, and exhaustive; the record, of
    method "roots", counts the roots examined as evaluations and no
    polish.  Where a gate fails, the qualifying set is not known to be
    finite, and the vectors are ``_continuum``'s at its seven polished
    directions, not exhaustive, in a record of method "canonical" that
    counts the first-level centres as evaluations and the seven polishes.
    """
    if con.n_rows < s.d:
        return _Enumeration(_continuum(s, con), _search_record(con, "canonical"),
                            exhaustive=False)
    if previous is not None and previous.exhaustive:
        es = np.array([pv.e for pv in previous.found]).reshape(-1, 2)
        fs = np.conj(np.linalg.svd(_constraint_rows(con, es))[2][:, s.d - 1])
        found = [pv for pv in _product_vectors_at(s, con, es, fs)
                 if pv.combined_residual <= ENUMERATION_TOL]
        return _Enumeration(_best_first(found), _search_record(con, "recheck", len(es)),
                            exhaustive=True)
    roots = _roots(con)
    if roots is None:
        return _Enumeration(_continuum(s, con),
                            _search_record(con, "canonical", len(sphere._FIRST_LEVEL[0]),
                                           polishes=len(_CANONICAL) + 1),
                            exhaustive=False)
    found, examined = roots
    return _Enumeration(_best_first(_product_vectors_at(s, con, *found)),
                        _search_record(con, "roots", examined), exhaustive=True)


def edge_check(s: QubitQuditState) -> RangeSearchCertificate:
    """Search for a product vector satisfying both range conditions.

    Concludes ``FoundProductVector`` at the first polished vector with mu at
    most ``EXCLUSION_THRESHOLD``, ``NoneFound`` when every cell is excluded
    (for a PPT state, entanglement by the range criterion, proved up to
    floating point and ``KERNEL_CUTOFF`` by ``certified_bound``), and
    ``Inconclusive`` when it reaches ``sphere.CELL_FLOOR`` or
    ``sphere.EVALUATION_CAP`` with neither outcome.

    ``sphere.search`` runs on the objective at ``KERNEL_CUTOFF`` and stops
    at the first vector found.  It first polishes the objective's
    ``start``, the least-mu direction of ``_CANONICAL``; where that finds,
    the search ends with no level and no cell bounded, and
    ``certified_bound`` is 0.  Otherwise it polishes at most one centre
    above the threshold per level, and that one only if it is below the
    least mu seen before the level (its NoneFound inputs fail every such
    polish).  The start changes no cell's bound or exclusion, so a
    NoneFound certificate's ``certified_bound``, evaluations, levels and
    first-order count are those of a search without it.  Each polish
    starts from its eigenvector of lambda_1(G), and stops after a step
    whose linear model cannot halve the residual (``_polish``), which
    moves no bound or evaluation count.  ``_mu_batch``
    settles a cell that reaches the search's ``above`` without an
    eigensolve, and the first level has no finite ``above``, so every open
    cell, polish, vector, bound and evaluation count is the one the
    eigensolve alone gives.  The certificate's record adds the Lipschitz
    constant and the rounding margin to the enumeration's.  In the
    continuum case, fewer constraint rows than d, nothing is searched: the
    certificate holds ``_continuum``'s vectors, and a single record at
    theta = 0 stands for the landscape.
    """
    con = _constraints_of(s, KERNEL_CUTOFF)
    margins = {"lipschitz": con.lipschitz, "mu_margin": con.margin}
    if con.n_rows < s.d:
        found = _continuum(s, con)
        residual = found[0].combined_residual
        return RangeSearchCertificate(
            search={**_search_record(con, "canonical"), **margins}, certified_bound=0.0,
            worst_min_residual=residual,
            refined_minima=[sphere._minimum_record(found[0].e, residual)],
            conclusion="FoundProductVector", found=found)
    result = sphere.search(con, EXCLUSION_THRESHOLD)
    found = _best_first(_product_vectors_at(s, con, [e for e, _ in result.found],
                                            [f for _, f in result.found]))
    return RangeSearchCertificate(
        search={**_search_record(con, "sphere", **result.work), **margins},
        certified_bound=result.bound, worst_min_residual=result.worst,
        refined_minima=result.minima,
        conclusion="FoundProductVector" if found else result.conclusion, found=found)
