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

One routine, ``_search``, does all the searching: a branch-and-bound over
cells in (theta, phi) that excludes a cell when a lower bound on mu over
the cell exceeds the threshold, splits the others and polishes the most
promising by Gauss-Newton on M(e) f = 0.  The bound at the centre comes
from the d x d Gram matrix G(e) = M(e)^dag M(e), whose least eigenvalue
is mu^2: G(e) is a fixed combination of four precomputed blocks, so a
batch of centres costs one matrix product and one batched hermitian
eigensolve, and a margin covering their rounding keeps the bound below
mu.  Over the cell the bound is the larger of two: the centre's less a
Lipschitz constant (Weyl's inequality) times the cell radius, and a
first-order bound from the same eigenpair, which follows the actual slope
of mu at the centre and so excludes cells of a flat landscape levels
earlier.  Before the eigensolve, each cell's G is tested by a batched
LDL^H factorization (``linalg.positive_definite``), several times
cheaper: all pivots positive proves that the eigensolve would give a
bound too large to change what the search reports, so only the other
cells are solved.  Round each vector it finds, one SVD certifies an
annulus free of other qualifying vectors (``_isolation``), and the cells
inside it are dropped.
``edge_check`` stops at the first product vector at ``EXCLUSION_THRESHOLD``;
``product_vectors_in_range``, like the subtraction prover's enumeration,
keeps enumerating distinct ones: against the wider kernel at
``ENUMERATION_KERNEL_CUTOFF``, up to ``ENUMERATION_CANDIDATES`` vectors
with residual at most ``ENUMERATION_TOL``.  An enumeration is exhaustive
when it searched the sphere (at least d constraint rows), every cell was
excluded or dropped, and it found fewer than ``ENUMERATION_CANDIDATES``
vectors.  The prover subtracts a product term and keeps the remainder
and its partial transpose PSD, so both ranges only shrink and every
qualifying vector of the remainder qualifies for the state before; after
an exhaustive enumeration, ``_recheck`` re-solves the remainder's
constraints at the directions found, and polishes those that the
exclusion test does not clear, instead of searching again; what it keeps
is again exhaustive.  When every cell is excluded ``edge_check``
concludes ``NoneFound`` with a lower bound on mu over the whole sphere: a
proof, up to floating point and the kernel cutoff, that no qualifying
product vector exists, which for a PPT state certifies entanglement.

Index convention: a kernel vector w of the 2d x 2d state is reshaped to a
2 x d array W with the qubit index first, so <w, e (x) f> = sum_{a,j}
conj(W[a, j]) e_a f_j and the constraint row for f is e contracted against
conj(W).  This convention is pinned by the pure-product recovery test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, states
from .errors import NotPsd
from .states import QubitQuditState

EXCLUSION_THRESHOLD = 1e-6
KERNEL_CUTOFF = 1e-10
# The enumeration behind the subtraction prover: a looser kernel cutoff than
# the range criterion's, and up to eight candidates within residual 1e-7.
ENUMERATION_KERNEL_CUTOFF = 1e-8
ENUMERATION_CANDIDATES = 8
ENUMERATION_TOL = 1e-7
CELL_FLOOR = 1e-9                  # polar width (rad) below which a cell is not split
EVALUATION_CAP = 100_000           # evaluations of mu per search
_INITIAL_CELLS = (8, 16)           # polar x azimuthal cells of the first level
_POLISH_PER_LEVEL = 2              # open cells polished per level, best first
_POLISH_ITERATIONS = 30
_POLISH_STALL = 3                  # steps without halving the residual before giving up
_POLISH_TOL = 1e-14                # residual at which Gauss-Newton stops
_BASIN = 1e-3                      # least radius (Bloch angle, rad) of a found vector's basin
_SAME = 1e-6                       # Bloch angle (rad) within which two vectors are one
_SLICE = 1024                      # cells formed, tested and solved together


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

    ``certified_bound`` is a lower bound on mu over the whole Bloch sphere;
    ``worst_min_residual`` is the smallest mu seen, the least of the Gram
    lower bounds at the cell centres and the SVD values at the polished
    points, so it is at least ``certified_bound``; ``refined_minima``
    records every Gauss-Newton polish and ``search`` the kernels, the
    Lipschitz constant, the rounding margin ``mu_margin`` and the work done.
    """

    search: dict
    certified_bound: float
    worst_min_residual: float
    refined_minima: list
    conclusion: str         # "FoundProductVector", "NoneFound" or "Inconclusive"
    found: list = field(default_factory=list)
    exclusion_threshold: float = EXCLUSION_THRESHOLD
    note: str = "range-criterion search certificate"


def kernel_basis(m, cutoff: float = KERNEL_CUTOFF) -> np.ndarray:
    """Orthonormal kernel basis (rows) of a PSD matrix.

    Spans the eigenvectors with eigenvalue at most ``cutoff`` times the
    largest eigenvalue.  The positivity gate reads the Frobenius norm, as
    ``states.make_state`` and ``states.is_npt`` do: a state they accept,
    and its partial transpose, pass it.
    """
    m = linalg.as_matrix(m)
    eig = linalg.EigResult.of(m)
    if eig.values[0] < -max(cutoff, linalg.PSD_RTOL) * max(linalg.frob(m), 1e-300):
        raise NotPsd(f"kernel_basis expects a PSD matrix, min eigenvalue {eig.values[0]:g}")
    return eig.vectors[:, ~eig.support(cutoff)].T


@dataclass(frozen=True)
class _Constraints:
    """Precontracted kernel data of a state and its partial transpose.

    ``gram`` holds the d x d blocks H_ab, flattened and in the order 00, 01,
    10, 11, with M(e)^dag M(e) = sum_ab conj(e_a) e_b H_ab; ``margin`` and
    ``ldl_margin`` are the rounding margins of ``_mu_batch``'s eigensolve and
    positive-definiteness test.
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
        """
        norms = [np.linalg.norm(w.reshape(len(w), -1), 2)
                 for w in (self.w_state, self.w_pt) if len(w)]
        return float(np.sqrt(np.sum(np.square(norms))))


def _constraints_of(s: QubitQuditState, cutoff: float) -> _Constraints:
    """The constraints of outside input, whose positivity ``kernel_basis`` checks."""
    pt = states.partial_transpose_matrix(s.rho, s.d)
    return _constraints(s.d, kernel_basis(s.rho, cutoff), kernel_basis(pt, cutoff), cutoff)


def _enumeration_constraints(d: int, rho: linalg.EigResult,
                             pt: linalg.EigResult) -> _Constraints:
    """The constraints at ``ENUMERATION_KERNEL_CUTOFF`` from the
    eigendecompositions of a state and its partial transpose, whose
    positivity the caller has checked: the prover's, without another
    eigendecomposition."""
    cutoff = ENUMERATION_KERNEL_CUTOFF
    kernels = (eig.vectors[:, ~eig.support(cutoff)].T for eig in (rho, pt))
    return _constraints(d, *kernels, cutoff)


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
    """M(e) for a batch of unit qubit vectors of shape (n, 2): (n, n_rows, d)."""
    n, d = len(e_batch), con.d
    rows_state = e_batch @ con.w_state.transpose(1, 0, 2).reshape(2, -1)
    rows_pt = np.conj(e_batch) @ con.w_pt.transpose(1, 0, 2).reshape(2, -1)
    return np.concatenate([rows_state.reshape(n, -1, d), rows_pt.reshape(n, -1, d)], axis=1)


def _mu_batch(con: _Constraints, e_batch: np.ndarray, radius, above=None):
    """Lower bounds on mu at cell centres (n, 2) and over the cells round them.

    Returns ``(mu_lo, lower, vectors)``: mu_lo <= mu at each centre, lower
    <= mu on each cell of Bloch radius ``radius`` (one per centre, or one
    for all), lower = max(mu_lo - L r / 2, the first-order bound below),
    and per centre the computed unit eigenvector of lambda_1(G), zero where
    no eigensolve ran; ``_search`` and ``_recheck`` start their polishes
    from it.

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
    known; None settles no vector.  Each computed G is first tested by
    ``linalg.positive_definite`` against tau_LDL = above^2 (1 + 1e-12) + 2
    delta + delta_LDL, and a vector that passes gets +inf for both bounds
    and no eigensolve.  A pass proves lambda_min(G) > tau_LDL - 4 d eps
    tr(G - tau_LDL I) for the computed G.  The exact G has tr G <=
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
        weights = (np.conj(e)[:, :, None] * e[:, None, :]).reshape(-1, 4)
        gram = (weights @ con.gram).reshape(-1, con.d, con.d)
        rest = np.flatnonzero(~linalg.positive_definite(gram, shift[i:i + _SLICE]))
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


def _null_space(con: _Constraints, e: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the nullspace of M(e), best residual first."""
    m = _constraint_rows(con, e[None, :])[0]
    return linalg.nullspace(m)[:, ::-1].T


def _bloch(theta, phi) -> np.ndarray:
    """Unit qubit vectors (cos(theta/2), e^{i phi} sin(theta/2)), shape (..., 2)."""
    return np.stack([np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)],
                    axis=-1)


def _bloch_angle(e: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Bloch-sphere angles between unit qubit vectors e (..., 2) and others (m, 2).

    The angle gamma has cos(gamma/2) = |<e, e'>| and sin(gamma/2) =
    |<e_perp, e'>| = |e_0 e'_1 - e_1 e'_0|, e_perp = (-conj(e_1), conj(e_0));
    it is taken as 2 atan2 of the two.  For unit vectors each part is
    rounded by at most ~2 eps, so the angle is within ~8 eps of that of the
    stored vectors at every angle, where 2 arccos |<e, e'>| reads angles
    below ~2e-8 as 0.
    """
    e0, e1 = e[..., 0, None], e[..., 1, None]
    o0, o1 = others[:, 0], others[:, 1]
    return 2.0 * np.arctan2(np.abs(e0 * o1 - e1 * o0), np.abs(np.conj(e0) * o0 + np.conj(e1) * o1))


def _cell_radius(theta, h_theta: float, h_phi: float) -> np.ndarray:
    """Largest Bloch angle from a cell's centre to its points, inflated.

    The cell is |theta' - theta| <= h_theta, |phi' - phi| <= h_phi.  The
    angle gamma to (theta', phi') satisfies the haversine formula
    sin^2(gamma/2) = sin^2(dtheta/2) + sin theta sin theta' sin^2(dphi/2),
    which grows with |dphi|; on the far meridians |dphi| = h_phi its second
    derivative in theta', cos(dtheta)/2 - sin theta sin theta'
    sin^2(h_phi/2), is positive for half-widths below pi/4, so the largest
    angle is at a far corner (theta +- h_theta, phi + h_phi).  It is taken
    through asin, not arccos, which rounds angles below ~1e-8 to 0; the
    relative 1e-12 covers the rounding.
    """
    far = np.maximum(np.sin(theta - h_theta), np.sin(theta + h_theta))
    hav = np.sin(h_theta / 2.0) ** 2 + np.sin(theta) * far * np.sin(h_phi / 2.0) ** 2
    return 2.0 * np.arcsin(np.sqrt(np.minimum(hav, 1.0))) * (1.0 + 1e-12)


def _polish(con: _Constraints, e: np.ndarray, f: np.ndarray):
    """Gauss-Newton on the bilinear system M(e) f = 0, from unit e and f.

    Each step solves the real least-squares linearization for a move t of
    e along its orthogonal complement e_perp (the tangent plane modulo
    phase) and a move of f orthogonal to f (the gauge f^H df = 0); it
    converges quadratically onto a zero of mu.  Stops at ``_POLISH_TOL``
    or after ``_POLISH_STALL`` steps in a row that do not halve the best
    residual.  Returns ``(e, f, mu(e))`` at the best iterate, with f the
    null vector of M(e) there.

    A step forms M(e) and M(e_perp) in one call.  It spans f's complement
    by the columns j >= 1 of the Householder reflection I - v v^dag / (1 +
    |f_0|), v = f + (f_0 / |f_0|) 1_0, which maps f to a multiple of the
    first unit vector 1_0, applied without forming it; the minimal-norm
    solution does not depend on the orthonormal basis of the complement,
    so the step is the one any such basis gives.  The
    complex columns are filled in place into one array whose real view,
    transposed, is the real 2n x 2d system with the real and imaginary
    part of each row next to each other, an order the solution does not
    depend on either.
    """
    d, n, k1 = con.d, con.n_rows, con.w_state.shape[0]
    columns = np.empty((2 * d, n), dtype=complex)
    system = columns.view(float).T
    best, best_e, stalled = np.inf, e, 0
    for _ in range(_POLISH_ITERATIONS):
        pair = np.array([e, [-np.conj(e[1]), np.conj(e[0])]])
        rows = _constraint_rows(con, pair)
        r, g = rows @ f
        norm = float(np.sqrt(np.vdot(r, r).real))
        stalled = 0 if norm < 0.5 * best else stalled + 1
        if norm < best:
            best, best_e = norm, e
        if norm <= _POLISH_TOL or stalled >= _POLISH_STALL:
            break
        head = abs(f[0])
        v = f.copy()
        v[0] += f[0] / head if head > 0.0 else 1.0
        w = np.conj(v[1:]) / (1.0 + head)
        m = rows[0]
        # The state rows are linear in e, the partial-transpose rows in e*:
        # columns for Re t and Im t, then for the real and imaginary parts
        # of the move of f.
        columns[0] = g
        columns[1] = 1j * g
        columns[1, k1:] *= -1.0
        columns[2:d + 1] = (m[:, 1:] - np.outer(m @ v, w)).T
        columns[d + 1:] = 1j * columns[2:d + 1]
        x = np.linalg.lstsq(system, -r.view(float), rcond=None)[0]
        e = e + (x[0] + 1j * x[1]) * pair[1]
        e /= np.sqrt(np.vdot(e, e).real)
        z = x[2:d + 1] + 1j * x[d + 1:]
        f = f - (w @ z) * v
        f[1:] += z
        f /= np.sqrt(np.vdot(f, f).real)
    f, mu = _null_vector(con, best_e)
    return best_e, f, mu


def _isolation(con: _Constraints, e: np.ndarray, threshold: float) -> tuple[float, float]:
    """Bloch radii (inner, outer) of a certified isolation annulus round a
    found vector e, (0, 0) where none is certified.

    Write the directions near e as (e + t e_perp) / sqrt(1 + |t|^2).  No
    other vector with mu at most ``threshold`` lies at t_lo < |t| <= tau*;
    within t_lo, a few times threshold / kappa, lies only e's own blob.
    Take one SVD of M_0 = M(e): s_1 <= s_2 its two least singular values,
    f_0 the right vector of s_1, U_2 the left vectors of the other d - 1, P
    = I - U_2 U_2^dag.  X f_0 and Y f_0 are the state and the
    partial-transpose rows of M(e_perp) f_0, each with the other part zeroed,
    and kappa^2 = ||P X f_0||^2 + ||P Y f_0||^2 - 2 |<P X f_0, P Y f_0>|.
    Then with N = [t X; conj(t) Y], ||P N f_0|| = ||t P X f_0 + conj(t) P Y
    f_0|| >= |t| kappa, and ||N h|| <= |t| L ||h||.

    A qualifying direction has a unit f = alpha f_0 + beta g, g a unit
    vector orthogonal to f_0, with ||(M_0 + N) f|| <= threshold sqrt(1 +
    |t|^2) =: eps_t.  M_0 g lies in the span of U_2 with norm at least s_2,
    and P M_0 f_0 = s_1 u_1, so projecting on U_2 and on P gives

        s_2 |beta| <= |t| L + eps,     |alpha| (|t| kappa - s_1) <= |beta| |t| L + eps,

    for eps >= eps_t.  The SVD computed from the computed rows is the exact
    SVD of M_0 + E with orthonormal factors within d eps of the computed
    ones and ||E|| <= (d + 2) eps ||M_0||_F <= (d + 2) eps sqrt(n) L,
    the rows' own rounding included (LAPACK states a modestly growing
    factor, as for the eigensolve of ``_mu_batch``); so eps = threshold
    sqrt(1 + tau*^2) + delta L with delta = ``con.margin`` = 16 d eps n
    covers E, and kappa^2 is taken less
    delta L^2, which covers the computed factors' distance from those
    orthonormal ones and the rounding of x, y and their products, at most
    4 sqrt(2) (3d + n) eps L^2.

    Take |t| = r; the first inequality asks b = |beta| <= b_r = (r L +
    eps) / s_2.  The second's left side falls in b and its right side
    rises, so once h(r) = sqrt(1 - b_r^2) (r kappa - s_1) - b_r r L - eps
    > 0 the second fails for every b <= b_r, and no b meets both.  Where r
    kappa >= s_1 and b_r <= 1, h is concave:
    -b_r r L is, and sqrt(1 - b_r^2) is concave, positive and falling
    while r kappa - s_1 is affine, nonnegative and rising, so their product
    has second derivative at most 0.  h > 0 at both ends of [t_lo, tau*]
    thus proves it on the whole interval (and r kappa > s_1 at t_lo).
    Without eps and s_1, h vanishes at r = s_2 kappa / (L sqrt(kappa^2 +
    L^2)); tau* is 7/8 of that, and t_lo = 2 (s_1 + eps) / kappa.  Each end
    is accepted only with b_r <= 3/4, which keeps the rounding of sqrt(1 -
    b_r^2) within a few eps, and h above 16 eps times the sum of its
    terms' magnitudes, which covers h's rounding.  The radii returned
    are 2 atan(t_lo), plus a relative 1e-12, and 2 atan(tau*), less a
    relative 1e-12 for the rounding of atan and less 16 eps, which covers
    that of ``_bloch_angle`` (~8 eps).  At d = 1 nothing is certified.
    """
    d, lip, delta = con.d, con.lipschitz, con.margin
    if d < 2:
        return 0.0, 0.0
    rows = _constraint_rows(con, np.stack([e, [-np.conj(e[1]), np.conj(e[0])]]))
    u, sigma, vh = np.linalg.svd(rows[0], full_matrices=False)
    s1, s2, u2 = sigma[d - 1], sigma[d - 2], u[:, :d - 1]
    moved = rows[1] @ np.conj(vh[d - 1])
    parts = np.zeros((2, len(moved)), dtype=complex)
    k1 = con.w_state.shape[0]
    parts[0, :k1], parts[1, k1:] = moved[:k1], moved[k1:]
    parts -= (parts @ np.conj(u2)) @ u2.T
    x, y = parts
    kappa2 = (np.vdot(x, x).real + np.vdot(y, y).real - 2.0 * abs(np.vdot(x, y))
              - delta * lip ** 2)
    if not (kappa2 > 0.0 and s2 > 0.0):
        return 0.0, 0.0
    kappa = np.sqrt(kappa2)
    tau = 0.875 * s2 * kappa / (lip * np.hypot(kappa, lip))
    eps = threshold * np.sqrt(1.0 + tau ** 2) + delta * lip
    t_lo = 2.0 * (s1 + eps) / kappa

    def clear(r):
        b = (r * lip + eps) / s2
        terms = (np.sqrt(max(1.0 - b * b, 0.0)) * (r * kappa - s1), b * r * lip, eps)
        return b <= 0.75 and terms[0] - terms[1] - terms[2] > 16.0 * np.finfo(float).eps * (
            r * kappa + s1 + terms[1] + terms[2])

    if not (t_lo < tau and clear(t_lo) and clear(tau)):
        return 0.0, 0.0
    return (float(2.0 * np.arctan(t_lo) * (1.0 + 1e-12)),
            float(2.0 * np.arctan(tau) * (1.0 - 1e-12) - 16.0 * np.finfo(float).eps))


def _minimum_record(e: np.ndarray, residual: float) -> dict:
    """Serializable record of a polished minimum, by its Bloch angles."""
    return {"theta": float(2.0 * np.arctan2(abs(e[1]), abs(e[0]))),
            "phi": float(np.angle(e[1] * np.conj(e[0]))),
            "residual": residual}


def _product_vector_at(s: QubitQuditState, con: _Constraints, e: np.ndarray,
                       f: np.ndarray) -> ProductVector:
    """Build a ProductVector with residuals recomputed from the definitions."""
    r1 = con.w_state.reshape(-1, 2 * s.d) @ np.outer(e, f).ravel()
    r2 = con.w_pt.reshape(-1, 2 * s.d) @ np.outer(np.conj(e), f).ravel()
    return ProductVector(
        e=e.copy(), f=f.copy(),
        residual_range=float(np.linalg.norm(r1)),
        residual_pt_range=float(np.linalg.norm(r2)),
    )


# (theta, phi) of the poles and of four points on the equator
_CANONICAL = ((0.0, 0.0), (np.pi, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi),
              (np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2))


@dataclass(frozen=True)
class _Enumeration:
    """What a search that does not certify returns: the vectors, its work,
    and whether the vectors are every qualifying one (see the module
    docstring)."""

    found: list
    search: dict
    exhaustive: bool


def _search(s: QubitQuditState, con: _Constraints, certify: bool):
    """Branch-and-bound over the Bloch sphere behind both public entry points.

    A search that ``certify``s (``edge_check``) runs at ``threshold`` =
    ``EXCLUSION_THRESHOLD`` and stops at ``limit`` = 1 vector; the
    enumeration at ``ENUMERATION_TOL`` and ``ENUMERATION_CANDIDATES``.

    Cells are rectangles in (theta, phi), all of one size per level.  Each
    level bounds mu from below at the centres of the open cells and over
    the cells (``_mu_batch``: a batched test and eigensolve of the Gram
    matrices) and excludes a cell when its bound, lower, exceeds
    ``threshold``.  lower is the larger of mu_lo(centre) - L r / 2, with r
    the cell's largest Bloch angle from the centre (``_cell_radius``) and
    L the stacked Lipschitz constant (a Bloch angle r is a distance of
    2 sin(r/4) <= r/2 between unit vectors modulo phase), and a first-order
    bound from the centre's eigenpair; ``first_order_exclusions`` in the
    record counts the cells that only the second excluded.  The best open
    cells, and every open centre already at the threshold, are polished by
    Gauss-Newton, at most ``_POLISH_PER_LEVEL + limit`` per level, each
    from its centre's eigenvector of lambda_1(G), which ``_mu_batch``
    computed anyway (every open cell was eigensolved); a polished mu at
    most ``threshold`` is a product vector.  The cap bounds
    the work in a near-miss valley, where the floor of mu_lo(centre) at
    sqrt(con.margin) can lie above the threshold and read every centre as
    at it, and nearly every polish fails; a cell left unpolished stays open
    and splits, so the cap excludes nothing.
    A found vector's basin is the ball out to the farthest polish start
    that converged to it, at least ``_BASIN``, and at least the outer
    radius of its certified isolation annulus (``_isolation``), in which no
    other vector has mu at most ``threshold``: no start inside it is
    polished again, open cells wholly inside it are dropped, and the others
    split into four.  The record counts the polishes (``polishes``) and the
    open cells that only a certified annulus dropped (``isolation_drops``).
    The search
    stops once ``limit`` distinct vectors are found, every cell is excluded
    or dropped, or a cell reaches ``CELL_FLOOR`` or the next level would
    pass ``EVALUATION_CAP``; the certified bound is the least lower over
    the cells it ended with.

    Every search passes ``_mu_batch``, per cell, a value ``above`` such
    that a cell with mu_lo(centre) >= ``above`` changes nothing the search
    reports, and ``_mu_batch`` settles such cells without an eigensolve.
    For the enumeration, ``above`` = threshold + L r / 2: such a cell is
    excluded, as lower >= mu_lo(centre) - L r / 2.  A search that
    ``certify``s (``edge_check``) also reports ``bound``, the least lower
    over the cells it has excluded, and ``worst``, the least mu it has
    seen, so its ``above`` is
    the larger of max(threshold, bound) + L r / 2 and ``worst``: such a
    cell is excluded and lowers neither.  Both are infinite at the first
    level, so every cell of it is solved.  Every open cell, polish, found
    vector, bound and evaluation count is therefore the one the eigensolve
    alone gives.  ``certify`` decides only what is returned: a
    ``RangeSearchCertificate``, or for the enumeration an ``_Enumeration``,
    its vectors and work record, with neither a bound nor a least residual;
    it is exhaustive when the search ends ``NoneFound`` (every cell excluded
    or dropped) with fewer than ``limit`` vectors.

    With fewer constraint rows than d, M(e) has a nullspace at every e and
    mu vanishes identically.  Nothing is searched then: ``found`` is an
    orthonormal basis of the nullspace at each of six canonical directions
    (uncapped, at most 6d vectors), and a single record at theta = 0 stands
    for the landscape.
    """
    threshold, limit = ((EXCLUSION_THRESHOLD, 1) if certify
                        else (ENUMERATION_TOL, ENUMERATION_CANDIDATES))
    lip = con.lipschitz
    found, minima = [], []
    if con.n_rows < s.d:
        for theta, phi in _CANONICAL:
            e = _bloch(theta, phi)
            found.extend(_product_vector_at(s, con, e, f) for f in _null_space(con, e))
        record = _search_record(con, 0, 0, 0, 0, 0)
        if not certify:
            return _Enumeration(found, record, exhaustive=False)
        residual = found[0].combined_residual
        return RangeSearchCertificate(
            search=record, certified_bound=0.0,
            worst_min_residual=residual, refined_minima=[_minimum_record(found[0].e, residual)],
            conclusion="FoundProductVector", found=found, exclusion_threshold=threshold)

    n_theta, n_phi = _INITIAL_CELLS
    h_theta, h_phi = np.pi / (2 * n_theta), np.pi / n_phi     # half-widths
    theta, phi = np.meshgrid((2 * np.arange(n_theta) + 1) * h_theta,
                             (2 * np.arange(n_phi) + 1) * h_phi, indexing="ij")
    theta, phi = theta.ravel(), phi.ravel()
    known, radii, plain = np.empty((0, 2), dtype=complex), np.empty(0), np.empty(0)
    bound = worst = np.inf
    evaluations = levels = first_order = polishes = isolated = 0
    conclusion = "NoneFound"
    while True:
        levels += 1
        e = _bloch(theta, phi)
        radius = _cell_radius(theta, h_theta, h_phi)
        slack = lip * radius / 2.0
        above = (np.maximum(max(threshold, bound) + slack, worst) if certify
                 else threshold + slack)
        mu, lower, least = _mu_batch(con, e, radius, above)
        evaluations += len(mu)
        worst = min(worst, float(mu.min()))
        open_ = lower <= threshold
        first_order += int(np.count_nonzero(~open_ & (mu - slack <= threshold)))
        attempts = 0
        for i in np.flatnonzero(open_)[np.argsort(mu[open_])]:
            if (len(found) >= limit or attempts >= _POLISH_PER_LEVEL + limit
                    or (attempts >= _POLISH_PER_LEVEL and mu[i] > threshold)):
                break
            if (_bloch_angle(e[i], known) < radii).any():
                continue
            attempts += 1
            polishes += 1
            e_pol, f_pol, mu_pol = _polish(con, e[i], least[i])
            minima.append(_minimum_record(e_pol, mu_pol))
            worst = min(worst, mu_pol)
            if mu_pol > threshold:
                continue
            # A start that converged to a vector widens that vector's basin.
            start = float(_bloch_angle(e[i], e_pol[None, :])[0])
            same = np.flatnonzero(_bloch_angle(e_pol, known) < _SAME)
            if len(same):
                radii[same[0]] = max(radii[same[0]], start)
                plain[same[0]] = max(plain[same[0]], start)
            else:
                found.append(_product_vector_at(s, con, e_pol, f_pol))
                known = np.vstack([known, e_pol])
                plain = np.append(plain, max(start, _BASIN))
                ball = _isolation(con, e_pol, threshold)[1] if len(found) < limit else 0.0
                radii = np.append(radii, max(plain[-1], ball))
        reach = _bloch_angle(e, known) + radius[:, None]
        inside = (reach <= radii).any(axis=1)
        isolated += int(np.count_nonzero(open_ & inside & ~(reach <= plain).any(axis=1)))
        open_ &= ~inside
        if len(found) >= limit or not open_.any():
            break
        if 2.0 * h_theta < CELL_FLOOR or evaluations + 4 * open_.sum() > EVALUATION_CAP:
            conclusion = "Inconclusive"
            break
        bound = min(bound, float(lower[~open_].min(initial=np.inf)))
        h_theta, h_phi = h_theta / 2.0, h_phi / 2.0
        theta = (theta[open_, None] + h_theta * np.array([-1.0, -1.0, 1.0, 1.0])).ravel()
        phi = (phi[open_, None] + h_phi * np.array([-1.0, 1.0, -1.0, 1.0])).ravel()
    found.sort(key=lambda pv: pv.combined_residual)
    record = _search_record(con, evaluations, levels, first_order, polishes, isolated)
    if not certify:
        return _Enumeration(found, record,
                            exhaustive=conclusion == "NoneFound" and len(found) < limit)
    return RangeSearchCertificate(
        search=record,
        certified_bound=max(min(bound, float(lower.min())), 0.0),
        worst_min_residual=worst, refined_minima=minima,
        conclusion="FoundProductVector" if found else conclusion,
        found=found, exclusion_threshold=threshold)


def _search_record(con: _Constraints, evaluations: int, levels: int, first_order: int,
                   polishes: int, isolated: int) -> dict:
    return {"kernel_cutoff": con.cutoff,
            "kernel_dims": [int(con.w_state.shape[0]), int(con.w_pt.shape[0])],
            "lipschitz": con.lipschitz, "mu_margin": con.margin,
            "evaluations": evaluations, "levels": levels,
            "first_order_exclusions": first_order,
            "polishes": polishes, "isolation_drops": isolated,
            "cell_floor": CELL_FLOOR, "evaluation_cap": EVALUATION_CAP}


def product_vectors_in_range(s: QubitQuditState) -> list[ProductVector]:
    """Find product vectors |e, f> in range(rho) with |e*, f> in the
    partial-transpose range.

    For each qubit direction the qudit vector is solved exactly by a
    nullspace computation on the contracted kernel constraints, the kernels
    taken at ``ENUMERATION_KERNEL_CUTOFF``; the branch-and-bound search
    polishes its most promising cells and keeps enumerating distinct
    vectors, up to ``ENUMERATION_CANDIDATES`` with combined residual at most
    ``ENUMERATION_TOL``, best first.  A state with fewer independent kernel
    constraints than d (in particular any full-rank state) admits product
    vectors at every qubit direction; it gets, uncapped, an orthonormal
    basis of them at six canonical directions.
    """
    return _enumerate(s, _constraints_of(s, ENUMERATION_KERNEL_CUTOFF)).found


def _enumerate(s: QubitQuditState, con: _Constraints) -> _Enumeration:
    """The search behind ``product_vectors_in_range``, with its record, on
    the constraints of ``s`` at ``ENUMERATION_KERNEL_CUTOFF``."""
    return _search(s, con, certify=False)


def _recheck(s: QubitQuditState, con: _Constraints, previous: _Enumeration) -> _Enumeration:
    """The enumeration of ``s`` from an exhaustive one of a state whose two
    ranges contain those of ``s``.

    Every qualifying vector of ``s`` then qualifies for the earlier state,
    so its qubit direction is one of ``previous``'s.  At each of those the
    qudit vector is re-solved against ``con``, ``s``'s constraints at
    ``ENUMERATION_KERNEL_CUTOFF``, the kernels a fresh search would use.
    A direction whose cell of radius ``_BASIN`` the search's own exclusion
    test clears (``_mu_batch``'s lower above ``ENUMERATION_TOL``) has no
    qualifying vector that near and is passed over; any other is
    polished by Gauss-Newton, from the eigenvector ``_mu_batch`` computed
    there, and its vector kept, once, when the combined
    residual is at most ``ENUMERATION_TOL``, the fresh search's own test.
    The vectors kept are again exhaustive.  With fewer constraint rows than
    d there is nothing to re-check: that is the fresh search's continuum
    case, and it runs.
    """
    if con.n_rows < s.d:
        return _search(s, con, certify=False)
    slack = con.lipschitz * _BASIN / 2.0
    directions = np.array([pv.e for pv in previous.found], dtype=complex).reshape(-1, 2)
    above = np.full(len(directions), ENUMERATION_TOL + slack)
    mu, lower, least = _mu_batch(con, directions, _BASIN, above)
    cleared = lower > ENUMERATION_TOL
    found, known = [], np.empty((0, 2), dtype=complex)
    for pv, clear, start in zip(previous.found, cleared, least):
        if clear:
            continue
        e, f, _ = _polish(con, pv.e, start)
        candidate = _product_vector_at(s, con, e, f)
        if candidate.combined_residual > ENUMERATION_TOL or (_bloch_angle(e, known) < _SAME).any():
            continue
        found.append(candidate)
        known = np.vstack([known, e])
    found.sort(key=lambda pv: pv.combined_residual)
    first_order = int(np.count_nonzero(cleared & (mu - slack <= ENUMERATION_TOL)))
    record = _search_record(con, len(directions), 0, first_order,
                            int(np.count_nonzero(~cleared)), 0)
    return _Enumeration(found, record, exhaustive=True)


def edge_check(s: QubitQuditState) -> RangeSearchCertificate:
    """Search for a product vector satisfying both range conditions.

    Concludes ``FoundProductVector`` at the first polished vector with mu at
    most ``EXCLUSION_THRESHOLD``, ``NoneFound`` when every cell is excluded
    (for a PPT state, entanglement by the range criterion, proved up to
    floating point and ``KERNEL_CUTOFF`` by ``certified_bound``), and
    ``Inconclusive`` when it reaches ``CELL_FLOOR`` or ``EVALUATION_CAP``
    with neither outcome.
    """
    return _search(s, _constraints_of(s, KERNEL_CUTOFF), certify=True)
