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
cells in (theta, phi) that excludes a cell when a lower bound on mu at its
centre, less a Lipschitz constant (Weyl's inequality) times the cell
radius, exceeds the threshold, splits the others and polishes the most
promising by Gauss-Newton on M(e) f = 0.  The lower bound comes from the
d x d Gram matrix G(e) = M(e)^dag M(e), whose least eigenvalue is mu^2:
G(e) is a fixed combination of four precomputed blocks, so a batch of
centres costs one matrix product and one batched hermitian eigensolve,
and a margin covering their rounding keeps the bound below mu.
``edge_check`` stops at the first product vector at ``EXCLUSION_THRESHOLD``;
``product_vectors_in_range``, the subtraction prover's candidate source,
keeps enumerating distinct ones: against the wider kernel at
``ENUMERATION_KERNEL_CUTOFF``, up to ``ENUMERATION_CANDIDATES`` vectors
with residual at most ``ENUMERATION_TOL``.  When every
cell is excluded the search concludes ``NoneFound`` with a lower bound on
mu over the whole sphere: a proof, up to floating point and the kernel
cutoff, that no qualifying product vector exists, which for a PPT state
certifies entanglement.

Index convention: a kernel vector w of the 2d x 2d state is reshaped to a
2 x d array W with the qubit index first, so <w, e (x) f> = sum_{a,j}
conj(W[a, j]) e_a f_j and the constraint row for f is e contracted against
conj(W).  This convention is pinned by the pure-product recovery test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
_SLICE = 8192                      # cells per batched eigensolve, to bound memory
_NULL_CUTOFF = 1e-8                # relative singular-value cutoff of M(e) nullspaces


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
    largest eigenvalue.
    """
    eig = linalg.EigResult.of(linalg.as_matrix(m))
    if eig.values[0] < -max(cutoff, 1e-9) * eig.scale:
        raise NotPsd(f"kernel_basis expects a PSD matrix, min eigenvalue {eig.values[0]:g}")
    return eig.vectors[:, ~eig.support(cutoff)].T


@dataclass(frozen=True)
class _Constraints:
    """Precontracted kernel data of a state and its partial transpose.

    ``gram`` holds the d x d blocks H_ab, flattened and in the order 00, 01,
    10, 11, with M(e)^dag M(e) = sum_ab conj(e_a) e_b H_ab; ``margin`` is
    the rounding margin of ``_mu_batch``.
    """

    d: int
    cutoff: float
    w_state: np.ndarray     # (k1, 2, d): conj of kernel vectors of rho
    w_pt: np.ndarray        # (k2, 2, d): conj of kernel vectors of rho^{T_A}
    gram: np.ndarray        # (4, d * d)
    margin: float

    @property
    def n_rows(self) -> int:
        return self.w_state.shape[0] + self.w_pt.shape[0]


def _constraints_of(s: QubitQuditState, cutoff: float) -> _Constraints:
    d = s.d
    ker = kernel_basis(s.rho, cutoff)
    ker_pt = kernel_basis(states.partial_transpose_matrix(s.rho, d), cutoff)
    w_state, w_pt = np.conj(ker.reshape(-1, 2, d)), np.conj(ker_pt.reshape(-1, 2, d))
    # The state rows are linear in e, so they give W_a^dag W_b; the
    # partial-transpose rows are linear in e*, so they give V_b^dag V_a.
    gram = (np.einsum("kai,kbj->abij", np.conj(w_state), w_state)
            + np.einsum("kbi,kaj->abij", np.conj(w_pt), w_pt))
    n_rows = len(w_state) + len(w_pt)
    return _Constraints(d=d, cutoff=cutoff, w_state=w_state, w_pt=w_pt,
                        gram=gram.reshape(4, d * d),
                        margin=float(16 * d * np.finfo(float).eps * n_rows))


def _constraint_rows(con: _Constraints, e_batch: np.ndarray) -> np.ndarray:
    """M(e) for a batch of unit qubit vectors of shape (n, 2): (n, n_rows, d)."""
    n, d = len(e_batch), con.d
    rows_state = e_batch @ con.w_state.transpose(1, 0, 2).reshape(2, -1)
    rows_pt = np.conj(e_batch) @ con.w_pt.transpose(1, 0, 2).reshape(2, -1)
    return np.concatenate([rows_state.reshape(n, -1, d), rows_pt.reshape(n, -1, d)], axis=1)


def _mu_batch(con: _Constraints, e_batch: np.ndarray) -> np.ndarray:
    """Lower bounds mu_lo <= mu over a batch of unit qubit vectors (n, 2).

    mu(e)^2 is the least eigenvalue of G(e) = sum_ab conj(e_a) e_b H_ab, and
    mu_lo = sqrt(max(lambda_min - delta, 0)) for the computed lambda_min and
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
    both.
    """
    out = np.empty(len(e_batch))
    for i in range(0, len(e_batch), _SLICE):
        e = e_batch[i:i + _SLICE]
        weights = (np.conj(e)[:, :, None] * e[:, None, :]).reshape(-1, 4)
        lam = linalg.min_eigs((weights @ con.gram).reshape(-1, con.d, con.d))
        out[i:i + _SLICE] = np.sqrt(np.maximum(lam - con.margin, 0.0))
    return out


def _null_vector(con: _Constraints, e: np.ndarray) -> tuple[np.ndarray, float]:
    """The unit f minimizing ||M(e) f||, and mu(e); needs n_rows >= d."""
    _, sigma, vh = np.linalg.svd(_constraint_rows(con, e[None, :])[0])
    return np.conj(vh[con.d - 1]), float(sigma[con.d - 1])


def _null_space(con: _Constraints, e: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the nullspace of M(e), best residual first."""
    m = _constraint_rows(con, e[None, :])[0]
    return linalg.nullspace(m, cutoff=_NULL_CUTOFF)[:, ::-1].T


def _bloch(theta, phi) -> np.ndarray:
    """Unit qubit vectors (cos(theta/2), e^{i phi} sin(theta/2)), shape (..., 2)."""
    return np.stack([np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)],
                    axis=-1)


def _bloch_angle(e: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Bloch-sphere angles between unit qubit vectors e (..., 2) and others (m, 2)."""
    overlap = np.abs(np.conj(e) @ others.T)
    return 2.0 * np.arccos(np.minimum(overlap, 1.0))


def _lipschitz(con: _Constraints) -> float:
    """L with |mu(e) - mu(e')| <= L min_phi ||e - e^{i phi} e'||.

    By Cauchy-Schwarz each part of M moves by at most L_part ||e - e'|| in
    operator norm, L_part = sqrt(sum_a ||W[:, a, :]||_2^2) (the
    partial-transpose rows see e* - e'*, of the same norm).  The parts are
    stacked, ||[X; Y] f||^2 = ||X f||^2 + ||Y f||^2, so M moves by at most
    L ||e - e'|| with L = sqrt(L_state^2 + L_pt^2); Weyl's inequality
    carries that over to mu, which does not depend on the phase of e.
    """
    total = 0.0
    for w in (con.w_state, con.w_pt):
        if len(w):
            norms = np.linalg.svd(w.transpose(1, 0, 2), compute_uv=False)[:, 0]
            total += float(np.sum(norms ** 2))
    return float(np.sqrt(total))


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
    """Gauss-Newton on the bilinear system M(e) f = 0.

    Each step solves the real least-squares linearization for a move t of
    e along its orthogonal complement e_perp (the tangent plane modulo
    phase) and a move of f orthogonal to f (the gauge f^H df = 0); it
    converges quadratically onto a zero of mu.  Stops at ``_POLISH_TOL``
    or after ``_POLISH_STALL`` steps in a row that do not halve the best
    residual.  Returns ``(e, f, mu(e))`` at the best iterate, with f the
    null vector of M(e) there.
    """
    d, k1 = con.d, con.w_state.shape[0]
    best, best_e, stalled = np.inf, e, 0
    for _ in range(_POLISH_ITERATIONS):
        m = _constraint_rows(con, e[None, :])[0]
        r = m @ f
        norm = float(np.linalg.norm(r))
        stalled = 0 if norm < 0.5 * best else stalled + 1
        if norm < best:
            best, best_e = norm, e
        if norm <= _POLISH_TOL or stalled >= _POLISH_STALL:
            break
        e_perp = np.array([-np.conj(e[1]), np.conj(e[0])])
        m_perp = _constraint_rows(con, e_perp[None, :])[0] @ f
        # The state rows are linear in e, the partial-transpose rows in e*.
        m_perp_i = 1j * m_perp
        m_perp_i[k1:] *= -1.0
        f_perp = np.conj(np.linalg.svd(np.conj(f)[None, :])[2][1:]).T
        c = m @ f_perp
        k = np.column_stack([m_perp, m_perp_i, c, 1j * c])
        x = np.linalg.lstsq(np.vstack([k.real, k.imag]),
                            -np.concatenate([r.real, r.imag]), rcond=None)[0]
        e = e + (x[0] + 1j * x[1]) * e_perp
        e /= np.linalg.norm(e)
        f = f + f_perp @ (x[2:d + 1] + 1j * x[d + 1:])
        f /= np.linalg.norm(f)
    f, mu = _null_vector(con, best_e)
    return best_e, f, mu


def _minimum_record(e: np.ndarray, residual: float) -> dict:
    """Serializable record of a polished minimum, by its Bloch angles."""
    return {"theta": float(2.0 * np.arctan2(abs(e[1]), abs(e[0]))),
            "phi": float(np.angle(e[1] * np.conj(e[0]))),
            "residual": residual}


def _product_vector_at(s: QubitQuditState, con: _Constraints, e: np.ndarray,
                       f: np.ndarray) -> ProductVector:
    """Build a ProductVector with residuals recomputed from the definitions."""
    r1 = con.w_state.reshape(-1, 2 * s.d) @ np.kron(e, f)
    r2 = con.w_pt.reshape(-1, 2 * s.d) @ np.kron(np.conj(e), f)
    return ProductVector(
        e=e.copy(), f=f.copy(),
        residual_range=float(np.linalg.norm(r1)),
        residual_pt_range=float(np.linalg.norm(r2)),
    )


# (theta, phi) of the poles and of four points on the equator
_CANONICAL = ((0.0, 0.0), (np.pi, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi),
              (np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2))


def _search(s: QubitQuditState, con: _Constraints, threshold: float,
            limit: int) -> RangeSearchCertificate:
    """Branch-and-bound over the Bloch sphere behind both public entry points.

    Cells are rectangles in (theta, phi), all of one size per level.  Each
    level bounds mu from below at the centres of the open cells
    (``_mu_batch``: one batched eigensolve of the Gram matrices) and
    excludes a cell when mu_lo(centre) - L r / 2 > ``threshold``, with r
    the cell's largest Bloch angle from the centre (``_cell_radius``) and
    L the stacked Lipschitz constant; a Bloch angle r is a distance of
    2 sin(r/4) <= r/2 between unit vectors modulo phase.  The best open
    cells, and every open centre already at the threshold, are polished by
    Gauss-Newton; a polished mu at most ``threshold`` is a product vector.
    A found vector's basin is the ball out to the farthest polish start
    that converged to it, at least ``_BASIN``: no start inside it is
    polished again, open cells wholly inside it are dropped, and the others
    split into four.  The search
    stops once ``limit`` distinct vectors are found, every cell is excluded
    or dropped, or a cell reaches ``CELL_FLOOR`` or the next level would
    pass ``EVALUATION_CAP``; the certified bound is the least mu_lo(centre)
    - L r / 2 over the cells it ended with.

    With fewer constraint rows than d, M(e) has a nullspace at every e and
    mu vanishes identically.  Nothing is searched then: ``found`` is an
    orthonormal basis of the nullspace at each of six canonical directions
    (uncapped, at most 6d vectors), and a single record at theta = 0 stands
    for the landscape.
    """
    lip = _lipschitz(con)
    found, minima = [], []
    if con.n_rows < s.d:
        for theta, phi in _CANONICAL:
            e = _bloch(theta, phi)
            found.extend(_product_vector_at(s, con, e, f) for f in _null_space(con, e))
        residual = found[0].combined_residual
        return RangeSearchCertificate(
            search=_search_record(con, lip, 0, 0), certified_bound=0.0,
            worst_min_residual=residual, refined_minima=[_minimum_record(found[0].e, residual)],
            conclusion="FoundProductVector", found=found, exclusion_threshold=threshold)

    n_theta, n_phi = _INITIAL_CELLS
    h_theta, h_phi = np.pi / (2 * n_theta), np.pi / n_phi     # half-widths
    theta, phi = np.meshgrid((2 * np.arange(n_theta) + 1) * h_theta,
                             (2 * np.arange(n_phi) + 1) * h_phi, indexing="ij")
    theta, phi = theta.ravel(), phi.ravel()
    known, radii = np.empty((0, 2), dtype=complex), np.empty(0)
    bound = worst = np.inf
    evaluations = levels = 0
    conclusion = "NoneFound"
    while True:
        levels += 1
        e = _bloch(theta, phi)
        mu = _mu_batch(con, e)
        evaluations += len(mu)
        worst = min(worst, float(mu.min()))
        radius = _cell_radius(theta, h_theta, h_phi)
        lower = mu - lip * radius / 2.0
        open_ = lower <= threshold
        attempts = 0
        for i in np.flatnonzero(open_)[np.argsort(mu[open_])]:
            if len(found) >= limit or (attempts >= _POLISH_PER_LEVEL and mu[i] > threshold):
                break
            if (_bloch_angle(e[i], known) < radii).any():
                continue
            attempts += 1
            e_pol, f_pol, mu_pol = _polish(con, e[i], _null_vector(con, e[i])[0])
            minima.append(_minimum_record(e_pol, mu_pol))
            worst = min(worst, mu_pol)
            if mu_pol > threshold:
                continue
            # A start that converged to a vector widens that vector's basin.
            start = float(_bloch_angle(e[i], e_pol[None, :])[0])
            same = np.flatnonzero(_bloch_angle(e_pol, known) < _SAME)
            if len(same):
                radii[same[0]] = max(radii[same[0]], start)
            else:
                found.append(_product_vector_at(s, con, e_pol, f_pol))
                known = np.vstack([known, e_pol])
                radii = np.append(radii, max(start, _BASIN))
        open_ &= ~(_bloch_angle(e, known) + radius[:, None] <= radii).any(axis=1)
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
    return RangeSearchCertificate(
        search=_search_record(con, lip, evaluations, levels),
        certified_bound=max(min(bound, float(lower.min())), 0.0),
        worst_min_residual=worst, refined_minima=minima,
        conclusion="FoundProductVector" if found else conclusion,
        found=found, exclusion_threshold=threshold)


def _search_record(con: _Constraints, lip: float, evaluations: int, levels: int) -> dict:
    return {"kernel_cutoff": con.cutoff,
            "kernel_dims": [int(con.w_state.shape[0]), int(con.w_pt.shape[0])],
            "lipschitz": lip, "mu_margin": con.margin,
            "evaluations": evaluations, "levels": levels,
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
    con = _constraints_of(s, ENUMERATION_KERNEL_CUTOFF)
    return _search(s, con, ENUMERATION_TOL, ENUMERATION_CANDIDATES).found


def edge_check(s: QubitQuditState) -> RangeSearchCertificate:
    """Search for a product vector satisfying both range conditions.

    Concludes ``FoundProductVector`` at the first polished vector with mu at
    most ``EXCLUSION_THRESHOLD``, ``NoneFound`` when every cell is excluded
    (for a PPT state, entanglement by the range criterion, proved up to
    floating point and ``KERNEL_CUTOFF`` by ``certified_bound``), and
    ``Inconclusive`` when it reaches ``CELL_FLOOR`` or ``EVALUATION_CAP``
    with neither outcome.
    """
    return _search(s, _constraints_of(s, KERNEL_CUTOFF), EXCLUSION_THRESHOLD, 1)
