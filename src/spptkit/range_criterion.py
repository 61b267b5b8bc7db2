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
direction lives on the projective line, parametrized as e ~ (1, t) with
the point at infinity e = (0, 1).

One routine, ``_search``, does all the searching: it scans mu over a
stereographic grid, refines the best local minima of the scan and both
poles, and keeps the product vectors at the refined minima that reach a
residual threshold.  ``product_vectors_in_range`` runs it once;
``edge_check`` runs it on a coarse grid and, when that finds nothing, on
the full grid, and records every refined minimum.  When every refined
minimum stays above the exclusion threshold, the record is numerical
evidence that no qualifying product vector exists; for a PPT state it
certifies entanglement.  The certificate is an explicit search record, not
a mathematical proof.  A state with fewer constraint rows than d has
qualifying vectors at every direction; the routine then returns a basis of
them at six canonical directions instead of searching.

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

DEFAULT_GRID = (720, 360)          # azimuthal x polar samples, plus t=0 and pole
EXCLUSION_THRESHOLD = 1e-6
KERNEL_CUTOFF = 1e-10
REFINE_TOL = 1e-12
REFINE_MAX_LEVELS = 60
_REFINE_EVAL_CAP = 20000
_CANDIDATE_TOL = 1e-8
_EDGE_SEED_LIMIT = 32              # local minima refined per edge_check pass
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
    """Record of a grid-plus-refinement search over the qubit direction."""

    grid_spec: dict
    worst_min_residual: float
    refined_minima: list
    conclusion: str                      # "FoundProductVector" or "NoneFound"
    found: list = field(default_factory=list)
    exclusion_threshold: float = EXCLUSION_THRESHOLD
    note: str = "range-criterion search certificate"


def kernel_basis(m, cutoff: float = KERNEL_CUTOFF) -> np.ndarray:
    """Orthonormal kernel basis (rows) of a PSD matrix.

    Spans the eigenvectors with eigenvalue at most ``cutoff`` times the
    largest eigenvalue.
    """
    m = linalg.as_matrix(m)
    values, vectors = np.linalg.eigh(linalg.hermitianize(m))
    scale = max(np.abs(values).max(), 1e-300)
    if values.min() < -max(cutoff, 1e-9) * scale:
        raise NotPsd(f"kernel_basis expects a PSD matrix, min eigenvalue {values.min():g}")
    return vectors[:, values <= cutoff * scale].T


@dataclass(frozen=True)
class _Constraints:
    """Precontracted kernel data of a state and its partial transpose."""

    d: int
    w_state: np.ndarray     # (k1, 2, d): conj of kernel vectors of rho
    w_pt: np.ndarray        # (k2, 2, d): conj of kernel vectors of rho^{T_A}

    @property
    def n_rows(self) -> int:
        return self.w_state.shape[0] + self.w_pt.shape[0]


def _constraints_of(s: QubitQuditState, cutoff: float) -> _Constraints:
    d = s.d
    ker = kernel_basis(s.rho, cutoff)
    ker_pt = kernel_basis(states.partial_transpose_matrix(s.rho, d), cutoff)
    return _Constraints(
        d=d,
        w_state=np.conj(ker.reshape(-1, 2, d)),
        w_pt=np.conj(ker_pt.reshape(-1, 2, d)),
    )


def _constraint_rows(con: _Constraints, e_batch: np.ndarray) -> np.ndarray:
    """M(e) for a batch of unit qubit vectors of shape (n, 2): (n, n_rows, d)."""
    return np.concatenate([np.einsum("na,mad->nmd", e_batch, con.w_state),
                           np.einsum("na,mad->nmd", np.conj(e_batch), con.w_pt)],
                          axis=1)


def _mu_batch(con: _Constraints, e_batch: np.ndarray) -> np.ndarray:
    """mu over a batch of unit qubit vectors; needs n_rows >= d."""
    return np.linalg.svd(_constraint_rows(con, e_batch), compute_uv=False)[:, con.d - 1]


def _null_vector(con: _Constraints, e: np.ndarray) -> np.ndarray:
    """The unit f minimizing ||M(e) f||; needs n_rows >= d."""
    _, _, vh = np.linalg.svd(_constraint_rows(con, e[None, :])[0])
    return np.conj(vh[con.d - 1])


def _null_space(con: _Constraints, e: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the nullspace of M(e), best residual first."""
    m = _constraint_rows(con, e[None, :])[0]
    return linalg.nullspace(m, cutoff=_NULL_CUTOFF)[:, ::-1].T


def _qubit_vector(param: complex, chart: str) -> np.ndarray:
    """Unit qubit vector for a chart point: 't' is (1, t), 'inv_t' is (s, 1)."""
    if chart == "t":
        v = np.array([1.0, param], dtype=complex)
    else:
        v = np.array([param, 1.0], dtype=complex)
    return v / np.linalg.norm(v)


def _grid_params(n_phi: int, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Stereographic grid over the qubit projective line.

    Polar samples avoid the exact poles (handled separately); returns the
    complex parameters t and the matching unit vectors.
    """
    theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * np.pi / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    t = (np.tan(tt / 2.0) * np.exp(1j * pp)).ravel()
    e = np.stack([np.ones_like(t), t], axis=1)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return t, e


def _minimum_record(param: complex, chart: str, residual: float) -> dict:
    """Serializable record of a refined minimum; t is None at the pole."""
    if chart == "t":
        t = complex(param)
    elif param != 0:
        t = 1.0 / complex(param)
    else:
        t = None
    return {
        "chart": chart, "re": float(np.real(param)), "im": float(np.imag(param)),
        "t_re": None if t is None else float(t.real),
        "t_im": None if t is None else float(t.imag),
        "residual": residual,
    }


def _refine(con: _Constraints, param: complex, chart: str, step: float,
            tol: float = REFINE_TOL, max_levels: int = REFINE_MAX_LEVELS):
    """Derivative-free coordinate-shrink refinement of mu.

    Moves in the four axis directions while improving, halving the step
    when stuck; monotone by construction, so the refined residual never
    exceeds the seed value.  Switches chart when the parameter leaves the
    unit disk to keep steps well scaled near the pole.
    """
    best = _mu_batch(con, _qubit_vector(param, chart)[None, :])[0]
    evals = 1
    for _ in range(max_levels):
        if best <= tol or step <= 1e-14 or evals >= _REFINE_EVAL_CAP:
            break
        moved = True
        while moved and evals < _REFINE_EVAL_CAP:
            moved = False
            for dp in (step, -step, 1j * step, -1j * step):
                cand = param + dp
                val = _mu_batch(con, _qubit_vector(cand, chart)[None, :])[0]
                evals += 1
                if val < best:
                    best, param, moved = val, cand, True
            if abs(param) > 1.5:
                param = 1.0 / param
                chart = "inv_t" if chart == "t" else "t"
        step /= 2.0
    return param, chart, float(best)


def _local_minima_indices(mu_grid: np.ndarray) -> np.ndarray:
    """Grid points not exceeded by their 4-neighborhood (phi wraps)."""
    below = np.ones_like(mu_grid, dtype=bool)
    below &= mu_grid <= np.roll(mu_grid, 1, axis=1)
    below &= mu_grid <= np.roll(mu_grid, -1, axis=1)
    below[1:, :] &= mu_grid[1:, :] <= mu_grid[:-1, :]
    below[:-1, :] &= mu_grid[:-1, :] <= mu_grid[1:, :]
    return np.flatnonzero(below.ravel())


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


_CANONICAL = (
    (0.0, "t"), (0.0, "inv_t"), (1.0, "t"), (-1.0, "t"), (1j, "t"), (-1j, "t"),
)


def _mu_chunked(con: _Constraints, e_grid: np.ndarray,
                chunk: int = 32768) -> np.ndarray:
    out = np.empty(len(e_grid))
    for i in range(0, len(e_grid), chunk):
        out[i:i + chunk] = _mu_batch(con, e_grid[i:i + chunk])
    return out


def _seed_points(mu: np.ndarray, t: np.ndarray, n_theta: int, limit: int):
    """Local minima of the grid landscape, best first, as refinement seeds."""
    idx = _local_minima_indices(mu)
    order = idx[np.argsort(mu.ravel()[idx])][:limit]
    theta_step = np.pi / n_theta
    seeds = []
    for flat in order:
        tv = t.ravel()[flat]
        chart = "t" if abs(tv) <= 1.0 else "inv_t"
        param = tv if chart == "t" else 1.0 / tv
        # local spacing of the stereographic grid at this latitude
        step = max(theta_step * (1.0 + abs(param) ** 2) / 2.0, 1e-4)
        seeds.append((param, chart, step))
    return seeds


def _distinct(vectors: list[ProductVector]) -> list[ProductVector]:
    """Drop vectors whose e and f both match an earlier one up to phase."""
    kept: list[ProductVector] = []
    for pv in vectors:
        if all(abs(abs(np.vdot(pv.e, q.e)) - 1.0) > 1e-6 or
               abs(abs(np.vdot(pv.f, q.f)) - 1.0) > 1e-6 for q in kept):
            kept.append(pv)
    return kept


def _search(s: QubitQuditState, con: _Constraints, grid: tuple[int, int],
            seed_limit: int, threshold: float, cap: int | None = None):
    """The search over the qubit direction behind both public entry points.

    Scans mu over the grid, refines the ``seed_limit`` best local minima of
    the scan and both poles, and returns ``(minima, found)``: a record of
    every refined minimum, and the product vectors at the minima whose
    residual is at most ``threshold``, best first, without duplicates and
    at most ``cap`` of them.

    With fewer constraint rows than d, M(e) has a nullspace at every e and
    mu vanishes identically.  Nothing is searched then: ``found`` is an
    orthonormal basis of the nullspace at each of six canonical directions
    (uncapped, at most 6d vectors), and a single record at t = 0 stands for
    the landscape.
    """
    if con.n_rows < s.d:
        found = []
        for param, chart in _CANONICAL:
            e = _qubit_vector(param, chart)
            found.extend(_product_vector_at(s, con, e, f) for f in _null_space(con, e))
        return [_minimum_record(0.0, "t", found[0].combined_residual)], found

    n_phi, n_theta = grid
    t, e_grid = _grid_params(n_phi, n_theta)
    mu = _mu_chunked(con, e_grid).reshape(n_theta, n_phi)
    seeds = _seed_points(mu, t.reshape(n_theta, n_phi), n_theta, seed_limit)
    seeds += [(0.0, "t", 0.05), (0.0, "inv_t", 0.05)]
    minima, found = [], []
    for seed in seeds:
        param, chart, val = _refine(con, *seed)
        minima.append(_minimum_record(param, chart, val))
        if val <= threshold:
            e = _qubit_vector(param, chart)
            found.append(_product_vector_at(s, con, e, _null_vector(con, e)))
    found.sort(key=lambda pv: pv.combined_residual)
    return minima, _distinct(found)[:cap]


def product_vectors_in_range(s: QubitQuditState, grid: tuple[int, int] | None = None,
                             kernel_cutoff: float = KERNEL_CUTOFF,
                             max_candidates: int = 16,
                             candidate_tol: float = _CANDIDATE_TOL) -> list[ProductVector]:
    """Scan for product vectors |e, f> in range(rho) with |e*, f> in the
    partial-transpose range.

    For each qubit direction on the grid the qudit vector is solved exactly
    by a nullspace computation on the contracted kernel constraints; grid
    points seeding small residuals are refined locally.  Returns up to
    ``max_candidates`` vectors with combined residual at most
    ``candidate_tol``, best first.  A state with fewer independent kernel
    constraints than d (in particular any full-rank state) admits product
    vectors at every qubit direction; it gets, uncapped, an orthonormal
    basis of them at six canonical directions.
    """
    con = _constraints_of(s, kernel_cutoff)
    _, found = _search(s, con, grid or DEFAULT_GRID, 4 * max_candidates,
                       candidate_tol, cap=max_candidates)
    return found


def edge_check(s: QubitQuditState, grid: tuple[int, int] | None = None,
               exclusion_threshold: float = EXCLUSION_THRESHOLD) -> RangeSearchCertificate:
    """Search for a product vector satisfying both range conditions.

    Concludes ``FoundProductVector`` as soon as a refined candidate drops
    to the exclusion threshold.  Concluding ``NoneFound`` requires the full
    grid: every local minimum of the landscape is refined and must stay
    above the threshold.  The result is a numerical search certificate;
    for PPT states a NoneFound conclusion is evidence of entanglement via
    the range criterion.
    """
    n_phi, n_theta = grid or DEFAULT_GRID
    con = _constraints_of(s, KERNEL_CUTOFF)
    # Cheap pre-pass: a coarse scan usually locates product vectors of
    # separable states without paying for the full grid.
    coarse = (max(n_phi // 10, 36), max(n_theta // 10, 18))
    for pass_grid in (coarse, (n_phi, n_theta)):
        minima, found = _search(s, con, pass_grid, _EDGE_SEED_LIMIT, exclusion_threshold)
        if found:
            break
    return RangeSearchCertificate(
        grid_spec={"n_phi": n_phi, "n_theta": n_theta,
                   "extra_points": ["t=0", "pole"], "kernel_cutoff": KERNEL_CUTOFF,
                   "kernel_dims": [int(con.w_state.shape[0]), int(con.w_pt.shape[0])]},
        worst_min_residual=min(m["residual"] for m in minima),
        refined_minima=minima,
        conclusion="FoundProductVector" if found else "NoneFound",
        found=found, exclusion_threshold=exclusion_threshold,
    )
