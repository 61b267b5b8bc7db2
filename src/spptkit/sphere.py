"""Branch-and-bound over the qubit Bloch sphere, for any objective.

A qubit direction, a unit vector e = (cos(theta/2), e^{i phi}
sin(theta/2)) up to phase, is a point of the Bloch sphere.  ``search``
looks for a direction where an objective's value v is at most a threshold,
or bounds v from below over the whole sphere.  The objective is any object
with four members; ``range_criterion._Constraints`` is the one the
package has, and ``range_criterion.edge_check`` the one caller:

* ``lipschitz``: L with |v(e) - v(e')| <= L min_phi ||e - e^{i phi} e'||,
  so v moves by at most L r / 2 within a Bloch angle r of a point (a
  distance of 2 sin(r/4) <= r/2 between unit vectors modulo phase);
* ``bounds(e, radius, above)``: for centres e (n, 2) and the cells of
  Bloch radius ``radius`` round them, ``(value_lo, lower, starts)``:
  value_lo <= v at each centre, value_lo - L r / 2 <= lower <= v on each
  cell, and each centre's polish start; a centre with value_lo >=
  ``above`` may get +inf for both;
* ``polish(e, start)``: ``(e, payload, value)`` at the best point of a
  local minimization from e;
* ``start``: ``(e, start)``, a direction and its polish start, polished
  before any cell is bounded.

A search polishes the start, then per level the best open cells: those at
most the threshold, and the best one above it only if its value is below
the least value seen before the level, so no level repeats the start's
polish from a worse centre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CELL_FLOOR = 1e-9                  # polar width (rad) below which a cell is not split
EVALUATION_CAP = 100_000           # cells bounded per search
_INITIAL_CELLS = (8, 16)           # polar x azimuthal cells of the first level
_POLISH_PER_LEVEL = 2              # polishes per level, plus one; at most one above the threshold; 0 skips the start


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


def _haversine_terms(theta, h_theta, h_phi):
    """The polar and azimuthal terms, sin^2(h_theta/2) and sin theta sin
    theta_far sin^2(h_phi/2), of the haversine of the largest Bloch angle
    from the centres of cells |theta' - theta| <= h_theta, |phi' - phi| <=
    h_phi (see ``_cell_radius``); sin theta_far is the larger sine of the
    two polar edges."""
    far = np.maximum(np.sin(theta - h_theta), np.sin(theta + h_theta))
    return np.sin(h_theta / 2.0) ** 2, np.sin(theta) * far * np.sin(h_phi / 2.0) ** 2


def _cell_radius(theta, h_theta, h_phi) -> np.ndarray:
    """Largest Bloch angle from a cell's centre to its points, inflated.

    The cell is |theta' - theta| <= h_theta, |phi' - phi| <= h_phi, its
    half-widths its own.  The angle gamma to (theta', phi') satisfies the
    haversine formula sin^2(gamma/2) = sin^2(dtheta/2) + sin theta sin
    theta' sin^2(dphi/2), which grows with |dphi|; on the far meridians
    |dphi| = h_phi its second derivative in theta', cos(dtheta)/2 - sin
    theta sin theta' sin^2(h_phi/2), is positive when both half-widths are
    below pi/4, as every cell of the search's is (at most pi/8), so the
    largest angle is at a far corner (theta +- h_theta, phi + h_phi), the
    sum of the two terms of ``_haversine_terms``.  It is taken through
    asin, not arccos, which rounds angles below ~1e-8 to 0; the relative
    1e-12 covers the rounding.
    """
    polar, azimuthal = _haversine_terms(theta, h_theta, h_phi)
    return 2.0 * np.arcsin(np.sqrt(np.minimum(polar + azimuthal, 1.0))) * (1.0 + 1e-12)


def _split(theta, h_theta, h_phi):
    """The axes along which cells are halved, ``(along_theta, along_phi)``:
    those that set the cell's Bloch radius.  A cell whose azimuthal term
    (``_haversine_terms``) is under a quarter of its polar term is halved
    along theta alone, one whose polar term is under a quarter of its
    azimuthal term along phi alone, any other along both."""
    polar, azimuthal = _haversine_terms(theta, h_theta, h_phi)
    return polar >= azimuthal / 4.0, azimuthal >= polar / 4.0


# (theta, phi) signs of a cell's four quarters, in the order children are made
_QUARTERS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def _children(theta, phi, h_theta, h_phi):
    """The cells that tile the given ones, each halved along the axes
    ``_split`` picks: two or four children per cell, in the order of
    ``_QUARTERS`` with the unhalved axis's sign dropped, as ``(theta, phi,
    h_theta, h_phi)``."""
    along_theta, along_phi = _split(theta, h_theta, h_phi)
    h_theta = np.where(along_theta, h_theta / 2.0, h_theta)
    h_phi = np.where(along_phi, h_phi / 2.0, h_phi)
    keep = (((_QUARTERS[:, 0] < 0) | along_theta[:, None])
            & ((_QUARTERS[:, 1] < 0) | along_phi[:, None]))
    step_theta = np.where(along_theta, h_theta, 0.0)[:, None]
    step_phi = np.where(along_phi, h_phi, 0.0)[:, None]
    return ((theta[:, None] + step_theta * _QUARTERS[:, 0])[keep],
            (phi[:, None] + step_phi * _QUARTERS[:, 1])[keep],
            np.broadcast_to(h_theta[:, None], keep.shape)[keep],
            np.broadcast_to(h_phi[:, None], keep.shape)[keep])


def _first_level():
    """The first level's cells, which depend on ``_INITIAL_CELLS`` alone, as
    read-only arrays: the centres' theta and phi, the half-widths h_theta
    and h_phi, and the centres' qubit vectors (``_bloch``) and radii
    (``_cell_radius``).

    Each of the n_theta polar rows has n_phi azimuthal cells, except where
    ``_split`` would halve those along theta alone: there the row has half
    as many, twice as wide, the split rule run backwards.  That merges the
    two rows at the poles, 8 cells each at the (8, 16) grid, 112 cells in
    all, and leaves every half-width at most pi / 8.
    """
    n_theta, n_phi = _INITIAL_CELLS
    h = np.pi / (2 * n_theta)
    rows = (2 * np.arange(n_theta) + 1) * h
    counts = np.where(_split(rows, h, np.pi / n_phi)[1], n_phi, n_phi // 2)
    theta = np.repeat(rows, counts)
    h_theta = np.full(len(theta), h)
    h_phi = np.repeat(np.pi / counts, counts)
    phi = (2 * np.concatenate([np.arange(count) for count in counts]) + 1) * h_phi
    cells = (theta, phi, h_theta, h_phi, _bloch(theta, phi), _cell_radius(theta, h_theta, h_phi))
    for a in cells:
        a.flags.writeable = False
    return cells


_FIRST_LEVEL = _first_level()


def _minimum_record(e: np.ndarray, residual: float) -> dict:
    """Serializable record of a polished minimum, by its Bloch angles."""
    return {"theta": float(2.0 * np.arctan2(abs(e[1]), abs(e[0]))),
            "phi": float(np.angle(e[1] * np.conj(e[0]))),
            "residual": residual}


@dataclass(frozen=True)
class Search:
    """What ``search`` returns.  ``found`` holds ``(e, payload)`` of the
    direction found, if any; ``minima`` a ``_minimum_record`` of every
    polish, the start's first; ``conclusion`` is "Found", "NoneFound"
    (every cell excluded) or "Inconclusive"; ``bound`` is the least lower
    bound over the cells the search ended with, not below 0 (0 where the
    start is found), and ``worst`` the least value seen;
    ``work`` counts the ``evaluations`` (cells bounded), ``levels``,
    ``first_order`` exclusions and ``polishes``."""

    found: list
    minima: list
    conclusion: str
    bound: float
    worst: float
    work: dict


def search(objective, threshold: float) -> Search:
    """Find a direction with value at most ``threshold``, or bound the value
    over the sphere from below.

    First ``objective.start`` is polished, unless ``_POLISH_PER_LEVEL`` is
    0; if its value is at most ``threshold`` the search ends "Found" with
    no cell bounded (no level, no evaluation, one polish).  Otherwise cells
    are rectangles in (theta, phi), each with its own half-widths,
    starting from the read-only ``_FIRST_LEVEL``.  Each level bounds the
    open cells (``objective.bounds``) and excludes a cell when its lower
    bound exceeds ``threshold``; ``first_order`` counts the cells excluded
    that value_lo - L r / 2 would have left open.  The best open cells are
    polished, best first: per level at most min(``_POLISH_PER_LEVEL``, 1)
    from centres above the threshold, and that one only if its value is
    below the least value seen before the level, and ``_POLISH_PER_LEVEL``
    + 1 in all, a cap that excludes nothing, as an unpolished cell stays
    open.  The first polished value at most ``threshold`` is the direction
    found.  The other open cells are split by ``_children`` along the axes
    that set their radius (``_split``), so cells near the poles are not
    cut into slivers along phi.  The search stops once a direction is
    found, every cell is excluded, or an open cell's polar width is below
    ``CELL_FLOOR`` or the next level's children would take the evaluations
    past ``EVALUATION_CAP``.

    The search tracks its ``bound`` (the least lower over excluded cells)
    and ``worst`` (the least value seen, the start's polish included).
    The start moves no cell's bound or exclusion: a smaller ``worst``
    settles more cells in ``bounds``, each one that would have been
    excluded without lowering ``bound``.  Each level passes ``bounds`` a
    value ``above`` per cell past which nothing the search reports can
    change: the larger of max(threshold, bound) + L r / 2 and ``worst``,
    where the cell is excluded and lowers neither; it is infinite at the
    first level.
    """
    lip = objective.lipschitz
    found, minima = [], []
    theta, phi, h_theta, h_phi, e, radius = _FIRST_LEVEL
    bound = worst = np.inf
    work = dict.fromkeys(("evaluations", "levels", "first_order", "polishes"), 0)
    if _POLISH_PER_LEVEL:
        work["polishes"] = 1
        e_pol, payload, worst = objective.polish(*objective.start)
        minima.append(_minimum_record(e_pol, worst))
        if worst <= threshold:
            return Search([(e_pol, payload)], minima, "Found", 0.0, worst, work)
    conclusion = "NoneFound"
    while True:
        work["levels"] += 1
        slack = lip * radius / 2.0
        value, lower, starts = objective.bounds(
            e, radius, np.maximum(max(threshold, bound) + slack, worst))
        work["evaluations"] += len(value)
        least, worst = worst, min(worst, float(value.min()))
        open_ = lower <= threshold
        work["first_order"] += int(np.count_nonzero(~open_ & (value - slack <= threshold)))
        for attempts, i in enumerate(np.flatnonzero(open_)[np.argsort(value[open_])]):
            if (found or attempts > _POLISH_PER_LEVEL or (value[i] > threshold and (
                    attempts >= min(_POLISH_PER_LEVEL, 1) or value[i] >= least))):
                break
            work["polishes"] += 1
            e_pol, payload, value_pol = objective.polish(e[i], starts[i])
            minima.append(_minimum_record(e_pol, value_pol))
            worst = min(worst, value_pol)
            if value_pol <= threshold:
                found.append((e_pol, payload))
        if found:
            conclusion = "Found"
            break
        if not open_.any():
            break
        children = _children(theta[open_], phi[open_], h_theta[open_], h_phi[open_])
        if ((2.0 * h_theta[open_] < CELL_FLOOR).any()
                or work["evaluations"] + len(children[0]) > EVALUATION_CAP):
            conclusion = "Inconclusive"
            break
        bound = min(bound, float(lower[~open_].min(initial=np.inf)))
        theta, phi, h_theta, h_phi = children
        e, radius = _bloch(theta, phi), _cell_radius(theta, h_theta, h_phi)
    return Search(found, minima, conclusion, max(min(bound, float(lower.min())), 0.0), worst, work)
