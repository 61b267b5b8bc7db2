"""Reference constructions shared by the test modules."""

import numpy as np

from spptkit import linalg, range_criterion, sphere
from spptkit.states import SpptFactors, assemble_state, make_state


def kernel_of(m, cutoff=range_criterion.KERNEL_CUTOFF):
    """Orthonormal kernel rows of the PSD matrix m, behind the range
    criterion's positivity gate."""
    return range_criterion._kernel(linalg.EigResult.of(m), linalg.frob(m), cutoff)


def pt_witness_gram(f):
    """Y^dag Y for Y = [[x1, s^dag x1], [0, x2]].

    Equals the partial transpose of the assembled state exactly when the
    strong-PPT condition holds, which is what makes these states PPT.
    """
    d = f.d
    y = np.zeros((2 * d, 2 * d), dtype=complex)
    y[:d, :d] = f.x1
    y[:d, d:] = f.s.conj().T @ f.x1
    y[d:, d:] = f.x2
    return y.conj().T @ y


def ill_conditioned_sppt(seed):
    """A 2 x d strong-PPT state with invertible but ill-conditioned x1,
    d = 4 + seed % 3; separable by construction.

    s is normal, so the factors satisfy the strong-PPT condition, and
    x1's least singular value is 1e-5.9 to 1e-4: a = x1^dag x1 has
    condition number 1e8 to 1e12, ill-conditioned but below
    ``linalg.RANK_CUTOFF``.  The tail x2 is a Gaussian or zero.
    """
    rng = np.random.default_rng(seed)
    d = 4 + seed % 3
    u, v = linalg.haar_unitary(d, rng), linalg.haar_unitary(d, rng)
    sigma = np.ones(d)
    sigma[-1] = 10 ** rng.uniform(-5.9, -4)
    x1 = u @ np.diag(sigma) @ v.conj().T
    w = linalg.haar_unitary(d, rng)
    s = (w * (rng.normal(size=d) + 1j * rng.normal(size=d))) @ w.conj().T
    x2 = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * rng.choice([0, 1])
    return make_state(d, assemble_state(SpptFactors(x1=x1, s=s, x2=x2)).rho)


def cell_offsets(rng, points=600):
    """Offsets, in half-widths, of ``points`` points of a Bloch-sphere cell:
    its corners, its edge midpoints and uniform draws."""
    edges = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1], [0, -1], [0, 1], [-1, 0], [1, 0]])
    return np.vstack([edges, rng.uniform(-1.0, 1.0, size=(points - len(edges), 2))])


def reference_directions(con, n_theta=128, n_phi=256):
    """The qualifying directions of the constraints ``con`` (n_rows >= d),
    found by brute force, with neither the root finder nor the sphere
    search: mu on a dense Bloch grid from one batched SVD, a
    ``range_criterion._polish`` from each local minimum of the grid (against
    its eight neighbours, periodic in phi), and the distinct polished
    directions with mu at most ``ENUMERATION_TOL``, within
    ``range_criterion._SAME`` of each other counted once.  Returns them as
    rows of an (n, 2) array."""
    theta, phi = np.meshgrid((np.arange(n_theta) + 0.5) * np.pi / n_theta,
                             np.arange(n_phi) * 2 * np.pi / n_phi, indexing="ij")
    e = sphere._bloch(theta, phi).reshape(-1, 2)
    _, sigma, vh = np.linalg.svd(range_criterion._constraint_rows(con, e))
    mu = sigma[:, con.d - 1].reshape(n_theta, n_phi)
    padded = np.pad(mu, ((1, 1), (0, 0)), constant_values=np.inf)
    least = np.min([np.roll(padded, (i, j), axis=(0, 1))[1:-1]
                    for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)], axis=0)
    found = np.empty((0, 2), dtype=complex)
    for i in np.flatnonzero(mu <= least):
        direction, _, value = range_criterion._polish(con, e[i], np.conj(vh[i, con.d - 1]))
        if (value <= range_criterion.ENUMERATION_TOL
                and not (sphere._bloch_angle(direction, found) < range_criterion._SAME).any()):
            found = np.vstack([found, direction])
    return found
