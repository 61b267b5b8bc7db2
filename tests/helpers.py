"""Reference constructions shared by the test modules."""

import numpy as np

from spptkit import linalg, range_criterion
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
