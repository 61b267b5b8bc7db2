"""Reference constructions shared by the test modules."""

import numpy as np


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
