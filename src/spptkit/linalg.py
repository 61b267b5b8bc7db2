"""Dense complex matrix kernel: the one home of every eigendecomposition.

Everything here treats matrices as immutable values and returns freshly
allocated arrays.  Tolerances are relative: rank decisions compare singular
values against the largest one, support/kernel splits compare eigenvalues
against the largest magnitude.  Hermiticity and positivity of outside input
are checked once, by ``states.make_state``; the matrices the package builds
itself are hermitianized here, not validated again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotNormal, NotSquare, ValidationError

# Relative tolerance floors chosen at the double-precision factorization
# error level: hermiticity/PSD checks at 1e-9 * ||M||_F, rank cutoff at
# 1e-12 * sigma_max.
HERM_RTOL = 1e-9
PSD_RTOL = 1e-9
RANK_CUTOFF = 1e-12
# The decision tolerance of the NPT and strong-PPT tests, relative to the
# state's norm.
DEFAULT_TOL = 1e-9
# Floor of every tolerance a construction is gated or validated with: the
# spectral, reduction and lifting steps each lose a few digits to the
# conditioning of the factors, and a core validated below this floor can
# fail on valid input.
TOL_FLOOR = 1e-8
# Relative singular-value cutoff of ``nullspace``.
NULL_CUTOFF = 1e-8


class EigResult(NamedTuple):
    """Hermitian eigendecomposition; eigenvalues ascending, columns orthonormal.

    For degenerate eigenvalues any orthonormal basis of the eigenspace may
    be returned; callers must not depend on the basis choice inside an
    eigenspace.
    """

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray) -> "EigResult":
        """Eigendecomposition of the hermitian part of the square matrix m."""
        return cls(*np.linalg.eigh(hermitianize(m)))

    @property
    def scale(self) -> float:
        """Largest eigenvalue magnitude, floored at 1e-300."""
        return max(float(np.abs(self.values).max(initial=0.0)), 1e-300)

    def support(self, cutoff: float) -> np.ndarray:
        """Mask of the eigenvalues above ``cutoff * scale``; the rest is the kernel."""
        return self.values > cutoff * self.scale

    def apply(self, fn) -> np.ndarray:
        """The matrix function ``vectors @ diag(fn(values)) @ vectors^dag``."""
        return (self.vectors * fn(self.values)) @ self.vectors.conj().T


def min_eig(m: np.ndarray) -> float:
    """Least eigenvalue of the hermitian part of the square matrix m."""
    return float(np.linalg.eigvalsh(hermitianize(m))[0])


def min_eigs(stack: np.ndarray) -> np.ndarray:
    """Least eigenvalue of the hermitian part of each matrix of a stack (n, d, d)."""
    return np.linalg.eigvalsh((stack + np.conj(stack.swapaxes(-1, -2))) / 2)[:, 0]


def eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (columns) of a
    stack (..., n, n) of hermitian matrices.

    Reads the lower triangle of each matrix, as LAPACK does: a matrix built
    hermitian up to rounding is taken as the hermitian matrix its lower
    triangle defines, and the caller's error bound must cover that rounding.
    """
    return np.linalg.eigh(stack)


def positive_definite(stack: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Mask of the matrices A of a stack (n, d, d) whose A - shift I passes LDL^H.

    ``shift`` holds one real number per matrix.  The factorization is the
    outer-product form without pivoting, run a column at a time on one
    working copy of the stack, so a caller bounds its memory by the stacks
    it passes; A - shift I passes when every computed pivot is positive,
    and an infinite shift fails every matrix.  Like
    ``eigh`` it reads the lower triangle and the real part of the
    diagonal.  A matrix divides only by positive pivots: from its first
    pivot that is not positive on, it divides by infinity, so its columns
    become zero and its entries change no further.  A quotient that
    overflows turns a later pivot of its matrix into -inf or nan, which
    fails it.

    Barring underflow, a pass proves lambda_min(A) > shift - 4 d eps
    tr(A - shift I).  The computed factors are exact for A' + E, with A'
    the computed A - shift I and |E| <= gamma |L| |D| |L|^H entrywise (the
    LU bound of Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 9.3, with U = D L^H; in complex arithmetic gamma =
    gamma_{d+4}, the extra terms covering the complex product and the
    division by a real pivot).  With positive pivots, |L| |D| |L|^H is
    positive semidefinite, so its spectral norm is at most its trace,
    tr(L D L^H) = tr(A' + E) <= tr A' / (1 - gamma); its diagonal also
    shows that every diagonal entry of A' is positive.  Rounding the
    diagonal of A - shift I moves each entry by at most u A'_kk (1 + u),
    u = eps / 2, and tr A' <= (1 + u) tr(A - shift I).  L D L^H is
    positive definite, so lambda_min(A - shift I) is above
    -(gamma / (1 - gamma) + u (1 + u)) (1 + u) tr(A - shift I): (d + 5) u
    to first order, below 3 d eps for d >= 1; the constant 4 leaves room.
    """
    d = stack.shape[-1]
    diagonal = np.arange(d)
    a = np.array(stack, dtype=complex)
    a[:, diagonal, diagonal] -= np.asarray(shift)[:, None]
    passed = np.ones(len(a), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            pivot = a[:, j, j].real
            passed &= pivot > 0
            column = a[:, j + 1:, j]
            scaled = column / np.where(passed, pivot, np.inf)[:, None]
            a[:, j + 1:, j + 1:] -= scaled[:, :, None] * np.conj(column)[:, None, :]
    return passed


class SvdResult(NamedTuple):
    """Singular value decomposition ``m = u @ diag(sigma) @ v.conj().T``."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        """Number of singular values above ``RANK_CUTOFF * sigma_max``."""
        return _rank(self.sigma, RANK_CUTOFF)


def frob(m: np.ndarray) -> float:
    """Frobenius norm as a plain float: the square root of the sum of
    squared moduli, unscaled: it overflows where the squares do and loses
    precision where they are subnormal, the ranges ``states.make_state``
    refuses."""
    return math.sqrt(np.vdot(m, m).real)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dag) / 2."""
    return (m + m.conj().T) / 2


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array; raises ValidationError otherwise."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValidationError(f"expected a 2-D matrix, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValidationError("matrix entries must be finite")
    return out


def svd(m) -> SvdResult:
    """SVD with singular values sorted descending.

    Exactly diagonal input is factored directly (permutation plus phase),
    so that degenerate singular values do not pick up an arbitrary rotation
    of the singular subspaces.  This keeps reductions of already-diagonal
    factors in canonical form.
    """
    m = as_matrix(m)
    if m.shape[0] == m.shape[1] and np.count_nonzero(m - np.diag(np.diagonal(m))) == 0:
        return _svd_of_diagonal(m)
    u, sigma, vh = np.linalg.svd(m)
    return SvdResult(u, sigma, vh.conj().T)


def _svd_of_diagonal(m: np.ndarray) -> SvdResult:
    d = np.diagonal(m)
    order = np.argsort(-np.abs(d), kind="stable")
    sigma = np.abs(d)[order]
    phases = np.ones(len(d), dtype=complex)
    nz = sigma > 0
    phases[nz] = d[order][nz] / sigma[nz]
    u = np.zeros(m.shape, dtype=complex)
    v = np.zeros(m.shape, dtype=complex)
    for i, p in enumerate(order):
        u[p, i] = phases[i]
        v[p, i] = 1.0
    return SvdResult(u, sigma, v)


def _rank(sigma: np.ndarray, cutoff: float) -> int:
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int((sigma > cutoff * sigma[0]).sum())


def nullspace(m) -> np.ndarray:
    """Orthonormal basis of the right nullspace, as columns, at singular
    values at most ``NULL_CUTOFF`` times the largest.

    A matrix with no rows has the full space as nullspace.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {m.shape}")
    cols = m.shape[1]
    if m.shape[0] == 0:
        return np.eye(cols, dtype=complex)
    _, sigma, vh = np.linalg.svd(m, full_matrices=True)
    return vh[_rank(sigma, NULL_CUTOFF):].conj().T


def normal_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a (numerically) normal matrix, whose
    normality defect ||s^dag s - s s^dag|| is at most ``TOL_FLOOR`` times
    ||s||^2.

    Returns ``(values, vectors)`` with orthonormal ``vectors`` columns such
    that ``s = vectors @ diag(values) @ vectors.conj().T``.  The vectors are
    a Schur basis, built with numpy alone: the eigenvectors V of
    ``np.linalg.eig`` (sV = V Lambda) orthonormalized as V = QR.  Then
    Q^dag s Q = R Lambda R^-1 is upper triangular, a complex Schur form,
    which for normal input is diagonal up to the normality defect; so
    degenerate eigenvalues still yield an orthonormal eigenbasis.  The
    values are its diagonal, the Rayleigh quotients q^dag s q, sorted by
    real part, then imaginary part, for deterministic output.
    """
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {s.shape}")
    defect = frob(s.conj().T @ s - s @ s.conj().T)
    if defect > TOL_FLOOR * max(frob(s) ** 2, 1e-300):
        raise NotNormal(f"normality defect {defect:g} exceeds tolerance")
    q, _ = np.linalg.qr(np.linalg.eig(s)[1])
    values = np.einsum("ij,ij->j", np.conj(q), s @ q)
    order = np.lexsort((values.imag, values.real))
    return values[order], q[:, order]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary from the QR of a complex Gaussian."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
