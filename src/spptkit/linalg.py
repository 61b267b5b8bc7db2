"""Dense complex matrix kernel with tolerance-aware checks.

Everything here treats matrices as immutable values: operations validate
their input and return freshly allocated arrays.  Tolerances are relative.
Hermiticity and positivity are measured against the Frobenius norm of the
input; rank decisions compare singular values against the largest one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotHermitian, NotNormal, NotPsd, NotSquare, ValidationError

# Relative tolerance floors chosen at the double-precision factorization
# error level: hermiticity/PSD checks at 1e-9 * ||M||_F, rank cutoff at
# 1e-12 * sigma_max.
HERM_RTOL = 1e-9
PSD_RTOL = 1e-9
RANK_CUTOFF = 1e-12


class EigResult(NamedTuple):
    """Hermitian eigendecomposition; eigenvalues ascending, columns orthonormal."""

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray) -> "EigResult":
        """Eigendecomposition of a matrix the caller has already made
        hermitian; unvalidated, so ``herm_eig`` is the entry for other input."""
        return cls(*np.linalg.eigh(h))

    def apply(self, fn) -> np.ndarray:
        """The matrix function ``vectors @ diag(fn(values)) @ vectors^dag``."""
        return (self.vectors * fn(self.values)) @ self.vectors.conj().T


class SvdResult(NamedTuple):
    """Singular value decomposition ``m = u @ diag(sigma) @ v.conj().T``."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


class PsdReport(NamedTuple):
    is_psd: bool
    min_eig: float


def frob(m: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(m))


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dag) / 2."""
    return (m + m.conj().T) / 2


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array; raises ValidationError otherwise."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValidationError(f"expected a 2-D matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValidationError("matrix entries must be finite")
    return out


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")


def _require_hermitian(m: np.ndarray, rtol: float) -> None:
    if frob(m - m.conj().T) > rtol * max(frob(m), 1e-300):
        raise NotHermitian(
            f"matrix is not hermitian within relative tolerance {rtol:g}"
        )


def herm_eig(m, rtol: float = HERM_RTOL) -> EigResult:
    """Eigendecomposition of a hermitian matrix.

    Returns eigenvalues in ascending order and an orthonormal eigenbasis.
    For degenerate eigenvalues any orthonormal basis of the eigenspace may
    be returned; callers must not depend on the basis choice inside an
    eigenspace.
    """
    m = as_matrix(m)
    _require_square(m)
    _require_hermitian(m, rtol)
    return EigResult.of(hermitianize(m))


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


def psd_check(m, tol: float = PSD_RTOL) -> PsdReport:
    """Smallest eigenvalue and a positivity flag.

    ``is_psd`` holds exactly when ``min_eig >= -tol * ||m||_F``.
    """
    m = as_matrix(m)
    _require_square(m)
    _require_hermitian(m, max(tol, HERM_RTOL))
    min_eig = float(np.linalg.eigvalsh(hermitianize(m)).min())
    return PsdReport(min_eig >= -tol * max(frob(m), 1e-300), min_eig)


def sqrt_psd(m, tol: float = PSD_RTOL) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in ``[-tol * ||m||_F, 0)`` are clamped to zero; anything
    below that is genuine indefiniteness and raises NotPsd.
    """
    m = as_matrix(m)
    _require_square(m)
    _require_hermitian(m, max(tol, HERM_RTOL))
    values, vectors = np.linalg.eigh(hermitianize(m))
    floor = -tol * max(frob(m), 1e-300)
    if values.min() < floor:
        raise NotPsd(f"matrix has eigenvalue {values.min():g} below {floor:g}")
    values = np.maximum(values, 0.0)
    return hermitianize((vectors * np.sqrt(values)) @ vectors.conj().T)


def rank_of(m, cutoff: float = RANK_CUTOFF) -> int:
    """Number of singular values above ``cutoff * sigma_max``."""
    m = as_matrix(m)
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int((sigma > cutoff * sigma[0]).sum())


def nullspace(m, cutoff: float = RANK_CUTOFF) -> np.ndarray:
    """Orthonormal basis of the right nullspace, as columns.

    A matrix with no rows has the full space as nullspace.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {m.shape}")
    cols = m.shape[1]
    if m.shape[0] == 0:
        return np.eye(cols, dtype=complex)
    u, sigma, vh = np.linalg.svd(m, full_matrices=True)
    top = sigma[0] if sigma.size else 0.0
    rank = int((sigma > cutoff * max(top, 1e-300)).sum())
    return vh[rank:].conj().T


def normal_eig(s, rtol: float = HERM_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a (numerically) normal matrix.

    Returns ``(values, vectors)`` with orthonormal ``vectors`` columns such
    that ``s = vectors @ diag(values) @ vectors.conj().T``.  Uses the complex
    Schur form, which is diagonal for normal input, so degenerate eigenvalues
    still yield an orthonormal eigenbasis.  Eigenvalues are sorted by real
    part, then imaginary part, for deterministic output.
    """
    s = as_matrix(s)
    _require_square(s)
    defect = frob(s.conj().T @ s - s @ s.conj().T)
    if defect > rtol * max(frob(s) ** 2, 1e-300):
        raise NotNormal(f"normality defect {defect:g} exceeds tolerance")
    import scipy.linalg  # deferred: importing it dominates `import spptkit`

    t, z = scipy.linalg.schur(s, output="complex")
    values = np.diagonal(t).copy()
    order = np.lexsort((values.imag, values.real))
    return values[order], z[:, order]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary from the QR of a complex Gaussian."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
