"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

from spptkit import linalg
from spptkit.errors import (
    BadDimensions,
    NotHermitian,
    NotNormal,
    NotPsd,
    NotSquare,
    ValidationError,
)
from spptkit.states import make_state


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_complex(n, m, rng):
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


class TestHermEig:
    """The hermitian eigendecomposition ``EigResult.of`` and the input gate before it.

    ``EigResult.of`` does not validate; outside input is rejected by
    ``as_matrix`` and ``make_state`` before anything decomposes it.
    """

    def test_diagonal(self):
        res = linalg.EigResult.of(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(res.values, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(res.vectors), [[0, 1], [1, 0]])

    def test_identity(self):
        res = linalg.EigResult.of(np.eye(3))
        np.testing.assert_allclose(res.values, [1.0, 1.0, 1.0])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0 by hand
        res = linalg.EigResult.of(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(res.values, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        for n in range(2, 13):
            m = random_hermitian(n, rng)
            values, vectors = linalg.EigResult.of(m)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert linalg.frob(rebuilt - m) <= 1e-10 * linalg.frob(m)
            assert linalg.frob(vectors.conj().T @ vectors - np.eye(n)) <= 1e-12

    def test_takes_the_hermitian_part(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(linalg.EigResult.of(m).values, [0.0, 2.0], atol=1e-14)

    def test_support_split(self):
        res = linalg.EigResult.of(np.diag([-1e-13, 1e-9, 0.5, 2.0]))
        assert res.scale == 2.0
        assert res.support(1e-9).tolist() == [False, False, True, True]
        assert res.support(1e-10).tolist() == [False, True, True, True]
        assert not linalg.EigResult.of(np.zeros((3, 3))).support(1e-12).any()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            make_state(1, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(BadDimensions):
            make_state(1, np.zeros((2, 3)))
        with pytest.raises(NotSquare):
            linalg.normal_eig(np.zeros((2, 3)))

    def test_rejects_nan(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            linalg.as_matrix(m)
        with pytest.raises(ValidationError):
            make_state(1, m)


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(4))
        np.testing.assert_allclose(res.sigma, np.ones(4))

    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 0.0])

    def test_nilpotent(self):
        # M M^dag = diag(1, 0) by hand, so singular values are (1, 0)
        res = linalg.svd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(res.sigma, [1.0, 0.0], atol=1e-15)

    def test_diagonal_input_gives_exact_factors(self):
        m = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)
        u, sigma, v = linalg.svd(m)
        assert np.array_equal(u, np.eye(5, dtype=complex))
        assert np.array_equal(v, np.eye(5, dtype=complex))
        np.testing.assert_allclose(sigma, [1, 1, 1, 1, 0])

    def test_unsorted_complex_diagonal(self):
        m = np.diag([1.0j, -2.0, 0.5])
        u, sigma, v = linalg.svd(m)
        np.testing.assert_allclose(sigma, [2.0, 1.0, 0.5])
        np.testing.assert_allclose(u @ np.diag(sigma) @ v.conj().T, m, atol=1e-15)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(43)
        for n in range(2, 13):
            m = random_complex(n, rng.integers(2, 13), rng)
            u, sigma, v = linalg.svd(m)
            smat = np.zeros(m.shape)
            np.fill_diagonal(smat, sigma)
            assert linalg.frob(u @ smat @ v.conj().T - m) <= 1e-10 * linalg.frob(m)
            assert np.all(np.diff(sigma) <= 1e-12)
            assert np.all(sigma >= 0)


class TestPsdCheck:
    """The least eigenvalue ``min_eig`` and the hermiticity and PSD gates of ``make_state``."""

    def test_identity(self):
        assert abs(linalg.min_eig(np.eye(2)) - 1.0) < 1e-14
        make_state(1, np.eye(2))

    def test_indefinite(self):
        assert abs(linalg.min_eig(np.diag([1.0, -1.0])) + 1.0) < 1e-14
        with pytest.raises(NotPsd):
            make_state(1, np.diag([1.0, -1.0]))

    def test_2x2(self):
        # eigenvalues 1 and 3 by hand
        assert abs(linalg.min_eig(np.array([[2.0, 1.0], [1.0, 2.0]])) - 1.0) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            make_state(1, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSqrtPsd:
    """PSD square roots as ``EigResult.apply`` of the clamped square root."""

    @staticmethod
    def clamped_root(m):
        return linalg.EigResult.of(m).apply(lambda w: np.sqrt(np.maximum(w, 0.0)))

    def test_diagonal(self):
        np.testing.assert_allclose(self.clamped_root(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_identity(self):
        for d in (1, 3, 7):
            np.testing.assert_allclose(self.clamped_root(np.eye(d)), np.eye(d),
                                       atol=1e-14)

    def test_square_reproduces_input(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = self.clamped_root(m)
        assert linalg.frob(root @ root - m) <= 1e-12

    def test_clamps_noise(self):
        root = self.clamped_root(np.diag([1.0, -1e-12]))
        assert root[1, 1] == 0.0


class TestRankOf:
    def test_zero(self):
        assert linalg.rank_of(np.zeros((3, 3))) == 0

    def test_diagonal(self):
        assert linalg.rank_of(np.diag([1.0, 1.0, 0.0, 0.0, 0.0])) == 2

    def test_unitary_invariance(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            g = random_complex(n, r, rng)
            m = g @ g.conj().T
            u = linalg.haar_unitary(n, rng)
            assert linalg.rank_of(m) == linalg.rank_of(u @ m @ u.conj().T) == r


class TestNullspace:
    def test_empty_rows(self):
        basis = linalg.nullspace(np.zeros((0, 4)))
        np.testing.assert_allclose(basis, np.eye(4))

    def test_shift(self):
        m = np.array([[0.0, 1.0, 0.0]])
        basis = linalg.nullspace(m)
        assert basis.shape == (3, 2)
        assert linalg.frob(m @ basis) <= 1e-14


class TestNormalEig:
    def test_normal_reconstruction(self):
        rng = np.random.default_rng(46)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            u = linalg.haar_unitary(n, rng)
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            if trial % 3 == 0 and n >= 4:
                lam[1] = lam[0]  # force a degenerate pair
            m = (u * lam) @ u.conj().T
            values, vectors = linalg.normal_eig(m)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert linalg.frob(rebuilt - m) <= 1e-11 * linalg.frob(m)
            assert linalg.frob(vectors.conj().T @ vectors - np.eye(n)) <= 1e-12

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            linalg.normal_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic_order(self):
        m = np.diag([2.0, -1.0, 0.5 + 0.5j])
        values, _ = linalg.normal_eig(m)
        assert values[0].real <= values[1].real <= values[2].real


class TestSvdRank:
    def test_matches_rank_of(self):
        rng = np.random.default_rng(44)
        for r in range(5):
            g = random_complex(4, r, rng) if r else np.zeros((4, 1))
            m = g @ g.conj().T
            assert linalg.svd(m).rank == linalg.rank_of(m) == r


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(47)
    u = linalg.haar_unitary(6, rng)
    assert linalg.frob(u.conj().T @ u - np.eye(6)) <= 1e-12
