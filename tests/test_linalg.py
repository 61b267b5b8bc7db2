"""Tests for the dense matrix kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

    @pytest.mark.parametrize("entry", [complex(0.0, np.nan), complex(np.inf, 0.0),
                                       complex(1.0, -np.inf), complex(np.nan, np.nan)],
                             ids=["nan-imaginary", "inf-real", "inf-imaginary", "nan-both"])
    def test_rejects_any_non_finite_part(self, entry):
        m = np.eye(2, dtype=complex)
        m[0, 1] = entry
        with pytest.raises(ValidationError, match="finite"):
            linalg.as_matrix(m)
        assert linalg.as_matrix(np.eye(2)).dtype == complex


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
        assert linalg.svd(np.zeros((3, 3))).rank == 0

    def test_diagonal(self):
        assert linalg.svd(np.diag([1.0, 1.0, 0.0, 0.0, 0.0])).rank == 2

    def test_unitary_invariance(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            g = random_complex(n, r, rng)
            m = g @ g.conj().T
            u = linalg.haar_unitary(n, rng)
            assert linalg.svd(m).rank == linalg.svd(u @ m @ u.conj().T).rank == r


class TestNullspace:
    def test_empty_rows(self):
        basis = linalg.nullspace(np.zeros((0, 4)))
        np.testing.assert_allclose(basis, np.eye(4))

    def test_shift(self):
        m = np.array([[0.0, 1.0, 0.0]])
        basis = linalg.nullspace(m)
        assert basis.shape == (3, 2)
        assert linalg.frob(m @ basis) <= 1e-14


class TestMinEigs:
    def test_equals_the_least_eigenvalue_of_each_matrix(self):
        # the stacked solve is the per-matrix one, bit for bit, so a
        # decomposition's PSD check does not depend on how it is batched
        rng = np.random.default_rng(3)
        for d in (2, 4, 7):
            stack = np.array([random_complex(d, d, rng) for _ in range(5)])
            assert linalg.min_eigs(stack).tolist() == [linalg.min_eig(m) for m in stack]


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

    @staticmethod
    def assert_decomposes(m, values, vectors, tol):
        n = len(m)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert linalg.frob(rebuilt - m) <= tol * max(linalg.frob(m), 1e-300)
        assert linalg.frob(vectors.conj().T @ vectors - np.eye(n)) <= tol
        assert np.all(np.diff(values.real) >= 0)

    @pytest.mark.parametrize("family", ["random", "repeated", "cube_roots", "zero",
                                        "apart_1e-5", "apart_1e-9"])
    def test_spectral_families(self, family):
        # the eig + QR Schur basis is as exact as the Schur form on every
        # spectrum shape, clusters and a vanishing matrix included
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            if family == "repeated":
                lam[: n // 2 + 1] = lam[0]
            elif family == "cube_roots":
                lam = np.exp(2j * np.pi * rng.integers(0, 3, size=n) / 3)
            elif family == "zero":
                lam = np.zeros(n)
            elif family.startswith("apart_"):
                lam[1] = lam[0] + float(family[len("apart_"):]) * np.exp(1j * rng.uniform(0, 7))
            u = linalg.haar_unitary(n, rng)
            m = (u * lam) @ u.conj().T
            self.assert_decomposes(m, *linalg.normal_eig(m), tol=1e-12)

    def test_eigenvalues_on_one_line(self):
        # Re(lambda) + 0.618 Im(lambda) is 0 for two of them: an eigh of
        # H + 0.618 K, the commuting hermitian pair, would mix their vectors
        rng = np.random.default_rng(5)
        u = linalg.haar_unitary(4, rng)
        lam = np.array([0.0, 0.618 - 1j, 2.0, 1.0 + 1j])
        m = (u * lam) @ u.conj().T
        values, vectors = linalg.normal_eig(m)
        self.assert_decomposes(m, values, vectors, tol=1e-12)
        np.testing.assert_allclose(values, np.sort_complex(lam), atol=1e-12)

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-9])
    def test_near_normal_loses_only_the_perturbation(self, eps):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            if trial % 2:
                lam[1] = lam[0]
            u = linalg.haar_unitary(n, rng)
            m = (u * lam) @ u.conj().T
            p = random_complex(n, n, rng)
            m = m + eps * linalg.frob(m) * p / linalg.frob(p)
            values, vectors = linalg.normal_eig(m)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert linalg.frob(rebuilt - m) <= 2 * eps * linalg.frob(m)
            assert linalg.frob(vectors.conj().T @ vectors - np.eye(n)) <= 1e-12


def psd_stack(n, d, rank, rng):
    """n random d x d PSD matrices B B^dag of rank ``rank``."""
    b = rng.normal(size=(n, d, rank)) + 1j * rng.normal(size=(n, d, rank))
    return b @ np.conj(b.transpose(0, 2, 1))


def ldl_margin(stack, shift):
    """The margin ``positive_definite`` states: 4 d eps tr(A - shift I)."""
    d = stack.shape[-1]
    trace = np.trace(stack, axis1=-2, axis2=-1).real - d * shift
    return 4 * d * np.finfo(float).eps * np.maximum(trace, 0.0)


class TestPositiveDefinite:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_agrees_with_eigvalsh_away_from_the_least_eigenvalue(self, d):
        rng = np.random.default_rng(d)
        n = 3000
        # PSD stacks of full and deficient rank, and indefinite ones
        g = np.concatenate([psd_stack(n, d, d + 1, rng), psd_stack(n, d, d - 1, rng),
                            psd_stack(n, d, d, rng) - 2.0 * d * np.eye(d)])
        lam = np.linalg.eigvalsh(g)[:, 0]
        norm = np.linalg.norm(g, 2, axis=(1, 2))
        offset = rng.choice([-1.0, 1.0], len(g)) * np.logspace(-9, 0, len(g)) * norm
        passed = linalg.positive_definite(g, lam + offset)
        np.testing.assert_array_equal(passed, offset < 0)
        assert 0.4 < passed.mean() < 0.6

    @pytest.mark.parametrize("d", range(2, 11))
    def test_never_passes_below_the_shift(self, d):
        # integer B gives B B^dag exactly, so lambda_min is exactly 0 below
        # rank d, and exactly m after adding m I
        rng = np.random.default_rng(20 + d)
        for rank in range(1, d):
            b = (rng.integers(-3, 4, size=(400, d, rank))
                 + 1j * rng.integers(-3, 4, size=(400, d, rank)))
            singular = b @ np.conj(b.transpose(0, 2, 1))
            for m in (0.0, 1.0, 64.0):
                g = singular + m * np.eye(d)
                norm = np.linalg.norm(g, 2, axis=(1, 2))
                for t in (1e-14, 1e-12, 1e-6):
                    assert not linalg.positive_definite(g, m + t * norm).any()
                assert linalg.positive_definite(g, m - 1e-6 * (norm + 1.0)).all()

    def test_no_warning_at_zero_or_negative_pivots(self):
        stack = np.array([np.zeros((3, 3)), -np.eye(3), np.eye(3),
                          [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
                          [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
                          [[1, 2, 0], [2, 1, 0], [0, 0, -1]],
                          [[-1, 2, 3], [2, 3, 1], [3, 1, 4]]], dtype=complex)
        tiny = np.array([[[1e-300, 1e10], [1e10, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passed = linalg.positive_definite(stack, np.zeros(len(stack)))
            shifted = linalg.positive_definite(stack, np.full(len(stack), -2.0))
            overflowed = linalg.positive_definite(tiny, np.zeros(1))
            unbounded = linalg.positive_definite(stack, np.full(len(stack), np.inf))
        np.testing.assert_array_equal(passed, np.linalg.eigvalsh(stack)[:, 0] > 0)
        np.testing.assert_array_equal(shifted, np.linalg.eigvalsh(stack)[:, 0] > -2.0)
        assert 0 < shifted.sum() < len(stack)
        assert not overflowed.any()
        assert not unbounded.any()


@st.composite
def psd_and_shift(draw):
    """A stack of hermitian PSD matrices B B^dag and a shift per matrix,
    drawn near each least eigenvalue.  Entries are 0 or of magnitude 1e-3
    to 100, so that nothing underflows."""
    n, d, rank = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.just(0.0) | st.floats(1e-3, 100.0) | st.floats(-100.0, -1e-3)
    b = draw(arrays(float, (n, d, rank), elements=entries))
    b = b + 1j * draw(arrays(float, (n, d, rank), elements=entries))
    g = b @ np.conj(b.transpose(0, 2, 1))
    lam = np.linalg.eigvalsh(g)[:, 0]
    norm = np.linalg.norm(g, 2, axis=(1, 2))
    steps = st.sampled_from([0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-10, -1e-10]) | st.floats(-1.0, 1.0)
    t = np.array([draw(steps) for _ in range(n)])
    return g, lam + t * norm


@settings(max_examples=300, deadline=None, derandomize=True)
@given(psd_and_shift())
def test_a_pass_bounds_the_least_eigenvalue(case):
    g, shift = case
    passed = linalg.positive_definite(g, shift)
    lam = np.linalg.eigvalsh(g)[:, 0]
    assert np.all(lam[passed] > shift[passed] - ldl_margin(g, shift)[passed])


class TestSvdRank:
    def test_matches_rank_of(self):
        rng = np.random.default_rng(44)
        for r in range(5):
            g = random_complex(4, r, rng) if r else np.zeros((4, 1))
            m = g @ g.conj().T
            assert linalg.svd(m).rank == r


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(47)
    u = linalg.haar_unitary(6, rng)
    assert linalg.frob(u.conj().T @ u - np.eye(6)) <= 1e-12
