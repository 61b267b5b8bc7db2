"""Tests for factor assembly, residuals, canonical factors, and the SPPT check."""

import numpy as np
import pytest

from spptkit import linalg, sppt
from spptkit.errors import DimensionMismatch
from spptkit.sppt import (
    SpptFactors,
    assemble_state,
    sppt_check,
    sppt_residual,
)
from spptkit.states import (
    blocks,
    entangled_sppt_2x5,
    horodecki_2x4,
    local_qudit_transform,
    make_state,
    maximally_mixed,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)

from helpers import ill_conditioned_sppt

# residual matrix of the 2x3 counterexample: b^dag a^-1 b - b a^-1 b^dag,
# computed by hand via a^-1 = (1/24) [[8,0,0],[0,9,-6],[0,-6,12]]
RESIDUAL_2X3 = np.array([[6.0, -6.0, -3.0], [-6.0, 0.0, 0.0], [-3.0, 0.0, -4.0]]) / 12.0


class TestAssemble:
    def test_identity_factors(self):
        f = SpptFactors(np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                        np.zeros((2, 2), dtype=complex))
        s = assemble_state(f)
        expected = np.kron(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
        # [[I, I], [I, I]] reordered to qubit-first blocks
        np.testing.assert_allclose(s.rho, expected, atol=1e-15)

    def test_zero_x1(self):
        rng = np.random.default_rng(0)
        x2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        f = SpptFactors(np.zeros((3, 3), dtype=complex),
                        rng.normal(size=(3, 3)).astype(complex), x2)
        s = assemble_state(f)
        expected = np.zeros((6, 6), dtype=complex)
        expected[3:, 3:] = x2.conj().T @ x2
        np.testing.assert_allclose(s.rho, expected, atol=1e-14)

    def test_family_matrix(self):
        inst = entangled_sppt_2x5(0.5)
        rebuilt = assemble_state(inst.factors)
        np.testing.assert_allclose(rebuilt.rho, inst.state.rho, atol=1e-15)

    def test_always_psd(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            d = int(rng.integers(2, 6))
            mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    for _ in range(3)]
            s = assemble_state(SpptFactors(*mats))
            assert np.linalg.eigvalsh(s.rho).min() >= -1e-12 * s.norm()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SpptFactors(np.eye(2), np.eye(3), np.eye(2))


class TestResidual:
    def test_identity_is_zero(self):
        assert sppt_residual(np.eye(2), np.eye(2)) == 0.0

    def test_nilpotent_shift(self):
        # s^dag s - s s^dag = diag(-1, 1) by hand, Frobenius norm sqrt(2)
        s = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert abs(sppt_residual(np.eye(2), s) - np.sqrt(2)) < 1e-14

    def test_family_residual_tiny(self):
        for b in (0.05, 0.3, 0.6, 0.95):
            f = entangled_sppt_2x5(b).factors
            assert sppt_residual(f.x1, f.s) <= 1e-12

    def test_rejects_unequal_sizes(self):
        with pytest.raises(DimensionMismatch):
            sppt_residual(np.eye(2), np.eye(3))


class TestFullRankFactors:
    """sppt_check's canonical factors of a strong-PPT state with invertible a."""

    def test_maximally_mixed(self):
        v = sppt_check(maximally_mixed(3))
        assert v.status == "Sppt"
        f = v.factors
        np.testing.assert_allclose(f.x1, np.eye(3) / np.sqrt(6), atol=1e-14)
        np.testing.assert_allclose(f.s, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(f.x2, np.eye(3) / np.sqrt(6), atol=1e-14)

    def test_product_state_gives_scalar_s(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        tau = g @ g.conj().T
        sigma = np.array([[2.0, 0.7 + 0.1j], [0.7 - 0.1j, 1.0]])
        rho = np.kron(sigma, tau)
        s = make_state(4, rho)
        v = sppt_check(s)
        assert v.status == "Sppt"
        ratio = sigma[0, 1] / sigma[0, 0]
        np.testing.assert_allclose(v.factors.s, ratio * np.eye(4), atol=1e-10)


class TestSpptCheck:
    def test_counterexample_2x3_residual_matrix(self):
        v = sppt_check(sppt_counterexample_2x3())
        assert v.status == "NotSppt"
        np.testing.assert_allclose(v.residual_matrix, RESIDUAL_2X3, atol=1e-12)
        assert abs(v.residual - np.sqrt(142.0) / 12.0) < 1e-12

    def test_counterexample_2x4(self):
        v = sppt_check(sppt_counterexample_2x4())
        assert v.status == "NotSppt"

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_family_is_sppt_with_factors(self, b):
        inst = entangled_sppt_2x5(b)
        v = sppt_check(inst.state)
        assert v.status == "Sppt"
        assert v.factors is not None
        assert sppt_residual(v.factors.x1, v.factors.s) <= 1e-9 * inst.state.norm()
        rebuilt = assemble_state(v.factors)
        assert linalg.frob(rebuilt.rho - inst.state.rho) <= 1e-8 * inst.state.norm()

    def test_horodecki_core_not_sppt(self):
        v = sppt_check(horodecki_2x4(0.5))
        assert v.status == "NotSppt"

    def test_npt_state_undecided(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = make_state(2, np.outer(psi, psi.conj()), normalized=True)
        v = sppt_check(bell)
        assert v.status == "Undecided" and "NPT" in v.note

    def test_full_rank_sppt_instances(self):
        for seed in range(10):
            state, _ = random_sppt(4, rank=4, normal_s=True, seed=seed,
                                   with_tail=True)
            v = sppt_check(state)
            assert v.status == "Sppt" and v.factors is not None

    def test_rank_deficient_instances_recovered(self):
        rng = np.random.default_rng(3)
        for seed in range(40):
            d = int(rng.choice([4, 5]))
            rank = int(rng.integers(1, 4))
            state, _ = random_sppt(d, rank=rank, normal_s=False, seed=1000 + seed)
            v = sppt_check(state)
            assert v.status == "Sppt", (d, rank, seed, v.note)
            rebuilt = assemble_state(v.factors)
            assert linalg.frob(rebuilt.rho - state.rho) <= 1e-8 * state.norm()

    def test_zero_a_block(self):
        # rho = |1><1| (x) tau factors as x1 = s = 0, x2 = tau^(1/2): the
        # kernel-coupling search's rank-0 case
        rng = np.random.default_rng(17)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        tau = g @ g.conj().T
        rho = np.zeros((8, 8), dtype=complex)
        rho[4:, 4:] = tau
        v = sppt_check(make_state(4, rho))
        assert v.status == "Sppt" and "rank 0" in v.note
        assert v.residual == 0.0
        f = v.factors
        assert not f.x1.any() and not f.s.any() and f.x1_svd.rank == 0
        assert linalg.frob(f.x2 - f.x2.conj().T) <= 1e-12 * linalg.frob(f.x2)
        assert linalg.frob(f.x2 @ f.x2 - tau) <= 1e-12 * linalg.frob(tau)
        rebuilt = assemble_state(v.factors)
        assert linalg.frob(rebuilt.rho - rho) <= 1e-9 * linalg.frob(rho)

    def test_b_outside_the_support_of_a_is_undecided(self):
        # strong-PPT by construction (s is normal), but a's eigenvalue 1e-14
        # is under linalg.RANK_CUTOFF, so a counts as singular and b's
        # content on that level stays outside its support
        f = SpptFactors(np.diag([1.0, 1e-7]), np.array([[0.3, 1.0], [1.0, -0.2]]),
                        np.zeros((2, 2)))
        assert f.sppt_residual == 0.0
        v = sppt_check(assemble_state(f))
        assert v.status == "Undecided"
        assert v.note.startswith("b-block has content outside the support of a")
        assert np.isclose(v.residual, np.sqrt(2) * 1e-7, rtol=1e-6)

    def test_separable_mixture_not_sppt_or_undecided(self):
        # generic mixtures fail the exact criterion; the check must not
        # claim Sppt without a replayable factorization
        state, _ = random_separable(4, n_terms=8, seed=4)
        v = sppt_check(state)
        if v.status == "Sppt":
            rebuilt = assemble_state(v.factors)
            assert linalg.frob(rebuilt.rho - state.rho) <= 1e-8 * state.norm()

    def test_cor1_residual_equals_canonical_factor_residual(self):
        # For invertible a the closed-form residual equals the residual of
        # the canonical factors x1 = a^{1/2}, s = a^{-1/2} b a^{-1/2}.
        for seed in range(5):
            state, _ = random_separable(3, n_terms=9, seed=50 + seed)
            v = sppt_check(state)
            a, b, _ = blocks(state)
            w, u = np.linalg.eigh(a)
            x1 = (u * np.sqrt(w)) @ u.conj().T
            a_mhalf = (u / np.sqrt(w)) @ u.conj().T
            assert abs(v.residual - sppt_residual(x1, a_mhalf @ b @ a_mhalf)) <= 1e-9


    @pytest.mark.parametrize("d, rank, normal_s", [
        (5, 5, True), (5, 3, True), (6, 2, False), (4, 1, False), (6, 4, False)])
    def test_seeded_svd_and_cached_residual(self, monkeypatch, d, rank, normal_s):
        # the factors carry x1's SVD, read off the eigendecomposition of a
        # (u = v, exact zeros on ker a), and the residual that accepted them
        state, _ = random_sppt(d, rank, normal_s=normal_s, seed=4, with_tail=True)
        monkeypatch.setattr(np.linalg, "svd", None)
        f = sppt_check(state).factors
        u, sigma, v = f.x1_svd
        assert u is v
        assert np.all(np.diff(sigma) <= 0) and np.count_nonzero(sigma) == rank
        assert f.x1_svd.rank == rank
        assert linalg.frob(u.conj().T @ u - np.eye(d)) <= 1e-12
        assert linalg.frob((u * sigma) @ v.conj().T - f.x1) <= 1e-12 * linalg.frob(f.x1)
        monkeypatch.undo()
        np.testing.assert_allclose(f.x1_svd.sigma, linalg.svd(f.x1).sigma,
                                   atol=1e-12 * sigma[0])
        assert f.sppt_residual == sppt_residual(f.x1, f.s)


def _rounding_scale(state):
    """cond(a) eps ||rho||_F, the scale of the NotSppt gate's rounding bound."""
    values = state.a_eig.values
    return values[-1] / values[0] * np.finfo(float).eps * state.norm()


class TestNotSpptGate:
    """NotSppt only where the residual clears the rounding bound
    ``_ROUNDING`` d cond(a) eps ||rho||_F of forming it."""

    def test_constant(self):
        assert sppt._ROUNDING == 16

    def test_ill_conditioned_sppt_is_undecided(self):
        # strong-PPT by construction, cond(a) 1e8 to 1e12: the residual is
        # rounding, under 0.8 of the scale here, so 80 times under the bound;
        # pinned at 40 times, as other hardware rounds differently
        for seed in range(130):
            state = ill_conditioned_sppt(seed)
            v = sppt_check(state)
            assert v.status == "Undecided", seed
            assert "cond(a)" in v.note and v.residual_matrix is not None
            assert v.residual > 1e-9 * state.norm()
            assert v.residual <= sppt._ROUNDING * state.d * _rounding_scale(state) / 40

    @pytest.mark.parametrize("state", [horodecki_2x4(0.5), sppt_counterexample_2x4()],
                             ids=["horodecki_2x4(0.5)", "rho2"])
    def test_genuine_residuals_are_not_sppt(self, state):
        v = sppt_check(state)
        assert v.status == "NotSppt"
        assert v.residual >= 1e10 * sppt._ROUNDING * state.d * _rounding_scale(state)


class TestVerdictInvariance:
    def test_status_invariant_under_local_transform(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            if seed % 2 == 0:
                state, _ = random_sppt(4, rank=4, normal_s=True, seed=seed,
                                       with_tail=True)
            else:
                state, _ = random_separable(4, n_terms=10, seed=seed)
            base = sppt_check(state).status
            for _ in range(3):
                v = linalg.haar_unitary(4, rng) @ np.diag(rng.uniform(0.5, 2.0, 4))
                assert sppt_check(local_qudit_transform(state, v)).status == base
