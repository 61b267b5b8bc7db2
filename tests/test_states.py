"""Tests for the state model and generators."""

import numpy as np
import pytest

from spptkit import linalg, states
from spptkit.errors import (
    BadDimensions,
    BadParameter,
    NotHermitian,
    NotPsd,
    SingularTransform,
    ValidationError,
)
from spptkit.separability import SEPARABLE, classify
from spptkit.sppt import SpptFactors, assemble_state, sppt_residual
from spptkit.states import (
    BlockView,
    blocks,
    entangled_sppt_2x5,
    horodecki_2x4,
    join_blocks,
    local_qudit_transform,
    make_state,
    maximally_mixed,
    partial_transpose,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)

from helpers import pt_witness_gram


class TestMakeState:
    def test_maximally_mixed_validates(self):
        for d in (1, 2, 5):
            s = make_state(d, np.eye(2 * d) / (2 * d), normalized=True)
            assert s.d == d and s.normalized

    def test_nan_entry_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            make_state(2, m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(BadDimensions):
            make_state(3, np.eye(4))

    @pytest.mark.parametrize("d, entries", [(2.0, np.eye(4) / 4), (True, np.eye(2) / 2)])
    def test_dimension_that_is_no_integer_rejected(self, d, entries):
        with pytest.raises(BadDimensions, match="integer"):
            make_state(d, entries)

    def test_numpy_integer_dimension_accepted(self):
        s = make_state(np.int64(2), np.eye(4) / 4)
        assert s.d == 2 and type(s.d) is int

    def test_negative_rejected(self):
        with pytest.raises(NotPsd):
            make_state(1, np.diag([1.0, -0.5]))

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            make_state(2, m)

    def test_psd_gate_at_1e9_of_the_norm(self):
        # Least eigenvalue -x ||rho||_F: accepted at x = 0.5e-9, NotPsd at 2e-9.
        u = linalg.haar_unitary(4, np.random.default_rng(5))
        for x, accepted in ((0.5e-9, True), (2e-9, False)):
            eps = x * np.sqrt(3.0 / (1.0 - x * x))
            rho = linalg.hermitianize((u * [1.0, 1.0, 1.0, -eps]) @ u.conj().T)
            assert np.isclose(linalg.min_eig(rho), -x * linalg.frob(rho), rtol=1e-3)
            if accepted:
                make_state(2, rho)
            else:
                with pytest.raises(NotPsd):
                    make_state(2, rho)

    def test_norm_overflow_rejected(self):
        # not hermitian, and its hermitian part has eigenvalue -2.2e160; its
        # Frobenius norm overflows, and against an infinite norm every
        # relative check would pass
        rho = np.array([[3, 5, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) * 1e160
        assert linalg.min_eig(rho) < -2e160
        with pytest.raises(ValidationError, match=r"norm overflows at largest entry 5\.000e\+160"):
            make_state(2, rho)

    def test_norm_underflow_rejected_for_its_scale(self):
        # a valid state scaled by 1e-170: its Frobenius norm underflows to
        # 0, and the rejection names the scale rather than a negative
        # eigenvalue of rounding
        rho = random_separable(5, 7, seed=0)[0].rho * 1e-170
        with pytest.raises(ValidationError,
                           match=r"norm underflows to 0 at largest entry \d\.\d{3}e-171") as exc:
            make_state(5, rho)
        assert not isinstance(exc.value, NotPsd)

    def test_norm_with_subnormal_squares_rejected(self):
        # scaled by 1e-160 the state's squared entries are subnormal and its
        # norm, 4.8e-161, is below sqrt(tiny); classify would read it
        # PptUndecided with no error
        rho = random_separable(5, 7, seed=0)[0].rho
        with pytest.raises(ValidationError,
                           match=r"norm \d\.\d{3}e-161 is below 1\.492e-154, .* at largest "
                                 r"entry \d\.\d{3}e-161; rescale the state"):
            make_state(5, rho * 1e-160)
        state = make_state(5, rho * 1e-150)
        assert classify(state).classification == SEPARABLE

    def test_family_state_unnormalized_is_valid(self):
        state = entangled_sppt_2x5(0.5).state
        rebuilt = make_state(5, state.rho, normalized=False)
        assert rebuilt.d == 5

    def test_rho_is_readonly(self):
        s = maximally_mixed(2)
        with pytest.raises(ValueError):
            s.rho[0, 0] = 9.0

    @pytest.mark.parametrize("d", [0, True, -1, 2.5])
    def test_maximally_mixed_rejects_a_bad_dimension(self, d):
        with pytest.raises(BadDimensions):
            maximally_mixed(d)


class TestBlocks:
    def test_maximally_mixed_blocks(self):
        a, b, c = blocks(maximally_mixed(3))
        np.testing.assert_allclose(a, np.eye(3) / 6)
        np.testing.assert_allclose(c, np.eye(3) / 6)
        np.testing.assert_allclose(b, np.zeros((3, 3)))

    def test_counterexample_blocks_exact(self):
        a, b, c = blocks(sppt_counterexample_2x3())
        np.testing.assert_array_equal(a.real, [[3, 0, 0], [0, 4, 2], [0, 2, 3]])
        np.testing.assert_array_equal(b.real, [[0, 0, 0], [0, 0, 1], [1, -1, 0]])
        np.testing.assert_array_equal(c.real, [[2, 1, -1], [1, 6, 1], [-1, 1, 3]])

    def test_family_a_block(self):
        a, _, _ = blocks(entangled_sppt_2x5(0.3).state)
        np.testing.assert_allclose(a, np.diag([1.0, 1, 1, 1, 0]), atol=1e-15)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        s = make_state(4, g @ g.conj().T)
        assert np.array_equal(join_blocks(*blocks(s)), s.rho)


class TestPartialTranspose:
    def test_diagonal_state_unchanged(self):
        s = make_state(2, np.diag([0.1, 0.2, 0.3, 0.4]), normalized=True)
        assert np.array_equal(partial_transpose(s).rho, s.rho)

    def test_bell_state_min_eigenvalue(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)  # (|00> + |11>)/sqrt(2)
        s = make_state(2, np.outer(psi, psi.conj()), normalized=True)
        w = np.linalg.eigvalsh(partial_transpose(s).rho)
        assert abs(w.min() + 0.5) < 1e-12

    def test_family_is_ppt(self):
        s = entangled_sppt_2x5(0.5).state
        w = np.linalg.eigvalsh(partial_transpose(s).rho)
        assert w.min() >= -1e-10 * s.norm()

    def test_involution_exact(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        s = make_state(5, g @ g.conj().T)
        assert np.array_equal(partial_transpose(partial_transpose(s)).rho, s.rho)

    def test_preserves_trace_and_hermiticity(self):
        s = sppt_counterexample_2x4()
        pt = partial_transpose(s)
        assert pt.trace() == s.trace()
        assert linalg.frob(pt.rho - pt.rho.conj().T) == 0.0

    def test_pt_witness_gram_matches_pt(self):
        # For factors satisfying the strong-PPT condition, the partial
        # transpose of X^dag X equals Y^dag Y with the adjoint coupling.
        rng = np.random.default_rng(3)
        for trial in range(20):
            d = int(rng.integers(2, 6))
            _, factors = random_sppt(d, rank=int(rng.integers(1, d + 1)),
                                     normal_s=True, seed=trial, with_tail=True)
            s = assemble_state(factors)
            pt = partial_transpose(s).rho
            assert linalg.frob(pt - pt_witness_gram(factors)) <= 1e-10 * s.norm()


class TestSpectra:
    def test_cached_read_only_spectra(self):
        s = sppt_counterexample_2x3()
        assert s.eig is s.eig and s.pt_eig is s.pt_eig
        for eig, m in ((s.eig, s.rho), (s.pt_eig, partial_transpose(s).rho)):
            np.testing.assert_allclose(eig.values, np.linalg.eigvalsh(m), atol=1e-12)
            assert not eig.values.flags.writeable and not eig.vectors.flags.writeable

    def test_npt_rule_reads_the_partial_transpose_spectrum(self):
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        s = make_state(2, bell)
        assert states.is_npt(s) is True and s.pt_eig.values[0] == pytest.approx(-0.5)
        assert states.is_npt(maximally_mixed(3)) is False


class TestLocalQuditTransform:
    def test_identity(self):
        s = sppt_counterexample_2x3()
        out = local_qudit_transform(s, np.eye(3))
        np.testing.assert_allclose(out.rho, s.rho, atol=1e-15)

    def test_unitary_preserves_spectrum(self):
        rng = np.random.default_rng(4)
        s = sppt_counterexample_2x3()
        u = linalg.haar_unitary(3, rng)
        out = local_qudit_transform(s, u)
        np.testing.assert_allclose(np.linalg.eigvalsh(out.rho),
                                   np.linalg.eigvalsh(s.rho), atol=1e-12)

    def test_diagonal_on_maximally_mixed(self):
        d = 4
        v = np.diag([2.0] + [1.0] * (d - 1))
        out = local_qudit_transform(maximally_mixed(d), v)
        a, _, _ = blocks(out)
        np.testing.assert_allclose(a, np.diag([4.0] + [1.0] * (d - 1)) / (2 * d),
                                   atol=1e-15)

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            local_qudit_transform(maximally_mixed(3), np.diag([1.0, 1.0, 0.0]))


class TestCounterexamples:
    def test_2x3_psd_and_ppt(self):
        s = sppt_counterexample_2x3()
        assert np.linalg.eigvalsh(s.rho).min() > 0
        assert np.linalg.eigvalsh(partial_transpose(s).rho).min() > 0

    def test_2x3_trace(self):
        assert sppt_counterexample_2x3().trace() == 21.0

    def test_2x4_psd_and_ppt(self):
        s = sppt_counterexample_2x4()
        assert np.linalg.eigvalsh(s.rho).min() >= -1e-12
        assert np.linalg.eigvalsh(partial_transpose(s).rho).min() >= -1e-12

    def test_2x4_fourth_level(self):
        a, _, c = blocks(sppt_counterexample_2x4())
        assert a[3, 3] == 1.0 and c[3, 3] == 0.0

    def test_2x4_trace(self):
        assert sppt_counterexample_2x4().trace() == 22.0


class TestEntangledFamily:
    def test_gamma_values_at_half(self):
        inst = entangled_sppt_2x5(0.5)
        assert abs(inst.meta["gamma1"] - 1.5) < 1e-15
        assert abs(inst.meta["gamma2"] - np.sqrt(3) / 2) < 1e-15

    def test_gamma2_is_beta_product(self):
        for b in (0.2, 0.5, 0.8):
            inst = entangled_sppt_2x5(b)
            assert abs(inst.meta["gamma2"] - inst.meta["beta1"] * inst.meta["beta2"]) < 1e-14
            assert abs(inst.meta["gamma2"] - np.sqrt(1 - b * b) / (2 * b)) < 1e-14

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_matches_closed_form_matrix(self, b):
        inst = entangled_sppt_2x5(b)
        g1 = (1 + b) / (2 * b)
        g2 = np.sqrt(1 - b * b) / (2 * b)
        shift = np.zeros((5, 5))
        shift[0, 1] = shift[1, 2] = shift[2, 3] = 1.0
        c = np.zeros((5, 5))
        c[0, 0] = c[3, 3] = g1
        c[0, 3] = c[3, 0] = g2
        c[1, 1] = c[2, 2] = 1.0
        expected = join_blocks(np.diag([1.0, 1, 1, 1, 0]).astype(complex),
                               shift.astype(complex), c.astype(complex))
        np.testing.assert_allclose(inst.state.rho, expected, atol=1e-14)

    def test_residual_of_factors(self):
        for b in (0.1, 0.45, 0.9):
            f = entangled_sppt_2x5(b).factors
            assert sppt_residual(f.x1, f.s) <= 1e-12

    def test_rank_of_x1(self):
        f = entangled_sppt_2x5(0.5).factors
        assert linalg.svd(f.x1.conj().T @ f.x1).rank == 4

    def test_rejects_endpoints(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(BadParameter):
                entangled_sppt_2x5(bad)


class TestHorodecki2x4:
    def test_closed_form_entries(self):
        s = horodecki_2x4(0.5)
        a, b, c = blocks(s)
        np.testing.assert_allclose(a, np.eye(4), atol=1e-15)
        assert abs(c[0, 0] - 1.5) < 1e-15
        assert abs(c[0, 3] - np.sqrt(3) / 2) < 1e-15

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_ppt(self, b):
        s = horodecki_2x4(b)
        assert np.linalg.eigvalsh(s.rho).min() >= -1e-12 * s.norm()
        assert np.linalg.eigvalsh(partial_transpose(s).rho).min() >= -1e-12 * s.norm()

    def test_rejects_endpoints(self):
        with pytest.raises(BadParameter):
            horodecki_2x4(1.0)


class TestRandomSppt:
    def test_normal_s_residual(self):
        state, f = random_sppt(4, rank=4, normal_s=True, seed=5)
        assert sppt_residual(f.x1, f.s) <= 1e-10 * state.norm()

    def test_prescribed_rank(self):
        _, f = random_sppt(5, rank=4, normal_s=True, seed=6)
        assert linalg.svd(f.x1.conj().T @ f.x1).rank == 4

    def test_deterministic(self):
        s1, _ = random_sppt(4, rank=3, normal_s=False, seed=7)
        s2, _ = random_sppt(4, rank=3, normal_s=False, seed=7)
        assert np.array_equal(s1.rho, s2.rho)

    def test_non_normal_construction_residual(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            d = int(rng.integers(2, 6))
            rank = int(rng.integers(1, d))
            state, f = random_sppt(d, rank=rank, normal_s=False, seed=100 + trial)
            assert sppt_residual(f.x1, f.s) <= 1e-10 * max(state.norm(), 1.0)

    def test_with_tail_full_rank(self):
        state, f = random_sppt(4, rank=4, normal_s=True, seed=9, with_tail=True)
        assert linalg.svd(state.rho).rank == 8

    def test_bad_rank_rejected(self):
        with pytest.raises(BadParameter):
            random_sppt(3, rank=4)

    def test_negative_seed_rejected(self):
        with pytest.raises(BadParameter, match="seed"):
            random_sppt(4, rank=4, seed=-1)

    @pytest.mark.parametrize("args, kwargs, error, match", [
        ((True, 1), {}, BadDimensions, "dimension"),
        ((4.0, 2), {}, BadDimensions, "dimension"),
        ((0, 1), {}, BadDimensions, "dimension"),
        ((4, 2.0), {}, BadParameter, "rank"),
        ((4, True), {}, BadParameter, "rank"),
        ((4, 2), {"seed": 1.5}, BadParameter, "seed"),
        ((4, 2), {"seed": True}, BadParameter, "seed"),
        ((4, 2), {"seed": np.True_}, BadParameter, "seed"),
    ], ids=["bool-d", "float-d", "zero-d", "float-rank", "bool-rank", "float-seed",
            "bool-seed", "numpy-bool-seed"])
    def test_non_integer_arguments_rejected(self, args, kwargs, error, match):
        # rejected as make_state rejects a dimension, not by numpy or Python
        with pytest.raises(error, match=match):
            random_sppt(*args, **kwargs)

    def test_numpy_integers_accepted(self):
        state, _ = random_sppt(np.int64(4), np.int32(2), seed=np.uint8(3))
        assert state.d == 4 and type(state.d) is int
        assert np.array_equal(state.rho, random_sppt(4, 2, seed=3)[0].rho)


class TestRandomSeparable:
    def test_normalized_and_reconstructs(self):
        state, terms = random_separable(4, n_terms=5, seed=10)
        assert abs(state.trace() - 1.0) < 1e-12
        total = np.zeros((8, 8), dtype=complex)
        for w, e, f in terms:
            total += w * np.kron(np.outer(e, e.conj()), np.outer(f, f.conj()))
        np.testing.assert_allclose(total, state.rho, atol=1e-14)

    @pytest.mark.parametrize("n_terms", [None, 3])
    def test_negative_seed_rejected(self, n_terms):
        # rejected before n_terms is drawn, not by numpy's generator
        with pytest.raises(BadParameter, match="seed"):
            random_separable(4, n_terms=n_terms, seed=-1)

    @pytest.mark.parametrize("args", [(0, 2), (0,), (-1, 2), (4.0, 3), (True, 2)])
    def test_bad_dimension_rejected(self, args):
        # rejected as make_state rejects it, not by numpy or as a 0 x 0 state
        with pytest.raises(BadDimensions, match="dimension"):
            random_separable(*args)

    @pytest.mark.parametrize("args, kwargs, match", [
        ((4, 2.5), {}, "n_terms"),
        ((4, True), {}, "n_terms"),
        ((4, 0), {}, "term"),
        ((4, 3), {"seed": 1.5}, "seed"),
        ((4, 3), {"seed": True}, "seed"),
        ((4,), {"seed": 2.0}, "seed"),
    ], ids=["float-terms", "bool-terms", "no-terms", "float-seed", "bool-seed",
            "float-seed-drawn-terms"])
    def test_bad_parameter_rejected(self, args, kwargs, match):
        with pytest.raises(BadParameter, match=match):
            random_separable(*args, **kwargs)

    def test_numpy_integers_accepted(self):
        state, terms = random_separable(np.int64(4), np.int32(3), seed=np.uint8(2))
        assert state.d == 4 and type(state.d) is int and len(terms) == 3
        assert np.array_equal(state.rho, random_separable(4, 3, seed=2)[0].rho)

    def test_ppt(self):
        state, _ = random_separable(5, n_terms=7, seed=11)
        assert np.linalg.eigvalsh(partial_transpose(state).rho).min() >= -1e-12
