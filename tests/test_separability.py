"""Tests for decompositions, reduction, lifting, subtraction, and classify."""

import numpy as np
import pytest

from spptkit import linalg, separability
from spptkit.errors import (
    InvalidDecomposition,
    NotNormal,
    NotSppt,
    SingularX1,
    ValidationError,
)
from spptkit.separability import (
    ENTANGLED_NPT,
    ENTANGLED_RANGE,
    PPT_UNDECIDED,
    SEPARABLE,
    SEPARABLE_BY_THEOREM,
    TOL_FLOOR,
    SeparableDecomposition,
    _max_subtraction_weight,
    classify,
    decompose_full_rank,
    decompose_small,
    lift_decomposition,
    subtract_product_vectors,
    svd_reduce,
)
from spptkit.range_criterion import kernel_basis
from spptkit.sppt import SpptFactors, assemble_state, sppt_check
from spptkit.states import (
    blocks,
    entangled_sppt_2x5,
    horodecki_2x4,
    make_state,
    maximally_mixed,
    partial_transpose_matrix,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)



def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return make_state(2, np.outer(psi, psi.conj()), normalized=True)


class TestDecomposeFullRank:
    def test_two_level_example(self):
        f = SpptFactors(np.eye(2, dtype=complex), np.diag([1.0, 1j]),
                        np.zeros((2, 2), dtype=complex))
        dec = decompose_full_rank(f)
        assert len(dec.terms) == 3  # d + 1 including the zero tail
        # terms are sorted by eigenvalue (real part first): 1j before 1.0
        qubits = [q for q, _ in dec.terms]
        np.testing.assert_allclose(qubits[0], [[1, 1j], [-1j, 1]], atol=1e-12)
        np.testing.assert_allclose(qubits[1], [[1, 1], [1, 1]], atol=1e-12)
        qudits = [p for _, p in dec.terms]
        np.testing.assert_allclose(qudits[0], np.diag([0.0, 1]), atol=1e-12)
        np.testing.assert_allclose(qudits[1], np.diag([1.0, 0]), atol=1e-12)

    def test_identity_factors(self):
        d = 3
        f = SpptFactors(np.eye(d, dtype=complex), np.eye(d, dtype=complex),
                        np.zeros((d, d), dtype=complex))
        dec = decompose_full_rank(f)
        total = dec.reconstruct()
        np.testing.assert_allclose(
            total, np.kron(np.array([[1, 1], [1, 1]]), np.eye(d)), atol=1e-12)

    def test_random_normal_factors(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            state, f = random_sppt(4, rank=4, normal_s=True, seed=seed,
                                   with_tail=(seed % 2 == 0))
            dec = decompose_full_rank(f)
            assert len(dec.terms) == 5
            assert dec.reconstruction_residual(state.rho) <= 1e-10 * state.norm()
            assert dec.min_factor_eig() >= -1e-10

    def test_rejects_singular_x1(self):
        f = entangled_sppt_2x5(0.5).factors
        with pytest.raises(SingularX1):
            decompose_full_rank(f)

    def test_rejects_non_normal_s(self):
        s = np.zeros((2, 2), dtype=complex)
        s[0, 1] = 1.0
        f = SpptFactors(np.eye(2, dtype=complex), s, np.zeros((2, 2), dtype=complex))
        with pytest.raises(NotNormal):
            decompose_full_rank(f)


class TestSvdReduce:
    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_family_reduces_to_horodecki_core(self, b):
        f = entangled_sppt_2x5(b).factors
        r = svd_reduce(f)
        assert r.k == 4
        np.testing.assert_allclose(r.reduced.rho, horodecki_2x4(b).rho, atol=1e-12)

    def test_full_rank_keeps_dimension(self):
        state, f = random_sppt(4, rank=4, normal_s=True, seed=1, with_tail=True)
        r = svd_reduce(f)
        assert r.k == 4
        # the core is the v-conjugate of the state minus its tail
        a, b, c = blocks(state)
        lifted = np.kron(np.eye(2), r.v) @ r.reduced.rho @ np.kron(np.eye(2), r.v).conj().T
        tailed = state.rho.copy()
        tailed[4:, 4:] -= r.tail
        assert linalg.frob(lifted - tailed) <= 1e-9 * state.norm()

    def test_zero_x1(self):
        rng = np.random.default_rng(2)
        x2 = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        f = SpptFactors(np.zeros((3, 3), dtype=complex),
                        rng.normal(size=(3, 3)).astype(complex), x2)
        r = svd_reduce(f)
        assert r.k == 0 and r.reduced is None
        np.testing.assert_allclose(r.tail, x2.conj().T @ x2, atol=1e-13)

    def test_core_is_ppt_for_random_instances(self):
        from spptkit.states import partial_transpose_matrix

        for seed in range(20):
            d = 4 + seed % 2
            rank = 1 + seed % (d - 1)
            state, f = random_sppt(d, rank=rank, normal_s=(seed % 3 == 0),
                                   seed=seed)
            r = svd_reduce(f)
            if r.reduced is None:
                continue
            w = np.linalg.eigvalsh(partial_transpose_matrix(r.reduced.rho, r.k))
            assert w.min() >= -1e-10 * max(r.reduced.norm(), 1.0)

    def test_rejects_non_sppt_factors(self):
        s = np.zeros((3, 3), dtype=complex)
        s[0, 1] = 1.0
        f = SpptFactors(np.eye(3, dtype=complex), s, np.zeros((3, 3), dtype=complex))
        with pytest.raises(NotSppt):
            svd_reduce(f)


class TestLift:
    def test_identity_reduction(self):
        state, f = random_sppt(4, rank=4, normal_s=True, seed=3, with_tail=True)
        r = svd_reduce(f)
        core_dec = decompose_full_rank(
            SpptFactors(r.dk.astype(complex), r.s11,
                        np.zeros((r.k, r.k), dtype=complex)))
        lifted = lift_decomposition(r, core_dec)
        assert lifted.reconstruction_residual(state.rho) <= 1e-9 * state.norm()

    def test_zero_rank_lift(self):
        rng = np.random.default_rng(4)
        x2 = rng.normal(size=(3, 3)).astype(complex)
        f = SpptFactors(np.zeros((3, 3), dtype=complex),
                        np.zeros((3, 3), dtype=complex), x2)
        r = svd_reduce(f)
        lifted = lift_decomposition(r, None)
        assert len(lifted.terms) == 1
        state = assemble_state(f)
        assert lifted.reconstruction_residual(state.rho) <= 1e-12

    def test_end_to_end_rank3_d5(self):
        from spptkit.separability import decompose_small

        for seed in (5, 6, 7):
            state, f = random_sppt(5, rank=3, normal_s=False, seed=seed)
            r = svd_reduce(f)
            core_dec = decompose_small(r.reduced)
            lifted = lift_decomposition(r, core_dec)
            assert lifted.reconstruction_residual(state.rho) <= 1e-9 * state.norm()
            assert lifted.min_factor_eig() >= -1e-10 * state.norm()


class TestSubtraction:
    def test_pure_product_one_step(self):
        e = np.array([1.0, 1.0]) / np.sqrt(2)
        f = np.array([0.0, 1.0, 0.0], dtype=complex)
        rho = np.kron(np.outer(e, e), np.outer(f, f.conj()))
        s = make_state(3, rho, normalized=True)
        res = subtract_product_vectors(s)
        assert res.status in ("decomposed", "small_support")
        if res.status == "decomposed":
            assert res.remainder.norm() <= 1e-9
            assert len(res.terms.terms) == 1

    def test_counterexample_2x4_terminates_soundly(self):
        res = subtract_product_vectors(sppt_counterexample_2x4())
        assert res.status in ("decomposed", "small_support", "sppt_core")

    def test_entangled_family_makes_no_false_claim(self):
        res = subtract_product_vectors(entangled_sppt_2x5(0.5).state,
                                       budget=3)
        assert res.status in ("stalled", "budget_exhausted")

    def test_full_support_2x3_does_not_exit_by_dimension_at_once(self):
        # the small-support exit needs fewer than d levels: a full-support
        # 2 x 3 remainder is not reduced to itself
        state, _ = random_separable(3, 6, seed=0)
        assert linalg.rank_of(state.rho[:3, :3] + state.rho[3:, 3:]) == 3
        res = subtract_product_vectors(state)
        assert not (res.status == "small_support" and res.iterations == 0)


def _small_inputs():
    """PPT 2 x 2 and 2 x 3 states of every family decompose_small meets."""
    for d in (2, 3):
        for n in (1, 2, 4, 6):
            yield pytest.param(random_separable(d, n, seed=n)[0],
                               id=f"random_separable({d},{n})")
        for k in range(1, d + 1):
            for normal in ((True,) if k == d else (True, False)):
                for tail in (False, True):
                    yield pytest.param(
                        random_sppt(d, k, normal_s=normal, seed=k, with_tail=tail)[0],
                        id=f"random_sppt({d},{k},normal_s={normal},tail={tail})")
    for d in (4, 5, 6):
        for k in (1, 2, 3):
            f = random_sppt(d, k, normal_s=False, seed=d + k)[1]
            yield pytest.param(svd_reduce(f).reduced, id=f"core of random_sppt({d},{k})")
    yield pytest.param(sppt_counterexample_2x3(), id="rho1")


class TestDecomposeSmall:
    @pytest.mark.parametrize("state", list(_small_inputs()))
    def test_decomposition_validates(self, state):
        dec = decompose_small(state)
        dec.validate(state.rho, tol=TOL_FLOOR)
        assert dec.min_factor_eig() >= -1e-10 * state.norm()

    def test_strong_ppt_exit_uses_the_router(self, monkeypatch):
        calls = []
        router = separability._classify_sppt

        def spy(*args):
            calls.append(args)
            return router(*args)

        monkeypatch.setattr(separability, "_classify_sppt", spy)
        state = random_sppt(3, 2, seed=3)[0]
        decompose_small(state).validate(state.rho, tol=TOL_FLOOR)
        assert calls


class TestSubtractionWeight:
    """The closed-form weight 1 / <v|rho^+|v>, bounded by the partial transpose."""

    @staticmethod
    def _min_eigs(rho, pt, e, f, lam):
        v, v_pt = np.kron(e, f), np.kron(np.conj(e), f)
        return (np.linalg.eigvalsh(rho - lam * np.outer(v, v.conj())).min(),
                np.linalg.eigvalsh(pt - lam * np.outer(v_pt, v_pt.conj())).min())

    def test_weight_is_maximal_for_in_range_terms(self):
        state, terms = random_separable(4, 6, seed=2)
        rho = state.rho
        pt = partial_transpose_matrix(rho, 4)
        floor = -1e-12 * linalg.frob(rho)
        for weight, e, f in terms:
            lam = _max_subtraction_weight(rho, pt, e, f)
            # subtracting the term's own weight leaves a separable state
            assert lam >= weight * (1 - 1e-9)
            assert min(self._min_eigs(rho, pt, e, f, lam)) >= floor
            assert min(self._min_eigs(rho, pt, e, f, lam * (1 + 1e-6))) < floor

    def test_vector_outside_range_gets_zero(self):
        state, _ = random_separable(4, 6, seed=2)
        rho = state.rho
        rng = np.random.default_rng(0)
        e = np.array([1.0, 0.0], dtype=complex)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        f /= np.linalg.norm(f)
        outside = np.linalg.norm(kernel_basis(rho).conj() @ np.kron(e, f))
        assert outside > 1e-3
        pt = partial_transpose_matrix(rho, 4)
        assert _max_subtraction_weight(rho, pt, e, f) == 0.0


class TestValidate:
    @pytest.mark.parametrize("t", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_negative_factor_raises_at_every_scale(self, t):
        # a factor's least eigenvalue is judged against that factor's norm,
        # so -1e-6 of it fails beside a unit qubit projector at any scale
        qudit = t * np.diag([1.0, 0.5, 0.25, 0.0]).astype(complex)
        qudit[3, 3] = -1e-6 * linalg.frob(qudit)
        dec = SeparableDecomposition(terms=[
            (np.diag([1.0, 0.0]).astype(complex), t * np.eye(4, dtype=complex)),
            (np.diag([0.0, 1.0]).astype(complex), qudit)])
        with pytest.raises(InvalidDecomposition, match="not PSD"):
            dec.validate(dec.reconstruct(), tol=1e-8)


class TestClassify:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_tol_rejected(self, tol):
        state = random_separable(4, 3, seed=1)[0]
        for check in (classify, sppt_check):
            with pytest.raises(ValidationError):
                check(state, tol=tol)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            classify(sppt_counterexample_2x4(), budget=-3)

    def test_bell_state_npt(self):
        v = classify(bell_state())
        assert v.classification == ENTANGLED_NPT
        assert abs(v.certificate.min_eigenvalue + 0.5) < 1e-12

    def test_counterexample_2x3_by_theorem(self):
        v = classify(sppt_counterexample_2x3())
        assert v.classification == SEPARABLE_BY_THEOREM
        assert v.certificate.k == 3

    def test_maximally_mixed_2x4_constructive(self):
        v = classify(maximally_mixed(4))
        assert v.classification == SEPARABLE
        assert v.certificate.reconstruction_residual(maximally_mixed(4).rho) <= 1e-10

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_family_entangled_range(self, b):
        v = classify(entangled_sppt_2x5(b).state)
        assert v.classification == ENTANGLED_RANGE

    def test_horodecki_core_entangled_range(self):
        v = classify(horodecki_2x4(0.5))
        assert v.classification == ENTANGLED_RANGE

    def test_counterexample_2x4_separable_class(self):
        v = classify(sppt_counterexample_2x4())
        assert v.classification in (SEPARABLE, SEPARABLE_BY_THEOREM)
        assert not v.is_entangled_class

    def test_random_full_rank_sppt_separable(self):
        for seed in range(10):
            state, _ = random_sppt(4, rank=4, normal_s=True, seed=seed,
                                   with_tail=True)
            v = classify(state)
            assert v.classification == SEPARABLE
            assert v.certificate.reconstruction_residual(state.rho) <= 1e-9 * state.norm()

    def test_random_low_rank_sppt_separable(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            d = int(rng.choice([4, 5]))
            rank = int(rng.integers(1, 4))
            state, _ = random_sppt(d, rank=rank, normal_s=False, seed=200 + seed)
            v = classify(state)
            assert v.classification == SEPARABLE_BY_THEOREM, (d, rank, seed)
            assert v.certificate.k == rank

    @pytest.mark.parametrize("rank", [6, 3])
    def test_x1_factored_once(self, monkeypatch, rank):
        # the rank gate and the spectral construction or the reduction share
        # one SVD of x1, the only 6 x 6 SVD on these routes
        state, _ = random_sppt(6, rank=rank, seed=2)
        shapes = []
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert classify(state).is_separable_class
        assert shapes.count((6, 6)) == 1

    def test_separable_mixtures_not_entangled(self):
        for seed in range(5):
            state, _ = random_separable(4, seed=seed)
            v = classify(state)
            assert not v.is_entangled_class, seed

    def test_decomposition_rescaled_to_input(self):
        # classify works in the input's units on every route: t * rho gets
        # the verdict of rho, a decomposition sums to t * rho and an NPT
        # eigenvalue is one of the partial transpose of t * rho
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[5] = 1 / np.sqrt(2)
        routes = {
            "full rank": (random_sppt(4, 4, normal_s=True, seed=30, with_tail=True)[0],
                          SEPARABLE),
            "k <= 3": (random_sppt(5, 2, seed=30)[0], SEPARABLE_BY_THEOREM),
            "reduction chain": (entangled_sppt_2x5(0.5).state, ENTANGLED_RANGE),
            "2x4 core lift": (random_sppt(5, 4, normal_s=True, seed=5)[0], SEPARABLE),
            "subtraction sppt_core": (random_separable(5, 6, seed=0)[0], SEPARABLE),
            "npt": (make_state(4, np.outer(psi, psi.conj())), ENTANGLED_NPT),
            "d <= 3": (sppt_counterexample_2x3(), SEPARABLE_BY_THEOREM),
        }
        for route, (state, expected) in routes.items():
            for t in (1e-12, 1e-6, 1.0, 7.0, 1e6, 1e12):
                raw = make_state(state.d, t * state.rho)
                v = classify(raw)
                assert v.classification == expected, (route, t)
                if isinstance(v.certificate, SeparableDecomposition):
                    v.certificate.validate(raw.rho, tol=1e-8)
                if v.classification == ENTANGLED_NPT:
                    least = np.linalg.eigvalsh(partial_transpose_matrix(raw.rho, raw.d))[0]
                    assert abs(v.certificate.min_eigenvalue - least) <= 1e-10 * abs(least)

    def test_verdict_stability_under_tolerance_perturbation(self):
        fixed = [sppt_counterexample_2x3(), sppt_counterexample_2x4(),
                 entangled_sppt_2x5(0.5).state]
        for s in fixed:
            base = classify(s, tol=1e-9).classification
            for eps in (1e-9 * (1 - 1e-8), 1e-9 * (1 + 1e-8)):
                assert classify(s, tol=eps).classification == base

    @pytest.mark.parametrize("seed", [3, 39])
    def test_lifted_core_decomposition_validates(self, seed):
        # the 2x4 core's decomposition lifts with a miss of ~1e-9, above the
        # 1e-9 floor it was once validated at and below the 1e-8 used elsewhere
        state, _ = random_sppt(5, 4, normal_s=True, seed=seed)
        v = classify(state)
        assert v.classification == SEPARABLE
        v.certificate.validate(state.rho, tol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_core_with_tail_lifts(self, seed):
        # four product terms with a |0> component give x1 rank 4, two on
        # qubit |1> a tail, so the 2x4 core has less trace than the state:
        # its decomposition lifts as it is, with no rescaling by either trace
        rng = np.random.default_rng(seed)
        rho = np.zeros((10, 10), dtype=complex)
        for i in range(6):
            e = rng.normal(size=2) + 1j * rng.normal(size=2) if i < 4 else np.array([0, 1])
            f = rng.normal(size=5) + 1j * rng.normal(size=5)
            v = np.kron(e / np.linalg.norm(e), f / np.linalg.norm(f))
            rho += np.outer(v, v.conj())
        state = make_state(5, rho)
        v = classify(state)
        assert v.classification == SEPARABLE
        assert any("classifying the reduced 2x4 core" in line for line in v.trace_log)
        v.certificate.validate(state.rho, tol=1e-8)

    def test_trace_log_populated(self):
        v = classify(sppt_counterexample_2x3())
        assert any("PPT" in line for line in v.trace_log)
