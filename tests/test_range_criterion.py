"""Tests for the product-vector range search."""

import numpy as np
import pytest

from spptkit import linalg, range_criterion
from spptkit.errors import NotPsd
from spptkit.range_criterion import (
    ProductVector,
    edge_check,
    kernel_basis,
    product_vectors_in_range,
)
from spptkit.separability import (
    ENTANGLED_RANGE,
    PPT_UNDECIDED,
    classify,
    subtract_product_vectors,
)
from spptkit.states import (
    entangled_sppt_2x5,
    horodecki_2x4,
    make_state,
    maximally_mixed,
    partial_transpose_matrix,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
)


def product_state(e, f):
    e = np.asarray(e, dtype=complex) / np.linalg.norm(e)
    f = np.asarray(f, dtype=complex) / np.linalg.norm(f)
    rho = np.kron(np.outer(e, e.conj()), np.outer(f, f.conj()))
    return make_state(len(f), rho, normalized=True), e, f


class TestKernelBasis:
    def test_full_rank_empty(self):
        assert kernel_basis(np.eye(4)).shape == (0, 4)

    def test_diagonal(self):
        basis = kernel_basis(np.diag([1.0, 1.0, 0.0]))
        assert basis.shape == (1, 3)
        np.testing.assert_allclose(np.abs(basis[0]), [0, 0, 1])

    def test_family_kernel_dimension(self):
        # eigenvalue-count oracle: the assembled family state has rank 5,
        # so the kernel of the 10 x 10 matrix has dimension 5
        s = entangled_sppt_2x5(0.5).state
        w = np.linalg.eigvalsh(s.rho)
        assert int((w > 1e-10 * w.max()).sum()) == 5
        assert kernel_basis(s.rho).shape == (5, 10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            kernel_basis(np.diag([1.0, -1.0]))


class TestProductVectorsInRange:
    def test_full_rank_state_trivial(self):
        vs = product_vectors_in_range(maximally_mixed(3))
        assert len(vs) >= 1
        assert all(v.combined_residual <= 1e-12 for v in vs)

    def test_pure_product_recovery(self):
        rng = np.random.default_rng(0)
        e0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        f0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        s, e0, f0 = product_state(e0, f0)
        vs = product_vectors_in_range(s)
        assert vs, "no product vector found for a pure product state"
        best = vs[0]
        assert best.combined_residual <= 1e-10
        assert abs(abs(np.vdot(best.e, e0)) - 1.0) <= 1e-6
        assert abs(abs(np.vdot(best.f, f0)) - 1.0) <= 1e-6

    def test_counterexample_2x3_has_qualifying_vector(self):
        vs = product_vectors_in_range(sppt_counterexample_2x3())
        assert vs
        assert vs[0].residual_range <= 1e-8
        assert vs[0].residual_pt_range <= 1e-8

    def test_residuals_replay(self):
        # recompute the residuals from scratch using kernel projectors
        s, _ = random_separable(4, n_terms=5, seed=1)
        vs = product_vectors_in_range(s)
        for pv in vs[:3]:
            for mat, e in ((s.rho, pv.e), (partial_transpose_matrix(s.rho, s.d),
                                           np.conj(pv.e))):
                basis = kernel_basis(mat)  # rows are kernel vectors w
                # projector onto span{w} is sum of w w^dag
                proj = basis.T @ basis.conj() if len(basis) else np.zeros_like(mat)
                resid = np.linalg.norm(proj @ np.kron(e, pv.f))
                recorded = (pv.residual_range if mat is s.rho
                            else pv.residual_pt_range)
                assert abs(resid - recorded) <= 1e-9


class TestEdgeCheck:
    def test_pure_product_found(self):
        s, _, _ = product_state([1.0, 0.3 - 0.2j], [0.5, 1.0, -0.25j])
        cert = edge_check(s)
        assert cert.conclusion == "FoundProductVector"
        assert cert.found[0].combined_residual <= 1e-8

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_family_none_found(self, b):
        cert = edge_check(entangled_sppt_2x5(b).state)
        assert cert.conclusion == "NoneFound"
        assert cert.worst_min_residual > cert.exclusion_threshold

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_horodecki_core_none_found(self, b):
        cert = edge_check(horodecki_2x4(b))
        assert cert.conclusion == "NoneFound"
        assert cert.worst_min_residual > 1e-2  # comfortably above threshold

    def test_separable_mixtures_found(self):
        for seed in range(8):
            s, _ = random_separable(4, seed=seed)
            cert = edge_check(s)
            assert cert.conclusion == "FoundProductVector", seed
            best = cert.found[0]
            assert best.residual_range <= 1e-8 and best.residual_pt_range <= 1e-8

    def test_conclusion_invariant_under_local_unitary(self):
        from spptkit.states import local_qudit_transform

        rng = np.random.default_rng(7)
        s = horodecki_2x4(0.5)
        for _ in range(3):
            u = linalg.haar_unitary(4, rng)
            cert = edge_check(local_qudit_transform(s, u))
            assert cert.conclusion == "NoneFound"
        sep, _ = random_separable(4, n_terms=3, seed=2)
        for _ in range(3):
            u = linalg.haar_unitary(4, rng)
            cert = edge_check(local_qudit_transform(sep, u))
            assert cert.conclusion == "FoundProductVector"

    def test_certificate_fields(self):
        cert = edge_check(maximally_mixed(2))
        assert cert.conclusion == "FoundProductVector"
        assert cert.search["kernel_dims"] == [0, 0]
        assert "search certificate" in cert.note


def assert_mu_at_least(s, e, bound):
    """mu(e) >= bound at every unit qubit vector e (n, 2).

    M(e)^dag M(e) is a sum of d x d Gram blocks of the kernel vectors
    weighted by e and e*; its smallest eigenvalue is mu(e)^2, so the claim
    holds when M(e)^dag M(e) - bound^2 is positive definite, which a
    Cholesky factorization tests (it raises otherwise).
    """
    d = s.d
    grams = []
    for mat in (s.rho, partial_transpose_matrix(s.rho, d)):
        w = np.conj(kernel_basis(mat).reshape(-1, 2, d))
        grams.append(np.einsum("mai,mbj->abij", np.conj(w), w).reshape(4, -1))
    for i in range(0, len(e), 50000):
        x = e[i:i + 50000]
        c = (np.conj(x)[:, :, None] * x[:, None, :]).reshape(-1, 4)
        g = (c @ grams[0] + np.conj(c) @ grams[1]).reshape(-1, d, d)
        np.linalg.cholesky(g - bound ** 2 * np.eye(d))


def mu_svd(s, e):
    """mu at unit qubit vectors e (n, 2) by SVD of M(e): the state's kernel
    rows contracted with e, the partial transpose's with e*."""
    d = s.d
    w, w_pt = (np.conj(kernel_basis(m).reshape(-1, 2, d))
               for m in (s.rho, partial_transpose_matrix(s.rho, d)))
    m = np.concatenate([np.einsum("na,mad->nmd", e, w),
                        np.einsum("na,mad->nmd", np.conj(e), w_pt)], axis=1)
    return np.linalg.svd(m, compute_uv=False)[:, d - 1]


def random_qubits(n, rng):
    e = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def rotated(s, u, v):
    """(u (x) v) rho (u (x) v)^dag."""
    w = np.kron(u, v)
    return make_state(s.d, w @ s.rho @ w.conj().T)


class TestCertifiedBound:
    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.2), horodecki_2x4(0.5), horodecki_2x4(0.95),
        random_sppt(5, 4, normal_s=False, seed=1)[0],
        random_sppt(8, 7, normal_s=False, seed=1)[0],
    ], ids=["horodecki-0.2", "horodecki-0.5", "horodecki-0.95",
            "random_sppt-5", "random_sppt-8"])
    def test_dense_sampling_never_below_bound(self, state):
        cert = edge_check(state)
        assert cert.conclusion == "NoneFound"
        assert cert.certified_bound > cert.exclusion_threshold
        assert cert.worst_min_residual >= cert.certified_bound
        rng = np.random.default_rng(0)
        theta = (np.arange(360) + 0.5) * np.pi / 360
        phi = np.arange(720) * 2 * np.pi / 720
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        grid = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)], axis=-1)
        for e in (random_qubits(100_000, rng), grid.reshape(-1, 2)):
            assert_mu_at_least(state, e, cert.certified_bound)

    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.5), random_separable(4, 5, seed=0)[0],
        random_sppt(6, 5, normal_s=False, seed=1)[0],
    ], ids=["horodecki", "separable", "random_sppt"])
    def test_lipschitz_constant(self, state):
        lip = edge_check(state).search["lipschitz"]
        rng = np.random.default_rng(1)
        e1 = random_qubits(4000, rng)
        # pairs at every separation, down to 1e-6
        step = random_qubits(4000, rng) * np.logspace(-6, 0, 4000)[:, None]
        e2 = e1 + step
        e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
        # min over phi of ||e1 - e^{i phi} e2|| = sqrt(2 - 2 |<e1, e2>|)
        overlap = np.minimum(np.abs(np.sum(np.conj(e1) * e2, axis=1)), 1.0)
        dist = np.sqrt(2.0 - 2.0 * overlap)
        gap = np.abs(mu_svd(state, e1) - mu_svd(state, e2))
        assert np.all(gap <= lip * dist + 1e-12)

    def test_polish_converges_onto_a_term(self):
        state, terms = random_separable(4, 5, seed=0)
        con = range_criterion._constraints_of(state, range_criterion.KERNEL_CUTOFF)
        rng = np.random.default_rng(2)
        for _, e, _ in terms:
            perp = np.array([-np.conj(e[1]), np.conj(e[0])])
            # Bloch angle 1e-2 from the term: |t| = tan(1e-2 / 2)
            start = e + np.tan(5e-3) * np.exp(2j * np.pi * rng.uniform()) * perp
            start /= np.linalg.norm(start)
            f0, mu0 = range_criterion._null_vector(con, start)
            assert mu0 > 1e-4
            e_pol, f_pol, mu = range_criterion._polish(con, start, f0)
            assert mu <= 1e-12
            assert abs(abs(np.vdot(e_pol, e)) - 1.0) <= 1e-9
            pv = range_criterion._product_vector_at(state, con, e_pol, f_pol)
            assert pv.combined_residual <= 1e-12

    def test_flat_landscape_ends_below_the_cap(self, monkeypatch):
        # after two subtractions from random_separable(4, 7, seed=0) mu stays
        # below 0.15 on the whole sphere; the search must still exclude or
        # drop every cell on its own, so a higher cap changes nothing
        cap = range_criterion.EVALUATION_CAP
        monkeypatch.setattr(range_criterion, "EVALUATION_CAP", 10 * cap)
        state, _ = random_separable(4, 7, seed=0)
        remainder = subtract_product_vectors(state, budget=2).remainder
        certs = []
        search = range_criterion._search

        def recording(*args):
            certs.append(search(*args))
            return certs[-1]

        monkeypatch.setattr(range_criterion, "_search", recording)
        found = product_vectors_in_range(remainder)
        assert found
        assert certs[0].search["evaluations"] < cap

    def test_inconclusive_at_the_evaluation_cap(self, monkeypatch):
        monkeypatch.setattr(range_criterion, "EVALUATION_CAP", 200)
        state = horodecki_2x4(0.5)
        cert = edge_check(state)
        assert cert.conclusion == "Inconclusive"
        assert not cert.found
        assert cert.certified_bound <= cert.exclusion_threshold
        verdict = classify(state)
        assert verdict.classification != ENTANGLED_RANGE
        assert verdict.classification == PPT_UNDECIDED

    def test_conclusions_invariant_under_both_local_unitaries(self):
        rng = np.random.default_rng(11)
        entangled = horodecki_2x4(0.5)
        separable, _ = random_separable(4, n_terms=3, seed=2)
        for _ in range(3):
            u, v = linalg.haar_unitary(2, rng), linalg.haar_unitary(4, rng)
            assert abs(u[0, 1]) > 0.1          # the qubit rotation moves the poles
            cert = edge_check(rotated(entangled, u, v))
            assert cert.conclusion == "NoneFound"
            assert cert.certified_bound > cert.exclusion_threshold
            cert = edge_check(rotated(separable, u, v))
            assert cert.conclusion == "FoundProductVector"
            assert cert.found[0].combined_residual <= 1e-8


def haversine_angle(theta, d_theta, d_phi):
    """Bloch angle between (theta, phi) and (theta + d_theta, phi + d_phi)."""
    hav = (np.sin(d_theta / 2) ** 2
           + np.sin(theta) * np.sin(theta + d_theta) * np.sin(d_phi / 2) ** 2)
    return 2 * np.arcsin(np.sqrt(hav))


class TestCellRadius:
    @pytest.mark.parametrize("h", [np.pi / 16, 1e-3, 5e-10],
                             ids=["first-level", "1e-3", "1e-9-wide"])
    def test_dense_sampling_within_radius(self, h):
        rng = np.random.default_rng(4)
        # random cells, and the cells touching each pole
        theta = np.concatenate([rng.uniform(h, np.pi - h, 300), [h, np.pi - h]])
        radius = range_criterion._cell_radius(theta, h, h)
        assert np.all(radius > 0)
        corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        offsets = np.vstack([corners, rng.uniform(-1.0, 1.0, size=(2000, 2))]) * h
        angles = haversine_angle(theta[:, None], offsets[None, :, 0], offsets[None, :, 1])
        assert np.all(angles <= radius[:, None])
        # the haversine angles are the Bloch angles of the qubit vectors
        if h >= 1e-3:
            phi = rng.uniform(0.0, 2 * np.pi, len(theta))
            e = range_criterion._bloch(theta, phi)
            for j in range(0, len(offsets), 100):
                other = range_criterion._bloch(theta + offsets[j, 0], phi + offsets[j, 1])
                overlap = np.minimum(np.abs(np.sum(np.conj(e) * other, axis=1)), 1.0)
                np.testing.assert_allclose(2 * np.arccos(overlap), angles[:, j], atol=1e-7)


class TestGramLowerBound:
    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.5), random_separable(4, 5, seed=0)[0],
        random_sppt(6, 5, normal_s=False, seed=1)[0],
    ], ids=["horodecki", "separable", "random_sppt"])
    def test_random_directions(self, state):
        con = range_criterion._constraints_of(state, range_criterion.KERNEL_CUTOFF)
        e = random_qubits(20_000, np.random.default_rng(5))
        lower, mu = range_criterion._mu_batch(con, e), mu_svd(state, e)
        assert np.all(lower <= mu)
        assert np.all(lower ** 2 >= mu ** 2 - 2 * con.margin)

    def test_near_singular_directions(self):
        # mu vanishes at the qubit vector of each term; steps of 1e-10 to 1
        # from it give mu from about 1e-10 to 1
        state, terms = random_separable(4, 5, seed=0)
        con = range_criterion._constraints_of(state, range_criterion.KERNEL_CUTOFF)
        rng = np.random.default_rng(6)
        steps = np.logspace(-10, 0, 2000)
        for _, e0, _ in terms:
            perp = np.array([-np.conj(e0[1]), np.conj(e0[0])])
            phase = np.exp(2j * np.pi * rng.uniform(size=len(steps)))
            e = e0[None, :] + (steps * phase)[:, None] * perp[None, :]
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            lower, mu = range_criterion._mu_batch(con, e), mu_svd(state, e)
            assert mu.min() < 1e-9 and mu.max() > 0.1
            assert np.all(lower <= mu)
            assert np.all(lower ** 2 >= mu ** 2 - 2 * con.margin)
