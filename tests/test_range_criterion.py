"""Tests for the product-vector range search."""

import dataclasses
import decimal
from unittest import mock

import numpy as np
import pytest

from spptkit import linalg, range_criterion, separability, sphere
from spptkit.errors import NotPsd
from spptkit.range_criterion import ProductVector, edge_check
from spptkit.separability import (
    ENTANGLED_RANGE,
    PPT_UNDECIDED,
    SEPARABLE,
    SEPARABLE_BY_THEOREM,
    classify,
    subtract_product_vectors,
    svd_reduce,
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

from helpers import cell_offsets, ill_conditioned_sppt, kernel_of


def enumeration(state):
    """The subtraction prover's enumeration of ``state``: its vectors and
    its work record."""
    con = range_criterion._constraints_of(state, range_criterion.ENUMERATION_KERNEL_CUTOFF)
    return range_criterion._enumerate(state, con)


def product_state(e, f):
    e = np.asarray(e, dtype=complex) / np.linalg.norm(e)
    f = np.asarray(f, dtype=complex) / np.linalg.norm(f)
    rho = np.kron(np.outer(e, e.conj()), np.outer(f, f.conj()))
    return make_state(len(f), rho, normalized=True), e, f


class TestKernel:
    def test_full_rank_empty(self):
        assert kernel_of(np.eye(4)).shape == (0, 4)

    def test_diagonal(self):
        basis = kernel_of(np.diag([1.0, 1.0, 0.0]))
        assert basis.shape == (1, 3)
        np.testing.assert_allclose(np.abs(basis[0]), [0, 0, 1])

    def test_family_kernel_dimension(self):
        # eigenvalue-count oracle: the assembled family state has rank 5,
        # so the kernel of the 10 x 10 matrix has dimension 5
        s = entangled_sppt_2x5(0.5).state
        w = np.linalg.eigvalsh(s.rho)
        assert int((w > 1e-10 * w.max()).sum()) == 5
        assert kernel_of(s.rho).shape == (5, 10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            kernel_of(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("cutoff", [range_criterion.KERNEL_CUTOFF,
                                        range_criterion.ENUMERATION_KERNEL_CUTOFF])
    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.5), entangled_sppt_2x5(0.5).state, random_separable(5, 6, seed=0)[0],
    ], ids=["horodecki", "rho0", "random_separable(5,6)"])
    def test_state_constraints_match_the_matrix_kernels(self, state, cutoff):
        # the kernels a state cuts from its cached spectra are those of
        # fresh eigendecompositions of rho and its partial transpose, bit for bit
        pt = partial_transpose_matrix(state.rho, state.d)
        want = range_criterion._constraints(state.d, kernel_of(state.rho, cutoff),
                                            kernel_of(pt, cutoff), cutoff)
        got = range_criterion._constraints_of(state, cutoff)
        assert got.n_rows > 0
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name

    def test_state_constraints_gate_positivity(self):
        # the partial transpose of a Bell state has eigenvalue -1/2
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        with pytest.raises(NotPsd):
            range_criterion._constraints_of(make_state(2, np.outer(psi, psi)),
                                            range_criterion.KERNEL_CUTOFF)


class TestEnumeration:
    def test_full_rank_state_trivial(self):
        vs = enumeration(maximally_mixed(3)).found
        assert len(vs) >= 1
        assert all(v.combined_residual <= 1e-12 for v in vs)

    def test_pure_product_recovery(self):
        rng = np.random.default_rng(0)
        e0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        f0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        s, e0, f0 = product_state(e0, f0)
        vs = enumeration(s).found
        assert vs, "no product vector found for a pure product state"
        best = vs[0]
        assert best.combined_residual <= 1e-10
        assert abs(abs(np.vdot(best.e, e0)) - 1.0) <= 1e-6
        assert abs(abs(np.vdot(best.f, f0)) - 1.0) <= 1e-6

    def test_counterexample_2x3_has_qualifying_vector(self):
        vs = enumeration(sppt_counterexample_2x3()).found
        assert vs
        assert vs[0].residual_range <= 1e-8
        assert vs[0].residual_pt_range <= 1e-8

    def test_residuals_replay(self):
        # recompute the residuals from scratch using kernel projectors
        s, _ = random_separable(4, n_terms=5, seed=1)
        vs = enumeration(s).found
        for pv in vs[:3]:
            for mat, e in ((s.rho, pv.e), (partial_transpose_matrix(s.rho, s.d),
                                           np.conj(pv.e))):
                basis = kernel_of(mat)  # rows are kernel vectors w
                # projector onto span{w} is sum of w w^dag
                proj = basis.T @ basis.conj() if len(basis) else np.zeros_like(mat)
                resid = np.linalg.norm(proj @ np.kron(e, pv.f))
                recorded = (pv.residual_range if mat is s.rho
                            else pv.residual_pt_range)
                assert abs(resid - recorded) <= 1e-9


class TestRecheck:
    def test_continuum_case_searches_afresh(self):
        # maximally_mixed(3) has no kernel: fewer constraint rows than d is
        # the search's continuum case, which a re-check runs as a fresh search
        s = maximally_mixed(3)
        con = range_criterion._constraints_of(s, range_criterion.ENUMERATION_KERNEL_CUTOFF)
        assert con.n_rows == 0
        fresh = range_criterion._search(s, con, certify=False)
        again = range_criterion._recheck(s, con, fresh)
        assert len(again.found) == len(fresh.found) == 18
        assert not again.exhaustive
        for a, b in zip(again.found, fresh.found):
            assert np.array_equal(a.e, b.e) and np.array_equal(a.f, b.f)

    def test_recheck_re_solves_without_searching(self, monkeypatch):
        # the prover re-checks random_separable(3, 7, seed=2) once: the
        # re-check keeps the directions of the enumeration before it and
        # re-solves only the qudit vectors, with neither the search's cell
        # bounds nor its polish
        recheck, rechecks, inside, forbidden = range_criterion._recheck, [], [], []

        def rechecking(s, con, previous):
            inside.append(True)
            result = recheck(s, con, previous)
            inside.pop()
            rechecks.append((con, previous, result))
            return result

        def watched(name):
            original = getattr(range_criterion, name)

            def call(*args):
                if inside:
                    forbidden.append(name)
                return original(*args)
            return call

        monkeypatch.setattr(range_criterion, "_recheck", rechecking)
        for name in ("_mu_batch", "_polish"):
            monkeypatch.setattr(range_criterion, name, watched(name))
        subtract_product_vectors(random_separable(3, 7, seed=2)[0])
        assert rechecks and forbidden == []
        assert any(result.found for _, _, result in rechecks)
        for con, previous, result in rechecks:
            assert con.n_rows >= con.d
            assert result.exhaustive
            assert result.search["evaluations"] == len(previous.found)
            assert result.search["polishes"] == result.search["first_order_exclusions"] == 0
            directions = {pv.e.tobytes() for pv in previous.found}
            assert all(pv.e.tobytes() in directions for pv in result.found)


class TestEdgeCheck:
    def test_pure_product_found(self):
        s, _, _ = product_state([1.0, 0.3 - 0.2j], [0.5, 1.0, -0.25j])
        cert = edge_check(s)
        assert cert.conclusion == "FoundProductVector"
        assert cert.found[0].combined_residual <= 1e-8

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("theta, phi", [(np.pi / 4, np.pi / 4), (np.pi / 8, np.pi / 2),
                                            (3 * np.pi / 8, 0.0), (0.3, 1.0)])
    def test_pure_product_found_at_a_cell_corner(self, d, theta, phi):
        # For a pure product state mu = sqrt(2) sin(gamma / 2) at Bloch angle
        # gamma from e, tight against L = sqrt(2) near e.  With e at a corner
        # of first-level cells of radius r, mu at their centres, sqrt(2)
        # sin(r / 2), is just below L r / 2, so a smaller L or r would
        # exclude every cell round e.
        e = sphere._bloch(theta, phi)
        f = np.arange(1, d + 1) * np.exp(1j * np.arange(d))
        s, _, _ = product_state(e, f)
        cert = edge_check(s)
        assert cert.conclusion == "FoundProductVector"
        assert abs(abs(np.vdot(cert.found[0].e, e)) - 1.0) <= 1e-9

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
        w = np.conj(kernel_of(mat).reshape(-1, 2, d))
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
    w, w_pt = (np.conj(kernel_of(m).reshape(-1, 2, d))
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
            e_pol, f_pol, mu = range_criterion._polish(con, start, f0, False)
            assert mu <= 1e-12
            assert abs(abs(np.vdot(e_pol, e)) - 1.0) <= 1e-9
            pv = range_criterion._product_vector_at(state, con, e_pol, f_pol)
            assert pv.combined_residual <= 1e-12

    def test_flat_landscape_ends_below_the_cap(self, monkeypatch):
        # after two subtractions from random_separable(4, 7, seed=0) mu stays
        # below 0.15 on the whole sphere; the search must still exclude or
        # drop every cell on its own, so a higher cap changes nothing
        cap = sphere.EVALUATION_CAP
        monkeypatch.setattr(sphere, "EVALUATION_CAP", 10 * cap)
        result = enumeration(flat_remainder())
        assert result.found
        assert result.search["evaluations"] < cap

    def test_inconclusive_at_the_evaluation_cap(self, monkeypatch):
        # the cap is half of what the uncapped search spends to conclude
        # over more than one level, so the capped one stops at a level
        # whose successor would pass the cap
        state = horodecki_2x4(0.5)
        uncapped = edge_check(state)
        assert uncapped.conclusion == "NoneFound" and uncapped.search["levels"] > 1
        monkeypatch.setattr(sphere, "EVALUATION_CAP", uncapped.search["evaluations"] // 2)
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


def flat_remainder():
    """random_separable(4, 7, seed=0) after two subtractions: mu < 0.15
    everywhere.  Taken from the prover's exit tests, which see each
    remainder it builds."""
    state, _ = random_separable(4, 7, seed=0)
    exit_tests, remainders = separability._exit, {}

    def recording(remainder, terms, scale0):
        remainders.setdefault(len(terms), remainder)
        return exit_tests(remainder, terms, scale0)

    with mock.patch.object(separability, "_exit", recording):
        subtract_product_vectors(state)
    return remainders[2]


def symmetric_2x2():
    """Four product vectors spanning only the symmetric subspace: rho has a
    one-dimensional kernel, its partial transpose none."""
    vectors = [np.kron(e, e) for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                        np.array([1.0, 1.0]) / np.sqrt(2),
                                        np.array([1.0, 1j]) / np.sqrt(2))]
    return make_state(2, sum(np.outer(v, v.conj()) for v in vectors) / 4)


class TestEnumerationExclusion:
    """The enumeration settles cells by linalg.positive_definite before any eigensolve."""

    @pytest.mark.parametrize("state", [
        *(random_separable(d, n, seed=0)[0] for d, n in ((5, 6), (4, 7), (5, 7))),
        flat_remainder(),
    ], ids=["separable-5-6", "separable-4-7", "separable-5-7", "flat-remainder"])
    def test_rejecting_every_cell_changes_nothing(self, state, monkeypatch):
        passes = []
        test = linalg.positive_definite

        def counting(stack, shift):
            passes.append(int(test(stack, shift).sum()))
            return test(stack, shift)

        monkeypatch.setattr(linalg, "positive_definite", counting)
        result = enumeration(state)
        found = result.found
        # a kernel with fewer rows than d is not searched
        assert sum(passes) > 0 or result.search["levels"] == 0
        # the enumeration reports no bound: it did not bound every cell
        assert not hasattr(result, "certified_bound")
        assert not hasattr(result, "worst_min_residual")
        monkeypatch.setattr(linalg, "positive_definite",
                            lambda stack, shift: np.zeros(len(stack), dtype=bool))
        solved = enumeration(state)
        every_cell_solved = solved.found
        assert (result.search["evaluations"], result.search["levels"]) == (
            solved.search["evaluations"], solved.search["levels"])
        assert len(found) == len(every_cell_solved)
        for pv, ref in zip(found, every_cell_solved):
            assert np.array_equal(pv.e, ref.e) and np.array_equal(pv.f, ref.f)
            assert (pv.residual_range, pv.residual_pt_range) == (
                ref.residual_range, ref.residual_pt_range)

    def test_one_block_per_level_changes_nothing(self, monkeypatch):
        # the flat remainder's levels reach 5592 cells, several blocks of
        # _SLICE; a block larger than any level must give the same bits
        state = flat_remainder()
        result = enumeration(state)
        monkeypatch.setattr(range_criterion, "_SLICE", 10**6)
        whole = enumeration(state)
        assert (result.search["evaluations"], result.search["levels"]) == (
            whole.search["evaluations"], whole.search["levels"])
        assert_same_vectors(result.found, whole.found)


def assert_same_vectors(found, ref):
    assert len(found) == len(ref)
    for pv, other in zip(found, ref):
        assert np.array_equal(pv.e, other.e) and np.array_equal(pv.f, other.f)
        assert (pv.residual_range, pv.residual_pt_range) == (
            other.residual_range, other.residual_pt_range)


def count_calls(state, monkeypatch):
    """edge_check(state), and its calls in order: ("settled", the cells a
    positive_definite call passed) and ("solved", the cells an eigh call took)."""
    calls = []
    test, solve = linalg.positive_definite, linalg.eigh

    def testing(stack, shift):
        passed = test(stack, shift)
        calls.append(("settled", int(passed.sum())))
        return passed

    def solving(stack):
        calls.append(("solved", len(stack)))
        return solve(stack)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "positive_definite", testing)
        patch.setattr(linalg, "eigh", solving)
        return edge_check(state), calls


def rho0_core():
    """The 2 x 4 core of rho0, the paper's entangled strong-PPT 2 x 5 state."""
    return svd_reduce(entangled_sppt_2x5(0.5).factors).core


class TestCertifiedExclusion:
    """edge_check settles by linalg.positive_definite only cells that change nothing."""

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_settles_cells_after_the_first_level(self, b, monkeypatch):
        cert, calls = count_calls(horodecki_2x4(b), monkeypatch)
        assert cert.conclusion == "NoneFound"
        # the first level has no bound yet, so no LDL pass could settle a
        # cell: it makes none and solves every cell
        assert calls[0] == ("solved", len(sphere._FIRST_LEVEL[0]))
        assert sum(n for kind, n in calls[1:] if kind == "settled") > 0

    @pytest.mark.parametrize("state", [
        *(horodecki_2x4(b) for b in (0.2, 0.5, 0.8)), random_separable(4, 3, seed=2)[0],
    ], ids=["horodecki-0.2", "horodecki-0.5", "horodecki-0.8", "separable-4-3"])
    def test_rejecting_every_cell_changes_nothing(self, state, monkeypatch):
        self.assert_as_if_every_cell_solved(state, monkeypatch)

    @pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
    def test_unpolished_search_keeps_its_least_residual(self, b, monkeypatch):
        # without polishes the least mu seen is a cell's; cells below it
        # must be solved, though they are excluded
        monkeypatch.setattr(sphere, "_POLISH_PER_LEVEL", 0)
        self.assert_as_if_every_cell_solved(horodecki_2x4(b), monkeypatch)

    @staticmethod
    def assert_as_if_every_cell_solved(state, monkeypatch):
        cert = edge_check(state)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "positive_definite",
                          lambda stack, shift: np.zeros(len(stack), dtype=bool))
            solved = edge_check(state)
        # every field, floats by their shortest round-trip repr, so bit for bit
        for f in dataclasses.fields(cert):
            if f.name != "found":
                assert repr(getattr(cert, f.name)) == repr(getattr(solved, f.name)), f.name
        assert_same_vectors(cert.found, solved.found)


BOUND_STATES = [*(pytest.param(horodecki_2x4(b), id=f"horodecki-{b}") for b in (0.2, 0.5, 0.8)),
                pytest.param(rho0_core(), id="rho0-core")]


class TestPolishBudget:
    """A search for one vector polishes at most one cell above the threshold
    per level and stops each polish after a step whose linear model cannot
    halve the residual; polishing excludes no cell, so the bound does not
    depend on it."""

    @pytest.mark.parametrize("state", BOUND_STATES)
    def test_at_most_one_polish_per_level(self, state, monkeypatch):
        levels = []
        bound, polish = range_criterion._mu_batch, range_criterion._polish

        def level(*args):
            levels.append(0)
            return bound(*args)

        def polishing(*args):
            levels[-1] += 1
            return polish(*args)

        monkeypatch.setattr(range_criterion, "_mu_batch", level)
        monkeypatch.setattr(range_criterion, "_polish", polishing)
        cert = edge_check(state)
        assert cert.conclusion == "NoneFound"
        assert cert.search["polishes"] <= cert.search["levels"] == len(levels)
        assert max(levels) == 1

    @pytest.mark.parametrize("state", BOUND_STATES)
    def test_bound_and_evaluations_do_not_depend_on_polishing(self, state, monkeypatch):
        cert = edge_check(state)
        monkeypatch.setattr(sphere, "_POLISH_PER_LEVEL", 0)
        unpolished = edge_check(state)
        assert unpolished.search["polishes"] == 0
        assert np.float64(cert.certified_bound).tobytes() == np.float64(
            unpolished.certified_bound).tobytes()
        assert cert.search["evaluations"] == unpolished.search["evaluations"]

    @pytest.mark.parametrize("state", BOUND_STATES)
    def test_one_step_per_failing_polish(self, state, monkeypatch):
        # every polish of these NoneFound searches fails, and the first step's
        # linear model already tells it: one lstsq call each
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(0)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        cert = edge_check(state)
        assert cert.conclusion == "NoneFound"
        assert len(calls) == cert.search["polishes"] > 0

    @pytest.mark.parametrize("state", BOUND_STATES)
    def test_early_stop_changes_no_bound(self, state, monkeypatch):
        cert = edge_check(state)
        polish = range_criterion._polish
        monkeypatch.setattr(range_criterion, "_polish",
                            lambda con, e, f, certify: polish(con, e, f, False))
        full = edge_check(state)
        assert np.float64(cert.certified_bound).tobytes() == np.float64(
            full.certified_bound).tobytes()
        for key in ("evaluations", "polishes"):
            assert cert.search[key] == full.search[key], key
        assert cert.conclusion == full.conclusion == "NoneFound"
        assert cert.worst_min_residual >= full.worst_min_residual
        assert cert.worst_min_residual >= cert.certified_bound

    def test_first_level_still_finds(self):
        cert = edge_check(random_separable(5, 6, seed=0)[0])
        assert cert.conclusion == "FoundProductVector"
        assert (cert.search["levels"], cert.search["evaluations"],
                cert.search["polishes"]) == (1, 112, 1)

    @pytest.mark.parametrize("d, n, evaluations, polishes", [
        (5, 6, 0, 0), (4, 7, 2150, 13), (5, 7, 112, 1)])
    def test_enumeration_keeps_its_budget(self, d, n, evaluations, polishes):
        # the separable_mix inputs; a search for eight vectors still takes
        # two polishes per level above the threshold (n = d + 1: none, as
        # the range search's vector ends the proof; n = d + 2: only the
        # chain's one range search, a first-level find, as the chain ends it)
        residuals = classify(random_separable(d, n, seed=0)[0]).residuals
        assert (residuals["subtraction_evaluations"], residuals["subtraction_polishes"]) == (
            evaluations, polishes)

    @pytest.mark.parametrize("d, n, seed", [(5, 7, 3), (6, 9, 2)])
    def test_deeper_first_vector_still_separable(self, d, n, seed):
        # one polish per level finds these inputs' first product vector
        # levels later than two did; the verdict does not move
        assert classify(random_separable(d, n, seed=seed)[0]).classification == SEPARABLE


class TestPolishAtADegenerateZero:
    """After a step that does not halve the residual, a polish re-solves f
    at the new e, so it converges at a zero where M(e)'s two least singular
    values are both small."""

    @pytest.mark.parametrize("s2", [1e-6, 1e-7, 1e-8])
    def test_every_start_converges(self, s2):
        # X(c) has the null vector 1_0 and second singular value s2: the
        # linearization alone moves f far along the second direction, and
        # about a quarter of these polishes stalled an order above the zero
        c = sphere._bloch(5 * np.pi / 16, 3 * np.pi / 16)
        perp = np.array([-np.conj(c[1]), np.conj(c[0])])
        rng = np.random.default_rng(21)
        for _ in range(8):
            x_centre = np.zeros((4, 3), dtype=complex)
            x_centre[0, 1], x_centre[1, 2] = s2, 1.0
            con = rows_framed_at(c, x_centre,
                                 rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
            for angle in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
                e = c + 0.002 * np.exp(1j * angle) * perp
                e /= np.linalg.norm(e)
                least = range_criterion._mu_batch(con, e[None, :], 0.0)[2][0]
                assert range_criterion._polish(con, e, least, False)[2] <= 1e-12, angle

    @pytest.mark.parametrize("seed", [6, 12])
    def test_ill_conditioned_sppt_is_decided(self, seed):
        # separable by construction; the prover's remainders have product
        # vectors at such zeros, and a vector polished only to ~1e-8 lets a
        # maximal subtraction overshoot and stall the prover
        assert classify(ill_conditioned_sppt(seed)).classification == SEPARABLE_BY_THEOREM


class TestLipschitz:
    @pytest.mark.parametrize("state, parts", [
        (horodecki_2x4(0.5), 2), (random_separable(4, 5, seed=0)[0], 2),
        (symmetric_2x2(), 1), (maximally_mixed(3), 0),
    ], ids=["horodecki", "separable", "one-part", "full-rank"])
    def test_one_per_non_empty_kernel_part(self, state, parts):
        search = edge_check(state).search
        assert sum(k > 0 for k in search["kernel_dims"]) == parts
        assert abs(search["lipschitz"] - np.sqrt(parts)) <= 1e-12

    @pytest.mark.parametrize("cutoff", [range_criterion.KERNEL_CUTOFF,
                                        range_criterion.ENUMERATION_KERNEL_CUTOFF],
                             ids=["kernel", "enumeration"])
    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.5), random_separable(4, 5, seed=0)[0], symmetric_2x2(), maximally_mixed(3),
    ], ids=["horodecki", "separable", "one-part", "full-rank"])
    def test_bound_is_the_spectral_norm_to_rounding(self, state, cutoff):
        # the Gershgorin bound on the Gram of each part's orthonormal rows
        # is at least the SVD's norm and within 1e-12 of it
        con = range_criterion._constraints_of(state, cutoff)
        exact = np.sqrt(sum(np.linalg.norm(w.reshape(len(w), -1), 2) ** 2
                            for w in (con.w_state, con.w_pt) if len(w)))
        assert exact <= con.lipschitz <= exact * (1.0 + 1e-12)

    def test_bound_holds_for_rows_that_are_not_orthonormal(self):
        rng = np.random.default_rng(31)
        for k, d in [(1, 1), (3, 2), (5, 4), (12, 6)]:
            for scale in (1e-6, 1.0, 1e6):
                rows = [scale * (rng.normal(size=(k, 2, d)) + 1j * rng.normal(size=(k, 2, d)))
                        for _ in range(2)]
                con = dataclasses.replace(framed_constraints(rows[0]), w_pt=rows[1])
                exact = np.sqrt(sum(np.linalg.norm(w.reshape(k, -1), 2) ** 2 for w in rows))
                assert exact <= con.lipschitz


class TestExclusionMargins:
    """_mu_batch settles a vector only where its bound would reach ``above``."""

    @staticmethod
    def constraints(g: np.ndarray, n: int) -> range_criterion._Constraints:
        # G as H_00 and the other blocks zero, so e = (1, 0) gives G exactly;
        # the margins are those of _constraints_of for n kernel rows
        d = len(g)
        gram = np.zeros((4, d * d), dtype=complex)
        gram[0] = g.ravel()
        rounding = float(d * np.finfo(float).eps * n)
        return range_criterion._Constraints(
            d=d, cutoff=range_criterion.KERNEL_CUTOFF,
            w_state=np.zeros((n, 2, d), dtype=complex), w_pt=np.zeros((0, 2, d), dtype=complex),
            gram=gram, margin=16 * rounding, ldl_margin=4 * rounding)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_settled_vectors_reach_above(self, d):
        # lambda_min(G) = above^2 (1 + r) + delta / 2 lies just above the
        # exclusion line yet gives mu_lo = sqrt(lambda - delta) < above: the
        # margins of tau must keep such a G from being settled
        rng = np.random.default_rng(d)
        e = np.array([[1.0, 0.0]], dtype=complex)
        wrong = []
        for n in (d, 2 * d, 4 * d):
            delta = 16 * d * np.finfo(float).eps * n
            for above in (1e-3, 0.1, 1.0):
                for r in (1e-14, 1e-13, 1e-12):
                    for _ in range(4):
                        # trace at most n, as for n unit kernel rows
                        lam = above ** 2 * (1 + r) + delta / 2
                        spread = rng.uniform(size=d) * max(n / d - lam, 0.0)
                        spread[0] = 0.0
                        q = linalg.haar_unitary(d, rng)
                        con = self.constraints((q * (lam + spread)) @ q.conj().T, n)
                        mu = range_criterion._mu_batch(con, e, 0.0, np.array([above]))[0][0]
                        if np.isinf(mu) and range_criterion._mu_batch(con, e, 0.0)[0][0] < above:
                            wrong.append((n, above, r))
                # well above the line, the test settles the vector
                q = linalg.haar_unitary(d, rng)
                con = self.constraints((q * (2 * above ** 2 + 1e-6)) @ q.conj().T, n)
                assert np.isinf(range_criterion._mu_batch(con, e, 0.0, np.array([above]))[0][0])
        assert not wrong, wrong

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_settled_vectors_clear_the_proven_line(self, d):
        # A pass proves lambda_min(G) > above^2 (1 + 1e-12) + 2 delta, the
        # line the eigensolve's margins need.  G = B B^dag + m I with B an
        # integer d x (d - 1) matrix has lambda_min = m exactly, and every
        # entry is exact for m a multiple of 2^-50.  m steps across the three
        # margins of tau below the line and onto the line itself, which for
        # some values of above is a multiple of 2^-50: there G - tau I is
        # B B^dag - delta_LDL I, and without delta_LDL it would be the
        # singular B B^dag, which the LDL^H test's rounding passes for some
        # B at d >= 3.
        rng = np.random.default_rng(30 + d)
        e = np.array([[1.0, 0.0]], dtype=complex)
        n, grid = 4 * d, 2.0 ** -50
        delta = 16 * d * np.finfo(float).eps * n
        ldl = 4 * d * np.finfo(float).eps * n

        def line(above):
            return above ** 2 * (1.0 + 1e-12) + 2.0 * delta

        on_grid = [a for a in np.arange(200, 1000) / 1000 if line(a) % grid == 0.0][:2]
        wrong, settled = [], 0
        for above in [0.3, 1.0, *on_grid]:
            span = above ** 2 * 1e-12 + 2.0 * delta + ldl
            base = np.floor((line(above) - span) / grid) * grid
            sweep = np.linspace(0.0, (span + 2.0 * ldl) / grid, 40).round()
            at = np.round((line(above) - base) / grid) - np.arange(2)
            for m, draws in [*((base + k * grid, 4) for k in sweep),
                             *((base + k * grid, 32) for k in at)]:
                for _ in range(draws):
                    parts = rng.integers(-1, 2, size=(2, d, d - 1))
                    b = parts[0] + 1j * parts[1]
                    con = self.constraints(b @ b.conj().T + m * np.eye(d), n)
                    if np.isinf(range_criterion._mu_batch(con, e, 0.0, np.array([above]))[0][0]):
                        settled += 1
                        if not m > line(above):
                            wrong.append((above, m - line(above)))
        assert len(on_grid) == 2 and settled > 0
        assert not wrong, wrong


class TestGramLowerBound:
    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.5), random_separable(4, 5, seed=0)[0],
        random_sppt(6, 5, normal_s=False, seed=1)[0],
    ], ids=["horodecki", "separable", "random_sppt"])
    def test_random_directions(self, state):
        con = range_criterion._constraints_of(state, range_criterion.KERNEL_CUTOFF)
        e = random_qubits(20_000, np.random.default_rng(5))
        lower, mu = range_criterion._mu_batch(con, e, 0.0)[0], mu_svd(state, e)
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
            lower, mu = range_criterion._mu_batch(con, e, 0.0)[0], mu_svd(state, e)
            assert mu.min() < 1e-9 and mu.max() > 0.1
            assert np.all(lower <= mu)
            assert np.all(lower ** 2 >= mu ** 2 - 2 * con.margin)


def mu_at(con, e):
    """mu at unit qubit vectors e (n, 2), by SVD of the constraint rows."""
    return np.linalg.svd(range_criterion._constraint_rows(con, e), compute_uv=False)[:, con.d - 1]


def level_half_widths(level):
    """Half-widths (theta, phi) of the search's cells at a level, 1 the first."""
    n_theta, n_phi = sphere._INITIAL_CELLS
    scale = 2.0 ** (level - 1)
    return np.pi / (2 * n_theta * scale), np.pi / (n_phi * scale)


def cell_minima(con, theta, phi, h_theta, h_phi, rng, points=600):
    """The least mu at ``points`` points of each cell (``cell_offsets``)."""
    offsets = cell_offsets(rng, points)
    e = sphere._bloch(theta[:, None] + h_theta * offsets[None, :, 0],
                               phi[:, None] + h_phi * offsets[None, :, 1])
    return mu_at(con, e.reshape(-1, 2)).reshape(len(theta), points).min(axis=1)


def cells_near_the_minimum(con, level, rng, count=8):
    """Centres of ``count`` cells of a level: the half of least mu among 500
    drawn from the level's grid, and random ones."""
    h_theta, h_phi = level_half_widths(level)
    i = rng.integers(0, round(np.pi / (2 * h_theta)), 500)
    j = rng.integers(0, round(np.pi / h_phi), 500)
    theta, phi = (2 * i + 1) * h_theta, (2 * j + 1) * h_phi
    mu = mu_at(con, sphere._bloch(theta, phi))
    pick = np.concatenate([np.argsort(mu)[:count // 2],
                           rng.choice(len(mu), count - count // 2, replace=False)])
    return theta[pick], phi[pick]


def rows_framed_at(c, x_centre, x_perp):
    """Constraints of state rows W with X(c) = ``x_centre`` and X(c_perp) =
    ``x_perp`` for the unit qubit vector c, and no partial-transpose rows."""
    perp = np.array([-np.conj(c[1]), np.conj(c[0])])
    k, d = x_centre.shape
    # X(e) = W (e (x) I), so W = [X(c), X(c_perp)] (U^dag (x) I) for U = [c, c_perp]
    w = np.hstack([x_centre, x_perp]) @ np.kron(np.column_stack([c, perp]).conj().T, np.eye(d))
    return framed_constraints(w.reshape(k, 2, d).astype(complex))


def framed_constraints(w_state):
    """Constraints of the state rows ``w_state`` (k, 2, d) alone."""
    k, _, d = w_state.shape
    gram = np.einsum("kai,kbj->abij", np.conj(w_state), w_state).reshape(4, d * d)
    rounding = float(d * np.finfo(float).eps * k)
    return range_criterion._Constraints(
        d=d, cutoff=0.0, w_state=w_state, w_pt=np.zeros((0, 2, d), dtype=complex),
        gram=gram, margin=16 * rounding, ldl_margin=4 * rounding)


def product_state_d1():
    """A pure 2 x 1 state: M(e) has one column, so the first-order bound is A."""
    return product_state([1.0, 0.3 - 0.2j], [1.0])[0]


class TestCellBound:
    """lower = max(mu_lo - L r / 2, first order) bounds mu on the whole cell."""

    @pytest.mark.parametrize("cutoff", [range_criterion.KERNEL_CUTOFF,
                                        range_criterion.ENUMERATION_KERNEL_CUTOFF],
                             ids=["kernel", "enumeration"])
    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.2), horodecki_2x4(0.5), horodecki_2x4(0.95),
        random_sppt(5, 4, normal_s=False, seed=1)[0],
        random_sppt(8, 7, normal_s=False, seed=1)[0],
        flat_remainder(), product_state_d1(),
    ], ids=["horodecki-0.2", "horodecki-0.5", "horodecki-0.95", "random_sppt-5",
            "random_sppt-8", "flat-remainder", "d-1"])
    def test_dense_sampling_never_below_the_cell_bound(self, state, cutoff, monkeypatch):
        con = range_criterion._constraints_of(state, cutoff)
        rng = np.random.default_rng(12)
        first_order = crossing = 0
        for level in range(1, 8):
            h_theta, h_phi = level_half_widths(level)
            theta, phi = cells_near_the_minimum(con, level, rng)
            radius = sphere._cell_radius(theta, h_theta, h_phi)
            e = sphere._bloch(theta, phi)
            mu, lower, _ = range_criterion._mu_batch(con, e, radius)
            least = cell_minima(con, theta, phi, h_theta, h_phi, rng)
            assert np.all(least >= lower), level
            zero_order = mu - con.lipschitz * radius / 2.0
            first_order += np.count_nonzero(lower > zero_order)
            with monkeypatch.context() as patch:
                patch.setattr(range_criterion, "_crossing", chord)
                chord_lower = range_criterion._mu_batch(con, e, radius)[1]
            crossing += np.count_nonzero(lower > np.maximum(zero_order, chord_lower))
        # the first-order bound, not only the zero-order one, was tested, and
        # so was the crossing on the circle, where it bounds cells higher
        # than the chord |alpha| >= 1 - |beta| does
        assert first_order > 0
        assert crossing > 0 or con.d == 1

    @pytest.mark.parametrize("s", [0.3, 0.1, 0.03])
    def test_a_zero_at_first_order(self, s):
        # X(c) = s I, X(c_perp) = I: M(c + t c_perp) = (s + t) I, so mu falls
        # at slope 1 ~ L from s at c to 0 at t = -s.  lambda_1 = lambda_2 at
        # c leaves the first-order bound weak, and the zero-order bound s -
        # L r / 2 sets the cell's, tight against mu along the ray: half of L
        # would put it above mu
        theta, phi = np.array([5 * np.pi / 16]), np.array([3 * np.pi / 16])
        c = sphere._bloch(theta, phi)[0]
        con = rows_framed_at(c, s * np.eye(2), np.eye(2))
        rng = np.random.default_rng(15)
        zero_order = 0
        for level in range(1, 8):
            h_theta, h_phi = level_half_widths(level)
            radius = sphere._cell_radius(theta, h_theta, h_phi)
            mu, lower, _ = range_criterion._mu_batch(con, c[None, :], radius)
            assert cell_minima(con, theta, phi, h_theta, h_phi, rng, 2000)[0] >= lower[0], level
            zero_order += 0 < lower[0] == mu[0] - con.lipschitz * radius[0] / 2.0
        assert zero_order > 0

    @pytest.mark.parametrize("s", [0.3, 0.1, 0.03, 0.01, 0.003])
    def test_a_zero_at_second_order(self, s):
        # X(c) = diag(s, 1), X(c_perp) = [[0, 1], [1, 0]]: det M(c + t c_perp)
        # = s - t^2, so mu vanishes at t = +-sqrt(s) while its slope at c is
        # 0.  Only the D (A + B) term, with the full L, accounts for the
        # second order; the bound stays positive where sqrt(s) is outside
        # the cell.
        theta, phi = np.array([5 * np.pi / 16]), np.array([3 * np.pi / 16])
        c = sphere._bloch(theta, phi)[0]
        con = rows_framed_at(c, np.diag([s, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        rng = np.random.default_rng(13)
        positive = 0
        for level in range(1, 6):
            h_theta, h_phi = level_half_widths(level)
            radius = sphere._cell_radius(theta, h_theta, h_phi)
            _, lower, _ = range_criterion._mu_batch(con, c[None, :], radius)
            assert cell_minima(con, theta, phi, h_theta, h_phi, rng, 2000)[0] >= lower[0], level
            positive += lower[0] > 0
        assert positive > 0

    @pytest.mark.parametrize("s", [0.04, 0.01, 0.0025])
    def test_any_unit_vector_gives_a_bound(self, s):
        # X(c) = diag(s, 1), X(c_perp) = diag(1, -1): mu vanishes at t = -s,
        # and the eigenvector e_1 has slope 1.  The unit v = (cos a, sin a)
        # with tan(a)^2 = s has w^dag X(c_perp) v = 0, a slope of 0; only the
        # residual rho of v keeps its bound below mu.
        theta, phi = np.array([5 * np.pi / 16]), np.array([3 * np.pi / 16])
        c = sphere._bloch(theta, phi)[0]
        con = rows_framed_at(c, np.diag([s, 1.0]), np.diag([1.0, -1.0]))
        weights = (np.conj(c)[:, None] * c[None, :]).reshape(1, 4)
        gram = (weights @ con.gram).reshape(1, 2, 2)
        values, vectors = linalg.eigh(gram)
        angles = np.concatenate([np.linspace(0.0, np.pi / 2, 25), [np.arctan(np.sqrt(s))]])
        phases = np.exp(2j * np.pi * np.arange(8) / 8)
        v = (np.cos(angles)[:, None, None] * vectors[0, :, 0]
             + (np.sin(angles)[:, None] * phases[None, :])[:, :, None] * vectors[0, :, 1])
        v = v.reshape(-1, 2)
        rng = np.random.default_rng(14)
        for level in range(1, 8):
            h_theta, h_phi = level_half_widths(level)
            radius = sphere._cell_radius(theta, h_theta, h_phi)
            tau = np.full(len(v), np.tan(radius[0] / 2.0) * (1.0 + 1e-12))
            bound = range_criterion._first_order(con, np.repeat(c[None, :], len(v), axis=0), tau,
                                                 np.repeat(values, len(v), axis=0), v,
                                                 np.repeat(gram, len(v), axis=0))
            least = cell_minima(con, theta, phi, h_theta, h_phi, rng, 2000)[0]
            assert np.all(bound <= least), level

    def test_the_flat_remainder_is_excluded_early(self, monkeypatch):
        # mu < 0.15 on the whole sphere with slope ~0.14 against L = 2.34:
        # the zero-order bound alone needs 23,808 evaluations
        result = enumeration(flat_remainder())
        assert result.search["first_order_exclusions"] > 0
        assert result.search["evaluations"] <= 5000
        # the crossing on the circle excludes cells the chord does not, with
        # the same vectors found
        monkeypatch.setattr(range_criterion, "_crossing", chord)
        chord_result = enumeration(flat_remainder())
        assert chord_result.search["evaluations"] > result.search["evaluations"]
        assert len(chord_result.found) == len(result.found)


def chord(big_a, big_b, big_c, big_d):
    """The first-order crossing with |alpha| >= 1 - |beta| in place of the
    circle, the bound before the crossing on the circle."""
    return (big_a * big_c - big_d * (big_a + big_b)) / (big_a + big_b + big_c)


def exact_crossing(a, b, c, d):
    """``_crossing``'s closed form at 60 digits, for float inputs."""
    a, b, c, d = (decimal.Decimal(float(x)) for x in (a, b, c, d))
    s = b + c
    root = (s * s + a * a - d * d).sqrt()
    return (d * s + a * root) / (s * s + a * a) * c - d


class TestCrossing:
    """_crossing is the least over |beta| of the first-order pair, rounded down."""

    @staticmethod
    def draws(rng, n=3000):
        # magnitudes over many decades, B = D (an exact eigenvector) and C =
        # 0 among them, and B + C close to D
        a, c, d = (10.0 ** rng.uniform(-12, 1, n) for _ in range(3))
        b = d + 10.0 ** rng.uniform(-16, 1, n) * rng.choice([0.0, 1.0], n, p=[0.1, 0.9])
        c[rng.uniform(size=n) < 0.05] = 0.0
        return a, b, c, d

    def test_at_most_the_exact_crossing(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            a, b, c, d = self.draws(np.random.default_rng(16))
            got = range_criterion._crossing(a, b, c, d)
            exact = [exact_crossing(*x) for x in zip(a, b, c, d)]
            over = [g for g, x in zip(got, exact) if decimal.Decimal(float(g)) > x]
            assert not over
            # and below it by no more than its margin of 8 eps (C + D)
            slack = np.array([float(x - decimal.Decimal(float(g))) for g, x in zip(got, exact)])
            assert np.all(slack <= 16 * np.finfo(float).eps * (c + d))

    def test_the_least_of_the_larger_over_beta(self):
        a, b, c, d = self.draws(np.random.default_rng(17), 300)
        beta = np.linspace(0.0, 1.0, 20001)[:, None]
        pair = np.maximum(np.sqrt(1.0 - beta ** 2) * a - beta * b, beta * c - d)
        least = pair.min(axis=0)
        got = range_criterion._crossing(a, b, c, d)
        scale = a + b + c + d
        assert np.all(got <= least + 1e-15 * scale)
        # the grid's step of 5e-5 in beta moves the larger by at most 5e-5 (A
        # + B + C) where sqrt(1 - beta^2) is not steep
        assert np.all(least - got <= 1e-3 * scale)
        assert np.all(got >= chord(a, b, c, d) - 1e-12 * scale)


class TestEnumerationOutput:
    """What an enumeration returns on a separable state of n generic terms:
    one vector at each term's qubit direction, and no other."""

    @pytest.mark.parametrize("d, n", [(5, 6), (5, 7)])
    def test_one_vector_at_each_constituent(self, d, n):
        state, terms = random_separable(d, n, seed=0)
        result = enumeration(state)
        assert result.exhaustive
        assert len(result.found) == n
        found = np.array([pv.e for pv in result.found])
        qubits = np.array([e for _, e, _ in terms])
        angles = sphere._bloch_angle(found, qubits)
        # a bijection: each vector sits at one term's direction, and each
        # term's direction holds one vector
        assert sorted(angles.argmin(axis=1)) == list(range(n))
        assert angles.min(axis=1).max() <= 1e-6
        apart = sphere._bloch_angle(found, found)
        assert apart[~np.eye(n, dtype=bool)].min() > sphere._SAME

    @pytest.mark.parametrize("f", [[1.0], [1.0, 0.5j, -0.2], [0.3, 1.0, 0.1 - 0.4j, 0.2, 0.5]],
                             ids=["d1", "d3", "d5"])
    def test_a_pure_product_state_gives_its_one_vector(self, f):
        # d = 1 included: M(e) has one column, so no second singular value
        # exists, and the basin alone drops the cells round the vector
        state, e, f = product_state([1.0, 0.3 - 0.2j], f)
        result = enumeration(state)
        assert result.exhaustive
        assert len(result.found) == 1
        pv = result.found[0]
        assert sphere._bloch_angle(pv.e[None, :], e[None, :])[0, 0] <= 1e-12
        assert abs(abs(np.vdot(pv.f, f)) - 1.0) <= 1e-12

    def test_the_record_counts_polishes(self, monkeypatch):
        calls = []
        polish = range_criterion._polish

        def counting(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(range_criterion, "_polish", counting)
        state, _ = random_separable(5, 6, seed=0)
        assert enumeration(state).search["polishes"] == len(calls) > 0

