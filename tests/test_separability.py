"""Tests for decompositions, reduction, lifting, subtraction, and classify."""

import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from spptkit import io, linalg, range_criterion, separability, sphere, sppt
from spptkit.errors import (
    InvalidDecomposition,
    NotNormal,
    NotPpt,
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
    _max_subtraction_weights,
    classify,
    decompose_small,
    subtract_product_vectors,
    svd_reduce,
)
from spptkit.sppt import SpptFactors, assemble_state, sppt_check
from spptkit.states import (
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

from helpers import ill_conditioned_sppt, kernel_of


def spectral_terms(f):
    """The spectral construction of factors f with invertible x1 and normal
    s, as the decomposition ``classify`` validates."""
    rho = assemble_state(f).rho
    return SeparableDecomposition(terms=separability._spectral_terms(f, linalg.frob(rho)))


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return make_state(2, np.outer(psi, psi.conj()), normalized=True)


class TestSpectralTerms:
    def test_two_level_example(self):
        f = SpptFactors(np.eye(2, dtype=complex), np.diag([1.0, 1j]),
                        np.zeros((2, 2), dtype=complex))
        dec = spectral_terms(f)
        assert len(dec.terms) == 2  # d terms: the zero tail is left out
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
        dec = spectral_terms(f)
        total = dec.reconstruct()
        np.testing.assert_allclose(
            total, np.kron(np.array([[1, 1], [1, 1]]), np.eye(d)), atol=1e-12)

    def test_random_normal_factors(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            state, f = random_sppt(4, rank=4, normal_s=True, seed=seed,
                                   with_tail=(seed % 2 == 0))
            dec = spectral_terms(f)
            assert len(dec.terms) == 4 + (seed % 2 == 0)  # d, plus the tail if any
            assert dec.reconstruction_residual(state.rho) <= 1e-10 * state.norm()
            assert dec.min_factor_eig() >= -1e-10

    def test_rejects_singular_x1(self):
        f = entangled_sppt_2x5(0.5).factors
        with pytest.raises(SingularX1):
            spectral_terms(f)

    def test_rejects_non_normal_s(self):
        s = np.zeros((2, 2), dtype=complex)
        s[0, 1] = 1.0
        f = SpptFactors(np.eye(2, dtype=complex), s, np.zeros((2, 2), dtype=complex))
        with pytest.raises(NotNormal):
            spectral_terms(f)


class TestSvdReduce:
    @pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
    def test_family_reduces_to_horodecki_core(self, b):
        f = entangled_sppt_2x5(b).factors
        r = svd_reduce(f)
        assert r.k == 4
        np.testing.assert_allclose(r.core.rho, horodecki_2x4(b).rho, atol=1e-12)

    def test_full_rank_keeps_dimension(self):
        state, f = random_sppt(4, rank=4, normal_s=True, seed=1, with_tail=True)
        r = svd_reduce(f)
        assert r.k == 4
        # the core is the embed-conjugate of the state minus its tail
        lifted = np.kron(np.eye(2), r.embed) @ r.core.rho @ np.kron(np.eye(2), r.embed).conj().T
        tailed = state.rho.copy()
        for qubit, qudit in r.terms:
            tailed -= np.kron(qubit, qudit)
        assert linalg.frob(lifted - tailed) <= 1e-9 * state.norm()

    def test_zero_x1(self):
        rng = np.random.default_rng(2)
        x2 = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        f = SpptFactors(np.zeros((3, 3), dtype=complex),
                        rng.normal(size=(3, 3)).astype(complex), x2)
        r = svd_reduce(f)
        assert r.k == 0 and r.core is None and len(r.terms) == 1
        np.testing.assert_allclose(r.terms[0][1], x2.conj().T @ x2, atol=1e-13)

    def test_core_is_ppt_for_random_instances(self):
        from spptkit.states import partial_transpose_matrix

        for seed in range(20):
            d = 4 + seed % 2
            rank = 1 + seed % (d - 1)
            state, f = random_sppt(d, rank=rank, normal_s=(seed % 3 == 0),
                                   seed=seed)
            r = svd_reduce(f)
            if r.core is None:
                continue
            w = np.linalg.eigvalsh(partial_transpose_matrix(r.core.rho, r.k))
            assert w.min() >= -1e-10 * max(r.core.norm(), 1.0)

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
        core_dec = spectral_terms(sppt_check(r.core).factors)
        lifted = r.explicit(core_dec)
        assert lifted.reconstruction_residual(state.rho) <= 1e-9 * state.norm()

    def test_zero_rank_lift(self):
        rng = np.random.default_rng(4)
        x2 = rng.normal(size=(3, 3)).astype(complex)
        f = SpptFactors(np.zeros((3, 3), dtype=complex),
                        np.zeros((3, 3), dtype=complex), x2)
        r = svd_reduce(f)
        lifted = r.explicit(None)
        assert len(lifted.terms) == 1
        state = assemble_state(f)
        assert lifted.reconstruction_residual(state.rho) <= 1e-12

    def test_end_to_end_rank3_d5(self):
        from spptkit.separability import decompose_small

        for seed in (5, 6, 7):
            state, f = random_sppt(5, rank=3, normal_s=False, seed=seed)
            r = svd_reduce(f)
            core_dec = decompose_small(r.core)
            lifted = r.explicit(core_dec)
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
            assert len(res.reduction.terms) == 1

    def test_counterexample_2x4_terminates_soundly(self):
        res = subtract_product_vectors(sppt_counterexample_2x4())
        assert res.status in ("decomposed", "small_support", "sppt_core")

    def test_entangled_family_makes_no_false_claim(self):
        res = subtract_product_vectors(entangled_sppt_2x5(0.5).state)
        assert res.status in ("stalled", "budget_exhausted")

    @pytest.mark.parametrize("seed", [11, 34])
    def test_first_exit_retries_the_strong_ppt_check_at_the_floor(self, seed, monkeypatch):
        # sppt_check, at DEFAULT_TOL, cannot tell these strong-PPT states'
        # closed-form residual from rounding; the prover's first exit test
        # retries the check on the input at TOL_FLOOR, where it passes, and
        # decides them before any subtraction or enumeration
        state = ill_conditioned_sppt(seed)
        assert sppt_check(state).status == "Undecided"
        assert sppt._check_ppt(state, TOL_FLOOR).status == "Sppt"
        verdict = classify(state)
        assert verdict.classification == SEPARABLE
        line = next(entry for entry in verdict.trace_log if entry.startswith("subtraction:"))
        assert line.startswith("subtraction: sppt_core after 0 subtractions and 0 enumerations")
        # without the retry on the input, the prover does not decide them
        check = sppt._check_ppt
        monkeypatch.setattr(sppt, "_check_ppt", lambda s, tol: check(
            s, linalg.DEFAULT_TOL if np.array_equal(s.rho, state.rho) else tol))
        assert classify(state).classification == PPT_UNDECIDED

    def test_full_support_2x3_does_not_exit_by_dimension_at_once(self):
        # the small-support exit needs fewer than d levels: a full-support
        # 2 x 3 remainder is not reduced to itself
        state, _ = random_separable(3, 6, seed=0)
        assert linalg.svd(state.rho[:3, :3] + state.rho[3:, 3:]).rank == 3
        res = subtract_product_vectors(state)
        assert not (res.status == "small_support" and res.iterations == 0)

    @pytest.mark.xfail(strict=True, reason=(
        "a known regression: the prover stops at a rank-d remainder the spectral "
        "construction rejects; ROADMAP item 14 (NNLS over the polished roots) decides it"))
    def test_separable_8x12_seed_2_is_decided(self):
        # outside the parity corpus, whose random_separable inputs stop at d = 6
        state, _ = random_separable(8, 12, seed=2)
        verdict = classify(state)
        assert verdict.classification == SEPARABLE
        verdict.certificate.validate(state.rho, tol=TOL_FLOOR)

    @pytest.mark.xfail(strict=True, reason=(
        "a known defect, CHANGES.md's FOUND note on SeparableByTheorem certificates that "
        "miss their input by far more than TOL_FLOOR: the small_support exit compresses "
        "to the qudit support at SUPPORT_CUTOFF and drops couplings of order sqrt(1e-9)"))
    def test_theorem_certificate_of_ill_conditioned_24_is_within_the_floor(self):
        # today its decomposition_residual is 4.06e-5, 1.13e-5 of the norm
        state = ill_conditioned_sppt(24)
        verdict = classify(state)
        assert verdict.classification == SEPARABLE_BY_THEOREM
        assert verdict.residuals["decomposition_residual"] <= TOL_FLOOR * state.norm()


def _record_enumerations(monkeypatch):
    """Record every enumeration the prover makes, as ("search" | "recheck",
    state, result), in call order: "recheck" where the enumeration re-solved
    the previous one.  Each call must pass the result of the one before."""
    calls = []
    enumerate_ = range_criterion._enumerate

    def recording(s, con, previous=None):
        assert previous is (calls[-1][2] if calls else None)
        out = enumerate_(s, con, previous)
        calls.append(("recheck" if out.search["method"] == "recheck" else "search", s, out))
        return out

    monkeypatch.setattr(range_criterion, "_enumerate", recording)
    return calls


def _count_sphere_searches(monkeypatch):
    """Record the threshold of every ``sphere.search`` call, in call order."""
    calls = []
    search = sphere.search

    def counting(objective, threshold):
        calls.append(threshold)
        return search(objective, threshold)

    monkeypatch.setattr(sphere, "search", counting)
    return calls


def _record_prover(monkeypatch):
    """Record every call of the subtraction prover made through
    ``separability.subtract_product_vectors``, as (state, result)."""
    runs = []
    prover = separability.subtract_product_vectors

    def recording(s):
        runs.append((s, prover(s)))
        return runs[-1][1]

    monkeypatch.setattr(separability, "subtract_product_vectors", recording)
    return runs


def _assert_rechecks_follow_exhaustive(calls):
    assert calls[0][0] == "search"
    for (_, _, before), (kind, _, _) in zip(calls, calls[1:]):
        assert kind == ("recheck" if before.exhaustive else "search")


class TestEnumerationReuse:
    """The prover re-checks an exhaustive enumeration instead of searching."""

    @pytest.mark.parametrize("state", [
        *(random_separable(d, n, seed=0)[0] for d, n in ((5, 6), (4, 7), (5, 7))),
        random_separable(4, 6, seed=0)[0], random_separable(4, 6, seed=1)[0],
        sppt_counterexample_2x4(),
    ])
    def test_same_verdicts_as_fresh_searches(self, state, monkeypatch):
        reused = classify(state)
        enumerate_ = range_criterion._enumerate
        monkeypatch.setattr(range_criterion, "_enumerate",
                            lambda s, con, previous=None: enumerate_(s, con))
        fresh = classify(state)
        assert reused.classification == fresh.classification
        for verdict in (reused, fresh):
            if verdict.classification == SEPARABLE:
                verdict.certificate.validate(state.rho, tol=TOL_FLOOR)
        if reused.classification == SEPARABLE:
            assert len(reused.certificate.terms) == len(fresh.certificate.terms)

    def test_one_fresh_enumeration(self, monkeypatch):
        # the 2 x 4 core of random_sppt(6, 4): the prover enumerates once,
        # by the roots, and re-checks once; the sphere is searched only by
        # edge_check
        state = svd_reduce(random_sppt(6, 4, normal_s=False, seed=0)[1]).core
        calls = _count_sphere_searches(monkeypatch)
        enumerations = _record_enumerations(monkeypatch)
        verdict = classify(state)
        assert verdict.classification == PPT_UNDECIDED
        assert calls == [range_criterion.EXCLUSION_THRESHOLD]
        assert [kind for kind, _, _ in enumerations] == ["search", "recheck"]
        line = next(entry for entry in verdict.trace_log if entry.startswith("subtraction:"))
        assert "0 at canonical directions, 1 solved by roots, 1 re-checked" in line

    @pytest.mark.parametrize("d, n", [(5, 7), (3, 6)])
    def test_rechecked_vectors_qualify_for_the_remainder(self, d, n, monkeypatch):
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(random_separable(d, n, seed=0)[0])
        assert res.status == "sppt_core"
        assert res.enumerations == [out.search for _, _, out in calls]
        assert [kind for kind, _, _ in calls].count("recheck") >= 1
        _assert_rechecks_follow_exhaustive(calls)
        rechecked = [(s, out.found) for kind, s, out in calls if kind == "recheck"]
        assert sum(len(found) for _, found in rechecked) > 0
        cutoff = range_criterion.ENUMERATION_KERNEL_CUTOFF
        for s, found in rechecked:
            ker = kernel_of(s.rho, cutoff)
            ker_pt = kernel_of(partial_transpose_matrix(s.rho, s.d), cutoff)
            for pv in found:
                residual = np.hypot(np.linalg.norm(ker.conj() @ np.kron(pv.e, pv.f)),
                                    np.linalg.norm(ker_pt.conj() @ np.kron(np.conj(pv.e), pv.f)))
                assert residual <= range_criterion.ENUMERATION_TOL

    def test_continuum_enumeration_is_followed_by_a_search(self, monkeypatch):
        # full rank: the first remainders have fewer kernel rows than d
        state, _ = random_separable(4, 8, seed=0)
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(state)
        continuum = [i for i, (_, s, out) in enumerate(calls[:-1])
                     if sum(out.search["kernel_dims"]) < s.d]
        assert continuum
        assert all(calls[i + 1][0] == "search" for i in continuum)
        _assert_rechecks_follow_exhaustive(calls)
        assert res.enumerations == [out.search for _, _, out in calls]

    def test_canonical_enumeration_is_followed_by_a_fresh_one(self, monkeypatch):
        # a failed gate of the root finder sends every enumeration to the
        # canonical directions, which is not exhaustive, so the next
        # enumeration is fresh too
        monkeypatch.setattr(range_criterion, "_roots", lambda con: None)
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(random_separable(5, 7, seed=0)[0])
        assert len(calls) >= 2
        assert all(out.found and not out.exhaustive for _, _, out in calls)
        assert [kind for kind, _, _ in calls] == ["search"] * len(calls)
        assert [record["method"] for record in res.enumerations] == ["canonical"] * len(calls)

    def test_root_enumeration_is_followed_by_a_recheck(self, monkeypatch):
        # random_separable(4, 7, seed=0): two continuum enumerations, then
        # one the roots solve, uncapped and exhaustive, so the next is a re-check
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(random_separable(4, 7, seed=0)[0])
        methods = [out.search["method"] for _, _, out in calls]
        assert methods[:3] == ["canonical", "canonical", "roots"]
        assert calls[2][2].exhaustive and len(calls[2][2].found) == 6
        assert calls[3][0] == "recheck"
        _assert_rechecks_follow_exhaustive(calls)
        assert [record["method"] for record in res.enumerations] == methods


def _fails_positivity_rule(rho, d):
    """The prover's rule: the state or its partial transpose has an
    eigenvalue below -TOL_FLOOR times its largest magnitude."""
    for m in (rho, partial_transpose_matrix(rho, d)):
        values = np.linalg.eigvalsh(m)
        if values[0] < -TOL_FLOOR * np.abs(values).max():
            return True
    return False


class TestOnePositivityRule:
    """One rule, on one pair of full-size eigendecompositions per iteration,
    decides whether the prover's remainder is still a PPT state."""

    @pytest.mark.parametrize("seed", [75, 81])
    def test_ill_conditioned_sppt_is_not_entangled(self, seed):
        # a maximal subtraction overshoots on these remainders, and the
        # enumeration's kernel gate once raised NotPsd out of classify
        assert not classify(ill_conditioned_sppt(seed)).is_entangled_class

    def test_stalls_before_enumerating_a_remainder_that_fails(self, monkeypatch):
        # a subtraction 1e-6 past its maximal weight leaves a remainder that
        # fails the rule, and the prover stalls on it before enumerating it
        state = random_separable(5, 7, seed=0)[0]
        weights = separability._max_subtraction_weights
        monkeypatch.setattr(separability, "_max_subtraction_weights",
                            lambda *args: (1 + 1e-6) * weights(*args))
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(state)
        assert res.status == "stalled"
        assert _fails_positivity_rule(res.remainder.rho, state.d)
        assert calls and not any(_fails_positivity_rule(s.rho, s.d) for _, s, _ in calls)
        assert all(s is not res.remainder for _, s, _ in calls)

    def test_npt_input_stalls_at_once(self, monkeypatch):
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(bell_state())
        assert (res.status, res.iterations, calls) == ("stalled", 0, [])

    @pytest.mark.parametrize("state", [random_separable(5, 7, seed=0)[0],
                                       random_separable(4, 7, seed=0)[0],
                                       ill_conditioned_sppt(73)])
    def test_two_full_size_eigendecompositions_per_iteration(self, state, monkeypatch):
        full = (2 * state.d, 2 * state.d)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(m, *args, _real=getattr(np.linalg, name), **kwargs):
                if np.shape(m) == full:
                    calls.append(m)
                return _real(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        res = subtract_product_vectors(state)
        # every pass of these runs reaches the eigendecompositions
        assert res.status in ("sppt_core", "stalled", "budget_exhausted")
        assert len(calls) == 2 * (res.iterations + 1)


def _record_decompositions(monkeypatch):
    """Record the shape and bytes of every single matrix (not stack) that
    ``np.linalg.eigh`` or ``eigvalsh`` decomposes."""
    seen = []

    def recording(real):
        def decompose(m, *args, **kwargs):
            if np.ndim(m) == 2:
                seen.append((np.shape(m), np.asarray(m).tobytes()))
            return real(m, *args, **kwargs)
        return decompose

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return seen


class TestOneSpectralPass:
    """Every block of a state has one eigendecomposition: one ``classify``
    eigendecomposes no single matrix twice, whatever its size.  Stacks (the
    search's batched cells, the validation's factors) are left out."""

    @pytest.mark.parametrize("state", [
        horodecki_2x4(0.5), entangled_sppt_2x5(0.5).state, sppt_counterexample_2x4(),
        random_separable(5, 6, seed=0)[0], random_separable(4, 7, seed=0)[0],
        random_separable(5, 7, seed=0)[0], random_separable(4, 6, seed=0)[0],
        random_separable(6, 9, seed=0)[0],
    ], ids=["horodecki", "rho0", "rho2", "random_separable(5,6)", "random_separable(4,7)",
            "random_separable(5,7)", "random_separable(4,6)", "random_separable(6,9)"])
    def test_no_matrix_is_decomposed_twice(self, state, monkeypatch):
        seen = _record_decompositions(monkeypatch)
        separability.classify(state)
        repeats = len(seen) - len(set(seen))
        assert seen and repeats == 0


class TestRankCount:
    """The prover's subtractions against the ranks of the state and of its
    partial transpose."""

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_d_plus_k_ends_after_k_subtractions(self, d, k, seed, monkeypatch):
        # each subtraction drops the rank by one, and a PPT remainder of
        # rank d is separable (KCKL) with an invertible a-block, so the
        # strong-PPT exit decides a rank-(d + k) input after k subtractions:
        # one enumeration, then k - 1 re-checks.  The roots solve it, at
        # random_separable(5, 6, seed=1) with their second shift
        state, _ = random_separable(d, d + k, seed=seed)
        runs = _record_prover(monkeypatch)
        v = classify(state)
        assert v.classification == SEPARABLE
        v.certificate.validate(state.rho, tol=TOL_FLOOR)
        ((_, sub),) = runs
        assert (sub.status, sub.iterations) == ("sppt_core", k)
        methods = [record["method"] for record in sub.enumerations]
        assert methods == ["roots"] + ["recheck"] * (k - 1)

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subtractions_stay_within_the_total_rank(self, d, k, monkeypatch):
        # a maximal subtraction drops the rank of the remainder or of its
        # partial transpose, so a run that makes progress needs at most
        # rank rho + rank rho^Gamma <= 4 d subtractions, half the prover's
        # budget of 8 d (the rank need not register a drop at RANK_CUTOFF
        # after every step, so only the total is checked)
        runs = _record_prover(monkeypatch)
        for seed in range(4):
            classify(random_separable(d, d + k, seed=seed)[0])
        assert runs
        for s, sub in runs:
            total = sum(int(eig.support(linalg.RANK_CUTOFF).sum()) for eig in (s.eig, s.pt_eig))
            assert sub.iterations <= total


class TestPolishCap:
    def test_near_miss_valley_polishes_few_centres(self, monkeypatch):
        # every centre of this state's near-miss valleys reads mu_lo = 0, so
        # a sphere search would count every one as at the threshold (some
        # 55,000 polishes uncapped); the prover's enumerations search no
        # sphere and polish seven directions each
        calls = []
        polish = range_criterion._polish

        def counting(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(range_criterion, "_polish", counting)
        assert classify(ill_conditioned_sppt(51)).classification == SEPARABLE_BY_THEOREM
        assert len(calls) < 1000


class TestNonIsolatedEnumeration:
    """Where a gate of the root finder fails, the prover takes the null
    vectors at polished canonical directions and searches no sphere."""

    @pytest.mark.parametrize("state, classification, searches", [
        (random_sppt(6, 5, normal_s=False, with_tail=True, seed=1)[0], SEPARABLE, 1),
        (ill_conditioned_sppt(1), PPT_UNDECIDED, 0),
        (ill_conditioned_sppt(3), SEPARABLE_BY_THEOREM, 0),
    ], ids=["random_sppt(6,5,F,tail,seed=1)", "ill_conditioned_sppt(1)",
            "ill_conditioned_sppt(3)"])
    def test_the_sphere_is_searched_by_edge_check_alone(self, state, classification, searches,
                                                        monkeypatch):
        # random_sppt(6, 5, ...)'s 2 x 5 core has a resultant factor shared
        # at every shift, so its qualifying directions form a curve that no
        # unpolished canonical direction meets; edge_check searches the
        # sphere once there, and takes the continuum case on the other two,
        # whose kernels at KERNEL_CUTOFF have fewer than d rows
        calls = _count_sphere_searches(monkeypatch)
        enumerations = _record_enumerations(monkeypatch)
        assert classify(state).classification == classification
        assert calls == [range_criterion.EXCLUSION_THRESHOLD] * searches
        assert any(out.search["method"] == "canonical" and s.d <= sum(out.search["kernel_dims"])
                   for _, s, out in enumerations)

    @pytest.mark.parametrize("seed", [3, 6, 9, 12, 18])
    def test_an_empty_fallback_loses_these(self, seed, monkeypatch):
        state = ill_conditioned_sppt(seed)
        assert classify(state).classification == SEPARABLE_BY_THEOREM
        continuum = range_criterion._continuum
        monkeypatch.setattr(range_criterion, "_continuum",
                            lambda s, con: [] if con.n_rows >= s.d else continuum(s, con))
        assert classify(state).classification == PPT_UNDECIDED

    @pytest.mark.parametrize("d, n, seed", [(2, 3, 2), (2, 4, 2), (2, 7, 12)])
    def test_a_small_circle_of_directions_is_reached(self, d, n, seed):
        # the 2 x 2 remainder that each enumerates with at least d rows has
        # one kernel row per part, and its qualifying directions form a
        # small circle: the polish from every canonical direction ends in a
        # local minimum of mu off it, the one from the first level's centre
        # of least mu on it
        state = random_separable(d, n, seed=seed)[0]
        decompose_small(state).validate(state.rho, tol=TOL_FLOOR)

    @pytest.mark.parametrize("seed", [72, 102])
    def test_decides_what_the_sphere_fallback_did_not(self, seed):
        # the sphere fallback's vectors, polished only to 1e-9..5e-8, let a
        # maximal subtraction overshoot and stall the prover on these
        assert classify(ill_conditioned_sppt(seed)).classification == SEPARABLE_BY_THEOREM


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
            yield pytest.param(svd_reduce(f).core, id=f"core of random_sppt({d},{k})")
    yield pytest.param(sppt_counterexample_2x3(), id="rho1")
    # each once gave a last term of 5e-13 to 9e-13 of the input's norm
    yield pytest.param(random_separable(2, 5, seed=3)[0], id="random_separable(2,5,seed=3)")
    for d in (5, 6):
        f = random_sppt(d, 2, normal_s=False, seed=1)[1]
        yield pytest.param(svd_reduce(f).core, id=f"core of random_sppt({d},2,seed=1)")


class TestDecomposeSmall:
    @pytest.mark.parametrize("state", list(_small_inputs()))
    def test_decomposition_validates(self, state):
        dec = decompose_small(state)
        dec.validate(state.rho, tol=TOL_FLOOR)
        assert dec.min_factor_eig() >= -1e-10 * state.norm()
        floor = linalg.RANK_CUTOFF * state.norm()
        assert all(linalg.frob(qubit) * linalg.frob(qudit) > floor
                   for qubit, qudit in dec.terms)

    def test_product_state_gives_one_term(self):
        # the tail |1><1| (x) x2^dag x2 is zero here and is left out
        state = random_separable(2, 1, seed=0)[0]
        assert len(decompose_small(state).terms) == 1

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

    def test_rejects_qudit_dimension_above_3(self):
        with pytest.raises(ValidationError, match="qudit dimension <= 3"):
            decompose_small(random_separable(4, 2, seed=0)[0])

    def test_npt_input_raises_not_ppt(self):
        # (|0,0> + |1,1>) / sqrt 2 in 2 x 3, of Schmidt rank 2: its partial
        # transpose has eigenvalue -1/2, and no separable decomposition
        psi = np.zeros(6)
        psi[0] = psi[4] = 1 / np.sqrt(2)
        state = make_state(3, np.outer(psi, psi), normalized=True)
        with pytest.raises(NotPpt, match=r"partial transpose eigenvalue -5\.000e-01"):
            decompose_small(state)

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_state_rejected_as_classify_rejects_it(self, d):
        # the prover returns no terms for it, and a decomposition needs one
        state = make_state(d, np.zeros((2 * d, 2 * d)))
        for check in (classify, decompose_small):
            with pytest.raises(ValidationError, match="positive trace"):
                check(state)


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
        rho_eig, pt_eig = linalg.EigResult.of(rho), linalg.EigResult.of(pt)
        for weight, e, f in terms:
            (lam,) = _max_subtraction_weights(rho_eig, pt_eig, e[None], f[None], rho.trace().real)
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
        outside = np.linalg.norm(kernel_of(rho).conj() @ np.kron(e, f))
        assert outside > 1e-3
        pt = partial_transpose_matrix(rho, 4)
        assert _max_subtraction_weights(linalg.EigResult.of(rho), linalg.EigResult.of(pt),
                                        e[None], f[None], rho.trace().real) == [0.0]


class TestBatchedWeights:
    """``_rank_one_weights`` against an independent pseudo-inverse, one row
    at a time, and the prover's pick against the scalar loop it replaces."""

    def test_rows_match_the_pseudo_inverse(self):
        state, terms = random_separable(4, 6, seed=2)
        rho = state.rho
        rng = np.random.default_rng(3)
        ker = kernel_of(rho)
        inside = rng.normal(size=8) + 1j * rng.normal(size=8)
        inside -= ker.T @ (ker.conj() @ inside)
        rows = [np.kron(e, f) for _, e, f in terms] + [inside / np.linalg.norm(inside), ker[0]]
        weights = separability._rank_one_weights(linalg.EigResult.of(rho), np.array(rows))
        pinv = np.linalg.pinv(rho, rcond=linalg.RANK_CUTOFF, hermitian=True)
        for v, w in zip(rows[:-1], weights):
            assert w > 0
            assert abs(w - 1.0 / np.vdot(v, pinv @ v).real) <= 1e-10 * w
        # the last row lies in the kernel: no multiple of it can be taken off
        assert weights[-1] == 0.0

    def test_an_all_kernel_spectrum_does_not_warn(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[-1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = separability._rank_one_weights(linalg.EigResult.of(np.zeros((4, 4))), rows)
        assert weights.tolist() == [0.0] * 5

    @staticmethod
    def _scalar_pick(lam, drains, trace):
        """The prover's rule as a loop: skip weights at or below the floor,
        then the least (not drains, -lam), the first of equals."""
        best = None
        for i, (w, drain) in enumerate(zip(lam, drains)):
            if w <= separability.WEIGHT_FLOOR * trace:
                continue
            key = (not drain, -w)
            if best is None or key < best[0]:
                best = (key, i)
        return None if best is None else best[1]

    def test_the_first_of_equal_candidates_wins(self):
        # candidates 1 and 2 tie on (drains, lam) and beat the others
        lam = np.array([0.4, 0.3, 0.3, 0.2])
        drains = np.array([False, True, True, True])
        assert separability._pick(lam, drains, 1.0) == 1
        assert separability._pick(lam[::-1].copy(), drains[::-1].copy(), 1.0) == 1
        assert separability._pick(np.full(3, 0.5), np.zeros(3, dtype=bool), 1.0) == 0

    def test_pick_matches_the_scalar_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            # few distinct values, so ties are common; 0 sits below the floor
            lam = rng.integers(0, 3, size=n) / 4.0
            drains = rng.integers(0, 2, size=n).astype(bool)
            assert separability._pick(lam, drains, 1.0) == self._scalar_pick(lam, drains, 1.0)
        assert separability._pick(np.array([1e-11, 0.0]), np.ones(2, dtype=bool), 1.0) is None
        assert separability._pick(np.zeros(0), np.zeros(0, dtype=bool), 1.0) is None


class TestDrainsLevel:
    """The prover's closed-form ranking against the eigendecomposition it
    replaces: a candidate drains a qudit level exactly when the remainder's
    marginal M - lam |f><f| has fewer eigenvalues above ``SUPPORT_CUTOFF``
    times its largest than the marginal M = a + c."""

    @staticmethod
    def _marginal(rho, d):
        return rho[:d, :d] + rho[d:, d:]

    def _eig_drains(self, rho, d, f, lam):
        def levels(m):
            return int(linalg.EigResult.of(m).support(separability.SUPPORT_CUTOFF).sum())
        m = self._marginal(rho, d)
        return levels(m - lam * np.outer(f, f.conj())) < levels(m)

    def _closed_drains(self, rho, d, f, lam):
        (drains,) = separability._drains_levels(linalg.EigResult.of(self._marginal(rho, d)),
                                                f[None], np.array([lam]))
        return bool(drains)

    @pytest.mark.parametrize("state", [
        random_separable(4, 7, seed=0)[0], random_separable(5, 6, seed=0)[0],
        sppt_counterexample_2x4(),
    ], ids=["random_separable(4,7)", "random_separable(5,6)", "rho2"])
    def test_every_candidate_the_prover_meets(self, state, monkeypatch):
        met = []

        def recording(real):
            def enumeration(s, *args):
                out = real(s, *args)
                met.extend((s, pv.e, pv.f) for pv in out.found)
                return out
            return enumeration

        monkeypatch.setattr(range_criterion, "_enumerate", recording(range_criterion._enumerate))
        subtract_product_vectors(state)
        ranked = 0
        for s, e, f in met:
            (lam,) = _max_subtraction_weights(s.eig, s.pt_eig, e[None], f[None], s.trace())
            if lam <= 1e-10 * s.trace():
                continue    # the prover skips it unranked
            assert (self._closed_drains(s.rho, s.d, f, lam)
                    == self._eig_drains(s.rho, s.d, f, lam))
            ranked += 1
        assert ranked

    def test_drains_exactly_at_the_marginal_weight(self):
        state, terms = random_separable(4, 7, seed=0)
        marginal = linalg.EigResult.of(self._marginal(state.rho, 4))
        for _, _, f in terms:
            (w,) = separability._rank_one_weights(marginal, f[None])
            assert w > 0
            for lam, drains in ((w / 2, False), ((1 - 1e-12) * w, True), (w, True)):
                assert self._closed_drains(state.rho, 4, f, lam) is drains
                assert self._eig_drains(state.rho, 4, f, lam) is drains

    def test_off_support_vector_drains_nothing(self):
        # f outside the marginal's support: w = 0, which reads "no level"
        rho = np.zeros((8, 8), dtype=complex)
        rho[:3, :3] = rho[4:7, 4:7] = np.eye(3) / 6
        f = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        assert separability._rank_one_weights(linalg.EigResult.of(self._marginal(rho, 4)),
                                              f[None]) == [0]
        assert not self._closed_drains(rho, 4, f, 0.5)


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

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_missing_term_raises_at_every_scale(self, t):
        # the miss is judged against the state's norm, so a dropped term of
        # weight ~0.2 of it fails at any scale
        _, mixture = random_separable(4, 5, seed=0)
        dec = SeparableDecomposition(terms=[
            (np.outer(e, e.conj()), t * w * np.outer(f, f.conj())) for w, e, f in mixture])
        rho = dec.reconstruct()
        dec.validate(rho, tol=TOL_FLOOR)
        with pytest.raises(InvalidDecomposition, match="misses"):
            SeparableDecomposition(terms=dec.terms[1:]).validate(rho, tol=TOL_FLOOR)

    def test_no_terms_miss_the_whole_state(self):
        # an empty decomposition reconstructs zero: it misses a nonzero state
        # by the state's norm, and a zero state not at all
        rho = maximally_mixed(4).rho
        empty = SeparableDecomposition(terms=[])
        assert empty.reconstruction_residual(rho) == linalg.frob(rho)
        with pytest.raises(InvalidDecomposition, match="misses"):
            empty.validate(rho)
        assert empty.validate(np.zeros_like(rho)) == 0.0


class TestDecompositionResidual:
    """Every Separable verdict records the residual of the validation that
    accepted it."""

    @pytest.mark.parametrize("state", [
        *(random_sppt(d, 4, normal_s=True, seed=seed)[0] for d in (5, 6) for seed in range(4)),
        random_separable(5, 6, seed=0)[0],
    ], ids=[*(f"random_sppt({d},4,T,seed={seed})" for d in (5, 6) for seed in range(4)),
            "random_separable(5,6)"])
    def test_residual_is_the_certificate_residual(self, state):
        # the random_sppt inputs lift a separable 2 x 4 core; the
        # random_separable one ends in the prover's strong-PPT exit
        v = classify(state)
        assert v.classification == SEPARABLE
        residual = v.residuals["decomposition_residual"]
        assert residual == v.certificate.reconstruction_residual(state.rho)
        assert residual <= TOL_FLOOR * state.norm()


class TestTheoremResidual:
    """Every SeparableByTheorem verdict records how far its terms and
    embedded core miss the state, ungated."""

    @pytest.mark.parametrize("state", [
        sppt_counterexample_2x3(), random_sppt(6, 2, normal_s=False, seed=0)[0],
        ill_conditioned_sppt(3), ill_conditioned_sppt(24),
    ], ids=["rho1", "random_sppt(6,2)", "ill_conditioned_sppt(3)", "ill_conditioned_sppt(24)"])
    def test_residual_of_terms_and_core(self, state):
        v = classify(state)
        assert v.classification == SEPARABLE_BY_THEOREM
        cert = v.certificate
        lift = np.kron(np.eye(2), cert.embed)
        total = lift @ cert.core.rho @ lift.conj().T + sum(
            (np.kron(qubit, qudit) for qubit, qudit in cert.terms), np.zeros_like(state.rho))
        expected = np.linalg.norm(total - state.rho)
        residual = v.residuals["decomposition_residual"]
        assert abs(residual - expected) <= 1e-12 * state.norm()

    def test_a_small_support_exit_misses_by_its_compression(self):
        # ill_conditioned_sppt(24) exits small_support after 0 subtractions;
        # the compression at SUPPORT_CUTOFF drops couplings of order
        # sqrt(1e-9), 1.1e-5 of the state, which no gate reads
        state = ill_conditioned_sppt(24)
        v = classify(state)
        assert v.classification == SEPARABLE_BY_THEOREM
        assert 1e-6 * state.norm() < v.residuals["decomposition_residual"] < 1e-4 * state.norm()


class TestClassify:
    def test_invertible_x1_route_is_validated_against_the_input(self, monkeypatch):
        state, _ = random_sppt(4, 4, seed=7)
        assert classify(state).classification == SEPARABLE
        construct = separability._spectral_terms
        # the terms of a state 1e-6 away from the input
        monkeypatch.setattr(separability, "_spectral_terms", lambda f, scale: [
            (q, (1 + 1e-6) * m) for q, m in construct(f, scale)])
        verdict = classify(state)
        assert any(line.startswith("spectral construction failed") for line in verdict.trace_log)
        assert "decomposition_residual" not in verdict.residuals

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

    @pytest.mark.parametrize("d", [4, 5])
    def test_vanishing_x1_gives_one_product_term(self, d):
        # |1><1| (x) c has x1 = 0: the strong-PPT router's rank-0 exit
        rng = np.random.default_rng(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        c = g @ g.conj().T + 0.1 * np.eye(d)
        state = make_state(d, np.kron(np.diag([0.0, 1.0]), c))
        v = classify(state)
        assert v.classification == SEPARABLE
        assert len(v.certificate.terms) == 1
        assert v.residuals["decomposition_residual"] == v.certificate.validate(state.rho,
                                                                                tol=TOL_FLOOR)
        assert "x1 vanishes: the state is a single product term" in v.trace_log

    @pytest.mark.parametrize("t", [1e-3, 0.1])
    def test_entangled_core_with_a_tail_does_not_transfer(self, t):
        # the 2 x 5 family's factors with x2 = t |4><4|: the 2 x 4 core is
        # entangled, but the tail |1><1| (x) t^2 |4><4| keeps its verdict
        # from transferring to the state
        f = entangled_sppt_2x5(0.5).factors
        x2 = np.zeros((5, 5), dtype=complex)
        x2[4, 4] = t
        v = classify(assemble_state(SpptFactors(x1=f.x1, s=f.s, x2=x2)))
        assert "core verdict: EntangledRange" in v.trace_log
        assert (f"core is entangled but the tail has weight {t * t:.3e}; "
                "the verdict does not transfer") in v.trace_log
        assert not isinstance(v.certificate, separability.ReductionChain)
        assert not v.is_separable_class

    def test_subtraction_line_adds_up(self, monkeypatch):
        # "after N subtractions and M enumerations (X at canonical directions,
        # R solved by roots, Y re-checked; E evaluations, P polishes)": X + R +
        # Y = M, the methods of the prover's records, E and P their sums and
        # the two subtraction_* residuals, and N the number of terms
        runs = _record_prover(monkeypatch)
        v = classify(random_separable(4, 7, seed=0)[0])
        line = next(entry for entry in v.trace_log if entry.startswith("subtraction:"))
        match = re.search(r" after (\d+) subtractions and (\d+) enumerations "
                          r"\((\d+) at canonical directions, (\d+) solved by roots, "
                          r"(\d+) re-checked; "
                          r"(\d+) evaluations, (\d+) polishes\)", line)
        n, m, x, r, y, evaluations, polishes = map(int, match.groups())
        ((_, sub),) = runs
        methods = [record["method"] for record in sub.enumerations]
        assert x + r + y == m == len(methods) and r > 0 and y > 0
        assert (x, r, y) == tuple(map(methods.count, ("canonical", "roots", "recheck")))
        assert n == len(sub.reduction.terms) == sub.iterations
        for key, count in (("evaluations", evaluations), ("polishes", polishes)):
            total = sum(record[key] for record in sub.enumerations)
            assert v.residuals[f"subtraction_{key}"] == count == total

    def test_counterexample_2x4_separable_class(self):
        v = classify(sppt_counterexample_2x4())
        assert v.classification in (SEPARABLE, SEPARABLE_BY_THEOREM)
        assert not v.is_entangled_class

    def test_no_zero_tail_term(self):
        state = random_sppt(5, 5, seed=1)[0]
        v = classify(state)
        assert v.classification == SEPARABLE
        assert all(linalg.frob(np.kron(qubit, qudit)) > 1e-12 * state.norm()
                   for qubit, qudit in v.certificate.terms)

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
        # the rank gate and the spectral construction or the reduction read
        # the SVD of x1 that the strong-PPT check seeds from the
        # eigendecomposition of the a-block, so no 6 x 6 SVD runs
        state, _ = random_sppt(6, rank=rank, seed=2)
        shapes = []
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert classify(state).is_separable_class
        assert shapes.count((6, 6)) == 0

    @pytest.mark.parametrize("rank, pinv_calls", [(1, 0), (2, 1)])
    def test_p_max_formed_only_when_delta_plus_fails(self, monkeypatch, rank, pinv_calls):
        # the singular-a check accepts the positive part of delta at rank 1
        # and needs the Schur-complement bound, a pseudo-inverse, at rank 2
        state, _ = random_sppt(4, rank, normal_s=False, seed=0)
        calls = []
        pinv = np.linalg.pinv

        def counting(*args, **kwargs):
            calls.append(args)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting)
        assert classify(state).classification == SEPARABLE_BY_THEOREM
        assert len(calls) == pinv_calls

    def test_invertible_x1_route_validates_once(self, monkeypatch):
        # classify validates the spectral terms against its input, once
        state, _ = random_sppt(5, 5, seed=3, with_tail=True)
        checked = []
        validate = SeparableDecomposition.validate

        def recording(dec, rho, *args, **kwargs):
            checked.append(rho)
            return validate(dec, rho, *args, **kwargs)

        monkeypatch.setattr(SeparableDecomposition, "validate", recording)
        v = classify(state)
        assert v.classification == SEPARABLE
        assert len(checked) == 1 and checked[0] is state.rho

    @pytest.mark.parametrize("state, verdict, enumerations", [
        pytest.param(random_separable(5, 6, seed=0)[0], SEPARABLE, 1,
                     id="random_separable(5,6)"),
        pytest.param(random_separable(5, 7, seed=0)[0], SEPARABLE, 2,
                     id="random_separable(5,7)"),
        pytest.param(random_separable(6, 9, seed=9)[0], SEPARABLE, 3,
                     id="random_separable(6,9,seed=9)"),
        pytest.param(svd_reduce(random_sppt(6, 4, normal_s=False, seed=0)[1]).core,
                     PPT_UNDECIDED, 2, id="core of random_sppt(6,4)"),
    ])
    def test_subtraction_work_is_reported(self, monkeypatch, state, verdict, enumerations):
        # a verdict through the prover carries the summed work of its
        # enumerations, fresh searches and re-checks alike (each input: one
        # fresh search, by the roots, then one re-check per further
        # subtraction or, at the core, before it stalls)
        records = []
        enumerate_ = range_criterion._enumerate

        def recording(*args):
            out = enumerate_(*args)
            records.append(out.search)
            return out

        monkeypatch.setattr(range_criterion, "_enumerate", recording)
        report = json.loads(json.dumps(io.verdict_to_dict(classify(state))))
        assert report["class"] == verdict
        assert len(records) == enumerations
        for key in ("evaluations", "polishes"):
            total = sum(record[key] for record in records)
            assert report["residuals"][f"subtraction_{key}"] == total
            assert type(report["residuals"][f"subtraction_{key}"]) is int
        assert report["residuals"]["subtraction_evaluations"] > 0
        line = next(line for line in report["trace_log"] if line.startswith("subtraction:"))
        assert f"{report['residuals']['subtraction_evaluations']} evaluations" in line
        assert f"{report['residuals']['subtraction_polishes']} polishes" in line

    def test_classify_needs_no_scipy(self):
        # a fresh interpreter in which importing scipy fails runs both
        # spectral constructions: the invertible-x1 route and the prover's
        # strong-PPT exit at rank d
        script = textwrap.dedent("""
            import sys

            class Refuse:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError(f"{name} is refused")

            sys.meta_path.insert(0, Refuse())
            from spptkit import classify, random_separable, random_sppt
            for state in (random_sppt(6, 6, seed=1)[0], random_separable(5, 6, seed=0)[0]):
                print(classify(state).classification)
            print("scipy" in sys.modules)
        """)
        src = str(Path(separability.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out == [SEPARABLE, SEPARABLE, "False"]

    def test_classify_from_a_state_file_imports_neither_numpy_random_nor_scipy(self, tmp_path):
        # the benchmark's path, io.loads_state then classify, on the
        # separable_mix input whose prover solves an enumeration by the
        # roots; the state is drawn here, as the generators use numpy.random
        path = tmp_path / "state.json"
        path.write_text(io.dumps_state(random_separable(4, 7, seed=0)[0]), encoding="utf-8")
        script = textwrap.dedent("""
            import sys
            from pathlib import Path

            from spptkit import classify, io

            state = io.loads_state(Path(sys.argv[1]).read_text(encoding="utf-8"))
            print(classify(state).classification, "numpy.random" in sys.modules,
                  "scipy" in sys.modules)
        """)
        src = str(Path(separability.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert out == [PPT_UNDECIDED, "False", "False"]

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
