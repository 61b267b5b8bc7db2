"""Tests for decompositions, reduction, lifting, subtraction, and classify."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from spptkit import io, linalg, range_criterion, separability, sppt
from spptkit.errors import (
    InvalidDecomposition,
    NotNormal,
    NotPpt,
    NotPsd,
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


def _record_enumerations(monkeypatch):
    """Record every enumeration the prover makes, as ("search" | "recheck",
    state, result), in call order."""
    calls = []
    fresh, recheck = range_criterion._enumerate, range_criterion._recheck

    def searching(s, con):
        calls.append(("search", s, fresh(s, con)))
        return calls[-1][2]

    def rechecking(s, con, previous):
        calls.append(("recheck", s, recheck(s, con, previous)))
        return calls[-1][2]

    monkeypatch.setattr(range_criterion, "_enumerate", searching)
    monkeypatch.setattr(range_criterion, "_recheck", rechecking)
    return calls


def _record_range_searches(monkeypatch):
    """Record the search record of every ``edge_check`` call made through
    ``separability.edge_check`` (``classify``'s step 6 and the prover's
    chain), in call order."""
    searches = []
    edge_check = separability.edge_check

    def recording(s):
        cert = edge_check(s)
        searches.append(cert.search)
        return cert

    monkeypatch.setattr(separability, "edge_check", recording)
    return searches


def _same_terms(got, want):
    """Whether two subtraction results hold bitwise equal terms."""
    return len(got.reduction.terms) == len(want.reduction.terms) and all(
        np.array_equal(g, w) for a, b in zip(got.reduction.terms, want.reduction.terms)
        for g, w in zip(a, b))


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
        monkeypatch.setattr(range_criterion, "_recheck",
                            lambda s, con, previous: range_criterion._enumerate(s, con))
        fresh = classify(state)
        assert reused.classification == fresh.classification
        for verdict in (reused, fresh):
            if verdict.classification == SEPARABLE:
                verdict.certificate.validate(state.rho, tol=TOL_FLOOR)
        if reused.classification == SEPARABLE:
            assert len(reused.certificate.terms) == len(fresh.certificate.terms)

    def test_one_sphere_search(self, monkeypatch):
        # the 2 x 4 core of random_sppt(6, 4): the chain stops after the
        # lead, whose subtraction leaves the rank as it is, and the loop
        # searches once and re-checks once
        state = svd_reduce(random_sppt(6, 4, normal_s=False, seed=0)[1]).core
        calls = []
        search = range_criterion._search

        def counting(*args, **kwargs):
            calls.append(kwargs["certify"])
            return search(*args, **kwargs)

        monkeypatch.setattr(range_criterion, "_search", counting)
        verdict = classify(state)
        assert verdict.classification == PPT_UNDECIDED
        assert calls == [True, False]      # edge_check, then one enumeration
        line = next(entry for entry in verdict.trace_log if entry.startswith("subtraction:"))
        assert "1 searched the sphere, 1 re-checked" in line

    @pytest.mark.parametrize("d, n", [(5, 7), (3, 6)])
    def test_rechecked_vectors_qualify_for_the_remainder(self, d, n, monkeypatch):
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(random_separable(d, n, seed=0)[0])
        assert res.status == "sppt_core"
        assert res.rechecks >= 1 and res.searches + res.rechecks == len(calls)
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
        assert res.searches + res.rechecks == len(calls)

    def test_capped_enumeration_is_followed_by_a_search(self, monkeypatch):
        monkeypatch.setattr(range_criterion, "ENUMERATION_CANDIDATES", 1)
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(random_separable(5, 7, seed=0)[0])
        assert len(calls) >= 2
        assert all(len(out.found) == 1 and not out.exhaustive for _, _, out in calls[:-1])
        assert [kind for kind, _, _ in calls] == ["search"] * len(calls)
        assert (res.searches, res.rechecks) == (len(calls), 0)


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

    @pytest.mark.parametrize("seed", [73, 81])
    def test_stalls_before_enumerating_a_remainder_that_fails(self, seed, monkeypatch):
        state = ill_conditioned_sppt(seed)
        calls = _record_enumerations(monkeypatch)
        res = subtract_product_vectors(state)
        assert res.status == "stalled"
        assert _fails_positivity_rule(res.remainder.rho, state.d)
        assert calls and not any(_fails_positivity_rule(s.rho, s.d) for _, s, _ in calls)

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
        # random_separable(5, 7): a chain of two subtractions ends the proof;
        # random_separable(4, 6): the lead drains no level, and the chain
        # stops before subtracting it;
        # random_separable(6, 9): the first remainder's range search finds
        # no vector, and the loop runs from the input
        seen = _record_decompositions(monkeypatch)
        separability.classify(state)
        repeats = len(seen) - len(set(seen))
        assert seen and repeats == 0


def _lead_of(state):
    """The product vector ``classify``'s range search hands the prover."""
    cert = range_criterion.edge_check(state)
    assert cert.conclusion == "FoundProductVector" and cert.search["evaluations"] > 0
    return cert.found[0]


class TestLead:
    """The prover subtracts the range search's product vector before it
    enumerates, then each vector the range search finds on the sphere of the
    last remainder, and keeps the chain only when a remainder exits."""

    @staticmethod
    def _classify_chained(d, n, seed, monkeypatch):
        """``classify(random_separable(d, n, seed))``, its first prover
        result, and, when that chain decided it, the checks that it took
        n - d subtractions, n - d - 1 range searches and no enumeration."""
        state, _ = random_separable(d, n, seed=seed)
        calls = _record_enumerations(monkeypatch)
        results = []
        prover = separability.subtract_product_vectors

        def recording(*args, **kwargs):
            results.append(prover(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(separability, "subtract_product_vectors", recording)
        v = classify(state)
        sub = results[0]
        if sub.led:
            k = n - d
            assert v.classification == SEPARABLE
            v.certificate.validate(state.rho, tol=TOL_FLOOR)
            assert (sub.status, sub.iterations, sub.searches, sub.rechecks, sub.chained,
                    sub.chain_searches) == ("sppt_core", k, 0, 0, k, k - 1)
            assert calls == []
            line = next(entry for entry in v.trace_log if entry.startswith("subtraction:"))
            assert f" after {k} subtractions and 0 enumerations " in line
            assert line.endswith(f"; a chain of {k} range-search product vectors and "
                                 f"{k - 1} range searches ended it")
        return sub

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_d_plus_one_ends_after_one_subtraction(self, d, seed, monkeypatch):
        # a PPT remainder of rank d is separable, and its a-block is
        # invertible, so the strong-PPT exit decides it
        assert self._classify_chained(d, d + 1, seed, monkeypatch).led

    # Inputs of rank d + 2 and d + 3 with a lead whose chain stops: at
    # (4, 6) the lead's weight is the partial transpose's, so it drains no
    # level and is not subtracted, and at (6, 9, 0) the first remainder's
    # range search finds no vector.  (4, 7) and (5, 8) are the continuum
    # case, with no lead.
    CHAIN_STOPS = {(4, 6, 0), (4, 6, 1), (6, 9, 0)}

    @pytest.mark.parametrize("d, n", [(d, d + k) for d in (4, 5, 6) for k in (2, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_d_plus_k_ends_after_k_subtractions(self, d, n, seed, monkeypatch):
        # each subtraction the state limits drops the rank by one, and a PPT
        # remainder of rank d is separable (KCKL), so the chain decides a
        # rank-(d + k) input in k subtractions and k - 1 range searches
        sub = self._classify_chained(d, n, seed, monkeypatch)
        if 2 * (2 * d - n) < d:         # fewer kernel rows than d: no lead
            assert sub.chained == 0
        else:
            assert sub.led == ((d, n, seed) not in self.CHAIN_STOPS)

    # (state, chained, chain_searches) of chains that stop: the lead's
    # weight drains no level of the state, so nothing is subtracted; the
    # first remainder's range search finds nothing; the third vector's
    # weight drains no level of the second remainder
    STOPPED = [
        pytest.param(random_separable(4, 6, seed=0)[0], 0, 0, id="random_separable(4,6)"),
        pytest.param(random_separable(6, 9, seed=0)[0], 1, 1, id="random_separable(6,9)"),
        pytest.param(random_sppt(8, 4, normal_s=False, seed=2)[0], 2, 2,
                     id="random_sppt(8,4,normal_s=False,seed=2)"),
    ]

    @pytest.mark.parametrize("state, chained, chain_searches", STOPPED)
    def test_a_chain_that_stops_changes_nothing(self, state, chained, chain_searches,
                                                monkeypatch):
        # the terms, the status and the enumerations are those of a run
        # without a lead; the work adds the chain's range searches
        lead = _lead_of(state)
        searches = _record_range_searches(monkeypatch)
        led = subtract_product_vectors(state, lead=lead)
        plain = subtract_product_vectors(state)
        assert (led.chained, led.chain_searches, led.led) == (chained, chain_searches, False)
        assert len(searches) == chain_searches
        assert led.status == plain.status
        for name in ("iterations", "searches", "rechecks"):
            assert getattr(led, name) == getattr(plain, name), name
        for name in ("evaluations", "polishes"):
            chain_work = sum(search[name] for search in searches)
            assert getattr(led, name) == getattr(plain, name) + chain_work, name
        assert _same_terms(led, plain)

    def test_continuum_case_gives_no_lead(self, monkeypatch):
        # full rank: edge_check's vectors come from the canonical
        # directions, without a search, and the prover gets none
        leads = []
        prover = separability.subtract_product_vectors

        def recording(s, lead=None):
            leads.append(lead)
            return prover(s, lead)

        monkeypatch.setattr(separability, "subtract_product_vectors", recording)
        classify(random_separable(4, 8, seed=0)[0])
        assert leads == [None]

    @pytest.mark.parametrize("outcome", ["continuum", "NoneFound", "NotPsd"])
    def test_a_remainder_without_a_sphere_vector_stops_the_chain(self, outcome,
                                                                 monkeypatch):
        # random_separable(5, 7): the chain needs the first remainder's
        # range search; a continuum-case answer (no evaluations), no vector
        # or a ValidationError stops it after the lead, as it is
        state, _ = random_separable(5, 7, seed=0)
        lead = _lead_of(state)
        edge_check = range_criterion.edge_check

        def answering(s):
            cert = edge_check(s)
            if outcome == "NotPsd":
                raise NotPsd("a kernel needs a PSD matrix")
            if outcome == "NoneFound":
                return dataclasses.replace(cert, conclusion="NoneFound", found=[])
            return dataclasses.replace(cert, search={**cert.search, "evaluations": 0})

        monkeypatch.setattr(separability, "edge_check", answering)
        res = subtract_product_vectors(state, lead=lead)
        plain = subtract_product_vectors(state)
        assert (res.chained, res.chain_searches, res.led) == (1, 1, False)
        assert res.status == plain.status == "sppt_core"
        assert (res.searches, res.rechecks) == (plain.searches, plain.rechecks) == (1, 1)
        assert _same_terms(res, plain)

    def test_a_lead_that_drains_no_level_builds_no_remainder(self, monkeypatch):
        # random_separable(4, 6): the partial transpose limits the lead's
        # weight, below the state's limit, so it drains no level of the
        # state; the chain stops before subtracting it, and the prover's
        # first subtraction comes after its first enumeration
        state, _ = random_separable(4, 6, seed=0)
        lead = _lead_of(state)
        lam = _max_subtraction_weight(state.eig, state.pt_eig, lead.e, lead.f, state.trace())
        limit = separability._rank_one_weight(state.eig, np.outer(lead.e, lead.f).ravel())
        assert lam < (1 - separability.SUPPORT_CUTOFF) * limit
        events = []
        for module, name in ((separability, "_subtract"), (range_criterion, "_enumerate")):
            def recording(*args, real=getattr(module, name), name=name):
                events.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, recording)
        res = subtract_product_vectors(state, lead=lead)
        assert (res.chained, res.chain_searches, res.led) == (0, 0, False)
        assert events[0] == "_enumerate"

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subtractions_stay_within_the_total_rank(self, d, k, monkeypatch):
        # a maximal subtraction drops the rank of the remainder or of its
        # partial transpose, so a run that makes progress needs at most
        # rank rho + rank rho^Gamma <= 4 d subtractions, half the prover's
        # budget of 8 d (the rank need not register a drop at RANK_CUTOFF
        # after every step, so only the total is checked)
        runs = []
        prover = separability.subtract_product_vectors

        def recording(s, lead=None):
            runs.append((s, prover(s, lead)))
            return runs[-1][1]

        monkeypatch.setattr(separability, "subtract_product_vectors", recording)
        for seed in range(4):
            classify(random_separable(d, d + k, seed=seed)[0])
        assert runs
        for s, sub in runs:
            total = sum(int(eig.support(linalg.RANK_CUTOFF).sum()) for eig in (s.eig, s.pt_eig))
            assert sub.iterations <= total


class TestPolishCap:
    def test_near_miss_valley_polishes_few_centres(self, monkeypatch):
        # every centre of this state's near-miss valleys reads mu_lo = 0, so
        # every one counts as at the threshold; the per-level cap on polish
        # attempts keeps them to a few hundred (some 55,000 uncapped)
        calls = []
        polish = range_criterion._polish

        def counting(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(range_criterion, "_polish", counting)
        assert classify(ill_conditioned_sppt(51)).classification == SEPARABLE_BY_THEOREM
        assert len(calls) < 1000


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
            lam = _max_subtraction_weight(rho_eig, pt_eig, e, f, rho.trace().real)
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
        assert _max_subtraction_weight(linalg.EigResult.of(rho), linalg.EigResult.of(pt),
                                       e, f, rho.trace().real) == 0.0


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
        return separability._drains_level(linalg.EigResult.of(self._marginal(rho, d)), f, lam)

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

        for name in ("_enumerate", "_recheck"):
            monkeypatch.setattr(range_criterion, name, recording(getattr(range_criterion, name)))
        subtract_product_vectors(state)
        ranked = 0
        for s, e, f in met:
            lam = _max_subtraction_weight(s.eig, s.pt_eig, e, f, s.trace())
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
            w = separability._rank_one_weight(marginal, f)
            assert w > 0
            for lam, drains in ((w / 2, False), ((1 - 1e-12) * w, True), (w, True)):
                assert self._closed_drains(state.rho, 4, f, lam) is drains
                assert self._eig_drains(state.rho, 4, f, lam) is drains

    def test_off_support_vector_drains_nothing(self):
        # f outside the marginal's support: w = 0, which reads "no level"
        rho = np.zeros((8, 8), dtype=complex)
        rho[:3, :3] = rho[4:7, 4:7] = np.eye(3) / 6
        f = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        assert separability._rank_one_weight(linalg.EigResult.of(self._marginal(rho, 4)), f) == 0
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
        # "after N subtractions and M enumerations (X searched the sphere,
        # Y re-checked; ...)": X + Y = M, and N is the number of terms
        results = []
        prover = separability.subtract_product_vectors

        def recording(*args, **kwargs):
            results.append(prover(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(separability, "subtract_product_vectors", recording)
        v = classify(random_separable(4, 7, seed=0)[0])
        line = next(entry for entry in v.trace_log if entry.startswith("subtraction:"))
        match = re.search(r" after (\d+) subtractions and (\d+) enumerations "
                          r"\((\d+) searched the sphere, (\d+) re-checked; ", line)
        n, m, x, y = map(int, match.groups())
        (sub,) = results
        assert x + y == m
        assert (x, y) == (sub.searches, sub.rechecks)
        assert n == len(sub.reduction.terms) == sub.iterations

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

    @pytest.mark.parametrize("state, verdict, chain_searches, enumerations", [
        pytest.param(random_separable(5, 6, seed=0)[0], SEPARABLE, 0, 0,
                     id="random_separable(5,6)"),
        pytest.param(random_separable(5, 7, seed=0)[0], SEPARABLE, 1, 0,
                     id="random_separable(5,7)"),
        pytest.param(random_separable(6, 9, seed=9)[0], SEPARABLE, 1, 3,
                     id="random_separable(6,9,seed=9)"),
        pytest.param(svd_reduce(random_sppt(6, 4, normal_s=False, seed=0)[1]).core,
                     PPT_UNDECIDED, 0, 2, id="core of random_sppt(6,4)"),
    ])
    def test_subtraction_work_is_reported(self, monkeypatch, state, verdict, chain_searches,
                                          enumerations):
        # a verdict through the prover carries the summed work of the
        # chain's range searches and of its enumerations, fresh searches and
        # re-checks alike (random_separable(5, 6): none, as the range
        # search's vector ends the proof; random_separable(5, 7): the chain's
        # one range search; random_separable(6, 9, seed=9): one range search
        # and three fresh searches; the core: one fresh search and one
        # re-check)
        records = []
        for name in ("_enumerate", "_recheck"):
            real = getattr(range_criterion, name)

            def recording(*args, real=real):
                out = real(*args)
                records.append(out.search)
                return out

            monkeypatch.setattr(range_criterion, name, recording)
        searches = _record_range_searches(monkeypatch)
        report = json.loads(json.dumps(io.verdict_to_dict(classify(state))))
        assert report["class"] == verdict
        # the first range search is classify's own, step 6
        assert (len(searches) - 1, len(records)) == (chain_searches, enumerations)
        for key in ("evaluations", "polishes"):
            total = sum(record[key] for record in records + searches[1:])
            assert report["residuals"][f"subtraction_{key}"] == total
            assert type(report["residuals"][f"subtraction_{key}"]) is int
        assert (report["residuals"]["subtraction_evaluations"] > 0) == (
            chain_searches + enumerations > 0)
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
