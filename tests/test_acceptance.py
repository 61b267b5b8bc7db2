"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from spptkit import linalg
from spptkit.range_criterion import edge_check
from spptkit.separability import (
    ENTANGLED_RANGE,
    SEPARABLE,
    SEPARABLE_BY_THEOREM,
    SeparableDecomposition,
    classify,
    subtract_product_vectors,
    svd_reduce,
)
from spptkit.sppt import sppt_check, sppt_residual
from spptkit.states import (
    blocks,
    entangled_sppt_2x5,
    horodecki_2x4,
    join_blocks,
    local_qudit_transform,
    make_state,
    partial_transpose,
    partial_transpose_matrix,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)

from helpers import pt_witness_gram

EXPECTED_RESIDUAL_MATRIX = np.array(
    [[6.0, -6.0, -3.0], [-6.0, 0.0, 0.0], [-3.0, 0.0, -4.0]]) / 12.0


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # spin up BLAS threads before any timed section
    np.linalg.eigh(np.eye(16))
    npsvd = np.linalg.svd(np.ones((8, 8)))
    sppt_check(sppt_counterexample_2x3())
    yield


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_counterexample_residual_matrix():
    s = sppt_counterexample_2x3()

    def work():
        return sppt_check(s)

    verdict, elapsed = timed(work)
    assert verdict.status == "NotSppt"
    np.testing.assert_allclose(verdict.residual_matrix, EXPECTED_RESIDUAL_MATRIX,
                               atol=1e-12)
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"
    report(1, f"2x3 counterexample NotSppt with the exact residual matrix "
              f"({elapsed * 1e3:.2f} ms)")


def test_criterion_2_counterexample_positive_definite():
    s = sppt_counterexample_2x3()

    def work():
        a, b, c = blocks(s)
        a_inv = np.linalg.inv(a)
        mats = (a, c,
                c - b.conj().T @ a_inv @ b,
                c - b @ a_inv @ b.conj().T)
        return [float(np.linalg.eigvalsh(linalg.hermitianize(m)).min())
                for m in mats]

    mins, elapsed = timed(work)
    assert all(m > 0 for m in mins), mins
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"
    report(2, f"all four block matrices positive definite, minima {min(mins):.4f} "
              f"({elapsed * 1e3:.2f} ms)")


def test_criterion_3_embedded_counterexample():
    s = sppt_counterexample_2x4()

    def work():
        pt_min = float(np.linalg.eigvalsh(
            partial_transpose_matrix(s.rho, s.d)).min())
        return pt_min, sppt_check(s)

    (pt_min, verdict), elapsed = timed(work)
    assert pt_min >= -1e-10 * s.norm()
    assert verdict.status == "NotSppt"
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"
    report(3, f"2x4 embedding is PPT (min PT eig {pt_min:.2e}) and NotSppt "
              f"({elapsed * 1e3:.2f} ms)")


@pytest.mark.parametrize("b", [0.2, 0.5, 0.8])
def test_criterion_4_entangled_family(b):
    start = time.perf_counter()
    inst = entangled_sppt_2x5(b)
    state, factors = inst.state, inst.factors

    # (a) the generator's factors satisfy the strong-PPT condition
    residual = sppt_residual(factors.x1, factors.s)
    assert residual <= 1e-12, residual

    # (b) partial transpose positive
    pt_min = float(np.linalg.eigvalsh(partial_transpose(state).rho).min())
    assert pt_min >= -1e-10 * state.norm()

    # (c) reduction to the 2x4 core in closed form
    reduction = svd_reduce(factors)
    assert reduction.k == 4
    core = horodecki_2x4(b)
    assert np.abs(reduction.core.rho - core.rho).max() <= 1e-12

    # (d) no qualifying product vector for either state; classify agrees
    cert_full = edge_check(state)
    cert_core = edge_check(core)
    assert cert_full.conclusion == "NoneFound"
    assert cert_core.conclusion == "NoneFound"
    verdict = classify(state)
    assert verdict.classification == ENTANGLED_RANGE

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(4, f"b={b}: factors residual {residual:.1e}, PT min {pt_min:.1e}, "
              f"core matches, range search excludes product vectors "
              f"(worst minima {cert_full.worst_min_residual:.2e} / "
              f"{cert_core.worst_min_residual:.2e}), classify EntangledRange "
              f"({elapsed:.1f} s)")


def _validated_separable(state, verdict):
    assert verdict.classification in (SEPARABLE, SEPARABLE_BY_THEOREM), \
        verdict.classification
    if verdict.classification == SEPARABLE:
        dec = verdict.certificate
        assert isinstance(dec, SeparableDecomposition)
        assert dec.reconstruction_residual(state.rho) <= 1e-9 * state.norm()
        assert dec.min_factor_eig() >= -1e-10 * max(state.norm(), 1.0)
    else:
        cert = verdict.certificate
        assert cert.k <= 3
        assert cert.min_pt_eigenvalue >= -1e-8 * max(state.norm(), 1.0)


def test_criterion_5_all_small_sppt_instances_separable():
    start = time.perf_counter()
    n_full = n_low = 0

    for seed in range(200):
        state, _ = random_sppt(4, rank=4, normal_s=True, seed=seed,
                               with_tail=(seed % 3 == 0))
        verdict = classify(state)
        assert verdict.classification == SEPARABLE, (seed, verdict.classification)
        dec = verdict.certificate
        assert dec.reconstruction_residual(state.rho) <= 1e-9 * state.norm()
        assert dec.min_factor_eig() >= -1e-10 * max(state.norm(), 1.0)
        n_full += 1

    for seed in range(200):
        d = 4 + seed % 2
        rank = 1 + seed % 3
        state, _ = random_sppt(d, rank=rank, normal_s=(seed % 5 == 0),
                               seed=10_000 + seed)
        verdict = classify(state)
        _validated_separable(state, verdict)
        n_low += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(5, f"{n_full} full-rank and {n_low} low-rank strong-PPT instances "
              f"all classified separable with validated certificates "
              f"({elapsed:.1f} s)")


def test_criterion_6_partial_transpose_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    for trial in range(100):
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d + 1))
        normal_s = bool(rng.integers(0, 2)) or rank == d
        state, factors = random_sppt(d, rank=rank, normal_s=normal_s,
                                     seed=777 + trial, with_tail=True)
        pt = partial_transpose(state)
        # involution is exact, trace and hermiticity preserved
        assert np.array_equal(partial_transpose(pt).rho, state.rho)
        assert pt.trace() == state.trace()
        assert linalg.frob(pt.rho - pt.rho.conj().T) == 0.0
        # the adjoint-coupled factorization reproduces the partial transpose
        assert linalg.frob(pt.rho - pt_witness_gram(factors)) <= 1e-10 * state.norm()
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f} s"
    report(6, f"partial-transpose involution/trace/hermiticity exact and the "
              f"adjoint-factor identity holds on {checked} factor triples "
              f"({elapsed:.2f} s)")


def test_criterion_7_verdict_invariance_under_local_transforms():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    d = 4
    checked = 0
    for idx in range(50):
        if idx % 2 == 0:
            state, _ = random_sppt(d, rank=d, normal_s=True, seed=300 + idx,
                                   with_tail=True)
        else:
            state, _ = random_separable(d, n_terms=3 * d, seed=300 + idx)
        assert linalg.svd(blocks(state).a).rank == d
        base = sppt_check(state).status
        for _ in range(5):
            v = linalg.haar_unitary(d, rng) @ np.diag(rng.uniform(0.5, 2.0, d))
            transformed = local_qudit_transform(state, v)
            assert sppt_check(transformed).status == base, idx
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(7, f"strong-PPT status invariant under 5 nonsingular qudit "
              f"transforms on {checked} full-rank PPT states ({elapsed:.1f} s)")


def test_criterion_8_separable_controls_found():
    start = time.perf_counter()
    found = 0
    for idx in range(50):
        d = 2 + idx % 4  # dimensions 2..5
        state, _ = random_separable(d, seed=4000 + idx)
        cert = edge_check(state)
        assert cert.conclusion == "FoundProductVector", idx
        best = cert.found[0]
        assert best.residual_range <= 1e-8, (idx, best.residual_range)
        assert best.residual_pt_range <= 1e-8, (idx, best.residual_pt_range)
        found += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(8, f"range search found qualifying product vectors with residuals "
              f"<= 1e-8 on {found} explicit separable states ({elapsed:.1f} s)")


def test_criterion_9_heuristic_prover_on_embedded_counterexample():
    start = time.perf_counter()
    s = sppt_counterexample_2x4()
    sub = subtract_product_vectors(s)
    if sub.status == "decomposed":
        SeparableDecomposition(terms=sub.reduction.terms).validate(s.rho, tol=1e-8)
        detail = f"full decomposition with {len(sub.reduction.terms)} terms"
    else:
        detail = f"subtraction stopped with status {sub.status}"
    verdict = classify(s)
    assert verdict.classification in (SEPARABLE, SEPARABLE_BY_THEOREM), \
        verdict.classification
    assert not verdict.is_entangled_class
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(9, f"{detail}; classify returns {verdict.classification} "
              f"({elapsed:.1f} s)")
