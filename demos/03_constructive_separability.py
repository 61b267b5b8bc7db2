"""Explicit separable decompositions from strong-PPT factorizations.

Invertible x1 forces the middle factor to be normal, and its spectral
decomposition turns the state into an explicit sum of product terms.
Rank-deficient x1 instead reduces the state to a smaller 2 x k core plus
a tail term; the reduction embeds a decomposition of the core and appends
the tail, giving one of the full state.
"""

import numpy as np

from spptkit import (
    assemble_state,
    classify,
    decompose_small,
    svd_reduce,
)
from spptkit.states import random_sppt

np.set_printoptions(precision=4, suppress=True)

# --- full-rank route: spectral construction ---------------------------------
state, factors = random_sppt(4, rank=4, normal_s=True, seed=11, with_tail=True)
verdict = classify(assemble_state(factors))
dec = verdict.certificate
print(f"classify: {verdict.classification}, by the spectral construction")
print(f"full-rank 2x4 instance: {len(dec.terms)} product terms "
      "(one per eigenvalue of s, plus the tail)")
print("reconstruction residual:",
      f"{dec.reconstruction_residual(state.rho):.2e}")
print("smallest factor eigenvalue:", f"{dec.min_factor_eig():.2e}")
qubit0 = dec.terms[0][0]
print("first qubit factor is rank one: eigenvalues",
      np.round(np.linalg.eigvalsh(qubit0), 5))
print()

# --- rank-deficient route: reduce, decompose the core, embed ----------------
state, factors = random_sppt(5, rank=3, normal_s=False, seed=22, with_tail=True)
reduction = svd_reduce(factors)
(_, tail), = reduction.terms
print(f"rank-3 2x5 instance reduces to a 2x{reduction.k} core "
      f"(PPT) plus a tail term of weight {np.linalg.norm(tail):.2f}")
core_dec = decompose_small(reduction.core)
print(f"core decomposed into {len(core_dec.terms)} product terms by "
      "subtraction")
lifted = reduction.explicit(core_dec)
print(f"embedded with the tail: {len(lifted.terms)} terms, residual against "
      f"the full state {lifted.reconstruction_residual(state.rho):.2e}")
print()

# --- the classifier picks these routes automatically ------------------------
for seed, (d, rank) in ((1, (4, 4)), (2, (5, 2)), (3, (4, 3))):
    state, _ = random_sppt(d, rank=rank, normal_s=(rank == d), seed=seed)
    verdict = classify(state)
    print(f"2x{d} rank-{rank} instance -> {verdict.classification}")
