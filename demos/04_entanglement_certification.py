"""Certifying entanglement of strong-PPT states by the range criterion.

The one-parameter 2x5 family assembled here is strong-PPT (so its partial
transpose is automatically positive), yet entangled: its 2x4 core is a
bound entangled state whose range contains no product vector |e, f> with
|e*, f> in the range of the partial transpose.  The search is a
branch-and-bound over the qubit Bloch sphere: a cell is excluded when a
lower bound on the residual over the cell stays above the threshold; the
most promising cells are polished by Gauss-Newton.  The bound at the
centre is sqrt(lambda_min(G) - delta) for the Gram matrix G of the
constraints and a rounding margin delta (``mu_margin``); over the cell it
is the larger of that less the Lipschitz constant L (the state and
partial-transpose rows stacked in quadrature) times half the cell's exact
corner radius, and a first-order bound from G's eigenpair at the centre,
which follows the local slope of the residual
(``first_order_exclusions`` counts the cells only it excluded).  When every cell is excluded, the certificate's
``certified_bound`` is a lower bound on the residual over the whole
sphere, above the exclusion threshold: a proof, up to floating point and
the kernel cutoff, that no qualifying product vector exists.
"""

import numpy as np

from spptkit import classify, edge_check, sppt_check, sppt_residual, svd_reduce
from spptkit.states import entangled_sppt_2x5, horodecki_2x4, random_separable

b = 0.5
inst = entangled_sppt_2x5(b)
state, factors = inst.state, inst.factors
print(f"family member at b={b}: gamma1={inst.meta['gamma1']}, "
      f"gamma2={inst.meta['gamma2']:.6f}")
print("factor residual:", f"{sppt_residual(factors.x1, factors.s):.1e}",
      "-> strong-PPT by construction")
print("sppt_check on the assembled matrix:", sppt_check(state).status)
print()

reduction = svd_reduce(factors)
core = horodecki_2x4(b)
print(f"reduction: k={reduction.k}; core equals the closed-form 2x4 state:",
      np.abs(reduction.core.rho - core.rho).max() < 1e-12,
      f"(tail terms: {len(reduction.terms)})")
print()

print("searching for qualifying product vectors (full state)...")
cert = edge_check(state)
print("  conclusion:", cert.conclusion,
      "| certified bound:", f"{cert.certified_bound:.3e}",
      "| best residual:", f"{cert.worst_min_residual:.3e}",
      "| threshold:", cert.exclusion_threshold)
print("searching the 2x4 core...")
cert_core = edge_check(core)
print("  conclusion:", cert_core.conclusion,
      "| certified bound:", f"{cert_core.certified_bound:.3e}",
      "| best residual:", f"{cert_core.worst_min_residual:.3e}")
print("  L:", f"{cert_core.search['lipschitz']:.3f}",
      "| margin delta:", f"{cert_core.search['mu_margin']:.1e}",
      "| evaluations:", cert_core.search["evaluations"],
      "| first-order exclusions:", cert_core.search["first_order_exclusions"])
print()

verdict = classify(state)
print("classify:", verdict.classification)
for line in verdict.trace_log:
    print("   -", line)
print()

# control: on an explicitly separable state the same search succeeds
control, _ = random_separable(5, n_terms=4, seed=8)
cc = edge_check(control)
print("separable control:", cc.conclusion,
      "with residuals", f"{cc.found[0].residual_range:.1e} /",
      f"{cc.found[0].residual_pt_range:.1e}")
