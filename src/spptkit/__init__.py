"""spptkit: separability and strong-PPT analysis of qubit-qudit states.

A 2 x d density operator built as rho = X^dag X from a block
upper-triangular X = [[x1, s x1], [0, x2]] is called strong-PPT when its
partial transpose has the matching factorization with s replaced by its
adjoint.  This package assembles and tests such factorizations, builds
explicit separable decompositions where the factor structure permits,
reduces rank-deficient factorizations to lower-dimensional cores, and
certifies entanglement of PPT states through a range-criterion search.
"""

__version__ = "0.1.0"

from . import cli, errors, io, linalg, range_criterion, separability, sphere, sppt, states
from .range_criterion import (
    ProductVector,
    RangeSearchCertificate,
    edge_check,
)
from .separability import (
    Reduction,
    SeparableDecomposition,
    Verdict,
    classify,
    decompose_small,
    subtract_product_vectors,
    svd_reduce,
)
from .sppt import (
    SpptFactors,
    SpptVerdict,
    assemble_state,
    sppt_check,
    sppt_residual,
)
from .states import (
    BlockView,
    QubitQuditState,
    blocks,
    entangled_sppt_2x5,
    horodecki_2x4,
    local_qudit_transform,
    make_state,
    maximally_mixed,
    partial_transpose,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)

__all__ = [
    "__version__",
    "BlockView",
    "ProductVector",
    "QubitQuditState",
    "RangeSearchCertificate",
    "Reduction",
    "SeparableDecomposition",
    "SpptFactors",
    "SpptVerdict",
    "Verdict",
    "assemble_state",
    "blocks",
    "classify",
    "cli",
    "decompose_small",
    "edge_check",
    "entangled_sppt_2x5",
    "errors",
    "horodecki_2x4",
    "io",
    "linalg",
    "local_qudit_transform",
    "make_state",
    "maximally_mixed",
    "partial_transpose",
    "random_separable",
    "random_sppt",
    "range_criterion",
    "separability",
    "sphere",
    "sppt",
    "sppt_check",
    "sppt_counterexample_2x3",
    "sppt_counterexample_2x4",
    "sppt_residual",
    "states",
    "subtract_product_vectors",
    "svd_reduce",
]
