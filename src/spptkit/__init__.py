"""spptkit: separability and strong-PPT analysis of qubit-qudit states.

A 2 x d density operator built as rho = X^dag X from a block
upper-triangular X = [[x1, s x1], [0, x2]] is called strong-PPT when its
partial transpose has the matching factorization with s replaced by its
adjoint.  This package assembles and tests such factorizations, builds
explicit separable decompositions where the factor structure permits,
reduces rank-deficient factorizations to lower-dimensional cores, and
certifies entanglement of PPT states through a range-criterion search.

The package loads its submodules on first use: ``import spptkit`` runs
none of them, and ``spptkit.horodecki_2x4`` loads ``states`` (with
``linalg`` and ``errors``) alone, not the search, the prover, the IO layer
or the CLI.  The public names are unchanged; ``spptkit.classify`` loads
the rest on its first access and is ``spptkit.separability.classify``.
"""

import sys

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "cli": (),
    "errors": (),
    "io": (),
    "linalg": (),
    "range_criterion": ("ProductVector", "RangeSearchCertificate", "edge_check"),
    "separability": ("Reduction", "SeparableDecomposition", "Verdict", "classify",
                     "decompose_small", "subtract_product_vectors", "svd_reduce"),
    "sphere": (),
    "sppt": ("SpptVerdict", "sppt_check", "sppt_residual"),
    "states": ("BlockView", "QubitQuditState", "SpptFactors", "assemble_state", "blocks",
               "entangled_sppt_2x5", "horodecki_2x4", "local_qudit_transform",
               "make_state", "maximally_mixed", "partial_transpose", "random_separable",
               "random_sppt", "sppt_counterexample_2x3", "sppt_counterexample_2x4"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    """Imports the submodule ``name`` belongs to and binds ``name`` here, so
    later reads are plain attribute reads."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, takes the import path that
    # ``python -X importtime`` reports.
    path = f"{__name__}.{module}"
    __import__(path)
    value = sys.modules[path] if name == module else getattr(sys.modules[path], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
