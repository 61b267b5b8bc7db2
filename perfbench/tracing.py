"""Spans around spptkit's layers, installed from outside the package.

``Recorder.install`` replaces every public function of the traced spptkit
modules, under every module-level name that refers to it (so
``separability.edge_check``, imported by name, is patched as well as
``range_criterion.edge_check``), plus the ``numpy.linalg`` entry points
spptkit calls.  Each call then records a span: name, start, end, the span
that was open when it started, and a small info value taken from its
arguments and result.  Spans stay in memory; ``layer_metrics`` turns the
spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

from spptkit import cli, io, range_criterion, separability, sppt, states

TRACED_MODULES = (separability, sppt, range_criterion, states, io, cli)
KERNEL_FUNCTIONS = ("svd", "eigh", "eigvalsh")

NAME, START, END, PARENT, INFO = range(5)


def _svd_matrices(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _edge_info(args, kwargs, cert):
    return (cert.conclusion, len(cert.refined_minima), cert.worst_min_residual)


# Per-span info, computed after the call returns.
_INFO = {
    "kernel.svd": _svd_matrices,
    "range_criterion.edge_check": _edge_info,
    "range_criterion.product_vectors_in_range": lambda a, k, found: len(found),
    "separability.subtract_product_vectors": lambda a, k, sub: (sub.status, sub.iterations),
    "sppt.sppt_check": lambda a, k, verdict: verdict.status,
}


class Recorder:
    """Holds spans and the patches that record them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append((index, name, time.perf_counter_ns()))

    def _close(self, info=None):
        # A span is stored as a tuple of atoms once closed, which the garbage
        # collector stops tracking, so a long run does not slow collections.
        end = time.perf_counter_ns()
        index, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[index] = (name, start, end, parent, info)

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name, fn):
        describe = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    info = describe(args, kwargs, result)
            finally:
                self._close(info)
            return result

        return wrapper

    def install(self):
        """Patch every traced name; ``uninstall`` restores the originals."""
        wrappers = {}
        owners = {m.__name__ for m in TRACED_MODULES}
        for module in TRACED_MODULES:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ not in owners):
                    continue
                if fn not in wrappers:
                    short = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._wrap(f"{short}.{fn.__name__}", fn)
                self._patch(module, attr, wrappers[fn])
        for attr in KERNEL_FUNCTIONS:
            self._patch(np.linalg, attr, self._wrap(f"kernel.{attr}", getattr(np.linalg, attr)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Layer functions that count as children when a classify span's self time
# is taken, and the constructive separability routes.
CLASSIFY_CHILDREN = frozenset({
    "separability.classify", "sppt.sppt_check", "range_criterion.edge_check",
    "separability.subtract_product_vectors", "separability.decompose_full_rank",
    "separability.svd_reduce", "separability.lift_decomposition",
    "separability.decompose_small",
})
CONSTRUCTIVE = frozenset({
    "separability.decompose_full_rank", "separability.svd_reduce",
    "separability.lift_decomposition", "separability.decompose_small",
})
SUBTRACT_SUCCESS = ("decomposed", "small_support", "sppt_core")

# name -> (unit, better); the order is the report order.
LAYER_METRICS = {
    "range_criterion.edge_check_s": ("s", "lower"),
    "range_criterion.edge_check_calls": ("count", "lower"),
    "range_criterion.none_found": ("count", "higher"),
    "range_criterion.found": ("count", "higher"),
    "range_criterion.pv_search_s": ("s", "lower"),
    "range_criterion.pv_search_calls": ("count", "lower"),
    "range_criterion.kernel_basis_s": ("s", "lower"),
    "range_criterion.refined_minima": ("count", "lower"),
    "range_criterion.found_ratio": ("ratio", "higher"),
    "range_criterion.margin_min": ("residual", "higher"),
    "kernel.svd_calls": ("count", "lower"),
    "kernel.svd_matrices": ("count", "lower"),
    "kernel.svd_s": ("s", "lower"),
    "kernel.svd_batched_matrices": ("count", "lower"),
    "kernel.svd_batched_s": ("s", "lower"),
    "kernel.svd_single_calls": ("count", "lower"),
    "kernel.eigh_calls": ("count", "lower"),
    "kernel.eigh_s": ("s", "lower"),
    "separability.classify_calls": ("count", "lower"),
    "separability.subtract_s": ("s", "lower"),
    "separability.subtract_iterations": ("count", "lower"),
    "separability.subtract_success_ratio": ("ratio", "higher"),
    "separability.constructive_s": ("s", "lower"),
    "separability.self_s": ("s", "lower"),
    "sppt.sppt_check_s": ("s", "lower"),
    "sppt.sppt_check_calls": ("count", "lower"),
    "sppt.undecided": ("count", "lower"),
    "states.pt_calls": ("count", "lower"),
    "io.state_roundtrip_s": ("s", "lower"),
    "io.report_s": ("s", "lower"),
    "io.report_bytes": ("B", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list, first: int, last: int) -> dict:
    """Per-layer metrics of the spans ``spans[first:last]`` (one pass).

    Ratios with no attempts and ``margin_min`` with no NoneFound
    certificate are reported as 0.  ``io.report_bytes`` and the
    ``trace.*`` metrics come from the pass itself, not from spans.
    """
    window = range(first, last)
    by_name: dict = {}
    for i in window:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def dur(i):
        return (spans[i][END] - spans[i][START]) / 1e9

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return sum(dur(i) for n in names for i in by_name.get(n, ()))

    def nearest(i, names):
        """Index of the closest ancestor of span i whose name is in names."""
        p = spans[i][PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        return p

    def outer(names):
        """Time in spans of ``names`` not nested inside another of them."""
        return sum(dur(i) for n in names for i in by_name.get(n, ())
                   if nearest(i, names) is None)

    def minus_children(parents, children):
        """Parent spans' time minus their nearest-descendant child spans."""
        scope = frozenset(parents) | frozenset(children)
        own = {i: dur(i) for n in parents for i in by_name.get(n, ())}
        for n in children:
            for i in by_name.get(n, ()):
                p = nearest(i, scope)
                if p in own:
                    own[p] -= dur(i)
        return sum(own.values())

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, ())]

    svd = infos("kernel.svd")
    edges = infos("range_criterion.edge_check")
    margins = [m for c, _, m in edges if c == "NoneFound"]
    found_counts = infos("range_criterion.product_vectors_in_range")
    subs = infos("separability.subtract_product_vectors")
    return {
        "range_criterion.edge_check_s": total("range_criterion.edge_check"),
        "range_criterion.edge_check_calls": len(edges),
        "range_criterion.none_found": sum(c == "NoneFound" for c, _, _ in edges),
        "range_criterion.found": sum(c == "FoundProductVector" for c, _, _ in edges),
        "range_criterion.pv_search_s": total("range_criterion.product_vectors_in_range"),
        "range_criterion.pv_search_calls": len(found_counts),
        "range_criterion.kernel_basis_s": total("range_criterion.kernel_basis"),
        "range_criterion.refined_minima": sum(n for _, n, _ in edges),
        "range_criterion.found_ratio":
            sum(found_counts) / len(found_counts) if found_counts else 0.0,
        "range_criterion.margin_min": min(margins) if margins else 0.0,
        "kernel.svd_calls": len(svd),
        "kernel.svd_matrices": sum(svd),
        "kernel.svd_s": total("kernel.svd"),
        "kernel.svd_batched_matrices": sum(n for n in svd if n > 1),
        "kernel.svd_batched_s": sum(dur(i) for i in by_name.get("kernel.svd", ())
                                    if spans[i][INFO] > 1),
        "kernel.svd_single_calls": sum(n == 1 for n in svd),
        "kernel.eigh_calls": calls("kernel.eigh", "kernel.eigvalsh"),
        "kernel.eigh_s": total("kernel.eigh", "kernel.eigvalsh"),
        "separability.classify_calls": calls("separability.classify"),
        "separability.subtract_s": outer(("separability.subtract_product_vectors",)),
        "separability.subtract_iterations": sum(n for _, n in subs),
        "separability.subtract_success_ratio":
            sum(s in SUBTRACT_SUCCESS for s, _ in subs) / len(subs) if subs else 0.0,
        "separability.constructive_s": outer(CONSTRUCTIVE),
        "separability.self_s": minus_children(("separability.classify",),
                                              CLASSIFY_CHILDREN),
        "sppt.sppt_check_s": total("sppt.sppt_check"),
        "sppt.sppt_check_calls": calls("sppt.sppt_check"),
        "sppt.undecided": sum(s == "Undecided" for s in infos("sppt.sppt_check")),
        "states.pt_calls": calls("states.partial_transpose_matrix"),
        "io.state_roundtrip_s": outer(("io.dumps_state", "io.loads_state", "io.load_state")),
        "io.report_s": outer(("io.verdict_to_dict", "bench.report_json")),
        "cli.overhead_s": minus_children(("cli.main",), ("separability.classify",)),
    }
