"""Seeded inputs of the spptkit benchmark and their independently known answers.

Each workload is a list of ``Case`` records built from the workload seed
alone.  A case carries the state handed to spptkit and the answer the
benchmark knows without running spptkit (``KNOWN`` below), so a verdict can
be judged against it.  Nothing here runs ``classify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from spptkit import states

# Known answer and its reason, per generator family:
#   "separable": the verdict must not be EntangledNpt / EntangledRange;
#   "entangled": the verdict must not be Separable / SeparableByTheorem;
#   "npt":       the verdict must be EntangledNpt;
#   "per input": the benchmark computes "separable" or "npt" for each state.
KNOWN = {
    "horodecki_2x4": ("entangled",
                      "bound entangled for 0 < b < 1 (Horodecki, PLA 232, 333, 1997)"),
    "entangled_sppt_2x5": ("entangled",
                           "strong-PPT family whose 2 x 4 core is horodecki_2x4 (paper)"),
    "random_sppt_full_rank": ("separable",
                              "rank(x1) = d forces a normal s (paper)"),
    "random_sppt_rank_le_3": ("separable",
                              "strong-PPT with rank(x1) <= 3 reduces to a PPT 2 x k core, "
                              "k <= 3, which is separable (Woronowicz 1976)"),
    "random_separable": ("separable", "convex mixture of product states by construction"),
    "ppt_mixture": ("per input",
                    "2 x 2 or 2 x 3: PPT by the benchmark's own numpy check means "
                    "separable (Peres-Horodecki)"),
    "rho1": ("separable", "PPT 2 x 3 state (Woronowicz 1976)"),
    "rho2": ("separable", "rho1 embedded in 2 x 4 plus a product term"),
    "pure": ("per input",
             "numpy Schmidt coefficients: two nonzero means NPT, one means product"),
}

SEPARABLE_CLASSES = ("Separable", "SeparableByTheorem")
ENTANGLED_CLASSES = ("EntangledNpt", "EntangledRange")
UNDECIDED = "PptUndecided"


@dataclass(frozen=True)
class Case:
    """One input of a workload."""

    label: str
    family: str
    state: states.QubitQuditState
    known: Optional[str]
    via_cli: bool = False


def _case(label, family, state, known="from table", via_cli=False) -> Case:
    if known == "from table":
        known = KNOWN[family][0]
    return Case(label, family, state, known, via_cli)


def contradicts(known: Optional[str], classification: str) -> bool:
    """True when a verdict contradicts the known answer of its case."""
    if known == "separable":
        return classification in ENTANGLED_CLASSES
    if known == "entangled":
        return classification in SEPARABLE_CLASSES
    if known == "npt":
        return classification != "EntangledNpt"
    return False


def partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """Qubit partial transpose by index swap, independent of spptkit."""
    return rho.reshape(2, d, 2, d).transpose(2, 1, 0, 3).reshape(2 * d, 2 * d)


def _pure(d: int, rng: np.random.Generator, product: bool):
    if product:
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = np.kron(e, f)
    else:
        psi = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    psi /= np.linalg.norm(psi)
    schmidt = np.linalg.svd(psi.reshape(2, d), compute_uv=False)
    known = "npt" if schmidt[1] > 1e-6 else "separable"
    return states.make_state(d, np.outer(psi, psi.conj())), known


def _ppt_mixture(d: int, rng: np.random.Generator):
    """p |psi><psi| + (1 - p) 1/(2d) at 80% of the PPT threshold p*."""
    psi = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    psi /= np.linalg.norm(psi)
    s1, s2 = np.linalg.svd(psi.reshape(2, d), compute_uv=False)
    p = 0.8 / (1.0 + 2 * d * s1 * s2)
    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(2 * d) / (2 * d)
    min_pt = np.linalg.eigvalsh(partial_transpose(rho, d)).min()
    known = "separable" if min_pt > 1e-12 else "npt"
    return states.make_state(d, rho), known


def _gen_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# The range search and the subtraction prover have costs that jump between
# fresh draws of one family (2-core x86-64 VM, OpenBLAS 0.3.31, one thread):
# 1.4 s to 12.5 s for random_sppt(5, 4, normal_s=False) over ten seeds,
# 0.2 s to 9.9 s for random_sppt(5, 4, normal_s=True) over sixty, 0.3 s to
# 17 s for random_separable(4, 5) over eight; a qudit rotation of one
# instance moved it from 2.8 s to 16 s.  One run cannot average that, so
# separable_mix draws its inputs once, at generator seed 0, trajectory.py
# classifies the other such families once, and the workload seed draws only
# inputs whose cost it moves little: the b of the Horodecki families and
# the constructive inputs.  The two search workloads hold few inputs, so
# that one run makes several passes and the median input time sits inside a
# group of similar inputs.
FIXED_SEED = 0


def entangled_ppt(seed: int) -> list[Case]:
    """PPT entangled inputs that end in a full-grid NoneFound search."""
    rng = np.random.default_rng([seed, 1])
    # The search cost is flattest in b over this band (1.39 s to 1.47 s,
    # against 1.96 s at b = 0.1, on the machine above), so the seed moves
    # the inputs, not the cost.
    b1, b2 = rng.uniform(0.35, 0.75, size=2)
    return [
        _case(f"horodecki_2x4(b={b1:.4f})", "horodecki_2x4", states.horodecki_2x4(b1)),
        _case(f"entangled_sppt_2x5(b={b2:.4f})", "entangled_sppt_2x5",
              states.entangled_sppt_2x5(b2).state),
    ]


def separable_mix(seed: int) -> list[Case]:
    """Separable-by-construction PPT inputs that the closed forms do not settle.

    The family has the chaotic cost described above, so the inputs do not
    depend on the workload seed.
    """
    return [_case(f"random_separable({d}, {n}, seed={FIXED_SEED})", "random_separable",
                  states.random_separable(d, n, seed=FIXED_SEED)[0])
            for d, n in ((5, 6), (4, 7), (5, 7))]


CLI_EVERY = 10   # every tenth constructive case goes through cli.main


def constructive(seed: int) -> list[Case]:
    """Cheap inputs settled by closed forms, the NPT test or dimension."""
    rng = np.random.default_rng([seed, 3])
    cases = []

    def add(label, family, state, known="from table"):
        cases.append(_case(label, family, state, known,
                           via_cli=len(cases) % CLI_EVERY == CLI_EVERY - 1))

    for d in range(4, 11):
        for tail in (False, True):
            g = _gen_seed(rng)
            add(f"random_sppt({d}, {d}, with_tail={tail}, seed={g})", "random_sppt_full_rank",
                states.random_sppt(d, d, seed=g, with_tail=tail)[0])
    for d in (4, 5, 6, 8, 10):
        for k in (1, 2, 3):
            for normal in (True, False):
                g = _gen_seed(rng)
                add(f"random_sppt({d}, {k}, normal_s={normal}, seed={g})",
                    "random_sppt_rank_le_3",
                    states.random_sppt(d, k, normal_s=normal, seed=g)[0])
    for d in range(4, 9):
        for n in (1, 2, 3, d):
            g = _gen_seed(rng)
            add(f"random_separable({d}, {n}, seed={g})", "random_separable",
                states.random_separable(d, n, seed=g)[0])
    for d in (2, 3):
        for i in range(8):
            state, known = _ppt_mixture(d, rng)
            add(f"ppt_mixture_2x{d}#{i}", "ppt_mixture", state, known)
    add("rho1", "rho1", states.sppt_counterexample_2x3())
    add("rho2", "rho2", states.sppt_counterexample_2x4())
    for d in range(2, 11):
        for i in range(2):
            state, known = _pure(d, rng, product=False)
            add(f"pure_2x{d}#{i}", "pure", state, known)
    for d in (3, 5, 8):
        state, known = _pure(d, rng, product=True)
        add(f"pure_product_2x{d}", "pure", state, known)
    return cases


WORKLOADS = {
    "entangled_ppt": entangled_ppt,
    "separable_mix": separable_mix,
    "constructive": constructive,
}


def build(name: str, seed: int) -> list[Case]:
    return WORKLOADS[name](seed)
