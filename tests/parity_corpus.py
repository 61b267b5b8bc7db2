"""Parity corpus: fingerprints of spptkit's outputs on a fixed set of inputs.

Usage, from the root of a checkout:

    python3 tests/parity_corpus.py SRC OUT       # fingerprint spptkit from SRC
    python3 tests/parity_corpus.py --compare A B  # list the lines that differ
    python3 tests/parity_corpus.py --compare --classes A B  # fail only on class changes

The first form imports spptkit from the directory SRC (say ``src`` of this
checkout, or of another checkout of the parent commit) and writes one
tab-separated line per input to OUT.  A state's line holds its label, its
class, the sha1 of ``json.dumps(io.verdict_to_dict(classify(s)),
sort_keys=True)``, the ``sppt_check`` status and ``repr(residual)``, the
sha1 of the note and factor bytes, and one record per ``edge_check`` call
made while classifying it, inner ones (a reduced core's) included, in
call order and joined by ``;`` (``-`` for none):
``conclusion:evaluations:polishes:repr(certified_bound):repr(worst_min_residual)``,
then, in the same form, one record per enumeration of the subtraction
prover, ``range_criterion._enumerate`` calls, and ``_recheck`` calls in
checkouts that have it, in call order:
``method:evaluations:polishes:exhaustive:found``, with ``found`` the
number of vectors returned.  An enumeration record's method is its search
record's: ``canonical`` (no cell bounded; where the root finder fails a
gate, the first level's cell centres evaluated and seven directions
polished), ``roots`` (roots examined), ``recheck`` (directions re-solved,
each by one SVD, so its polishes field always reads 0) or, in checkouts
before the canonical enumeration replaced the prover's sphere search,
``sphere`` (cells bounded; also the continuum case's, with no work).
Where the record has none, as in checkouts before the root finder, it is
``sphere`` for an ``_enumerate`` record and ``recheck`` for a
``_recheck`` one.  The records are collected by wrapping
``separability.edge_check`` and ``range_criterion._enumerate``, names
every checkout has, and ``range_criterion._recheck`` where the checkout
has it: before ``_enumerate`` took the last enumeration, the prover
called ``_recheck`` for the re-solve.  A ``decompose_small`` input's line
holds the sha1 of its certificate's JSON, or the name of the error it
raised.
``--compare`` prints every label whose lines differ, or that only one file
has, then each file's search work: the evaluations and polishes summed
over both columns of every line, per method, as they count different
things (an ``edge_check`` record counts as ``sphere``).  It exits 1 when
any line differs; with ``--classes`` it also lists the inputs whose class
changed and exits 1 only when one did, other than a ``PptUndecided`` input
that is now decided (an input only one file has counts as a change).  The inputs and the
helpers that draw them come from this checkout (``perfbench/workloads.py`` and
``tests/helpers.py``), so both runs see the same corpus.  One run takes
20 to 30 s on one core of a 2-core x86-64 VM; pytest does not collect
this file.
"""

import os

# One BLAS thread, as in the benchmark, so that rounding does not depend on
# how LAPACK splits the work.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

WORKLOAD_SEEDS = (0, 7, 11)
FAMILY_B = (0.2, 0.5, 0.8)


def _sha1(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _states():
    """(label, state) for every input that ``classify`` and ``sppt_check`` see."""
    from helpers import ill_conditioned_sppt
    from perfbench import workloads
    from spptkit import states

    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for case in workloads.build(name, seed):
                yield f"{name}@{seed}:{case.label}", case.state
    for d in range(4, 7):
        for n in range(d, 2 * d + 3):
            for seed in range(4):
                yield (f"random_separable({d}, {n}, seed={seed})",
                       states.random_separable(d, n, seed=seed)[0])
    for d in range(5, 9):
        for k in range(2, 6):
            for normal in (True, False):
                for tail in (False, True):
                    for seed in range(3):
                        yield (f"random_sppt({d}, {k}, normal_s={normal}, "
                               f"with_tail={tail}, seed={seed})",
                               states.random_sppt(d, k, normal_s=normal, seed=seed,
                                                  with_tail=tail)[0])
    for seed in range(40):
        yield f"ill_conditioned_sppt({seed})", ill_conditioned_sppt(seed)
    for b in FAMILY_B:
        yield f"horodecki_2x4({b})", states.horodecki_2x4(b)
        yield f"entangled_sppt_2x5({b})", states.entangled_sppt_2x5(b).state


def _small_states():
    """(label, state) for every input that ``decompose_small`` sees."""
    from spptkit import states

    for d in (2, 3):
        for n in range(1, 8):
            for seed in range(10):
                yield (f"decompose_small(random_separable({d}, {n}, seed={seed}))",
                       states.random_separable(d, n, seed=seed)[0])


def _factor_bytes(factors) -> bytes:
    if factors is None:
        return b"-"
    return b"".join(m.tobytes() for m in (factors.x1, factors.s, factors.x2))


def fingerprint(src: Path, out: Path) -> int:
    sys.path[:0] = [str(src), str(ROOT), str(ROOT / "tests")]
    from spptkit import io, range_criterion, separability, sppt
    from spptkit.errors import ValidationError

    searches, enumerations = [], []
    edge_check = separability.edge_check

    def recording(s):
        cert = edge_check(s)
        searches.append(":".join((cert.conclusion, str(cert.search["evaluations"]),
                                  str(cert.search["polishes"]), repr(float(cert.certified_bound)),
                                  repr(float(cert.worst_min_residual)))))
        return cert

    def enumerating(search, method="sphere"):
        def record(*args):
            result = search(*args)
            enumerations.append(":".join((result.search.get("method", method),
                                          str(result.search["evaluations"]),
                                          str(result.search["polishes"]),
                                          str(result.exhaustive), str(len(result.found)))))
            return result
        return record

    separability.edge_check = recording
    range_criterion._enumerate = enumerating(range_criterion._enumerate)
    if hasattr(range_criterion, "_recheck"):
        range_criterion._recheck = enumerating(range_criterion._recheck, "recheck")
    lines = []
    for label, s in _states():
        searches.clear()
        enumerations.clear()
        verdict = separability.classify(s)
        edge_checks = ";".join(searches) or "-"
        enumerated = ";".join(enumerations) or "-"
        report = json.dumps(io.verdict_to_dict(verdict), sort_keys=True)
        check = sppt.sppt_check(s)
        lines.append("\t".join((label, verdict.classification, _sha1(report),
                                check.status, repr(check.residual),
                                _sha1(check.note, _factor_bytes(check.factors)),
                                edge_checks, enumerated)))
    for label, s in _small_states():
        try:
            dec = separability.decompose_small(s)
            cert = _sha1(json.dumps(io.certificate_to_dict(dec), sort_keys=True))
        except ValidationError as exc:
            cert = type(exc).__name__
        lines.append("\t".join((label, "decompose_small", cert)))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} inputs fingerprinted to {out}")
    return 0


def _read(path: Path) -> dict:
    rows = (line.split("\t", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {label: rest for label, rest in rows}


def search_work(lines: dict) -> dict:
    """Evaluations and polishes, ``[evaluations, polishes]`` per method,
    summed over the edge_check and enumeration records of every line."""
    work = {}
    for rest in lines.values():
        fields = rest.split("\t")
        for column in (5, 6):
            if len(fields) <= column or fields[column] == "-":
                continue
            for record in fields[column].split(";"):
                # the first field is an edge_check's conclusion, a sphere
                # search's, or an enumeration's method
                head, evaluations, polishes = record.split(":")[:3]
                total = work.setdefault("sphere" if column == 5 else head, [0, 0])
                total[0] += int(evaluations)
                total[1] += int(polishes)
    return work


def compare(a: Path, b: Path, classes: bool = False) -> int:
    left, right = _read(a), _read(b)
    differ = [label for label in left.keys() | right.keys()
              if left.get(label) != right.get(label)]
    for label in sorted(differ):
        print(f"{label}\n  {a}: {left.get(label, '(missing)')}\n  {b}: {right.get(label, '(missing)')}")
    print(f"{len(differ)} of {len(left.keys() | right.keys())} inputs differ")
    for path, lines in ((a, left), (b, right)):
        work = search_work(lines)
        print(f"search work in {path}: " + "; ".join(
            f"{method} {evaluations} evaluations, {polishes} polishes"
            for method, (evaluations, polishes) in sorted(work.items())))
    if not classes:
        return 1 if differ else 0
    moved = []
    for label in sorted(differ):
        old, new = (side.get(label, "(missing)").split("\t")[0] for side in (left, right))
        if old != new and not (old == "PptUndecided" and new not in ("PptUndecided", "(missing)")):
            moved.append(label)
            print(f"class changed: {label}: {old} -> {new}")
    print(f"{len(moved)} inputs changed class other than from PptUndecided to decided")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare two fingerprint files instead of writing one")
    parser.add_argument("--classes", action="store_true",
                        help="with --compare, fail only on a class change other than "
                             "PptUndecided to decided")
    parser.add_argument("first", type=Path, help="spptkit source directory, or file A")
    parser.add_argument("second", type=Path, help="output file, or file B")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.first, args.second, args.classes)
    return fingerprint(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
