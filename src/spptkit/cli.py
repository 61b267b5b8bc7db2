"""Command-line front end: state generation, checks, and classification.

Exit codes encode operational success only: 0 for any verdict (entangled
included), 2 for unusable input or parameters.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__, io, range_criterion, separability, states, sppt
from .errors import ValidationError

_GENERATORS = ("rho0", "rho1", "rho2", "horodecki", "random-sppt")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="spptkit",
        description="Separability and strong-PPT analysis of 2 x d states.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a named state to a JSON file")
    gen.add_argument("name", choices=_GENERATORS)
    gen.add_argument("--b", type=float, default=0.5,
                     help="family parameter in (0, 1) for rho0/horodecki")
    gen.add_argument("--d", type=int, default=4, help="qudit dimension (random-sppt)")
    gen.add_argument("--rank", type=int, default=None,
                     help="rank of the x1 factor (random-sppt; default d)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--normal-s", action=argparse.BooleanOptionalAction, default=True,
                     help="draw a normal middle factor (random-sppt; default on)")
    gen.add_argument("--with-tail", action="store_true", default=False,
                     help="add a random x2 tail (random-sppt)")
    gen.add_argument("--out", required=True, help="output state file")

    chk = sub.add_parser("check", help="run a single test on a state file")
    chk.add_argument("which", choices=("ppt", "sppt"))
    chk.add_argument("input", help="state file")

    cls = sub.add_parser("classify", help="full separability classification")
    cls.add_argument("input", help="state file")
    cls.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                     help="write the full JSON report to PATH ('-' for stdout)")
    return parser


def _cmd_generate(args) -> int:
    if args.name == "rho0":
        state = states.entangled_sppt_2x5(args.b).state
    elif args.name == "rho1":
        state = states.sppt_counterexample_2x3()
    elif args.name == "rho2":
        state = states.sppt_counterexample_2x4()
    elif args.name == "horodecki":
        state = states.horodecki_2x4(args.b)
    else:
        rank = args.rank if args.rank is not None else args.d
        state, _ = states.random_sppt(args.d, rank, normal_s=args.normal_s,
                                      seed=args.seed, with_tail=args.with_tail)
    io.save_state(state, args.out)
    print(f"wrote {args.name} to {args.out}: 2x{state.d} "
          f"({2 * state.d}x{2 * state.d} matrix), trace {state.trace():.12g}")
    return 0


def _cmd_check(args) -> int:
    state = io.load_state(args.input)
    if args.which == "ppt":
        verdict = "NPT" if states.is_npt(state) else "PPT"
        print(f"min partial-transpose eigenvalue: {state.pt_eig.values[0]:.6e}  ({verdict})")
    else:
        v = sppt.sppt_check(state)
        print(f"strong-PPT status: {v.status}")
        print(f"residual: {v.residual:.6e}")
        if v.note:
            print(f"note: {v.note}")
    return 0


def _report_text(report: dict) -> str:
    """``report`` as one JSON object with one top-level key per line, each
    value compact: json's C encoder writes every value, where ``indent``
    would run its pure-Python one.  ``json.loads`` reads it as it read the
    indented form."""
    lines = (f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
             for key, value in report.items())
    return "{\n  " + ",\n  ".join(lines) + "\n}\n"


def _cmd_classify(args) -> int:
    started = time.perf_counter()
    state = io.load_state(args.input)
    load_ms = 1000.0 * (time.perf_counter() - started)
    t0 = time.perf_counter()
    verdict = separability.classify(state)
    classify_ms = 1000.0 * (time.perf_counter() - t0)

    # With the report on stdout, the summary goes to stderr.
    summary = sys.stderr if args.json_out == "-" else sys.stdout
    print(f"class: {verdict.classification}", file=summary)
    for line in verdict.trace_log:
        print(f"  - {line}", file=summary)

    if args.json_out is not None:
        report = {
            "input": args.input,
            "tool_version": __version__,
            "tolerances": {
                "tol": separability.DEFAULT_TOL,
                "tol_floor": separability.TOL_FLOOR,
                "exclusion_threshold": range_criterion.EXCLUSION_THRESHOLD,
                "kernel_cutoff": range_criterion.KERNEL_CUTOFF,
                "enumeration_kernel_cutoff": range_criterion.ENUMERATION_KERNEL_CUTOFF,
                "enumeration_tol": range_criterion.ENUMERATION_TOL,
                "support_cutoff": separability.SUPPORT_CUTOFF,
                "weight_floor": separability.WEIGHT_FLOOR,
            },
            "verdict": io.verdict_to_dict(verdict),
            "timings_ms": {"load": load_ms, "classify": classify_ms},
        }
        text = _report_text(report)
        if args.json_out == "-":
            sys.stdout.write(text)
        else:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"report written to {args.json_out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_classify(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
