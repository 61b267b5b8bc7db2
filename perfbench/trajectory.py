"""Record one point of the benchmark trajectory for the current checkout.

Usage, from the root of a checkout:

    python3 perfbench/trajectory.py --seed 0 --out perfbench/trajectory/NAME

Runs every workload of ``run.py`` untraced and traced at one seed, then
classifies, once each and in this process:

* the baseline inputs of ROADMAP.md, so their verdicts can be compared;
* inputs too slow or too variable for the timed workloads, among them
  ``random_sppt(d, 4, normal_s=True)`` for d = 7, 8, a known undecided gap;
* ``random_sppt(5, 4, normal_s=True)`` over many seeds, recording every
  seed on which ``classify`` raises.

Writes ``NAME.json`` with everything, and ``NAME.md`` with the tables.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import run  # pins the BLAS threads and makes spptkit importable
from spptkit import separability, states

BASELINE = [
    ("entangled_sppt_2x5(0.5)", lambda: states.entangled_sppt_2x5(0.5).state),
    ("horodecki_2x4(0.5)", lambda: states.horodecki_2x4(0.5)),
    ("sppt_counterexample_2x3()", states.sppt_counterexample_2x3),
    ("sppt_counterexample_2x4()", states.sppt_counterexample_2x4),
    ("random_sppt(4, 4, seed=7)", lambda: states.random_sppt(4, 4, seed=7)[0]),
    ("random_sppt(6, 4, normal_s=False, seed=3)",
     lambda: states.random_sppt(6, 4, normal_s=False, seed=3)[0]),
    ("random_separable(4, 6, seed=2)", lambda: states.random_separable(4, 6, seed=2)[0]),
] + [
    (f"random_sppt({d}, {d - 1}, normal_s=False, seed=1)",
     lambda d=d: states.random_sppt(d, d - 1, normal_s=False, seed=1)[0])
    for d in (6, 8, 10)
]
# Inputs too slow or too variable for the timed workloads.
SLOW = [
    (f"random_sppt({d}, {d - 1}, normal_s=False, seed=0)",
     lambda d=d: states.random_sppt(d, d - 1, normal_s=False, seed=0)[0]) for d in (5, 6)
] + [
    ("random_separable(4, 5, seed=0)", lambda: states.random_separable(4, 5, seed=0)[0]),
    ("random_separable(5, 8, seed=0)", lambda: states.random_separable(5, 8, seed=0)[0]),
] + [
    (f"random_sppt({d}, 4, normal_s=True, seed=0)",
     lambda d=d: states.random_sppt(d, 4, normal_s=True, seed=0)[0]) for d in (5, 6)
] + [(f"random_sppt({d}, 4, normal_s=True, seed={s})",
      lambda d=d, s=s: states.random_sppt(d, 4, normal_s=True, seed=s)[0])
     for d in (7, 8) for s in range(3)]
LIFT_SEEDS = 60


def classify_once(label, make) -> dict:
    state = make()
    started = time.perf_counter()
    try:
        verdict = separability.classify(state).classification
    except Exception as exc:  # a raising classify is recorded, not fatal
        verdict = f"raised {type(exc).__name__}: {exc}"
    return {"input": label, "verdict": verdict,
            "ms": 1000.0 * (time.perf_counter() - started)}


def run_benchmark(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=run.ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "report": lines[:-1]}


def markdown(record) -> str:
    out = [f"# Trajectory point: commit {record['machine']['git_commit']}", "",
           "Machine: " + ", ".join(f"{k} {v}" for k, v in record["machine"].items()), ""]
    for runs in record["workloads"]:
        res = runs["result"]
        out.append(f"## {runs['workload']} (seed {runs['seed']}, trace {runs['trace']}, "
                   f"{res['attempted']} attempted, {res['failed']} failed)")
        out += ["", "```"] + runs["report"] + ["```", ""]
    out += ["## Known answers per generator family (perfbench/workloads.py)", "",
            "| family | answer | reason |", "|---|---|---|"]
    out += [f"| `{f}` | {a} | {r} |" for f, (a, r) in run.workloads.KNOWN.items()]
    out.append("")
    for title, key in (("ROADMAP baseline inputs", "baseline"),
                       ("Inputs kept out of the timed workloads, including the undecided "
                        "gap of random_sppt(d >= 7, 4, normal_s=True)", "slow")):
        out += [f"## {title}", "", "| input | verdict | ms |", "|---|---|---|"]
        out += [f"| `{r['input']}` | {r['verdict']} | {r['ms']:.1f} |" for r in record[key]]
        out.append("")
    lift = record["lift_defect"]
    out += ["## classify raising on random_sppt(5, 4, normal_s=True)", "",
            f"{len(lift['raised'])} of {lift['seeds']} seeds raise: "
            + ", ".join(f"seed {r['seed']} ({r['verdict']})" for r in lift["raised"]), ""]
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--out", required=True, help="output path without extension")
    args = parser.parse_args()

    record = {"machine": run.machine(), "workloads": []}
    for workload in sorted(run.workloads.WORKLOADS):
        for trace in (0, 1):
            record["workloads"].append(run_benchmark(workload, args.seed, args.seconds, trace))
    record["baseline"] = [classify_once(label, make) for label, make in BASELINE]
    record["slow"] = [classify_once(label, make) for label, make in SLOW]
    lift = [dict(classify_once("", lambda s=s: states.random_sppt(5, 4, seed=s)[0]), seed=s)
            for s in range(LIFT_SEEDS)]
    record["lift_defect"] = {"seeds": LIFT_SEEDS,
                             "raised": [r for r in lift if r["verdict"].startswith("raised")]}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    out.with_suffix(".md").write_text(markdown(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
