"""spptkit benchmark: time to verdict, decided share and per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (``workloads.py``), then runs
passes over them, one input at a time from one process (a closed loop),
until the next pass would end after ``--seconds``.  Each input goes through
``io.dumps_state`` -> ``io.loads_state`` -> ``classify`` ->
``io.verdict_to_dict`` -> ``json.dumps``, or through in-process
``cli.main(["classify", ...])`` for the constructive cases marked for it.
Every verdict is checked after its pass against the case's known answer
and replayed from its JSON report.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, in reference seconds (``Calibration``: each time is
scaled by a kernel timed just before it, so that the host's changing speed
cancels; the unscaled medians are printed in the report); with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of ``tracing.py``, with the tracing overhead.  Lines before it are a human-readable report and the machine.
"""

import os

# One BLAS thread: the matrices are small, and the benchmark is a closed
# loop from one process.  Set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))
try:
    import spptkit  # noqa: E402
    from spptkit import cli, io, separability  # noqa: E402
    from spptkit.errors import InvalidDecomposition  # noqa: E402
except ImportError as exc:
    sys.exit(f"error: cannot import spptkit from {SRC}: {exc}")
if Path(spptkit.__file__).resolve().parent != SRC / "spptkit":
    sys.exit(f"error: spptkit was imported from {spptkit.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 10       # timed fresh interpreters; one more, untimed, warms the file cache
CAL_REFERENCE_S = 0.1    # calibration kernel time that defines one reference second
CAL_EVERY_S = 0.5        # time after which the next sample is preceded by a calibration
VALIDATE_TOL = 1e-8      # the loosest tolerance classify itself validates with
P90_MIN_SAMPLES = 100    # so that at least ten samples lie beyond the p90

_SETUP_SNIPPET = "import sys, workloads; workloads.build(sys.argv[1], int(sys.argv[2]))"


@dataclass
class Outcome:
    """One input's trip through the pipeline in one pass."""

    seconds: float
    report: dict = None
    text: str = ""
    error: str = ""
    scale: float = 1.0   # reference seconds per measured second


@dataclass
class CaseStats:
    classification: str = ""
    times: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def setup_timer(workload: str, seed: int):
    """Returns a function that times one fresh interpreter importing
    spptkit and building the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, workload, str(seed)]

    def once() -> float:
        started = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - started

    return once


class Calibration:
    """Turns measured times into reference seconds.

    On a shared host the same input runs up to 1.75x slower for minutes at a
    time, in CPU time as in wall time, and a pure-Python loop, small complex
    SVDs and a batched SVD slow down with it.  The kernel here mixes those
    three kinds of work, as classify does, in about 0.1 s; its inputs are
    fixed and it does not call spptkit, so only the machine moves its time.
    It runs before a timed sample when CAL_EVERY_S has passed since it last
    ran, and the sample is scaled by CAL_REFERENCE_S over its latest time:
    a scaled time reads what the sample would take where the kernel takes
    CAL_REFERENCE_S.
    """

    def __init__(self):
        rng = np.random.default_rng(20240101)
        self.small = rng.normal(size=(200, 8, 8)) + 1j * rng.normal(size=(200, 8, 8))
        self.batch = rng.normal(size=(2000, 8, 4)) + 1j * rng.normal(size=(2000, 8, 4))
        self.kernel()   # warm up
        self.samples = []
        self.calibrate()

    def kernel(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        for m in self.small:
            np.linalg.svd(m)
        for _ in range(5):
            np.linalg.svd(self.batch, compute_uv=False)
        return time.perf_counter() - started

    def calibrate(self):
        self.samples.append(self.kernel())
        self.last = time.perf_counter()

    def scale(self) -> float:
        """Reference seconds per measured second for the sample about to be timed."""
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.calibrate()
        return CAL_REFERENCE_S / self.samples[-1]


def git_commit():
    """Commit of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


class Bench:
    """Runs passes over one workload's cases and checks their verdicts."""

    def __init__(self, cases):
        self.cases = cases
        self.stats = [CaseStats() for _ in cases]
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.decided = 0
        self.state_files = {}

    def prepare_files(self):
        """Write the state files that the CLI cases read."""
        WORK_DIR.mkdir(exist_ok=True)
        for i, case in enumerate(self.cases):
            if case.via_cli:
                path = WORK_DIR / f"case{i}.json"
                io.save_state(case.state, path)
                self.state_files[i] = (path, WORK_DIR / f"case{i}.report.json")

    def _in_process(self, case, span):
        started = time.perf_counter()
        state = io.loads_state(io.dumps_state(case.state))
        verdict = separability.classify(state)
        report = io.verdict_to_dict(verdict)
        with span("bench.report_json"):
            text = json.dumps(report)
        return Outcome(time.perf_counter() - started, report, text)

    def _via_cli(self, i):
        state_path, report_path = self.state_files[i]
        started = time.perf_counter()
        with contextlib.redirect_stdout(None), contextlib.redirect_stderr(None):
            code = cli.main(["classify", str(state_path), "--json", str(report_path)])
        elapsed = time.perf_counter() - started
        if code != 0:
            return Outcome(elapsed, error=f"cli exited {code}")
        text = report_path.read_text(encoding="utf-8")
        return Outcome(elapsed, json.loads(text)["verdict"], text)

    def run_pass(self, recorder=None, speed=None):
        """Classify every case once; returns (wall seconds, outcomes, report bytes).

        With ``speed``, each outcome carries the scale of the calibration
        taken before it, and the wall time includes the calibrations."""
        span = recorder.span if recorder else (lambda name: contextlib.nullcontext())
        outcomes = []
        started = time.perf_counter()
        for i, case in enumerate(self.cases):
            scale = speed.scale() if speed else 1.0
            try:
                with span("bench.case"):
                    if case.via_cli:
                        outcome = self._via_cli(i)
                    else:
                        outcome = self._in_process(case, span)
            except Exception as exc:  # a raising classify is a failed input, not a crash
                outcome = Outcome(0.0, error=f"{type(exc).__name__}: {exc}")
            outcome.scale = scale
            outcomes.append(outcome)
        wall = time.perf_counter() - started
        return wall, outcomes, sum(len(o.text.encode()) for o in outcomes)

    def check_pass(self, outcomes):
        for case, stats, outcome in zip(self.cases, self.stats, outcomes):
            self.attempted += 1
            raised = bool(outcome.error)
            problems = [outcome.error] if raised else self._problems(case, outcome)
            if raised:
                classification = "raised"
            else:
                classification = outcome.report["class"]
                stats.times.append(outcome.seconds)
                self.decided += classification != workloads.UNDECIDED
            if stats.classification and classification != stats.classification:
                problems.append(f"verdict changed from {stats.classification}")
            stats.classification = stats.classification or classification
            if problems:
                self.failed += 1
                self.incorrect += not raised
                stats.problems.extend(p for p in problems if p not in stats.problems)

    def _problems(self, case, outcome) -> list:
        report = outcome.report
        problems = []
        if not case.via_cli and json.loads(outcome.text) != report:
            problems.append("report does not survive a JSON round trip")
        classification = report["class"]
        if workloads.contradicts(case.known, classification):
            problems.append(f"{classification} contradicts known answer {case.known}")
        cert = report["certificate"]
        if cert["type"] == "decomposition":
            dec = separability.SeparableDecomposition(
                terms=[(_matrix(t["qubit"]), _matrix(t["qudit"])) for t in cert["terms"]])
            try:
                dec.validate(case.state.rho, tol=VALIDATE_TOL)
            except InvalidDecomposition as exc:
                problems.append(f"decomposition does not validate: {exc}")
        elif cert["type"] == "npt":
            v = _matrix(cert["eigenvector"])
            pt = workloads.partial_transpose(np.asarray(case.state.rho), case.state.d)
            if np.vdot(v, pt @ v).real >= 0:
                problems.append("NPT eigenvector has a nonnegative Rayleigh quotient")
        return problems


def _matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the metrics and the per-case table."""
    # Set-up samples are spread over the run, one after each pass, so that a
    # burst of load on the machine moves their median less.
    setup = setup_timer(workload, seed)
    if not trace:
        setup()
    bench = Bench(workloads.build(workload, seed))
    bench.prepare_files()
    recorder = tracing.Recorder() if trace else None
    speed = None if trace else Calibration()
    setups = []    # (measured seconds, scale)

    def take_setup():
        scale = speed.scale()
        setups.append((setup(), scale))

    passes = []    # per untraced pass, the (measured seconds, scale) of each input
    walls = {False: [], True: []}
    layer_runs = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            first = len(recorder.spans) if traced else 0
            if traced:
                recorder.install()
            try:
                wall, outcomes, report_bytes = bench.run_pass(recorder if traced else None,
                                                              speed)
            finally:
                if traced:
                    recorder.uninstall()
            walls[traced].append(wall)
            if traced:
                layer = tracing.layer_metrics(recorder.spans, first, len(recorder.spans))
                layer["io.report_bytes"] = report_bytes
                layer["trace.wall_s"] = wall
                layer_runs.append(layer)
            bench.check_pass(outcomes)
            if speed:
                passes.append([(o.seconds, o.scale) for o in outcomes if not o.error])
                if len(setups) < SETUP_REPEATS:
                    take_setup()
            elapsed = time.perf_counter() - start
            if (not trace or walls[True]) and elapsed + wall > seconds:
                break
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    while speed and len(setups) < SETUP_REPEATS:
        take_setup()

    times_ms = sorted(1000.0 * t * k for samples in passes for t, k in samples)
    raw_ms = [1000.0 * t for samples in passes for t, _ in samples]
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(walls[False]) + len(walls[True]), "cases": len(bench.cases),
        "attempted": bench.attempted, "failed": bench.failed,
        "incorrect": bench.incorrect, "decided": bench.decided,
        "samples": len(times_ms),
        "table": [
            {"case": c.label, "family": c.family, "known": c.known,
             "verdict": s.classification,
             "median_ms": statistics.median(s.times) * 1000.0 if s.times else None,
             "problems": s.problems}
            for c, s in zip(bench.cases, bench.stats)
        ],
    }
    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        result["metrics"] = {name: (metrics[name], unit)
                             for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        result["metrics"] = {
            "setup_s": (statistics.median(t * k for t, k in setups), "s"),
            "wall_s": (statistics.median(sum(t * k for t, k in samples) for samples in passes),
                       "s"),
            "verdict_p50_ms": (statistics.median(times_ms) if times_ms else 0.0, "ms"),
            "decided_share": (bench.decided / bench.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        if len(times_ms) >= P90_MIN_SAMPLES:
            result["verdict_p90_ms"] = statistics.quantiles(times_ms, n=10)[-1]
        result["measured"] = {
            "setup_s": statistics.median(t for t, _ in setups),
            "wall_s": statistics.median(sum(t for t, _ in samples) for samples in passes),
            "verdict_p50_ms": statistics.median(raw_ms) if raw_ms else 0.0,
            "calibration_s": statistics.median(speed.samples),
            "calibrations": len(speed.samples),
        }
    return result


def print_report(result: dict, info: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['passes']} passes over {result['cases']} inputs")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:.6g} {unit}")
    attempted = result["attempted"]
    if not result["trace"]:
        p90 = result.get("verdict_p90_ms")
        print(f"  {'verdict_p50_ms samples':40s} {result['samples']}")
        print(f"  {'verdict_p90_ms':40s} "
              + (f"{p90:.6g} ms" if p90 is not None else
                 f"omitted ({result['samples']} samples < {P90_MIN_SAMPLES})"))
        print(f"  {'failed_share':40s} {result['failed'] / attempted:.6g} ratio "
              f"({result['failed']} of {attempted} attempted)")
        print("  unscaled medians: " + "  ".join(
            f"{name} {value:.6g}" for name, value in result["measured"].items()))
    print("  per-input verdicts (known answer, verdict, unscaled median ms, problems):")
    for row in result["table"]:
        ms = "-" if row["median_ms"] is None else f"{row['median_ms']:.2f}"
        problems = "; ".join(row["problems"])
        print(f"    {row['case']:48s} {str(row['known']):10s} {row['verdict']:19s} "
              f"{ms:>10s} {problems}")
    print("machine " + json.dumps(info))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result, machine())
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
