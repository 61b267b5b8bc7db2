"""Determinism self-check of the benchmark.

Two traced runs of one workload at one seed must give the same verdict for
every input, the same decided share, and the same value of every per-layer
count.  Each run makes one untraced and one traced pass.  Run from the root
of a checkout (about two minutes):

    python3 -m pytest -q perfbench/test_determinism.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

COUNTS = [name for name, (unit, _) in tracing.LAYER_METRICS.items() if unit == "count"]


def _summary(result):
    return {
        "verdicts": [row["verdict"] for row in result["table"]],
        "decided_share": result["decided"] / result["attempted"],
        "counts": {name: result["metrics"][name][0] for name in COUNTS},
    }


@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_two_runs_agree(workload):
    first, second = (run.run_workload(workload, seed=7, seconds=0, trace=True)
                     for _ in range(2))
    assert first["failed"] == second["failed"]
    assert _summary(first) == _summary(second)
