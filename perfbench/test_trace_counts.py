"""Two traced runs on the same seed must give the same deterministic counts.

    python3 -m pytest perfbench/test_trace_counts.py -q

Each run is a separate process of the real benchmark command with a
short ``--seconds``, which fixes the instance count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

DETERMINISTIC = (
    "closure.close_calls",
    "closure.sweeps",
    "closure.confirm_sweep_share",
    "solver.pins",
    "solver.oracle_fallbacks",
    "solver.fallback_failures",
    "fmoracle.calls",
    "lindep.calls",
    "lindep.certificate_ratio",
    "matrix2d.finite_classes",
    "trace.instances",
)


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "3", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["octagon-solve", "general-solve", "cli-check"])
def test_counts_repeat_exactly(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    for result in (first, second):
        assert result["correct"]
        assert set(DETERMINISTIC) <= set(result["metrics"])
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
