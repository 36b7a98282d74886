"""The benchmark's output contract, checked on every workload.

A run must exit 0 with nothing on stderr and end on one strict-JSON line
whose metrics are exactly the ones BENCHMARK.json names: the end-to-end set
untraced, the per-layer set traced. A renamed or deleted function that the
tracer hooks drops its layer from the traced result, and per-layer counts
that differ between traced units (say, a cache that fills during the traced
phase) make the run incorrect; both are caught here.

Every workload evaluates through the compiled kernel, so the hooks on the
per-rule reference helpers must count no calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE_CALLS = ("membership.fuzzify.calls", "engine.fire.rules",
                   "engine.aggregate.calls", "engine.defuzz.calls")


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["decide", "surface", "tables"])
def test_run_ends_on_a_strict_json_result(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    if trace:
        calls = {name: result["metrics"][name]["value"] for name in REFERENCE_CALLS}
        assert calls == dict.fromkeys(REFERENCE_CALLS, 0)
