"""One second of every workload, untraced and traced, through the real command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.journey.run import END_TO_END
from benchmarks.journey.trace import PER_LAYER, SPAN_METRIC
from benchmarks.journey.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/journey/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_the_layers_add_up(workload):
    result = run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    layers = sum(values[metric] for metric in set(SPAN_METRIC.values()))
    assert layers + values["journey.unattributed_ms_per_op"] == pytest.approx(
        values["journey.traced_op_ms"], rel=1e-9
    )
    assert (ROOT / "benchmarks/journey/out" / f"trace-{workload}.json").exists()
    if workload == "msg_stream":
        for absent in ("navigator.depart_self_ms_per_op", "navigator.land_self_ms_per_op",
                       "monitor.admit_self_ms_per_op", "itinerary.self_ms_per_op",
                       "serializer.image_bytes_per_op"):
            assert values[absent] == 0.0, absent
        assert values["locator.cache_hit_ratio"] == 1.0
    if workload == "courier_static":
        assert values["serializer.delta_saved_share"] >= 0.7
    if workload == "courier_churn":
        assert values["serializer.delta_saved_share"] <= 0.05
