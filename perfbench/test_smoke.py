"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced. Every metric BENCHMARK.json
names must be present and no call may fail. The traced run must also agree
with a standalone solve on its first dataset, and its per-layer self times
must add up to the traced call time.
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    spanned = sum(v for name, v in metrics.items()
                  if name.endswith(".self_s") and name != "geometry.self_s")
    assert spanned + metrics["trace.unspanned_s"] == pytest.approx(
        metrics["trace.pipeline_s"], rel=1e-9)
    if workload != "counts_cli":
        assert metrics["scaling.iterations"] == _standalone_iterations(workload)


def _standalone_iterations(workload):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import dskernel as dk
        import workloads
    finally:
        del sys.path[:2]
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[workload](SEED, workdir, tiny=True)
        points = wl.prepare(0)["points"]
    affinity = dk.gaussian_kernel(dk.pairwise_sq_dists(points), wl.epsilon)
    return dk.sinkhorn_symmetric(affinity, tol=wl.tol).iterations
