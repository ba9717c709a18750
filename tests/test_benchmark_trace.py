"""The benchmark's traced pass still finds every layer it times.

perfbench/spans.py times each layer by wrapping a helike name from outside
the program.  A wrapped name that the program stops calling turns its
per-layer metric into an absent value, and the benchmark's result line
with it.  These tests run one traced pass of each gated workload, reading
perfbench's modules without writing anything under perfbench/.
"""
import importlib
import math
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["zscan", "converge_l4n30"])
def test_traced_pass_reports_every_layer(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    run, _, ops = workloads.WORKLOADS[workload]
    rec = spans.Recorder()
    rec.install()
    try:
        t0 = time.perf_counter()
        values = run(tmp_path, rec.mark)
        wall = time.perf_counter() - t0
    finally:
        left = rec.restore()
    assert left == []
    assert sorted(values) == sorted(ops)
    metrics = spans.layer_metrics(rec, wall, wall)
    assert set(metrics) == set(spans.LAYER_METRICS)
    missing = {name: m.get("absent") for name, m in metrics.items()
               if m["value"] is None or not math.isfinite(m["value"])}
    assert missing == {}
