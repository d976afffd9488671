"""The benchmark's tracer contract: every function perfbench/tracer.py wraps
still exists, and one traced reconstruct yields every per-layer metric that
BENCHMARK.json declares, each a finite number.

A wrapped function that a change removes drops its metrics out of the
traced result line, and a non-finite metric makes that line invalid JSON.
"""

import json
import math
from pathlib import Path

from msfuse import cli
from msfuse.core import save_image
from msfuse.synth import random_dot_pair

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that perfbench/run.py adds to the tracer's own
RUNNER_METRICS = {"trace.op_s", "trace.overhead_s", "pipeline.serial_op_s",
                  "disparity.bad1_pct"}


def test_traced_reconstruct_yields_every_declared_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer as tracing

    left, right, _ = random_dot_pair(64, 48, 5, 1)
    save_image(left, tmp_path / "left.pgm", format="pgm8")
    save_image(right, tmp_path / "right.pgm", format="pgm8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["reconstruct", str(tmp_path / "left.pgm"),
                         str(tmp_path / "right.pgm"),
                         "--out-disparity", str(tmp_path / "d.pfm"),
                         "--out-cloud", str(tmp_path / "c.ply")]) == 0
    finally:
        tracer.uninstall()

    assert tracer.missing == []
    metrics = tracing.layer_metrics(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared} - RUNNER_METRICS
    values = {name: value for name, (value, _) in metrics.items()}
    assert all(math.isfinite(value) for value in values.values()), values
    json.dumps(values, allow_nan=False)
