"""The benchmark's own tests.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

from measure import traced_call  # noqa: E402
from spans import END, NAME, PARENT, START, SpanTracer, self_times  # noqa: E402
from workloads import (CallResult, FuzzProcess2, FuzzSerial,  # noqa: E402
                       WORKLOADS)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def scratch_dir() -> Path:
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="test-", dir=base))


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT,
                  script: Path = PERFBENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["a1", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0][END] - spans[0][START]


def test_layer_metrics_residual_is_window_minus_self_time():
    tracer = SpanTracer()
    tracer.spans = [["jvm.run", 0.0, 2.0, -1, 0, "hotspot9"],
                    ["jvm.verify", 0.5, 1.5, 0, 0, None],
                    ["jimple.compile", 3.0, 4.0, -1, 1, None]]
    layers = tracer.layer_metrics(window_s=5.0, untraced_s=4.5)
    assert layers["jvm.run_s"] == (1.0, "s")
    assert layers["jvm.verify_s"] == (1.0, "s")
    assert layers["jvm.hotspot9.run_s"] == (2.0, "s")
    assert layers["trace.self_sum_s"] == (3.0, "s")
    assert layers["trace.residual_s"] == (2.0, "s")
    assert layers["trace.overhead_s"] == (0.5, "s")
    assert [span[NAME] for span in tracer.spans if span[PARENT] == 0] \
        == ["jvm.verify"]


def test_a_layer_that_never_fires_fails_the_traced_run():
    class Silent:
        name = "silent"
        required_spans = ("jimple.compile",)

        def call(self):
            return CallResult(ops=1, items=1, failed=0, wall_s=0.1,
                              cpu_s=0.1, digest="d")

    record = {"attempted": 0, "failed": 0, "problems": [], "digest": "d"}
    traced_call(Silent(), 0.1, record)
    assert any("never fired" in problem for problem in record["problems"])


def test_missing_targets_are_recorded_not_wrapped():
    tracer = SpanTracer()
    tracer.install([("repro.jvm.machine:Jvm", "no_such_method", "x"),
                    ("repro.no_such_module", "f", "x")])
    assert tracer.missing == ["repro.jvm.machine:Jvm.no_such_method",
                              "repro.no_such_module.f"]
    tracer.uninstall()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_emits_every_named_metric(workload, trace):
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], completed.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}


def test_process_engine_decisions_equal_a_serial_run_at_batch_8():
    scratch = scratch_dir()
    try:
        serial = FuzzSerial(5, "tiny", scratch)
        serial.batch = 8
        serial.setup()
        process = FuzzProcess2(5, "tiny", scratch)
        process.setup()
        parallel = process.call()
        assert parallel.problems == []
        assert parallel.digest == serial.call().digest
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_without_the_program_source_the_run_fails_without_a_result():
    bare = scratch_dir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(PERFBENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark("fuzz-serial", 0, cwd=bare,
                                  script=bare / "perfbench" / "run.py")
        assert completed.returncode != 0
        assert "correct" not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
