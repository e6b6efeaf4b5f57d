"""The benchmark's entry points still work against the package.

The benchmark wraps package functions at their module attributes and reads
fields of their results. This runs the tiny pass of every workload under
those wrappers and checks the counts that repeat exactly from run to run,
so a renamed function or result field fails here and not only in a traced
benchmark run.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import worker  # noqa: E402


def traced_tiny_pass(name, monkeypatch, tmp_path):
    """One tiny pass of workload ``name`` under ``trace_targets()``, writing
    its artifacts below ``tmp_path``; returns the pass result and metrics."""
    monkeypatch.setattr(worker, "OUT_DIR", tmp_path)
    workload = worker.WORKLOADS[name](0, tiny=True)
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder, worker.trace_targets()):
        result = workload.run_pass()
    assert result["failures"] == []
    assert not [s.name for s in recorder.spans if "raised" in s.info]
    return result, worker.layer_metrics(recorder.spans, [])


def test_tiny_krylov_pass_counts(monkeypatch, tmp_path):
    _, metrics = traced_tiny_pass("krylov", monkeypatch, tmp_path)
    assert metrics["spinchain.apply.columns"] == 307
    assert metrics["scalar.lanczos.expansions"] == 60
    assert metrics["block.lanczos.extractions"] == 976
    assert metrics["block.lanczos.kept_column_ratio"] == 1.0


def test_tiny_ramp_pass_counts(monkeypatch, tmp_path):
    result, metrics = traced_tiny_pass("ramp", monkeypatch, tmp_path)
    # three configs at six sites: five whole-term slices each
    assert metrics["incremental.slices"] == 15
    assert sorted(result["outputs"]) == sorted(worker.RAMP_CONFIGS)
    assert all(len(rows) == 5 for rows in result["outputs"].values())
    # the stage probe pairs every lanczos_run with its ground_energy reference
    assert len(result["slices_ms"]) == 15
    assert all(ms > 0.0 for ms in result["slices_ms"])
    assert result["artifact_bytes"] > 0


def test_tiny_noise_pass_counts(monkeypatch, tmp_path):
    result, metrics = traced_tiny_pass("noise", monkeypatch, tmp_path)
    # two block counts x six etas x one trial, plus one clean solve per count
    assert metrics["noise.perturb_and_mae.calls"] == 12
    assert metrics["noise.eigensolves"] == 14
    assert metrics["block.assemble.calls"] == 14
    assert metrics["spinchain.oracle.calls"] == 0
    assert metrics["incremental.slices"] == 0
    assert set(result["outputs"]["slopes"]) == {"4", "5"}
    assert result["artifact_bytes"] > 0
