"""The benchmark's entry points still work against the package.

The benchmark wraps package functions at their module attributes and reads
fields of their results. This runs its tiny krylov pass under those wrappers
and checks the counts that repeat exactly from run to run, so a renamed
function or result field fails here and not only in a traced benchmark run.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import worker  # noqa: E402


def test_tiny_krylov_pass_counts():
    workload = worker.Krylov(0, tiny=True)
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder, worker.trace_targets()):
        result = workload.run_pass()
    assert result["failures"] == []
    assert not [s.name for s in recorder.spans if "raised" in s.info]
    metrics = worker.layer_metrics(recorder.spans, [])
    assert metrics["spinchain.apply.columns"] == 307
    assert metrics["scalar.lanczos.expansions"] == 60
    assert metrics["block.lanczos.extractions"] == 976
    assert metrics["block.lanczos.kept_column_ratio"] == 1.0
