"""The benchmark's entry points still work against the package.

The benchmark wraps package functions at their module attributes and reads
fields of their results. This runs the tiny pass of every workload under
those wrappers and checks the counts that repeat exactly from run to run,
so a renamed function or result field fails here and not only in a traced
benchmark run, and that every span lies inside its parent's interval, as
the one-thread recorder assumes. It also pins the reorthogonalization
schedule of the ``krylov`` workload's full-size solves.
"""

import sys
from pathlib import Path

import numpy as np

from blocklanczos import block, nonhermitian, scalar

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
    # the recorder assumes one thread: every span nests in its parent's time
    for span in recorder.spans:
        if span.parent is not None:
            parent = recorder.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end, span.name
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


def test_tiny_noise_pass_counts(monkeypatch, tmp_path, sweep_solves):
    result, metrics = traced_tiny_pass("noise", monkeypatch, tmp_path)
    # two block counts x six etas x one trial, plus one clean solve per count
    assert len(sweep_solves) == 14
    assert metrics["block.assemble.calls"] == 14
    assert metrics["spinchain.oracle.calls"] == 0
    assert metrics["incremental.slices"] == 0
    assert set(result["outputs"]["slopes"]) == {"4", "5"}
    assert result["artifact_bytes"] > 0


def test_krylov_chain_reorthogonalization_schedule(monkeypatch):
    """The ``krylov`` workload's L = 16 chain and seed-0 starts: how many
    steps from step 2 on project against the whole basis in each solve, and
    the final Gram and biorthogonality defects."""
    rows = []
    project = scalar._project_out

    def counting(residual, dual, stack):
        rows.append(stack.shape[0])
        project(residual, dual, stack)

    monkeypatch.setattr(scalar, "_project_out", counting)

    def whole_basis_steps(width):
        # a step's passes all take the same rows, (n + 1) width of them
        # when they take the whole basis and 2 width on a windowed step
        steps = sorted({count // width - 1 for count in rows if count > 2 * width})
        rows.clear()
        return steps

    workload = worker.Krylov(0, tiny=False)
    coeffs, basis = scalar.lanczos_run(
        workload.spec, workload.start, max_iter=worker.SCALAR_EXPANSIONS)
    scalar_steps = whole_basis_steps(1)
    scalar_defect = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
    coeffs, basis = block.block_lanczos_run(
        workload.spec, workload.block_start, max_iter=worker.BLOCK_EXPANSIONS)
    block_steps = whole_basis_steps(worker.BLOCK_WIDTH)
    block_defect = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
    coeffs, pair = nonhermitian.two_sided_block_run(
        nonhermitian.GeneralOperator.from_hamiltonian(workload.spec),
        workload.right, workload.left, max_iter=worker.TWO_SIDED_EXPANSIONS)
    two_sided_steps = whole_basis_steps(worker.TWO_SIDED_WIDTH)
    two_sided_defect = nonhermitian.biorthogonality_check(*pair)

    # the absolute-value majorant this estimate replaced took 6, 2 and 4
    # such steps; where the one scalar trigger falls (steps 50 and 51 here)
    # moves with round-off, so only the counts are pinned
    assert len(scalar_steps) <= 2, scalar_steps
    assert block_steps == two_sided_steps == []
    limit = np.sqrt(np.finfo(float).eps)
    assert max(scalar_defect, block_defect, two_sided_defect) <= limit
