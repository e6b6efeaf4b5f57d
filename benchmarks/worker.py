"""One benchmark process: set up one workload, then run its passes.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH and
the BLAS thread count pinned. Prints one JSON object as its last stdout
line: the set-up time, per-pass timings and outputs, and peak RSS. Output
checks and reference spectra live in ``run.py``, outside this process, so
neither its timings nor its memory include them.

Modes:

* ``setup`` - set up, report the set-up time and exit;
* ``timed`` - set up, then run passes until the next one would end past
  ``--seconds``; at least one pass;
* ``traced`` - set up, then one pass with spans, one untraced pass and one
  pass with spans and ``tracemalloc``; reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

import numpy as np  # noqa: E402

import blocklanczos  # noqa: E402
from blocklanczos import (  # noqa: E402
    block, cli, incremental, noise, nonhermitian, scalar, spinchain,
)

import spans  # noqa: E402

RAMP_CONFIGS = ("incremental_small", "incremental_large",
                "incremental_random_start")
NOISE_CONFIG = "noise_sweep"
NOISE_TRIALS = 8
KRYLOV_LENGTH = 16
SCALAR_EXPANSIONS = 60
BLOCK_WIDTH, BLOCK_EXPANSIONS = 4, 30
TWO_SIDED_WIDTH, TWO_SIDED_EXPANSIONS = 2, 30
RITZ_KEPT = 6  # lowest Ritz values returned for checking

# Fixed dense instances for the two-sided breakdown count:
# (dimension, width, seeds); a full run is max_iter = 2 * dimension.
BREAKDOWN_SET = ((512, 2, range(6)), (512, 4, range(6)), (256, 2, range(6)))


def shipped_config(name: str) -> Path:
    return ROOT / "configs" / f"{name}.json"


def start_pattern(seed: int, length: int) -> str:
    """Random product pattern with total Sz = 0, like the shipped one."""
    rng = np.random.default_rng(seed)
    return "".join(rng.permutation(list("u" * (length // 2) + "d" * (length - length // 2))))


def artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


class Ramp:
    """The three shipped ramp configs through ``cli.run``."""

    def __init__(self, seed: int, tiny: bool):
        self.runs = []
        for name in RAMP_CONFIGS:
            path = shipped_config(name)
            json.loads(path.read_text())  # fail in set-up on a missing config
            overrides = []
            if tiny:
                overrides.append("incremental.length=6")
            if name == "incremental_random_start" and (tiny or seed != 0):
                length = 6 if tiny else 10
                overrides.append(f"incremental.start_pattern={start_pattern(seed, length)}")
            self.runs.append((name, path, overrides, OUT_DIR / "work" / name))

    def run_pass(self) -> dict:
        outputs, failures, nbytes = {}, [], 0
        # A stage runs from its scalar.lanczos_run call to the return of the
        # spinchain.ground_energy reference that ends it. This probe stays on
        # in untraced passes: two spans per stage of about 700 ms.
        probe = spans.SpanRecorder()
        marks = [(scalar, "lanczos_run", "stage.start", None),
                 (spinchain, "ground_energy", "stage.end", None)]
        with spans.instrumented(probe, marks):
            for name, path, overrides, outdir in self.runs:
                status = cli.run(path, overrides, output_dir=str(outdir))
                if status != 0:
                    failures.append(f"{name}: cli.run exit status {status}")
                    continue
                scenario = json.loads((outdir / cli.MANIFEST_NAME).read_text())[
                    "config"]["incremental"]["scenario"]
                record = incremental.ConvergenceRecord.from_csv(
                    outdir / cli.SCENARIO_ARTIFACTS[scenario])
                outputs[name] = [[r.terms_added, r.lambda_fraction, r.energy,
                                  r.delta_vs_exact, r.lanczos_iters]
                                 for r in record.rows]
                nbytes += artifact_bytes(outdir)
        starts = [sp.start for sp in probe.spans if sp.name == "stage.start"]
        ends = [sp.end for sp in probe.spans if sp.name == "stage.end"]
        return {"outputs": outputs, "failures": failures, "artifact_bytes": nbytes,
                "slices_ms": [1000.0 * (e - b) for b, e in zip(starts, ends)]}


class Noise:
    """The shipped noise sweep through ``cli.run``, trials reduced."""

    def __init__(self, seed: int, tiny: bool):
        self.path = shipped_config(NOISE_CONFIG)
        json.loads(self.path.read_text())
        self.seed = seed
        self.overrides = [f"noise-sweep.trials={1 if tiny else NOISE_TRIALS}"]
        if tiny:
            self.overrides.append("noise-sweep.block_counts=[4,5]")
        self.outdir = OUT_DIR / "work" / NOISE_CONFIG

    def run_pass(self) -> dict:
        status = cli.run(self.path, self.overrides, output_dir=str(self.outdir),
                         seed=self.seed)
        if status != 0:
            return {"outputs": {}, "failures": [f"cli.run exit status {status}"],
                    "artifact_bytes": 0}
        summary = []
        with open(self.outdir / "noise_summary.csv") as handle:
            next(handle)
            for line in handle:
                size, count, eta, mae = line.strip().split(",")
                summary.append([int(size), int(count), float(eta), float(mae)])
        slopes = {}
        for line in (self.outdir / "slope_report.txt").read_text().splitlines()[1:]:
            size, count, slope, _, _ = line.split()
            slopes[count] = float(slope)
        return {"outputs": {"summary": summary, "slopes": slopes}, "failures": [],
                "artifact_bytes": artifact_bytes(self.outdir)}


class Krylov:
    """Matrix-free scalar, block and two-sided solves on the open
    Heisenberg chain, each followed by its projected eigensolve."""

    def __init__(self, seed: int, tiny: bool):
        length = 8 if tiny else KRYLOV_LENGTH
        self.spec = spinchain.build_xxz(length, 1.0, 1.0)
        rng = np.random.default_rng(seed)
        self.start = spinchain.random_state_vector(length, rng)
        self.block_start = block.random_orthonormal_block(length, BLOCK_WIDTH, rng)
        self.right, self.left = nonhermitian.paired_random_start(
            self.spec.dim, TWO_SIDED_WIDTH, rng)

    def run_pass(self) -> dict:
        t0 = time.perf_counter()
        coeffs, _ = scalar.lanczos_run(self.spec, self.start, max_iter=SCALAR_EXPANSIONS)
        scalar_ritz = scalar.ritz_values(coeffs)
        t1 = time.perf_counter()
        counter = block.ExtractionCounter()
        block_coeffs, _ = block.block_lanczos_run(
            self.spec, self.block_start, max_iter=BLOCK_EXPANSIONS, counter=counter)
        block_ritz = block.block_ritz_values(block_coeffs)
        t2 = time.perf_counter()
        op = nonhermitian.GeneralOperator.from_hamiltonian(self.spec)
        two_coeffs, _ = nonhermitian.two_sided_block_run(
            op, self.right, self.left, max_iter=TWO_SIDED_EXPANSIONS)
        two_ritz = nonhermitian.t_eigenvalues(two_coeffs)
        t3 = time.perf_counter()
        two_ritz = two_ritz[np.argsort(two_ritz.real)][:RITZ_KEPT]
        return {
            "outputs": {
                "scalar": scalar_ritz[:RITZ_KEPT].tolist(),
                "block": block_ritz[:RITZ_KEPT].tolist(),
                "twosided": [[z.real, z.imag] for z in two_ritz],
                "scalar_alphas": coeffs.alphas.tolist(),
                "scalar_betas": coeffs.betas.tolist(),
            },
            "failures": [],
            "solve_s": {"scalar_solve_s": t1 - t0, "block_solve_s": t2 - t1,
                        "twosided_solve_s": t3 - t2},
        }


WORKLOADS = {"ramp": Ramp, "noise": Noise, "krylov": Krylov}


def timed_pass(workload) -> dict:
    t0 = time.perf_counter()
    try:
        result = workload.run_pass()
    except Exception as exc:  # a raising item is a failure, not a crash
        result = {"outputs": {}, "failures": [f"{type(exc).__name__}: {exc}"]}
    result["wall_s"] = time.perf_counter() - t0
    return result


def _columns(args, kwargs, result):
    amps = args[1]
    return {"columns": 1 if amps.ndim == 1 else amps.shape[1]}


def _expansions(args, kwargs, result):
    return {"expansions": len(result[0].betas)}


def _block_columns(args, kwargs, result):
    coeffs = result[0]
    counter = kwargs.get("counter")
    return {
        "produced": sum(b.shape[1] for b in coeffs.b_blocks),
        "kept": sum(b.shape[0] for b in coeffs.b_blocks),
        "extractions": counter.total if counter is not None else 0,
    }


def _slices(args, kwargs, result):
    return {"slices": len(result)}


def trace_targets():
    oracle = ("dense_matrix", "ground_energy", "ground_state",
              "exact_diagonalize", "eigenvalues")
    return [
        (spinchain, "apply_to_array", "spinchain.apply", _columns),
        # nonhermitian binds apply_to_array by name at import
        (nonhermitian, "apply_to_array", "spinchain.apply", _columns),
        *[(spinchain, name, "spinchain.oracle", None) for name in oracle],
        (scalar, "lanczos_run", "scalar.lanczos", _expansions),
        (scalar, "tridiagonal_eigensolve", "scalar.eigensolve", None),
        (scalar, "ritz_values", "scalar.eigensolve", None),
        (scalar, "reconstruct_state", "scalar.reconstruct", None),
        (block, "block_lanczos_run", "block.lanczos", _block_columns),
        (block, "assemble_block_tridiagonal", "block.assemble", None),
        (block, "block_ritz_values", "block.eigensolve", None),
        (block, "block_eigensolve", "block.eigensolve", None),
        (nonhermitian, "two_sided_block_run", "nonhermitian.two_sided", None),
        (incremental, "run_incremental", "incremental.run", _slices),
        (noise, "mae_sweep", "noise.sweep", None),
        (noise, "perturb_and_mae", "noise.perturb_and_mae", None),
        (noise, "perturbed_assemblies", "noise.assemblies", None),
        (np.linalg, "eigvalsh", "numpy.eigvalsh", None),
        (cli, "run", "cli.run", None),
    ]


def layer_metrics(timing: list, memory: list) -> dict:
    """Per-layer metrics from one span pass and one tracemalloc span pass."""
    tot = spans.layer_totals(timing)
    mem = spans.layer_totals(memory)

    def get(name, key, source=tot):
        return source.get(name, {}).get(key, 0)

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in timing if s.name == name)

    apply_cols = info_sum("spinchain.apply", "columns")
    produced = info_sum("block.lanczos", "produced")
    noise_solves = [s for s in timing if s.name == "numpy.eigvalsh"
                    and spans.has_ancestor(timing, s, "noise.")]
    return {
        "spinchain.apply.calls": get("spinchain.apply", "calls"),
        "spinchain.apply.columns": apply_cols,
        "spinchain.apply.self_s": get("spinchain.apply", "self_s"),
        "spinchain.apply.ms_per_column":
            1000.0 * get("spinchain.apply", "self_s") / apply_cols if apply_cols else 0.0,
        "spinchain.oracle.calls": get("spinchain.oracle", "outer_calls"),
        "spinchain.oracle.self_s": get("spinchain.oracle", "self_s"),
        "spinchain.oracle.alloc_peak_mb": get("spinchain.oracle", "alloc_peak_mb", mem),
        "scalar.lanczos.self_s": get("scalar.lanczos", "self_s"),
        "scalar.lanczos.expansions": info_sum("scalar.lanczos", "expansions"),
        "scalar.lanczos.alloc_peak_mb": get("scalar.lanczos", "alloc_peak_mb", mem),
        "scalar.eigensolve.self_s": get("scalar.eigensolve", "self_s"),
        "scalar.reconstruct.self_s": get("scalar.reconstruct", "self_s"),
        "block.lanczos.self_s": get("block.lanczos", "self_s"),
        "block.lanczos.extractions": info_sum("block.lanczos", "extractions"),
        "block.lanczos.kept_column_ratio":
            info_sum("block.lanczos", "kept") / produced if produced else 0.0,
        "block.lanczos.alloc_peak_mb": get("block.lanczos", "alloc_peak_mb", mem),
        "block.assemble.calls": get("block.assemble", "calls"),
        "block.assemble.self_s": get("block.assemble", "self_s"),
        "block.eigensolve.self_s": get("block.eigensolve", "self_s"),
        "nonhermitian.two_sided.self_s": get("nonhermitian.two_sided", "self_s"),
        "nonhermitian.two_sided.alloc_peak_mb":
            get("nonhermitian.two_sided", "alloc_peak_mb", mem),
        "incremental.run.self_s": get("incremental.run", "self_s"),
        "incremental.slices": info_sum("incremental.run", "slices"),
        "noise.sweep.self_s": get("noise.sweep", "self_s"),
        "noise.perturb_and_mae.calls": get("noise.perturb_and_mae", "calls"),
        "noise.perturb_and_mae.self_s": get("noise.perturb_and_mae", "self_s"),
        "noise.assemblies.self_s": get("noise.assemblies", "self_s"),
        "noise.eigensolves": len(noise_solves),
        "noise.eigensolve.self_s": sum(s.self_time for s in noise_solves),
        "cli.run.self_s": get("cli.run", "self_s"),
    }


def breakdown_count() -> dict:
    """Serious breakdowns of full two-sided runs on the fixed dense set."""
    attempts = breakdowns = 0
    for dim, width, seeds in BREAKDOWN_SET:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            op = nonhermitian.GeneralOperator.from_matrix(rng.standard_normal((dim, dim)))
            right, left = nonhermitian.paired_random_start(dim, width, rng)
            attempts += 1
            try:
                nonhermitian.two_sided_block_run(op, right, left, max_iter=2 * dim)
            except nonhermitian.SeriousBreakdownError:
                breakdowns += 1
    return {"nonhermitian.breakdowns": breakdowns,
            "nonhermitian.breakdown_attempts": attempts}


def traced_passes(name: str, workload, seed: int) -> dict:
    # The traced pass goes first: any first-pass warm-up then counts
    # against tracing in the overhead below, not for it.
    timing = spans.SpanRecorder()
    with spans.instrumented(timing, trace_targets()):
        traced = timed_pass(workload)
    timing.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    untraced = timed_pass(workload)
    memory = spans.SpanRecorder(track_memory=True)
    with spans.instrumented(memory, trace_targets()):
        mem_pass = timed_pass(workload)
    metrics = layer_metrics(timing.spans, memory.spans)
    metrics["cli.artifact_bytes"] = traced.get("artifact_bytes", 0)
    metrics.update(breakdown_count() if name == "krylov" else
                   {"nonhermitian.breakdowns": 0, "nonhermitian.breakdown_attempts": 0})
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.traced_wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {"passes": [traced, untraced, mem_pass], "layers": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not Path(blocklanczos.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"blocklanczos imported from {blocklanczos.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "timed":
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(timed_pass(workload))
            elapsed = time.perf_counter() - started
            longest = max(p["wall_s"] for p in passes)
            if elapsed + longest > args.seconds:
                break
        result["passes"] = passes
    elif args.mode == "traced":
        result.update(traced_passes(args.workload, workload, args.seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
