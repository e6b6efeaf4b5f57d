"""Smoke check: every workload once at tiny size, untraced and traced.

    python3 benchmarks/smoke.py

Asserts that each run exits 0, that its last stdout line carries exactly
the metrics BENCHMARK.json declares, with their units, that its record holds
the workload's own end-to-end metrics, and that no checked item failed
(fail_frac = 0). Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# End-to-end metrics that exist on one workload only; run.py keeps them in
# its record and summary rather than in the contract's JSON line.
WORKLOAD_METRICS = {
    "ramp": {"fail_frac", "slice_ms_p50"},
    "noise": {"fail_frac"},
    "krylov": {"fail_frac", "scalar_solve_s", "block_solve_s", "twosided_solve_s"},
}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload",
                   workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit status {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} differ from {sorted(want)}")
            record = json.loads((ROOT / "benchmarks" / "out" /
                                 f"{workload}-seed1-trace{trace}.json").read_text())
            extra = record["workload_metrics"]
            if set(extra) != WORKLOAD_METRICS[workload] or extra["fail_frac"] != 0:
                problems.append(f"{label}: workload metrics {extra}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} "
                                f"items failed\n{proc.stdout}")
            print(f"{label}: {result['attempted']} items, {result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
