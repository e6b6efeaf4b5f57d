"""Golden artifacts: the shipped configs still produce the same outputs.

Each shipped config runs through ``cli.run`` into a temporary directory
(the noise sweep with two trials), with the lines it prints captured as
``stdout.txt`` in the same directory, and every CSV and TXT file there is
compared with its copy under ``tests/golden/<config>/``. Headers, words,
integers and the echoed parameter columns ``lambda_fraction`` and ``eta``
must match exactly. Other floats, also one that ends a clause of a printed
line with a comma, must agree within 1e-13 * max(1, |x|), the round-off
that a change of floating-point order may cause. Every config under
``configs/`` must have golden copies.

The runs happen in one fresh interpreter with one BLAS thread, the setting
the copies were made with: the noise sweep's slope fits move by up to
3e-10 between one and two OpenBLAS threads. After a deliberate change of
results, regenerate a config's copies with

    OPENBLAS_NUM_THREADS=1 python3 -m blocklanczos \\
        --config configs/<config>.json --output-dir tests/golden/<config> \\
        > tests/golden/<config>/stdout.txt

(adding ``--set noise-sweep.trials=2`` for ``noise_sweep``) and delete the
``manifest.json`` it writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocklanczos
from blocklanczos import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = {
    "cost_table": [],
    "solve_2site": [],
    "nonhermitian_demo": [],
    "incremental_small": [],
    "incremental_large": [],
    "incremental_random_start": [],
    "noise_sweep": ["noise-sweep.trials=2"],
}
EXACT_COLUMNS = {"lambda_fraction", "eta"}
FLOAT_RTOL = 1e-13
RUN_ALL = """
import contextlib, io, json, sys
from blocklanczos import cli
root, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
status = 0
for name, overrides in runs.items():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = max(status, cli.run(f"{root}/configs/{name}.json", overrides,
                                     output_dir=f"{out}/{name}"))
    with open(f"{out}/{name}/stdout.txt", "w") as handle:
        handle.write(printed.getvalue())
sys.exit(status)
"""


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Directory with one output subdirectory per config."""
    out = tmp_path_factory.mktemp("golden-run")
    threads = {name: "1" for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(blocklanczos.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", RUN_ALL, str(ROOT), str(out), json.dumps(RUNS)],
        env={**os.environ, **threads, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return out


def cells(path):
    """(header or None, rows of tokens): CSV cells, or whitespace-separated
    words of a text file."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        return lines[0].split(","), [line.split(",") for line in lines[1:]]
    return None, [line.split() for line in lines]


def is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def assert_token_matches(got, want, exact, where):
    if want.endswith(",") and got.endswith(","):  # a float ending a clause
        got, want = got[:-1], want[:-1]
    if exact or not is_float(want) or want.lstrip("-").isdigit():
        assert got == want, f"{where}: {got!r} vs {want!r}"
        return
    bound = FLOAT_RTOL * max(1.0, abs(float(want)))
    assert abs(float(got) - float(want)) <= bound, f"{where}: {got} vs {want}"


@pytest.mark.parametrize("config", sorted(RUNS))
def test_artifacts_match_golden(config, produced):
    outdir, golden = produced / config, GOLDEN / config
    names = {p.name for p in outdir.iterdir()} - {cli.MANIFEST_NAME}
    assert names == {p.name for p in golden.iterdir()}
    for name in sorted(names):
        header, rows = cells(outdir / name)
        want_header, want_rows = cells(golden / name)
        assert header == want_header, name
        assert len(rows) == len(want_rows), name
        for i, (row, want_row) in enumerate(zip(rows, want_rows)):
            assert len(row) == len(want_row), f"{name} line {i}"
            for j, (got, want) in enumerate(zip(row, want_row)):
                exact = header is not None and header[j] in EXACT_COLUMNS
                assert_token_matches(got, want, exact, f"{name} line {i} item {j}")


def test_every_shipped_config_has_golden_copies():
    assert sorted(RUNS) == sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
