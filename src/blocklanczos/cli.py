"""Config-driven command line runner.

One JSON config file describes one experiment: a ``command`` naming what to
run, an ``output_dir`` and ``seed``, and a parameter block keyed by the
command name. ``--set key=value`` flags override file values (dotted keys
reach into blocks, values parse as JSON with a plain-string fallback), and
``--output-dir`` / ``--seed`` are shorthand overrides applied last. Every
run writes its artifacts plus a ``manifest.json`` echoing the config with
its overrides applied. It holds only the parameters given; each omitted
one takes its default in the ``blocklanczos`` version the manifest
records, so with that version any run can be reproduced bit for bit from
its manifest alone.

Commands and their artifacts:

* ``solve`` - ground (and optionally excited) energies of one chain;
  writes ``solve_spectrum.csv`` and prints the ground energy, with a note
  when the Krylov space holds fewer energies than ``excitations`` asks for.
  An omitted ``max_iter`` runs to saturation, allowed up to
  ``SATURATING_SOLVE_DIM_CAP`` states.
* ``incremental`` - ramping trajectory; writes ``fig1_convergence.csv``
  (small scenario), ``fig2_convergence.csv`` (large) or
  ``fig3_convergence.csv`` (random-start).
* ``noise-sweep`` - coefficient-noise study; writes ``noise_sweep.csv``,
  ``noise_summary.csv`` and ``slope_report.txt``.
* ``nonhermitian-demo`` - two-sided run on a random dense matrix; writes
  ``nonhermitian_spectrum.csv`` and ``nonhermitian_coefficients.txt``.
* ``cost-table`` - grouped-application cost scores; writes
  ``cost_table.csv``.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import scipy

import blocklanczos
from blocklanczos import (
    block, incremental, noise, nonhermitian, scalar, spinchain, textio,
)

COMMANDS = ("solve", "incremental", "noise-sweep", "nonhermitian-demo",
            "cost-table")

MANIFEST_NAME = "manifest.json"

# Largest chain dimension for which ``solve`` runs to saturation when
# ``max_iter`` is omitted: the saturating basis is dim**2 float64 values and
# the reorthogonalization still O(dim**3) work, since near saturation the
# overlap estimate triggers often (187 of 1020 expansions at 2**10 states
# project against the whole basis and measure the new vector's overlaps;
# the run takes about 0.16 s there and 0.9 s at 2**11 states).
SATURATING_SOLVE_DIM_CAP = 2**10

SCENARIO_ARTIFACTS = {
    "small": "fig1_convergence.csv",
    "large": "fig2_convergence.csv",
    "random-start": "fig3_convergence.csv",
}


class ConfigError(ValueError):
    """A config file or override that cannot be used, with location info."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description."""

    command: str
    output_dir: str
    seed: int
    parameters: dict[str, Any]

    @classmethod
    def from_dict(cls, data: dict[str, Any], source: str) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ConfigError(f"{source}: top level must be an object")
        if "command" not in data:
            raise ConfigError(f"{source}: missing field 'command'")
        command = data["command"]
        if command not in COMMANDS:
            raise ConfigError(
                f"{source}: field 'command' must be one of {COMMANDS}, "
                f"got {command!r}"
            )
        output_dir = data.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError(f"{source}: field 'output_dir' must be a string")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"{source}: field 'seed' must be an integer")
        parameters = data.get(command, {})
        if not isinstance(parameters, dict):
            raise ConfigError(f"{source}: field {command!r} must be an object")
        known = {"command", "output_dir", "seed", *COMMANDS}
        for key in data:
            if key not in known:
                raise ConfigError(f"{source}: unknown field {key!r}")
        return cls(command, output_dir, seed, dict(parameters))

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "output_dir": self.output_dir,
            "seed": self.seed,
            self.command: dict(self.parameters),
        }


def load_config_file(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except ValueError as err:  # an integer beyond Python's digit limit
        raise ConfigError(f"{path}: {err}") from err


def apply_override(data: dict[str, Any], assignment: str) -> None:
    """Apply one ``key=value`` override; dotted keys reach into blocks."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(
            f"override {assignment!r} must have the form key=value"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as err:  # an integer beyond Python's digit limit
        raise ConfigError(f"override of {key!r}: {err}") from err
    target = data
    parts = key.split(".")
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(
                f"override {assignment!r}: {part!r} is not an object"
            )
        target = node
    target[parts[-1]] = value


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}
# JSON types of the parameters whose default is null
_NULLABLE_TYPES = {"max_iter": int, "j_z": float, "lanczos_per_step": int,
                   "start_pattern": str}
# the values a string parameter may take
_CHOICES = {"scenario": incremental.SCENARIOS}

# Every parameter of each command with its default: ``run`` merges the
# config's values into these, and refuses bad ones, before it creates the
# output directory.
_DEFAULTS: dict[str, dict[str, Any]] = {
    "solve": {"length": 2, "j_xy": 1.0, "j_z": 1.0, "block_size": 1,
              "max_iter": None, "excitations": 1},
    "incremental": {"scenario": "small", "length": 10, "j_xy": 1.0,
                    "j_z": None, "lanczos_per_step": None,
                    "dlambda_fractions": 1, "start_pattern": None,
                    "descending_order": False},
    "noise-sweep": {"block_size": 20, "block_counts": list(range(4, 21)),
                    "etas": [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
                    "trials": 32},
    "nonhermitian-demo": {"dimension": 64, "width": 2, "max_iter": None},
    "cost-table": {"q_values": [4, 40]},
}


def _has_type(value: Any, kind: type) -> bool:
    """JSON typing: true/false is no number, and an integer is a number."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _require(params: dict[str, Any], command: str) -> dict[str, Any]:
    """Merge the command's defaults with params, rejecting unknown keys and
    values of the wrong JSON type: the type of the default, a non-empty list
    of the default's item type, or, for a null default, null or its listed
    type. A parameter listed in ``_CHOICES`` must also be one of its choices.
    Numbers, and the items of number lists, are returned as floats; an
    integer beyond float range is refused."""
    allowed = _DEFAULTS[command]
    merged = dict(allowed)
    for key, value in params.items():
        if key not in allowed:
            raise ConfigError(
                f"command {command!r}: unknown parameter {key!r} "
                f"(expected one of {sorted(allowed)})"
            )
        default = allowed[key]
        if isinstance(default, list):
            kind = type(default[0])
            ok = isinstance(value, list) and value != [] and all(
                _has_type(item, kind) for item in value)
            expected = f"a non-empty list, each item {_TYPE_NAMES[kind]}"
        else:
            kind = type(default) if default is not None else _NULLABLE_TYPES[key]
            ok = _has_type(value, kind) or (default is None and value is None)
            expected = _TYPE_NAMES[kind] + (" or null" if default is None else "")
        if ok and key in _CHOICES:
            ok = value in _CHOICES[key]
            expected = f"one of {json.dumps(list(_CHOICES[key]))}"
        if not ok:
            raise ConfigError(f"command {command!r}: parameter {key!r} must be "
                              f"{expected}, got {json.dumps(value)}")
        if kind is float and value is not None:
            try:
                value = ([float(item) for item in value]
                         if isinstance(value, list) else float(value))
            except OverflowError:
                raise ConfigError(f"command {command!r}: parameter {key!r} "
                                  "holds an integer beyond float range") from None
        merged[key] = value
    return merged


def _run_solve(config: ExperimentConfig, params: dict[str, Any],
               outdir: Path) -> tuple[list[str], list[str]]:
    length = params["length"]
    physical = spinchain._physical_memory()
    # a float64 start too large to hold is refused before any bond is built
    # and without forming 2**length
    if length >= (physical // 8).bit_length():
        raise ValueError(f"a Krylov basis vector of the {length}-site chain "
                         f"needs 8 * 2**{length} bytes, more than the {physical} "
                         "bytes of physical memory; lower solve.length")
    spec = spinchain.build_xxz(length, params["j_xy"], params["j_z"])
    width = params["block_size"]
    max_iter = params["max_iter"]
    count = params["excitations"]
    if count < 1:
        raise ValueError(f"excitations must be >= 1, got {count}")
    if max_iter is None and spec.dim > SATURATING_SOLVE_DIM_CAP:
        raise ValueError(
            f"solve on {spec.length} sites (dimension {spec.dim}) saturates by "
            f"default, which needs a basis of {spec.dim**2 * 8} bytes and "
            f"O(dim**3) work; set solve.max_iter (the saturating default is kept "
            f"only up to {SATURATING_SOLVE_DIM_CAP} states)"
        )
    max_iter = spec.dim if max_iter is None else max_iter
    # the recursion's basis and the Hamiltonian kernel, bounded before the
    # start is drawn
    scalar._check_basis_fits(spec.dim, width, max_iter, np.float64)
    spinchain.check_kernel_fits(spec)
    rng = np.random.default_rng(config.seed)
    if width == 1:
        start = spinchain.random_state_vector(spec.length, rng)
        coeffs, _ = scalar.lanczos_run(spec, start, max_iter=max_iter)
        values, _ = scalar.tridiagonal_eigensolve(coeffs)
    else:
        start = block.random_orthonormal_block(spec.length, width, rng)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=max_iter)
        values, _ = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
    energies = values[:count].tolist()
    artifact = "solve_spectrum.csv"
    textio.write_csv(outdir / artifact, ("index", "energy"), enumerate(energies))
    lines = [f"ground energy {energies[0]!r}"]
    for i, energy in enumerate(energies[1:], start=1):
        lines.append(f"excited {i} energy {energy!r}")
    if len(energies) < count:
        lines.append(f"note: solve.excitations asked for {count} energies, found "
                     f"{len(energies)} (the Krylov space of this run has "
                     f"dimension {len(values)})")
    return lines, [artifact]


def _run_incremental(config: ExperimentConfig, params: dict[str, Any],
                     outdir: Path) -> tuple[list[str], list[str]]:
    scenario = params["scenario"]
    # every parameter but the pattern names a ScenarioConfig field; a null
    # one keeps the scenario's stock value
    given = {key: value for key, value in params.items()
             if key != "start_pattern" and value is not None}
    if params["start_pattern"] is not None:
        given["start_state"] = spinchain.ProductState.from_string(
            params["start_pattern"])
    record = incremental.run_incremental(
        replace(incremental.default_config(scenario), **given))
    artifact = SCENARIO_ARTIFACTS[scenario]
    textio.write_csv(outdir / artifact, incremental.CSV_HEADER,
                     map(astuple, record.rows))
    lines = [
        f"scenario {scenario}: {len(record)} steps, final energy "
        f"{record.final_energy!r}, final delta {record.final_delta!r}"
    ]
    return lines, [artifact]


def _run_noise_sweep(config: ExperimentConfig, params: dict[str, Any],
                     outdir: Path) -> tuple[list[str], list[str]]:
    noise.check_fittable_etas(params["etas"])
    rows = noise.mae_sweep(
        params["block_size"],
        params["block_counts"],
        params["etas"],
        trials=params["trials"],
        base_seed=config.seed,
    )
    summary = noise.summarize_sweep(rows)
    fits = noise.fit_summary(summary)
    textio.write_csv(outdir / "noise_sweep.csv", noise.SWEEP_HEADER,
                     map(astuple, rows))
    textio.write_csv(outdir / "noise_summary.csv", noise.SUMMARY_HEADER,
                     map(astuple, summary))
    report = noise.slope_report(fits)
    (outdir / "slope_report.txt").write_text(report)
    slopes = [fit.slope for fit in fits.values()]
    lines = [
        f"noise sweep: {len(rows)} points, slopes "
        f"{min(slopes):.4f}..{max(slopes):.4f}"
    ]
    return lines, ["noise_sweep.csv", "noise_summary.csv", "slope_report.txt"]


def _run_nonhermitian_demo(config: ExperimentConfig, params: dict[str, Any],
                           outdir: Path) -> tuple[list[str], list[str]]:
    dim = params["dimension"]
    width = params["width"]
    max_iter = 2 * dim if params["max_iter"] is None else params["max_iter"]
    cap = nonhermitian.DENSE_DIMENSION_CAP
    if dim > cap:  # refused before the matrix is drawn
        raise ValueError(f"dense backing capped at {cap}, got dimension {dim}")
    rng = np.random.default_rng(config.seed)
    mat = rng.standard_normal((dim, dim))
    op = nonhermitian.GeneralOperator.from_matrix(mat)
    right0, left0 = nonhermitian.paired_random_start(dim, width, rng)
    coeffs, (left, right) = nonhermitian.two_sided_block_run(
        op, right0, left0, max_iter=max_iter)
    computed = np.sort_complex(nonhermitian.t_eigenvalues(coeffs))
    reference = np.sort_complex(np.linalg.eigvals(mat))
    rows = [(c.real, c.imag, r.real, r.imag) for c, r in zip(computed, reference)]
    textio.write_csv(outdir / "nonhermitian_spectrum.csv",
                     ("computed_real", "computed_imag",
                      "reference_real", "reference_imag"), rows)
    coeffs.save(outdir / "nonhermitian_coefficients.txt")
    error = nonhermitian.match_spectra(computed, reference)
    defect = nonhermitian.biorthogonality_check(left, right)
    lines = [
        f"two-sided run: {coeffs.dimension} of {dim} directions, spectrum "
        f"error {error:.3e}, biorthogonality defect {defect:.3e}"
    ]
    return lines, ["nonhermitian_spectrum.csv", "nonhermitian_coefficients.txt"]


def _run_cost_table(config: ExperimentConfig, params: dict[str, Any],
                    outdir: Path) -> tuple[list[str], list[str]]:
    rows = []
    lines = []
    for q in params["q_values"]:
        sweep = noise.cost_sweep(q)
        rows.extend((q, group, cost) for group, cost in sweep)
        best_group, best_cost = min(sweep, key=lambda item: item[1])
        lines.append(f"q={q}: best group size {best_group} (cost {best_cost!r})")
    textio.write_csv(outdir / "cost_table.csv", ("q", "group_size", "cost"), rows)
    return lines, ["cost_table.csv"]


_RUNNERS = {
    "solve": _run_solve,
    "incremental": _run_incremental,
    "noise-sweep": _run_noise_sweep,
    "nonhermitian-demo": _run_nonhermitian_demo,
    "cost-table": _run_cost_table,
}


def run(config_path: str | Path, overrides: Sequence[str] = (),
        output_dir: str | None = None, seed: int | None = None) -> int:
    """Execute one experiment; returns a process exit status.

    A bad config or override is status 2. A run the library refuses, one
    that runs out of memory, or one whose output directory cannot be made or
    written (an ``OSError``) is status 1. Either prints one line. A refused
    run removes the output directory, and any parents, that it created and
    left empty; a directory that existed before the run is never touched.
    """
    created: list[Path] = []
    try:
        data = load_config_file(config_path)
        if not isinstance(data, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        for assignment in overrides:
            apply_override(data, assignment)
        if output_dir is not None:
            data["output_dir"] = output_dir
        if seed is not None:
            data["seed"] = seed
        config = ExperimentConfig.from_dict(data, str(config_path))
        params = _require(config.parameters, config.command)
        outdir = Path(config.output_dir)
        created = [p for p in (outdir, *outdir.parents) if not p.exists()]
        outdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        lines, artifacts = _RUNNERS[config.command](config, params, outdir)
        elapsed = time.perf_counter() - started
        manifest = {
            "command": config.command,
            "config": config.to_dict(),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blocklanczos": blocklanczos.__version__,
            },
            "wall_time_seconds": elapsed,
            "artifacts": artifacts,
        }
        with open(outdir / MANIFEST_NAME, "w", newline="\n") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        for line in lines:
            print(line)
        return 0
    except ConfigError as err:
        print(f"config error: {err}")
        status = 2
    except (ValueError, nonhermitian.SeriousBreakdownError, MemoryError,
            OSError) as err:
        print(f"error: {str(err) or type(err).__name__}")
        status = 1
    for path in created:  # deepest first; stops at the first non-empty one
        try:
            path.rmdir()
        except OSError:
            break
    return status


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocklanczos",
        description=(
            "Run one experiment described by a JSON config file. Override "
            "precedence: config file < --set flags (in order) < "
            "--output-dir/--seed shorthands."
        ),
    )
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment config")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config value (dotted keys reach "
                             "into blocks; value parsed as JSON, falling "
                             "back to a plain string); repeatable")
    parser.add_argument("--output-dir", default=None,
                        help="override the artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the base random seed")
    args = parser.parse_args(argv)
    return run(args.config, args.overrides, args.output_dir, args.seed)
