"""Tests for the config-driven command line runner."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import blocklanczos
from blocklanczos import cli, noise, scalar, spinchain

ROOT = Path(__file__).resolve().parent.parent


def fresh_python(*args, **kwargs):
    """Run a new interpreter that imports this checkout's package."""
    src = str(Path(blocklanczos.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def write_config(path, data):
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
    return str(path)


def solve_config(tmp_path, **solve_params):
    params = {"length": 2, "block_size": 1, "excitations": 2}
    params.update(solve_params)
    return write_config(tmp_path / "config.json", {
        "command": "solve",
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
        "solve": params,
    })


class TestExperimentConfig:
    def test_round_trip(self):
        data = {"command": "solve", "output_dir": "x", "seed": 3,
                "solve": {"length": 4}}
        config = cli.ExperimentConfig.from_dict(data, "test")
        assert config.to_dict() == data

    def test_defaults(self):
        config = cli.ExperimentConfig.from_dict({"command": "cost-table"},
                                                "test")
        assert config.output_dir == "."
        assert config.seed == 0
        assert config.parameters == {}

    def test_missing_command(self):
        with pytest.raises(cli.ConfigError, match="command"):
            cli.ExperimentConfig.from_dict({}, "test")

    def test_unknown_command(self):
        with pytest.raises(cli.ConfigError, match="explode"):
            cli.ExperimentConfig.from_dict({"command": "explode"}, "test")

    def test_unknown_top_level_field(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.ExperimentConfig.from_dict(
                {"command": "solve", "bogus": 1}, "test")

    def test_bad_seed_type(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.ExperimentConfig.from_dict(
                {"command": "solve", "seed": "zero"}, "test")


class TestApplyOverride:
    def test_dotted_key_reaches_into_block(self):
        data = {"solve": {"length": 2}}
        cli.apply_override(data, "solve.length=6")
        assert data["solve"]["length"] == 6

    def test_json_value_parsing(self):
        data = {}
        cli.apply_override(data, "noise-sweep.etas=[0.1, 0.01]")
        assert data["noise-sweep"]["etas"] == [0.1, 0.01]

    def test_string_fallback(self):
        data = {}
        cli.apply_override(data, "incremental.scenario=random-start")
        assert data["incremental"]["scenario"] == "random-start"

    def test_creates_missing_blocks(self):
        data = {}
        cli.apply_override(data, "command=solve")
        assert data == {"command": "solve"}

    def test_malformed_assignment(self):
        with pytest.raises(cli.ConfigError, match="key=value"):
            cli.apply_override({}, "no-equals-sign")


class TestSolveCommand:
    def test_two_site_ground_energy_on_stdout(self, tmp_path, capsys):
        path = solve_config(tmp_path)
        assert cli.main(["--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("ground energy ")
        energy = float(lines[0].split()[-1])
        assert abs(energy - (-0.75)) < 1e-10

    def test_spectrum_artifact(self, tmp_path, capsys):
        path = solve_config(tmp_path, excitations=4)
        assert cli.main(["--config", path]) == 0
        with open(tmp_path / "out" / "solve_spectrum.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "energy"]
        energies = [float(row[1]) for row in rows[1:]]
        assert energies == sorted(energies)
        assert abs(energies[0] - (-0.75)) < 1e-10

    def test_block_solver_path(self, tmp_path, capsys):
        path = solve_config(tmp_path, length=4, block_size=2)
        assert cli.main(["--config", path]) == 0
        out = capsys.readouterr().out
        energy = float(out.splitlines()[0].split()[-1])
        exact = spinchain.eigenvalues(spinchain.build_xxz(4, 1.0, 1.0))[0]
        assert abs(energy - exact) < 1e-8

    @pytest.mark.parametrize("block_size", [1, 2])
    @pytest.mark.parametrize("excitations", [0, -5])
    def test_nonpositive_excitations_exit_1(self, tmp_path, capsys, excitations,
                                            block_size):
        path = solve_config(tmp_path, length=4, block_size=block_size)
        status = cli.main(["--config", path,
                           "--set", f"solve.excitations={excitations}"])
        assert status == 1
        assert capsys.readouterr().out == (
            f"error: excitations must be >= 1, got {excitations}\n")
        assert not (tmp_path / "out").exists()

    def test_excitations_count_is_kept(self, tmp_path, capsys):
        path = solve_config(tmp_path, length=3, excitations=3)
        assert cli.main(["--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["ground", "excited", "excited"]

    def test_short_spectrum_noted_on_shipped_config(self, tmp_path, capsys):
        # a random start on the 2-site chain spans the singlet and the
        # threefold triplet: 2 distinct levels of the 4 asked for
        config = ROOT / "configs" / "solve_2site.json"
        assert json.loads(config.read_text())["solve"]["excitations"] == 4
        out = tmp_path / "out"
        assert cli.main(["--config", str(config), "--output-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["ground", "excited", "note:"]
        assert lines[-1] == ("note: solve.excitations asked for 4 energies, found 2 "
                             "(the Krylov space of this run has dimension 2)")
        with open(out / "solve_spectrum.csv") as handle:
            assert len(list(csv.reader(handle))) == 3


class TestIncrementalCommand:
    def test_small_scenario_artifact(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "incremental",
            "output_dir": str(tmp_path / "out"),
            "seed": 0,
            "incremental": {"scenario": "small", "length": 6},
        })
        assert cli.main(["--config", path]) == 0
        artifact = tmp_path / "out" / "fig1_convergence.csv"
        with open(artifact) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["terms_added", "lambda_fraction", "energy",
                           "delta_vs_exact", "lanczos_iters"]
        # a 6-site ramp adds 5 bond terms, one row per whole term
        assert len(rows) == 6

    def test_ramp_without_flip_flop_base(self, tmp_path, capsys):
        # j_xy = 0 leaves an empty base chain: its ground state is basis state 0
        path = write_config(tmp_path / "config.json", {
            "command": "incremental",
            "output_dir": str(tmp_path / "out"),
            "incremental": {"scenario": "small", "j_xy": 0.0},
        })
        assert cli.main(["--config", path]) == 0
        assert "final energy 2.25," in capsys.readouterr().out
        with open(tmp_path / "out" / "fig1_convergence.csv") as handle:
            rows = list(csv.reader(handle))
        assert float(rows[-1][2]) == 2.25

    def test_scenario_names_pick_artifact_files(self):
        assert cli.SCENARIO_ARTIFACTS["small"] == "fig1_convergence.csv"
        assert cli.SCENARIO_ARTIFACTS["large"] == "fig2_convergence.csv"
        assert cli.SCENARIO_ARTIFACTS["random-start"] == "fig3_convergence.csv"

    def test_start_pattern_seeds_the_ramp(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--config", str(ROOT / "configs" / "incremental_random_start.json"),
                         "--output-dir", str(out),
                         "--set", "incremental.length=6",
                         "--set", "incremental.start_pattern=uuddud"]) == 0
        with open(out / "fig3_convergence.csv") as handle:
            assert len(list(csv.reader(handle))) == 1 + 5

    @pytest.mark.parametrize("pattern, fragment", [
        ("<up><down>", "spin label '<' is not one of up/down"),
        ("uudd", "start state has 4 sites, expected 6"),
    ])
    def test_bad_start_pattern_exit_1(self, tmp_path, capsys, pattern, fragment):
        out = tmp_path / "out"
        assert cli.main(["--config", str(ROOT / "configs" / "incremental_random_start.json"),
                         "--output-dir", str(out),
                         "--set", "incremental.length=6",
                         "--set", f"incremental.start_pattern={pattern}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"error: {fragment}\n"
        assert captured.err == ""
        assert not out.exists()

    def test_bad_scenario_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "incremental",
            "output_dir": str(tmp_path / "out"),
            "incremental": {"scenario": "sideways"},
        })
        assert cli.main(["--config", path]) == 2
        assert "sideways" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()


class TestNoiseSweepCommand:
    def test_artifacts_and_slope(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "noise-sweep",
            "output_dir": str(tmp_path / "out"),
            "seed": 0,
            "noise-sweep": {"block_size": 8, "block_counts": [4, 6],
                            "trials": 6},
        })
        assert cli.main(["--config", path]) == 0
        report = (tmp_path / "out" / "slope_report.txt").read_text()
        lines = report.splitlines()
        assert lines[0].split() == ["block_size", "block_count", "slope",
                                    "intercept", "r_squared"]
        for line in lines[1:]:
            slope = float(line.split()[2])
            assert 0.9 < slope < 1.1
        with open(tmp_path / "out" / "noise_sweep.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["block_size", "block_count", "eta", "seed", "mae"]
        assert len(rows) == 1 + 2 * 6 * 6  # counts x etas x trials


class TestNonHermitianDemoCommand:
    def test_spectrum_artifact(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "nonhermitian-demo",
            "output_dir": str(tmp_path / "out"),
            "seed": 7,
            "nonhermitian-demo": {"dimension": 24, "width": 2},
        })
        assert cli.main(["--config", path]) == 0
        out = capsys.readouterr().out
        assert "spectrum error" in out
        with open(tmp_path / "out" / "nonhermitian_spectrum.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["computed_real", "computed_imag",
                           "reference_real", "reference_imag"]
        assert len(rows) == 25
        for row in rows[1:]:
            assert abs(float(row[0]) - float(row[2])) < 1e-5
            assert abs(float(row[1]) - float(row[3])) < 1e-5
        assert (tmp_path / "out" / "nonhermitian_coefficients.txt").exists()


class TestCostTableCommand:
    def test_artifact_rows(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "cost-table",
            "output_dir": str(tmp_path / "out"),
            "cost-table": {"q_values": [4]},
        })
        assert cli.main(["--config", path]) == 0
        with open(tmp_path / "out" / "cost_table.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["q", "group_size", "cost"]
        assert len(rows) == 5
        assert float(rows[1][2]) == 4.0  # group size 1 applies all 4 singly
        assert abs(float(rows[4][2]) - 4.0 * 2 ** 0.5) < 1e-12

    @pytest.mark.parametrize("q", [0, -3])
    def test_nonpositive_q_exit_1(self, tmp_path, capsys, q):
        path = write_config(tmp_path / "config.json", {
            "command": "cost-table",
            "output_dir": str(tmp_path / "out"),
            "cost-table": {"q_values": [4, q]},
        })
        assert cli.main(["--config", path]) == 1
        assert capsys.readouterr().out == f"error: q must be >= 1, got {q}\n"
        assert not (tmp_path / "out").exists()


    def test_q_beyond_a_finite_table_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--config", str(ROOT / "configs" / "cost_table.json"),
                         "--output-dir", str(out),
                         "--set", "cost-table.q_values=[5000]"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("error: q must be <= 2047, the largest q whose "
                                "costs are finite, got 5000\n")
        assert captured.err == ""
        assert not out.exists()


class TestManifest:
    def test_contents(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "cost-table",
            "output_dir": str(tmp_path / "out"),
            "cost-table": {"q_values": [4]},
        })
        assert cli.main(["--config", path]) == 0
        with open(tmp_path / "out" / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "cost-table"
        assert manifest["artifacts"] == ["cost_table.csv"]
        assert manifest["wall_time_seconds"] >= 0.0
        assert set(manifest["versions"]) == {"python", "numpy", "scipy",
                                             "blocklanczos"}
        assert manifest["config"]["cost-table"] == {"q_values": [4]}

    def test_round_trip_rerun_is_bit_identical(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "noise-sweep",
            "output_dir": str(tmp_path / "out"),
            "seed": 11,
            "noise-sweep": {"block_size": 6, "block_counts": [4],
                            "trials": 4},
        })
        assert cli.main(["--config", path]) == 0
        with open(tmp_path / "out" / "manifest.json") as handle:
            manifest = json.load(handle)
        replay = write_config(tmp_path / "replay.json", manifest["config"])
        assert cli.main(["--config", replay,
                         "--output-dir", str(tmp_path / "out2")]) == 0
        for name in manifest["artifacts"]:
            first = (tmp_path / "out" / name).read_bytes()
            second = (tmp_path / "out2" / name).read_bytes()
            assert first == second

    def test_overrides_echoed_into_manifest(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "cost-table",
            "output_dir": str(tmp_path / "out"),
            "cost-table": {"q_values": [4]},
        })
        assert cli.main(["--config", path,
                         "--set", "cost-table.q_values=[8]"]) == 0
        with open(tmp_path / "out" / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["config"]["cost-table"]["q_values"] == [8]


class TestFlagPrecedence:
    def test_set_overrides_file_value(self, tmp_path, capsys):
        path = solve_config(tmp_path, length=2)
        assert cli.main(["--config", path, "--set", "solve.length=4"]) == 0
        energy = float(capsys.readouterr().out.splitlines()[0].split()[-1])
        exact = spinchain.eigenvalues(spinchain.build_xxz(4, 1.0, 1.0))[0]
        assert abs(energy - exact) < 1e-8

    def test_shorthand_beats_set(self, tmp_path, capsys):
        path = solve_config(tmp_path)
        target = tmp_path / "elsewhere"
        assert cli.main(["--config", path,
                         "--set", f"output_dir={tmp_path / 'setdir'}",
                         "--output-dir", str(target)]) == 0
        assert (target / "solve_spectrum.csv").exists()
        assert not (tmp_path / "setdir").exists()

    def test_seed_shorthand(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "nonhermitian-demo",
            "output_dir": str(tmp_path / "out"),
            "seed": 0,
            "nonhermitian-demo": {"dimension": 16, "width": 1},
        })
        assert cli.main(["--config", path, "--seed", "5"]) == 0
        with open(tmp_path / "out" / "manifest.json") as handle:
            assert json.load(handle)["config"]["seed"] == 5

    def test_later_set_wins(self, tmp_path, capsys):
        path = solve_config(tmp_path)
        assert cli.main(["--config", path, "--set", "solve.length=8",
                         "--set", "solve.length=2"]) == 0
        energy = float(capsys.readouterr().out.splitlines()[0].split()[-1])
        assert abs(energy - (-0.75)) < 1e-10


class TestErrorHandling:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().out

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "command": "solve",,\n}\n')
        assert cli.main(["--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "line 2" in out

    def test_integer_beyond_digit_limit_in_file_exit_2(self, tmp_path, capsys):
        # json.loads refuses it with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "config.json"
        path.write_text('{"command": "solve", "output_dir": %s, "solve": {"j_xy": %s}}'
                        % (json.dumps(str(tmp_path / "out")), "9" * 5000))
        assert cli.main(["--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"config error: {path}: Exceeds the limit")
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_digit_limit_in_override_exit_2(self, tmp_path, capsys):
        path = solve_config(tmp_path)
        assert cli.main(["--config", path, "--set", "solve.j_xy=" + "9" * 5000]) == 2
        out = capsys.readouterr().out
        assert out.startswith("config error: override of 'solve.j_xy': Exceeds the limit")
        assert not (tmp_path / "out").exists()

    def test_unknown_parameter_named_in_message(self, tmp_path, capsys):
        path = solve_config(tmp_path, typo_field=3)
        assert cli.main(["--config", str(path)]) == 2
        assert "typo_field" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_module_error_exit_1(self, tmp_path, capsys):
        # length above the exact-reference cap trips a module ValueError
        path = write_config(tmp_path / "config.json", {
            "command": "incremental",
            "output_dir": str(tmp_path / "out"),
            "incremental": {"scenario": "small", "length": 16},
        })
        assert cli.main(["--config", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_oversized_basis_exit_1(self, tmp_path, capsys, block_size):
        # max_iter defaults to the dimension: a 2**20 x 2**20 basis
        path = solve_config(tmp_path, length=20, block_size=block_size)
        assert cli.main(["--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("error: ")
        assert "bytes" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_saturating_default_refused_above_cap(self, tmp_path, capsys):
        # L = 12 would run a 4096-expansion saturation (about 70 s)
        path = solve_config(tmp_path, length=12)
        started = time.perf_counter()
        assert cli.main(["--config", path]) == 1
        assert time.perf_counter() - started < 1.0
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        for fragment in ("12 sites", "dimension 4096", f"{4096**2 * 8} bytes",
                         "solve.max_iter"):
            assert fragment in out
        assert not (tmp_path / "out").exists()

    def test_explicit_max_iter_above_cap(self, tmp_path, capsys):
        path = solve_config(tmp_path, length=12, max_iter=40)
        assert cli.main(["--config", path]) == 0
        assert capsys.readouterr().out.startswith("ground energy ")

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_explicit_saturating_max_iter_reaches_basis_guard(
            self, tmp_path, capsys, block_size):
        path = solve_config(tmp_path, length=20, block_size=block_size,
                            max_iter=2**20)
        assert cli.main(["--config", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert "Krylov basis" in out and "bytes" in out

    @pytest.mark.parametrize("config, assignments, fragment", [
        # a (3, 2**40) float64 basis: 26 TB
        ("solve_2site", ["solve.length=40", "solve.max_iter=2"], "Krylov basis"),
        # a 10**6 x 10**6 matrix: 8 TB
        ("nonhermitian_demo", ["nonhermitian-demo.dimension=1000000"],
         "dense backing capped at 512, got dimension 1000000"),
        # a (4 * 10**6)**2 float64 assembly: 128 TB
        ("noise_sweep", ["noise-sweep.block_size=1000000",
                         "noise-sweep.block_counts=[4]"], "noise-sweep assembly"),
    ], ids=["solve", "nonhermitian-demo", "noise-sweep"])
    def test_oversized_input_refused_before_drawing(
            self, tmp_path, capsys, monkeypatch, config, assignments, fragment):
        def no_draw(*args, **kwargs):
            raise AssertionError("random input drawn before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "out"
        argv = ["--config", str(ROOT / "configs" / f"{config}.json"),
                "--output-dir", str(out)]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("error: ")
        assert fragment in captured.out
        assert len(captured.out.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_kernel_larger_than_memory_refused_before_drawing(
            self, tmp_path, capsys, monkeypatch):
        # a (3, 1024) float64 basis (24576 bytes) fits in 50000 bytes; the
        # 10-site chain's kernel, 4608 entries, and its diagonal (67588 bytes
        # together) do not
        monkeypatch.setattr(spinchain, "_physical_memory", lambda: 50_000)

        def no_draw(*args, **kwargs):
            raise AssertionError("random input drawn before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        path = solve_config(tmp_path, length=10, max_iter=2)
        assert cli.main(["--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "error: the Hamiltonian kernel of the 10-site chain (4608 entries) "
            "needs 67588 bytes, more than the 50000 bytes of physical memory; "
            "lower the chain length or its number of XX+YY terms\n")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("length, built", [(30, 1), (31, 0), (40, 0)])
    def test_solve_start_beyond_memory_refused_before_the_chain_is_built(
            self, tmp_path, capsys, monkeypatch, length, built):
        # in 2**33 bytes the 30-site float64 start (8 * 2**30 bytes) just
        # fits, and that run is refused later by the saturating-default cap;
        # longer starts do not fit, and their chains' bonds are never built
        monkeypatch.setattr(spinchain, "_physical_memory", lambda: 2**33)
        calls = []
        build_xxz = spinchain.build_xxz

        def counted(*args):
            calls.append(args)
            return build_xxz(*args)

        monkeypatch.setattr(spinchain, "build_xxz", counted)
        path = solve_config(tmp_path, length=length)
        assert cli.main(["--config", path]) == 1
        assert len(calls) == built
        captured = capsys.readouterr()
        if built:
            assert "saturates by default" in captured.out
        else:
            assert captured.out == (
                f"error: a Krylov basis vector of the {length}-site chain "
                f"needs 8 * 2**{length} bytes, more than the 8589934592 bytes "
                "of physical memory; lower solve.length\n")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, parameter", [
        ("solve", "j_xy"), ("solve", "j_z"), ("incremental", "j_z"),
        ("noise-sweep", "etas"),
    ])
    def test_integer_beyond_float_range_is_config_error(
            self, tmp_path, capsys, command, parameter):
        huge = str(10**400)
        value = f"[1e-3, {huge}]" if parameter == "etas" else huge
        out = tmp_path / "new" / "out"
        path = write_config(tmp_path / "config.json", {
            "command": command, "output_dir": str(out)})
        assert cli.main(["--config", path,
                         "--set", f"{command}.{parameter}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            f"config error: command {command!r}: parameter {parameter!r} "
            "holds an integer beyond float range\n")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("two_at_a_time", [True, False],
                             ids=["helper", "no-helper"])
    def test_noise_sweep_memory_counts_assemblies_in_flight(
            self, tmp_path, capsys, monkeypatch, request, two_at_a_time):
        # a (60, 60) float64 assembly takes 28800 bytes: one fits in 50000
        # bytes, the two that a sweep solving in pairs holds do not
        monkeypatch.setattr(spinchain, "_physical_memory", lambda: 50_000)
        if not two_at_a_time:
            monkeypatch.setattr(noise, "_bind_dsyevd", lambda: None)
        else:
            request.getfixturevalue("paired_dsyevd")

            def no_draw(*args, **kwargs):
                raise AssertionError("random input drawn before the size check")

            monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "out"
        argv = ["--config", str(ROOT / "configs" / "noise_sweep.json"),
                "--output-dir", str(out)]
        for assignment in ("block_size=20", "block_counts=[3]", "trials=1"):
            argv += ["--set", f"noise-sweep.{assignment}"]
        status = cli.main(argv)
        captured = capsys.readouterr()
        if not two_at_a_time:
            assert status == 0
            assert (out / "noise_sweep.csv").exists()
            return
        assert status == 1
        assert captured.out == (
            "error: a noise-sweep assembly of shape (60, 60), held two at a "
            "time, needs 57600 bytes, more than the 50000 bytes of physical "
            "memory; lower noise-sweep.block_size or block_counts\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, assignment", [
        ("solve", "length=null"),
        ("solve", "length=[1]"),
        ("solve", "excitations=null"),
        ("noise-sweep", "etas=5"),
        ("noise-sweep", "block_counts=[]"),
    ])
    def test_wrong_parameter_type_is_config_error(self, tmp_path, capsys,
                                                  command, assignment):
        path = write_config(tmp_path / "config.json", {
            "command": command, "output_dir": str(tmp_path / "out")})
        assert cli.main(["--config", path,
                         "--set", f"{command}.{assignment}"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("config error: ")
        parameter = assignment.partition("=")[0]
        assert f"command {command!r}" in captured.out
        assert f"parameter {parameter!r}" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, value, fragment", [
        ("incremental", "NaN", "coefficient must be finite, got nan"),
        ("incremental", "Infinity", "coefficient must be finite, got inf"),
        # finite, but the assembled chain overflows inside ARPACK
        ("incremental", "1e308", "no ground state of the 10-site chain"),
        ("solve", "NaN", "coefficient must be finite, got nan"),
        ("solve", "Infinity", "coefficient must be finite, got inf"),
    ])
    def test_non_finite_coupling_refused(self, tmp_path, capsys, command,
                                         value, fragment):
        path = write_config(tmp_path / "config.json", {
            "command": command, "output_dir": str(tmp_path / "out")})
        assert cli.main(["--config", path,
                         "--set", f"{command}.j_xy={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("error: ")
        assert fragment in captured.out
        assert len(captured.out.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, assignments, fragment", [
        # finite chains whose Krylov coefficients overflow
        ("solve_2site", ["solve.j_xy=1e308"],
         "the 2-site chain overflowed at step 1: its coupling block"),
        ("incremental_small", ["incremental.j_xy=1e200"],
         "the 10-site chain overflowed at step 1: its coupling block"),
        ("incremental_small", ["incremental.length=6", "incremental.j_z=1e308"],
         "the 6-site chain overflowed at step 1: its coupling block"),
        # finite couplings whose norm bound overflows
        ("solve_2site", ["solve.length=5", "solve.j_xy=1e308"],
         "the norm bound of the 5-site chain overflows to inf"),
    ], ids=["solve", "incremental-xy", "incremental-z", "solve-bound"])
    def test_overflowing_coupling_refused(self, tmp_path, capsys, config,
                                          assignments, fragment):
        out = tmp_path / "out"
        argv = ["--config", str(ROOT / "configs" / f"{config}.json"),
                "--output-dir", str(out)]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("error: ")
        assert fragment in captured.out
        assert len(captured.out.splitlines()) == 1
        assert captured.err == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("etas, fragment", [
        ("[1e308,1e-3]", "has a non-finite entry"),
        ("[1e-3,Infinity]", "eta must be finite and >= 0, got inf"),
        ("[NaN]", "eta must be finite and >= 0, got nan"),
    ])
    def test_non_finite_noise_refused(self, tmp_path, capsys, etas, fragment):
        # 1e308 * N(0, 1) overflows, so the noisy coefficients hold inf/NaN
        path = write_config(tmp_path / "config.json", {
            "command": "noise-sweep",
            "output_dir": str(tmp_path / "out"),
            "noise-sweep": {"block_size": 4, "block_counts": [4], "trials": 1},
        })
        assert cli.main(["--config", path,
                         "--set", f"noise-sweep.etas={etas}"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("error: ")
        assert fragment in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_overflowing_noise_prints_only_the_error(self, tmp_path):
        path = write_config(tmp_path / "config.json", {
            "command": "noise-sweep",
            "output_dir": str(tmp_path / "out"),
            "noise-sweep": {"block_size": 4, "block_counts": [4], "trials": 1,
                            "etas": [1e308, 1e-3]},
        })
        result = fresh_python("-m", "blocklanczos", "--config", path,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert result.returncode == 1
        assert result.stdout == "error: diagonal block 0 has a non-finite entry\n"

    @pytest.mark.parametrize("etas", ["[0.0,1e-3]", "[1e-3]", "[1e-3,1e-3,0]"])
    def test_unfittable_noise_sweep_refused_before_sweeping(
            self, tmp_path, capsys, sweep_solves, etas):
        path = write_config(tmp_path / "config.json", {
            "command": "noise-sweep", "output_dir": str(tmp_path / "out")})
        assert cli.main(["--config", path,
                         "--set", f"noise-sweep.etas={etas}"]) == 1
        assert capsys.readouterr().out == (
            "error: need at least two positive-eta points to fit\n")
        assert sweep_solves == []
        assert not (tmp_path / "out").exists()

    def test_refusal_removes_created_parents(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", {
            "command": "cost-table",
            "output_dir": str(tmp_path / "a" / "b" / "out"),
            "cost-table": {"q_values": [0]},
        })
        assert cli.main(["--config", path]) == 1
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("keep", [[], ["notes.txt"]])
    def test_refusal_keeps_existing_directory(self, tmp_path, capsys, keep):
        outdir = tmp_path / "out"
        outdir.mkdir()
        for name in keep:
            (outdir / name).write_text("kept\n")
        path = write_config(tmp_path / "config.json", {
            "command": "cost-table",
            "output_dir": str(outdir / "sub"),
            "cost-table": {"q_values": [0]},
        })
        assert cli.main(["--config", path]) == 1
        assert sorted(os.listdir(outdir)) == keep

    def test_config_file_not_mutated(self, tmp_path, capsys):
        path = solve_config(tmp_path)
        before = open(path, "rb").read()
        assert cli.main(["--config", path, "--set", "solve.length=4"]) == 0
        assert open(path, "rb").read() == before

    def test_rerun_does_not_mutate_artifacts_dir_inputs(self, tmp_path,
                                                        capsys):
        # artifacts land in output_dir only; the config's directory stays as-is
        path = solve_config(tmp_path)
        entries_before = set(os.listdir(tmp_path))
        assert cli.main(["--config", path]) == 0
        new_entries = set(os.listdir(tmp_path)) - entries_before
        assert new_entries == {"out"}


OPTIONAL_SCIPY = ("scipy.linalg", "scipy.stats", "scipy.sparse", "scipy.optimize")


def test_import_leaves_optional_scipy_unloaded():
    script = f"""
import sys
import blocklanczos, blocklanczos.cli
print([m for m in {OPTIONAL_SCIPY} if m in sys.modules])
from blocklanczos import nonhermitian, spinchain
print(spinchain.ground_energy(spinchain.build_xxz(4, 1.0, 1.0)).hex())
print(nonhermitian.match_spectra([1.0, 2j, 3.0], [3.0, 1.0, 2j]))
"""
    result = fresh_python("-c", script, capture_output=True, check=True)
    loaded, energy, mismatch = result.stdout.splitlines()
    assert loaded == "[]"
    exact = spinchain.eigenvalues(spinchain.build_xxz(4, 1.0, 1.0))[0]
    assert float.fromhex(energy) == pytest.approx(exact, abs=1e-12)
    assert float(mismatch) == 0.0


def test_deferred_linalg_import_gives_the_same_ritz_values():
    alphas, betas = [0.5, -1.25, 2.0, 0.75], [1.0, 0.3, 1e-3]
    coeffs = scalar.BlockCoefficients(np.reshape(alphas, (-1, 1, 1)),
                                      np.reshape(betas, (-1, 1, 1)))
    script = f"""
import sys
import numpy as np
from blocklanczos import scalar
print("scipy.linalg" in sys.modules)
coeffs = scalar.BlockCoefficients(np.reshape({alphas}, (-1, 1, 1)),
                                  np.reshape({betas}, (-1, 1, 1)))
print(" ".join(v.hex() for v in scalar.ritz_values(coeffs)))
print("scipy.linalg" in sys.modules)
"""
    result = fresh_python("-c", script, capture_output=True, check=True)
    before, values, after = result.stdout.splitlines()
    assert (before, after) == ("False", "True")
    assert values == " ".join(v.hex() for v in scalar.ritz_values(coeffs))


def test_noise_and_cost_runs_leave_scipy_linalg_unloaded(tmp_path):
    configs = [
        write_config(tmp_path / "cost.json", {
            "command": "cost-table", "output_dir": str(tmp_path / "cost")}),
        write_config(tmp_path / "noise.json", {
            "command": "noise-sweep", "output_dir": str(tmp_path / "noise"),
            "noise-sweep": {"block_size": 4, "block_counts": [4, 5],
                            "etas": [1e-4, 1e-2], "trials": 2}}),
    ]
    script = f"""
import sys
from blocklanczos import cli
print([cli.run(path) for path in {configs}])
print([m for m in {OPTIONAL_SCIPY} if m in sys.modules])
"""
    result = fresh_python("-c", script, capture_output=True, check=True)
    *_, statuses, loaded = result.stdout.splitlines()
    assert statuses == "[0, 0]"
    assert loaded == "[]"
    assert (tmp_path / "cost" / "cost_table.csv").exists()
    assert (tmp_path / "noise" / "noise_sweep.csv").exists()
