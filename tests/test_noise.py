"""Tests for coefficient-noise propagation and sampling models."""

import ctypes
import math
import os
import sys
import threading
import warnings
import weakref
from dataclasses import astuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings, strategies as st

from blocklanczos import block, noise, scalar
from blocklanczos.textio import write_csv
from blocklanczos.noise import (
    NoiseModel,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    SweepRow,
    cost_sweep,
    fit_loglog_slope,
    fit_summary,
    mae_sweep,
    noise_seed,
    perturb_and_mae,
    perturb_coefficients,
    perturbed_assemblies,
    sampled_energy_errors,
    slope_report,
    summarize_sweep,
    synthetic_problem,
    trial_seed,
)

import reference_values as ref


class TestNoiseModel:
    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-1e-3, 0)

    def test_zero_eta_allowed(self):
        assert NoiseModel(0.0, 7).eta == 0.0

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            NoiseModel(eta, 0)


class TestSyntheticBlockProblem:
    """synthetic_problem draws BlockCoefficients; BlockCoefficients
    validates them."""

    def test_generate_shapes_and_ranges(self):
        problem = synthetic_problem(3, 5, seed=0)
        assert len(problem.a_blocks) == 5
        assert len(problem.b_blocks) == 4
        assert problem.dimension == 15
        for a in problem.a_blocks:
            assert a.shape == (3, 3)
            assert np.max(np.abs(a - a.T)) == 0.0
            assert np.all((a >= 0.0) & (a <= 1.0))
        for b in problem.b_blocks:
            assert np.all((b >= 0.0) & (b <= 1.0))

    def test_generate_reproducible(self):
        one = synthetic_problem(2, 4, seed=42)
        two = synthetic_problem(2, 4, seed=42)
        for x, y in zip(one.a_blocks + one.b_blocks,
                        two.a_blocks + two.b_blocks):
            assert np.array_equal(x, y)

    def test_validation(self):
        eye = np.eye(2)
        with pytest.raises(ValueError):
            scalar.BlockCoefficients((eye,), (eye,))
        with pytest.raises(ValueError):
            scalar.BlockCoefficients((np.array([[0.0, 1.0], [0.0, 0.0]]),), ())
        with pytest.raises(ValueError):
            scalar.BlockCoefficients((eye, eye), (np.eye(3),))
        with pytest.raises(ValueError):
            synthetic_problem(0, 1, seed=0)

    def test_scalar_case(self):
        problem = synthetic_problem(1, 6, seed=3)
        assert problem.dimension == 6
        assert block.assemble_block_tridiagonal(problem).shape == (6, 6)


class TestPerturbCoefficients:
    def test_zero_eta_bit_identical(self):
        problem = synthetic_problem(2, 4, seed=1)
        assert perturb_coefficients(problem, NoiseModel(0.0, 99)) is problem

    def test_diagonal_noise_symmetrized(self):
        problem = synthetic_problem(4, 3, seed=2)
        noisy = perturb_coefficients(problem, NoiseModel(1e-2, 5))
        for a in noisy.a_blocks:
            assert np.max(np.abs(a - a.T)) < 1e-15
        # coupling-noise is left general
        asym = [np.max(np.abs((b1 - b0) - (b1 - b0).T))
                for b0, b1 in zip(problem.b_blocks, noisy.b_blocks)]
        assert max(asym) > 0.0
        mat = block.assemble_block_tridiagonal(noisy)
        assert np.array_equal(mat, mat.T)

    def test_seeded_determinism(self):
        problem = synthetic_problem(2, 5, seed=3)
        first = perturb_coefficients(problem, NoiseModel(1e-3, 11))
        second = perturb_coefficients(problem, NoiseModel(1e-3, 11))
        for x, y in zip(first.a_blocks + first.b_blocks,
                        second.a_blocks + second.b_blocks):
            assert np.array_equal(x, y)
        other = perturb_coefficients(problem, NoiseModel(1e-3, 12))
        assert not np.array_equal(first.a_blocks[0], other.a_blocks[0])

    def test_noise_scale_tracks_eta(self):
        problem = synthetic_problem(3, 10, seed=4)
        for eta in (1e-4, 1e-2):
            b_noisy = perturb_coefficients(problem, NoiseModel(eta, 6)).b_blocks
            deltas = np.concatenate([
                (b1 - b0).ravel() for b0, b1 in zip(problem.b_blocks, b_noisy)
            ])
            assert 0.5 * eta < np.std(deltas) < 2.0 * eta


class TestPerturbAndMae:
    def test_zero_eta_gives_exact_zero(self, eigvalsh_calls):
        problem = synthetic_problem(4, 6, seed=5)
        reference = block.block_ritz_values(problem)
        eigvalsh_calls.clear()
        assert perturb_and_mae(problem, NoiseModel(0.0, 0), reference) == 0.0
        assert eigvalsh_calls == []

    def test_given_reference_skips_clean_solve(self, eigvalsh_calls):
        problem = synthetic_problem(3, 4, seed=8)
        model = NoiseModel(1e-3, 15)
        reference = block.block_ritz_values(problem)
        eigvalsh_calls.clear()
        given = perturb_and_mae(problem, model, reference)
        assert len(eigvalsh_calls) == 1  # the perturbed spectrum only
        assert given == perturb_and_mae(problem, model,
                                        block.block_ritz_values(problem))

    def test_deterministic(self):
        problem = synthetic_problem(2, 6, seed=6)
        model = NoiseModel(1e-3, 13)
        reference = block.block_ritz_values(problem)
        assert (perturb_and_mae(problem, model, reference)
                == perturb_and_mae(problem, model, reference))

    def test_matches_sorted_pairing_reimplementation(self):
        problem = synthetic_problem(3, 4, seed=7)
        model = NoiseModel(1e-2, 14)
        clean, noisy = perturbed_assemblies(problem, model)
        expected = np.mean(np.abs(
            np.linalg.eigvalsh(noisy) - np.linalg.eigvalsh(clean)
        ))
        mae = perturb_and_mae(problem, model, block.block_ritz_values(problem))
        assert mae == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_weyl_bound(self, seed):
        # Sorted-pair eigenvalue error never exceeds the spectral norm of
        # the Hermitian perturbation.
        problem = synthetic_problem(3, 5, seed=seed)
        model = NoiseModel(1e-2, seed + 100)
        clean, noisy = perturbed_assemblies(problem, model)
        mae = perturb_and_mae(problem, model, np.linalg.eigvalsh(clean))
        assert mae <= np.linalg.norm(noisy - clean, 2) + 1e-15


class TestCostModel:
    def test_group_bounds(self):
        for q in (0, -3):
            with pytest.raises(ValueError, match=f"q must be >= 1, got {q}"):
                cost_sweep(q)

    def test_largest_finite_table(self):
        sweep = cost_sweep(2047)
        assert sweep[0] == (1, 2.0 ** 1023.5)
        assert all(math.isfinite(cost) for _, cost in sweep)
        with pytest.raises(ValueError, match="q must be <= 2047, .* got 2048"):
            cost_sweep(2048)

    def test_single_group_value(self):
        assert dict(cost_sweep(4))[1] == 4.0

    def test_whole_register_value(self):
        assert dict(cost_sweep(4))[4] == 4.0 * 2.0 ** 0.5

    def test_q40_sweep_minimizer(self):
        sweep = cost_sweep(40)
        assert len(sweep) == 40
        best_group, best_cost = min(sweep, key=lambda item: item[1])
        assert best_group == ref.Q40_BEST_GROUP
        assert best_cost == pytest.approx(ref.Q40_BEST_COST, rel=1e-14)
        assert 1 < best_group < 40


def per_eta_sweep(block_size, block_counts, etas, trials, base_seed):
    """The sweep with the clean problem assembled and solved again next to
    every noisy one, eta = 0 included: the reference for ``mae_sweep``."""
    rows = []
    for count in block_counts:
        for trial in range(trials):
            seed = trial_seed(base_seed, block_size, count, trial)
            problem = synthetic_problem(block_size, count, seed)
            for eta_index, eta in enumerate(etas):
                model = NoiseModel(eta, noise_seed(seed, eta_index))
                clean, noisy = perturbed_assemblies(problem, model)
                mae = float(np.mean(np.abs(
                    np.linalg.eigvalsh(noisy) - np.linalg.eigvalsh(clean))))
                rows.append(SweepRow(block_size, count, float(eta), seed, mae))
    return rows


# eta = 0 twice and a repeated positive eta, each with its own noise stream
SWEEP_ETAS = [0.0, 1e-4, 1e-2, 1e-4, 0.0]


class TestSweep:
    def test_matches_per_eta_reference(self):
        rows = mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        assert rows == per_eta_sweep(4, [3, 5], SWEEP_ETAS, 3, 7)

    def test_one_clean_solve_per_problem(self, sweep_solves):
        mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        positive = sum(eta > 0.0 for eta in SWEEP_ETAS)
        assert len(sweep_solves) == 2 * 3 * (1 + positive)

    def test_row_grid(self):
        rows = mae_sweep(2, [3, 4], [0.0, 1e-3], trials=2, base_seed=1)
        assert len(rows) == 2 * 2 * 2
        assert {row.block_count for row in rows} == {3, 4}
        zero_rows = [row for row in rows if row.eta == 0.0]
        assert all(row.mae == 0.0 for row in zero_rows)

    def test_csv_round_trip(self, tmp_path):
        rows = mae_sweep(2, [3], [1e-4, 1e-3], trials=2, base_seed=2)
        path = tmp_path / "sweep.csv"
        write_csv(path, SWEEP_HEADER, map(astuple, rows))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        kinds = (int, int, float, int, float)
        # repr-exact floats read back bit for bit
        assert [SweepRow(*(kind(cell) for kind, cell in zip(kinds, line.split(","))))
                for line in lines[1:]] == rows

    def test_summary_means(self, tmp_path):
        rows = mae_sweep(1, [4], [1e-3], trials=3, base_seed=3)
        summary = summarize_sweep(rows)
        assert len(summary) == 1
        assert summary[0].mean_mae == pytest.approx(
            np.mean([row.mae for row in rows]), rel=1e-15
        )
        path = tmp_path / "summary.csv"
        write_csv(path, SUMMARY_HEADER, map(astuple, summary))
        assert path.read_text().splitlines()[0] == ",".join(SUMMARY_HEADER)

    def test_sweep_deterministic(self):
        one = mae_sweep(2, [3], [1e-3], trials=2, base_seed=5)
        two = mae_sweep(2, [3], [1e-3], trials=2, base_seed=5)
        assert one == two


@st.composite
def sweep_assemblies(draw):
    """The clean and one perturbed assembly of a drawn synthetic problem."""
    problem = synthetic_problem(draw(st.integers(1, 20)), draw(st.integers(1, 20)),
                                draw(st.integers(0, 2**32 - 1)))
    model = NoiseModel(draw(st.floats(0.0, 0.1)), draw(st.integers(0, 2**32 - 1)))
    return perturbed_assemblies(problem, model)


class TestSweepSolves:
    """The sweep's own eigensolve, ``noise._eigvalsh``, and the helper
    thread that runs every other one."""

    # the fixture's binding serves every example unchanged
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sweep_assemblies())
    def test_private_solve_is_numpys_bit_for_bit(self, paired_dsyevd, assemblies):
        for mat in assemblies:
            # the ctypes call hands LAPACK the C buffer, so this must be exact
            assert np.array_equal(mat, mat.T)
            assert np.array_equal(noise._eigvalsh(paired_dsyevd, mat.copy()),
                                  np.linalg.eigvalsh(mat))

    def test_binds_only_on_one_blas_thread_and_two_cpus(self, monkeypatch):
        from numpy.linalg import _umath_linalg
        lapack = ctypes.CDLL(_umath_linalg.__file__)
        if not hasattr(lapack, "scipy_openblas_set_num_threads64_"):
            pytest.skip("numpy is not linked to scipy-openblas64")
        threads = lapack.scipy_openblas_get_num_threads64_()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        try:
            lapack.scipy_openblas_set_num_threads64_(1)
            assert noise._bind_dsyevd() is not None
            lapack.scipy_openblas_set_num_threads64_(2)
            assert noise._bind_dsyevd() is None
            lapack.scipy_openblas_set_num_threads64_(1)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert noise._bind_dsyevd() is None
        finally:
            lapack.scipy_openblas_set_num_threads64_(threads)

    def test_helper_solves_every_other_matrix(self, paired_dsyevd, sweep_solves):
        before = threading.active_count()
        mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        # 24 solves in pairs: one helper thread takes one of each pair
        main = threading.main_thread().name
        helpers = [name for name in sweep_solves if name != main]
        assert len(set(helpers)) == 1
        assert len(helpers) == len(sweep_solves) // 2 == 12
        assert threading.active_count() == before

    def test_serial_path_gives_the_same_rows(self, monkeypatch, paired_dsyevd,
                                             sweep_solves, eigvalsh_calls):
        expected = mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        sweep_solves.clear()
        monkeypatch.setattr(noise, "_bind_dsyevd", lambda: None)
        eigvalsh_calls.clear()
        assert mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7) == expected
        assert set(sweep_solves) == {threading.main_thread().name}
        assert len(eigvalsh_calls) == len(sweep_solves)

    @pytest.mark.parametrize("two_at_a_time", [True, False],
                             ids=["helper", "no-helper"])
    def test_at_most_two_assemblies_alive(self, monkeypatch, request, two_at_a_time):
        if two_at_a_time:
            request.getfixturevalue("paired_dsyevd")
        else:
            monkeypatch.setattr(noise, "_bind_dsyevd", lambda: None)
        real = block.assemble_block_tridiagonal
        built, alive = [], []

        def tracking(coeffs):
            alive.append(sum(ref() is not None for ref in built))
            mat = real(coeffs)
            built.append(weakref.ref(mat))
            return mat

        monkeypatch.setattr(block, "assemble_block_tridiagonal", tracking)
        mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        # one matrix at most is alive when the next is built; the helper may
        # have freed its matrix already, so none is alive at times
        assert len(alive) == 24 and max(alive) <= 1

    def test_helper_drops_its_matrix_before_publishing(self, monkeypatch,
                                                       paired_dsyevd):
        # an executor's work item keeps its arguments until after set_result,
        # so a matrix passed as one would be alive beside this thread's own
        from concurrent.futures import Future
        assemble, publish = block.assemble_block_tridiagonal, Future.set_result
        built, alive = [], []

        def tracking(coeffs):
            mat = assemble(coeffs)
            built.append(weakref.ref(mat))
            return mat

        def publishing(future, result):
            alive.append(sum(ref() is not None for ref in built))
            publish(future, result)

        monkeypatch.setattr(block, "assemble_block_tridiagonal", tracking)
        monkeypatch.setattr(Future, "set_result", publishing)
        mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        # only this thread's matrix of the pair may be alive
        assert len(alive) == 12 and max(alive) <= 1

    def test_draws_and_assemblies_stay_on_the_main_thread(self, monkeypatch,
                                                          paired_dsyevd):
        # the benchmark's span recorder times these on one thread
        threads = []
        for module, name in ((noise, "synthetic_problem"),
                             (noise, "perturb_coefficients"),
                             (block, "assemble_block_tridiagonal")):
            def recording(*args, real=getattr(module, name)):
                threads.append(threading.current_thread())
                return real(*args)

            monkeypatch.setattr(module, name, recording)
        mae_sweep(4, [3, 5], SWEEP_ETAS, trials=3, base_seed=7)
        # 6 draws, 18 perturbations (eta = 0 needs none) and 24 assemblies
        assert len(threads) == 48
        assert set(threads) == {threading.main_thread()}

    def test_concurrent_sweeps_under_fast_switching(self, paired_dsyevd):
        # three sweeps at once, each with its own helper, so more threads than
        # CPUs, switching every microsecond: a lost or misrouted hand-over
        # would change or drop a row
        args = (3, [2, 4, 6], [0.0, 1e-4, 1e-3, 1e-2], 4, 11)
        expected = per_eta_sweep(*args)
        results = [None] * 3

        def sweep(i):
            results[i] = mae_sweep(*args)

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 3

    @pytest.mark.parametrize("etas", [[1e-3, 1e308], [1e308]],
                             ids=["nothing-in-flight", "helper-in-flight"])
    def test_overflow_refused_and_helper_joined(self, paired_dsyevd, etas):
        before = threading.active_count()
        with pytest.raises(ValueError, match="has a non-finite entry"):
            mae_sweep(2, [3], etas, trials=2, base_seed=1)
        assert threading.active_count() == before

    def test_helper_failure_raised_and_helper_joined(self, monkeypatch,
                                                      paired_dsyevd):
        real = noise._eigvalsh

        def failing_off_main(dsyevd, mat):
            if threading.current_thread() is not threading.main_thread():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(dsyevd, mat)

        monkeypatch.setattr(noise, "_eigvalsh", failing_off_main)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            mae_sweep(2, [3], [1e-3, 1e-2], trials=2, base_seed=1)
        assert threading.active_count() == before

    def test_private_solve_refuses_other_layouts(self, paired_dsyevd):
        read_only = np.eye(3)
        read_only.flags.writeable = False
        for mat in (np.eye(3, dtype=np.float32), np.eye(6)[::2, ::2], np.ones((2, 3)),
                    read_only):
            with pytest.raises(ValueError, match="C-order square float64"):
                noise._eigvalsh(paired_dsyevd, mat)

    def test_lapack_failure_raises_linalgerror(self, paired_dsyevd):
        def not_converging(*args):
            paired_dsyevd(*args)
            args[-1]._obj.value = 1  # info > 0: LAPACK's non-convergence

        mat = block.assemble_block_tridiagonal(synthetic_problem(2, 3, seed=0))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            noise._eigvalsh(not_converging, mat)


class TestFit:
    def test_exact_power_law(self):
        etas = np.array([1e-5, 1e-4, 1e-3, 1e-2])
        fit = fit_loglog_slope(etas, 3.7 * etas)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log10(3.7), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_zero_eta_points_excluded(self):
        etas = np.array([0.0, 1e-4, 1e-3, 1e-2])
        maes = np.array([0.0, 2e-4, 2e-3, 2e-2])
        assert fit_loglog_slope(etas, maes).slope == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([0.0, 1e-3]), np.array([0.0, 1e-3]))
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([1e-4, 1e-3]), np.array([0.0, 1e-3]))
        with pytest.raises(ValueError, match="identical"):
            fit_loglog_slope(np.array([1e-3, 1e-3]), np.array([1e-3, 2e-3]))

    @given(st.lists(st.tuples(st.floats(1e-12, 1e3), st.floats(1e-12, 1e3)),
                    min_size=2, max_size=8,
                    unique_by=lambda point: np.log10(point[0])))
    def test_matches_linregress_exactly(self, points):
        etas, maes = map(np.array, zip(*points))
        reference = scipy.stats.linregress(np.log10(etas), np.log10(maes))
        fit = fit_loglog_slope(etas, maes)
        assert np.array_equal(
            [fit.slope, fit.intercept, fit.r_squared],
            [reference.slope, reference.intercept, float(reference.rvalue) ** 2],
            equal_nan=True)

    def test_constant_maes_fit_flat_without_warning(self):
        etas = np.array([1e-4, 1e-3, 1e-2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_loglog_slope(etas, np.full(3, 1e-3))
        assert fit.slope == 0.0
        assert np.isnan(fit.r_squared)

    def test_fit_summary_and_report(self):
        rows = mae_sweep(2, [3, 5], [1e-4, 1e-3, 1e-2], trials=8, base_seed=6)
        fits = fit_summary(summarize_sweep(rows))
        assert set(fits) == {(2, 3), (2, 5)}
        for fit in fits.values():
            assert 0.8 < fit.slope < 1.2
        report = slope_report(fits)
        lines = report.splitlines()
        assert lines[0].startswith("block_size block_count slope")
        assert len(lines) == 3


class TestSampledEnergyErrors:
    def test_error_decreases_with_shots(self):
        results = sampled_energy_errors([10**2, 10**4, 10**6], trials=8)
        errors = [err for _, err in results]
        assert errors[0] > errors[1] > errors[2]

    def test_slope_near_inverse_square_root(self):
        results = sampled_energy_errors([10**3, 10**4, 10**5, 10**6],
                                        trials=16)
        slope = np.polyfit(np.log10([s for s, _ in results]),
                           np.log10([e for _, e in results]), 1)[0]
        assert slope == pytest.approx(ref.SHOT_ERROR_SLOPE, abs=2e-3)
        assert -0.65 < slope < -0.35

    def test_deterministic(self):
        assert sampled_energy_errors([1000], trials=4) == sampled_energy_errors(
            [1000], trials=4
        )

    def test_matches_per_shots_reference(self, eigvalsh_calls):
        # reference: redraw and re-solve every trial's problem per shot count
        shots_list, trials, count = [10, 1000, 10**5], 4, 6
        expected = []
        for shots_index, shots in enumerate(shots_list):
            errors = []
            for trial in range(trials):
                seed = trial_seed(0, 1, count, trial)
                problem = synthetic_problem(1, count, seed)
                exact = float(block.block_ritz_values(problem)[0])
                rng = np.random.default_rng(noise_seed(seed, shots_index))
                sampled = scalar.BlockCoefficients(
                    tuple(rng.binomial(shots, a) / shots for a in problem.a_blocks),
                    tuple(rng.binomial(shots, b) / shots for b in problem.b_blocks),
                )
                errors.append(abs(float(block.block_ritz_values(sampled)[0]) - exact))
            expected.append((shots, float(np.mean(errors))))
        eigvalsh_calls.clear()
        assert sampled_energy_errors(shots_list, trials, count) == expected
        assert len(eigvalsh_calls) == trials * (1 + len(shots_list))
