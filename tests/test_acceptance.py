"""Acceptance criteria, one test per criterion.

Every criterion runs at its pinned tolerance and prints one pass/fail line
(collected into a terminal summary section by conftest.py). Criterion 3's
second clause is known to fail: the measured split-to-4-iteration error
ratio is approximately 17.4 against the pinned bound of 10. The bound is
asserted as stated rather than loosened; the failure message carries the
measured evidence.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from blocklanczos import block, incremental, noise, nonhermitian, scalar, spinchain
from conftest import record_criterion
from test_scalar import textbook_lanczos, tridiagonal_matrix


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {number:2d} [{status}] {label}: {detail}")


@pytest.fixture(scope="module")
def small_record():
    return incremental.run_incremental(incremental.default_config("small"))


@pytest.fixture(scope="module")
def large_records():
    base = incremental.default_config("large")
    two_iter = incremental.run_incremental(base)
    four_iter = incremental.run_incremental(
        dataclasses.replace(base, lanczos_per_step=4))
    split = incremental.run_incremental(
        dataclasses.replace(base, dlambda_fractions=2))
    return two_iter, four_iter, split


@pytest.fixture(scope="module")
def random_start_record():
    return incremental.run_incremental(incremental.default_config("random-start"))


def test_criterion_01_scalar_saturation_matches_dense_spectrum():
    models = {"isotropic": (1.0, 1.0), "flip-flop": (1.0, 0.0),
              "anisotropic": (1.0, 2.5)}
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for length in range(2, 11):
        for j_xy, j_z in models.values():
            spec = spinchain.build_xxz(length, j_xy, j_z)
            start = spinchain.random_state_vector(length, rng)
            coeffs, _ = scalar.lanczos_run(spec, start, max_iter=spec.dim)
            ritz = scalar.ritz_values(coeffs)
            for value in spinchain.eigenvalues(spec):
                worst = max(worst, float(np.min(np.abs(ritz - value))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8
    report(1, "scalar saturation reproduces every dense eigenvalue", ok,
           f"27 chains, worst deviation {worst:.2e} vs 1e-8, {elapsed:.1f}s")
    assert ok, f"worst eigenvalue deviation {worst:.2e} exceeds 1e-8"


def test_criterion_02_single_iteration_ramp_accuracy(small_record):
    deltas = small_record.deltas()
    worst = max(deltas)
    final = small_record.final_delta
    ok = len(deltas) == 9 and worst < 1e-2 and final < 1e-2
    report(2, "whole-term ramp with one expansion per step", ok,
           f"9 steps, worst per-step delta {worst:.2e}, final {final:.2e} "
           f"vs 1e-2")
    assert len(deltas) == 9
    assert ok, f"per-step deltas must stay below 1e-2, worst {worst:.2e}"


def test_criterion_03_strong_coupling_iteration_ordering(large_records):
    two_iter, four_iter, split = large_records
    d2 = abs(two_iter.final_delta)
    d4 = abs(four_iter.final_delta)
    dsplit = abs(split.final_delta)
    ordering_ok = d4 < d2
    ratio = dsplit / d4
    split_ok = ratio <= 10.0
    ok = ordering_ok and split_ok
    report(3, "strong-coupling ramp orderings", ok,
           f"4-iter {d4:.3e} < 2-iter {d2:.3e}: "
           f"{'yes' if ordering_ok else 'no'}; split/4-iter ratio "
           f"{ratio:.2f} vs bound 10")
    assert ordering_ok, f"expected |dE|(4 iters) < |dE|(2 iters), got {d4:.3e} vs {d2:.3e}"
    assert split_ok, (
        f"half-term split at 2 expansions per slice lands {ratio:.2f}x above "
        f"the 4-expansion whole-term run (final errors {dsplit:.4e} vs "
        f"{d4:.4e}); the bound of 10 is not met. The ratio is stable "
        f"(16.9..18.0 across nearby couplings), scale-invariant, identical "
        f"under reversed term order, and reproduced to 5 significant digits "
        f"by an independent dense-matrix reimplementation, so it is a "
        f"systematic property of the pinned protocol, not an implementation "
        f"defect. See the blocking analysis in the decisions ledger."
    )


def test_criterion_04_hard_start_converges(small_record, random_start_record):
    hard_first = random_start_record.deltas()[0]
    easy_first = small_record.deltas()[0]
    deltas = random_start_record.deltas()
    harder = hard_first > easy_first
    shrinking = all(b <= a for a, b in zip(deltas, deltas[1:]))
    converging = deltas[-1] < deltas[0]
    ok = harder and shrinking and converging
    report(4, "alternating product start is harder yet converges", ok,
           f"first-step delta {hard_first:.2e} vs easy start "
           f"{easy_first:.2e}, final {deltas[-1]:.2e}")
    assert harder, f"expected first delta {hard_first:.2e} > {easy_first:.2e}"
    assert shrinking and converging, f"trajectory must approach the target, got {deltas}"


def test_criterion_05_coefficient_noise_scales_linearly(sweep_solves):
    block_size = 20
    block_counts = list(range(4, 21))
    etas = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    started = time.perf_counter()
    rows = noise.mae_sweep(block_size, block_counts, etas, trials=32,
                           base_seed=0)
    elapsed = time.perf_counter() - started
    zero_rows = [row for row in rows if row.eta == 0.0]
    zero_ok = bool(zero_rows) and all(row.mae == 0.0 for row in zero_rows)
    fits = noise.fit_summary(noise.summarize_sweep(rows))
    slopes = {key: fit.slope for key, fit in fits.items()}
    slopes_ok = all(0.9 <= s <= 1.1 for s in slopes.values())
    ok = zero_ok and slopes_ok and len(slopes) == len(block_counts)
    report(5, "error grows linearly with coefficient noise", ok,
           f"slopes {min(slopes.values()):.3f}..{max(slopes.values()):.3f} "
           f"vs [0.9, 1.1] over {len(block_counts)} block counts, "
           f"noiseless error exactly 0: {zero_ok}, {elapsed:.1f}s, "
           f"{len(sweep_solves)} eigensolves")
    assert zero_ok, "noiseless coefficients must reproduce the clean spectrum exactly"
    assert slopes_ok, f"log-log slopes outside [0.9, 1.1]: {slopes}"


def test_criterion_06_width_one_block_matches_scalar():
    # The width-1 block run against an independent scalar recursion,
    # tests/test_scalar.py::textbook_lanczos: one vector per step, Simon's
    # scalar omega estimate and its own DGKS rule, nothing shared with the
    # package's recursion body but the operator product. Budgeted runs: the
    # elementwise equivalence of two formulations of one recursion is a
    # pre-convergence-regime statement. Once any Ritz value converges to
    # machine precision, roundoff discrepancies between them grow
    # exponentially (forward instability), so the 1e-10 agreement is
    # asserted over every iteration the budgeted runs perform; saturation-
    # length correctness is criterion 1's job.
    rng = np.random.default_rng(606)
    worst = 0.0
    compared = 0
    for case in range(20):
        length = int(rng.integers(3, 7))
        j_xy = float(rng.uniform(0.5, 2.0))
        j_z = float(rng.uniform(-2.0, 2.0))
        spec = spinchain.build_xxz(length, j_xy, j_z)
        start = spinchain.random_state_vector(length, rng)
        alphas, betas, _, _ = textbook_lanczos(spec, start, 12)
        b_start = start.reshape(-1, 1)
        b_coeffs, _ = block.block_lanczos_run(spec, b_start, max_iter=12)
        depth = min(len(betas), b_coeffs.iterations)
        assert depth >= 2
        for k in range(depth + 1):
            got = np.sort(np.linalg.eigvalsh(
                block.assemble_block_tridiagonal(b_coeffs.prefix(k))))
            want = np.linalg.eigvalsh(tridiagonal_matrix(alphas[: k + 1], betas[:k]))
            worst = max(worst, float(np.max(np.abs(got - want))))
            compared += 1
    ok = worst < 1e-10 and compared >= 100
    report(6, "width-1 block recursion equals a textbook scalar recursion", ok,
           f"20 random chains, {compared} per-iteration spectra, worst "
           f"Ritz deviation {worst:.2e} vs 1e-10")
    assert compared >= 100
    assert ok, f"worst per-iteration Ritz deviation {worst:.2e} exceeds 1e-10"


def test_criterion_07_block_width_resolves_degeneracy():
    # two exactly degenerate ground levels by construction:
    # aligned-coupling chain (two fully polarized states) and a
    # two-site chain whose aligned triplet lies below the singlet
    cases = [
        (spinchain.build_xxz(3, 0.0, -1.0), 2),
        (spinchain.build_xxz(2, -1.0, -1.0), 3),
    ]
    rng = np.random.default_rng(707)
    worst_energy = 0.0
    worst_angle = 0.0
    for spec, k in cases:
        dense = spinchain.dense_matrix(spec)
        values, vectors = np.linalg.eigh(dense)
        assert np.sum(np.abs(values - values[0]) < 1e-12) == k
        ed_space = vectors[:, :k]
        for width in (k, k + 1):
            if width > spec.dim:
                continue
            start = block.random_orthonormal_block(spec.length, width, rng)
            coeffs, basis = block.block_lanczos_run(
                spec, start, max_iter=spec.dim)
            ritz, weights = block.block_eigensolve(
                block.assemble_block_tridiagonal(coeffs))
            for energy in ritz[:k]:
                worst_energy = max(worst_energy, abs(energy - values[0]))
            recon = block.reconstruct_excitations(basis, weights, k)
            angles = scipy.linalg.subspace_angles(recon, ed_space)
            worst_angle = max(worst_angle, float(np.max(angles)))
    ok = worst_energy < 1e-8 and worst_angle < 1e-4
    report(7, "block width k resolves k-fold degenerate ground level", ok,
           f"worst energy deviation {worst_energy:.2e} vs 1e-8, worst "
           f"principal angle {worst_angle:.2e} vs 1e-4")
    assert worst_energy < 1e-8, f"degenerate energy deviation {worst_energy:.2e}"
    assert worst_angle < 1e-4, f"principal angle {worst_angle:.2e}"


def test_criterion_08_two_sided_recovers_general_spectra():
    sizes = [8, 16, 24, 32, 48, 64, 96, 128]
    widths = [1, 2, 4]
    rng = np.random.default_rng(808)
    cases = 0
    worst_spectrum, worst_instance = 0.0, "none"
    worst_defect = 0.0
    for n in sizes:
        for d in widths:
            if n % d != 0:
                continue
            mat = rng.standard_normal((n, n))
            op = nonhermitian.GeneralOperator.from_matrix(mat)
            right0, left0 = nonhermitian.paired_random_start(n, d, rng)
            coeffs, (left, right) = nonhermitian.two_sided_block_run(
                op, right0, left0, max_iter=2 * n)
            assert coeffs.dimension == n
            error = nonhermitian.match_spectra(
                nonhermitian.t_eigenvalues(coeffs), np.linalg.eigvals(mat))
            if error > worst_spectrum:
                worst_spectrum, worst_instance = error, f"n = {n}, d = {d}"
            worst_defect = max(worst_defect,
                               nonhermitian.biorthogonality_check(left, right))
            cases += 1
    assert cases >= 20
    # symmetric input: the two-sided reduction must agree with the
    # one-sided block solver on Ritz values at every depth
    worst_hermitian = 0.0
    for length, d in [(5, 1), (5, 2), (6, 1), (6, 2), (6, 4)]:
        spec = spinchain.build_xxz(length, 1.0, 0.7)
        dense_op = nonhermitian.GeneralOperator.from_matrix(
            spinchain.dense_matrix(spec))
        q, _ = np.linalg.qr(rng.standard_normal((spec.dim, d)))
        two, _ = nonhermitian.two_sided_block_run(
            dense_op, q, q.copy(), max_iter=12)
        one, _ = block.block_lanczos_run(spec, q, max_iter=12)
        for k in range(min(two.iterations, one.iterations) + 1):
            got = np.sort(nonhermitian.t_eigenvalues(two.prefix(k)).real)
            want = np.sort(np.linalg.eigvalsh(
                block.assemble_block_tridiagonal(one.prefix(k))))
            worst_hermitian = max(worst_hermitian,
                                  float(np.max(np.abs(got - want))))
    ok = (worst_spectrum < 1e-6 and worst_defect < 1e-8
          and worst_hermitian < 1e-8)
    report(8, "two-sided runs on general matrices", ok,
           f"{cases} instances, worst spectrum error {worst_spectrum:.2e} "
           f"({worst_instance}) vs 1e-6, worst pairing defect "
           f"{worst_defect:.2e} vs 1e-8, symmetric-input deviation "
           f"{worst_hermitian:.2e} vs 1e-8")
    assert worst_spectrum < 1e-6, f"spectrum error {worst_spectrum:.2e}"
    assert worst_defect < 1e-8, f"pairing defect {worst_defect:.2e}"
    assert worst_hermitian < 1e-8, f"symmetric reduction deviation {worst_hermitian:.2e}"


def test_criterion_09_extraction_and_grouping_costs():
    rng = np.random.default_rng(909)
    counts_ok = True
    for d in (2, 3):
        spec = spinchain.build_xxz(6, 1.0, 0.7)
        start = block.random_orthonormal_block(6, d, rng)
        counter = block.ExtractionCounter()
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=6,
                                            counter=counter)
        expected_blocks = len(coeffs.a_blocks) + len(coeffs.b_blocks)
        counts_ok &= len(counter.events) == expected_blocks
        counts_ok &= all(count == d * d for count in counter.counts)
        counts_ok &= counter.total == expected_blocks * d * d
    table = {(4, 1): 4.0, (4, 2): 4.0, (4, 4): 4.0 * np.sqrt(2.0),
             (10, 3): 3.0 * 2.0 ** 2, (40, 14): 14.0 * 2.0 ** 1.5,
             (40, 40): 40.0 * np.sqrt(2.0), (7, 2): 2.0 ** 3}
    cost_ok = all(noise.oaa_cost(noise.CostModel(q, d_group)) == expected
                  for (q, d_group), expected in table.items())
    ok = counts_ok and cost_ok
    report(9, "d^2 extractions per block and exact grouping costs", ok,
           f"counter exact for widths 2 and 3, {len(table)} cost pairs exact")
    assert counts_ok, "each projected block must cost exactly width^2 scalar extractions"
    assert cost_ok, "grouped-application cost must match its closed form exactly"


def test_criterion_10_shot_noise_error_scales_as_inverse_sqrt():
    shots = [1000, 10000, 100000, 1000000]
    errors = noise.sampled_energy_errors(shots, trials=16, base_seed=0)
    log_shots = np.log10([s for s, _ in errors])
    log_err = np.log10([e for _, e in errors])
    slope = float(scipy.stats.linregress(log_shots, log_err).slope)
    ok = abs(slope + 0.5) <= 0.15
    report(10, "sampled-coefficient energy error follows shots^(-1/2)", ok,
           f"fitted slope {slope:.3f} vs -0.5 +/- 0.15")
    assert ok, f"slope {slope:.3f} outside -0.5 +/- 0.15"
