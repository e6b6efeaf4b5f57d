"""Coefficient-noise error propagation and sampling-cost models.

Synthetic problems stand in for recursion output: ``BlockCoefficients``
with entries uniform on [0, 1] and symmetrized diagonal blocks. Gaussian
noise of width eta perturbs every stored coefficient entry, both sets go
through the recursion's own block assembly, and the mean absolute error
between the sorted clean and perturbed spectra measures the damage. A
sweep solves each problem's clean spectrum once and reuses it for every
eta; eta = 0 costs no eigensolve, since its error is exactly 0.

The sweep's time is almost all dense eigensolves, and ``np.linalg.eigvalsh``
holds the GIL while LAPACK runs. So the sweep calls numpy's own LAPACK
``dsyevd`` through ``ctypes``, which releases it, with numpy's arguments,
and gets numpy's eigenvalues bit for bit. When the process may use two
CPUs and OpenBLAS runs one thread per call, a one-worker executor solves
every other matrix while the calling thread builds and solves the next; the
calling thread does all drawing and assembly, and at most two assemblies
are alive at once. Otherwise the sweep calls ``eigvalsh`` itself, one solve
at a time.

The shot-sampling study reads every scalar coefficient as a success
probability and replaces it with a binomial estimate at a given shot count,
and :func:`cost_sweep` scores grouped operator application over
``q`` auxiliary registers for every group size.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np

from blocklanczos import block, scalar, spinchain

SWEEP_HEADER = ("block_size", "block_count", "eta", "seed", "mae")
SUMMARY_HEADER = ("block_size", "block_count", "eta", "mean_mae")


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian perturbation width and its reproducibility seed."""

    eta: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


def synthetic_problem(block_size: int, block_count: int,
                      seed: int) -> scalar.BlockCoefficients:
    """Random block tridiagonal coefficients mimicking recursion output.

    Entries are drawn uniformly from [0, 1], diagonal blocks first; the
    diagonal blocks are symmetrized so the assembly has a real spectrum.
    block_size 1 is the scalar case.
    """
    if block_size < 1 or block_count < 1:
        raise ValueError("block_size and block_count must be >= 1")
    rng = np.random.default_rng(seed)
    d = block_size
    a_blocks = []
    for _ in range(block_count):
        raw = rng.uniform(0.0, 1.0, size=(d, d))
        a_blocks.append((raw + raw.T) / 2.0)
    b_blocks = [rng.uniform(0.0, 1.0, size=(d, d))
                for _ in range(block_count - 1)]
    return scalar.BlockCoefficients(tuple(a_blocks), tuple(b_blocks))


def perturb_coefficients(
    problem: scalar.BlockCoefficients, noise: NoiseModel
) -> scalar.BlockCoefficients:
    """Add Gaussian(0, eta) noise entrywise, diagonal blocks first;
    diagonal-block noise is symmetrized so the perturbed assembly stays
    Hermitian. eta = 0 returns ``problem`` itself."""
    if noise.eta == 0.0:
        return problem
    rng = np.random.default_rng(noise.seed)
    a_noisy = []
    # a huge eta overflows to inf/NaN; BlockCoefficients refuses those by name
    with np.errstate(over="ignore", invalid="ignore"):
        for a in problem.a_blocks:
            g = noise.eta * rng.standard_normal(a.shape)
            a_noisy.append(a + (g + g.T) / 2.0)
        b_noisy = [b + noise.eta * rng.standard_normal(b.shape)
                   for b in problem.b_blocks]
    return scalar.BlockCoefficients(tuple(a_noisy), tuple(b_noisy))


# kept: `benchmarks/worker.py` calls it
def perturbed_assemblies(
    problem: scalar.BlockCoefficients, noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray]:
    """(clean, noisy) Hermitian assemblies for the same problem."""
    return (block.assemble_block_tridiagonal(problem),
            block.assemble_block_tridiagonal(perturb_coefficients(problem, noise)))


# kept: `benchmarks/worker.py` traces it
def perturb_and_mae(problem: scalar.BlockCoefficients, noise: NoiseModel,
                    reference: np.ndarray) -> float:
    """Mean absolute eigenvalue error between clean and perturbed spectra,
    paired in sorted order.

    ``reference`` is the clean spectrum, ``block.block_ritz_values(problem)``,
    passed in so that a problem perturbed many times is solved once. eta = 0
    returns exactly 0.0 without an eigensolve.
    """
    perturbed = (None if noise.eta == 0.0 else
                 block.block_ritz_values(perturb_coefficients(problem, noise)))
    return _mae(perturbed, reference)


def _mae(perturbed: np.ndarray | None, reference: np.ndarray) -> float:
    """Mean absolute error of a perturbed spectrum against the clean one,
    both sorted; exactly 0.0 for None, the spectrum of eta = 0."""
    if perturbed is None:
        return 0.0
    return float(np.mean(np.abs(perturbed - reference)))


# The largest q whose table is finite: the group-size-1 score of q = 2048,
# 2^1024, overflows a float.
_MAX_COST_Q = 2047


def cost_sweep(q: int) -> list[tuple[int, float]]:
    """``(D, score)`` for every group size D = 1..q of ``q`` auxiliary
    registers: the search-cost score D * 2^(ceil(q/D)/2) of grouped
    application."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > _MAX_COST_Q:
        raise ValueError(f"q must be <= {_MAX_COST_Q}, the largest q whose "
                         f"costs are finite, got {q}")
    return [(d, d * 2.0 ** (math.ceil(q / d) / 2.0)) for d in range(1, q + 1)]


@dataclass(frozen=True)
class SweepRow:
    block_size: int
    block_count: int
    eta: float
    seed: int
    mae: float


def trial_seed(base_seed: int, block_size: int, block_count: int,
               trial: int) -> int:
    """Deterministic per-trial seed, decorrelated across grid points."""
    ss = np.random.SeedSequence((base_seed, block_size, block_count, trial))
    return int(ss.generate_state(1)[0])


def noise_seed(trial: int, eta_index: int) -> int:
    ss = np.random.SeedSequence((trial, eta_index))
    return int(ss.generate_state(1)[0])


def _bind_dsyevd():
    """numpy's own LAPACK ``dsyevd`` through ``ctypes`` where two solves may
    run at once, None otherwise.

    ``np.linalg.eigvalsh`` holds the GIL while LAPACK runs; a ``ctypes``
    call of the same routine releases it. The routine is the ILP64 symbol of
    numpy's OpenBLAS, looked up in the extension that ``eigvalsh`` calls.
    Two solves run at once only when this process may use two CPUs and
    OpenBLAS runs each call on one thread: with two BLAS threads a second
    solve slows the sweep down.
    """
    try:
        lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        dsyevd = lapack.scipy_dsyevd_64_
        blas_threads = lapack.scipy_openblas_get_num_threads64_
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    blas_threads.argtypes, blas_threads.restype = (), ctypes.c_int
    if blas_threads() != 1 or cpus < 2:
        return None
    char, int64, double = (ctypes.POINTER(kind) for kind in (
        ctypes.c_char, ctypes.c_int64, ctypes.c_double))
    dsyevd.argtypes = (char, char, int64, double, int64, double, double, int64,
                       int64, int64, int64)
    dsyevd.restype = None
    return dsyevd


def _eigvalsh(dsyevd, mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``mat``, a noise assembly, bit for bit those
    of ``np.linalg.eigvalsh(mat)``.

    With ``dsyevd`` None this is that call. Otherwise it is numpy's own
    LAPACK call, ``dsyevd`` with ``jobz='N'``, ``uplo='L'`` and the queried
    workspace sizes, made without the GIL on ``mat`` itself, which it
    overwrites. numpy hands LAPACK a column-major copy, and LAPACK reads this
    C-order buffer as its transpose, so the two agree because every noise
    assembly is exactly symmetric: its A blocks are ``(x + x.T) / 2`` sums
    and B^T mirrors B. Non-convergence raises ``np.linalg.LinAlgError``, as
    numpy's does.
    """
    if dsyevd is None:
        return np.linalg.eigvalsh(mat)
    if not (mat.dtype == np.float64 and mat.flags.c_contiguous and mat.flags.writeable
            and mat.ndim == 2 and mat.shape[0] == mat.shape[1]):
        raise ValueError("expected a writeable C-order square float64 matrix")
    byref, int64, double = ctypes.byref, ctypes.c_int64, ctypes.c_double
    jobz, uplo = ctypes.c_char(b"N"), ctypes.c_char(b"L")
    n, info = int64(len(mat)), int64()
    values = np.empty(len(mat))

    def call(work, lwork, iwork, liwork):
        doubles = ctypes.POINTER(double)
        dsyevd(byref(jobz), byref(uplo), byref(n), mat.ctypes.data_as(doubles), byref(n),
               values.ctypes.data_as(doubles), work, byref(int64(lwork)), iwork,
               byref(int64(liwork)), byref(info))

    work, iwork = double(), int64()
    call(byref(work), -1, byref(iwork), -1)  # workspace query
    work, iwork = (double * int(work.value))(), (int64 * iwork.value)()
    call(work, len(work), iwork, len(iwork))
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return values


def _sweep_assemblies(block_size, block_counts, etas, trials, base_seed):
    """The sweep's solves in order, as ``((block_count, seed, eta), matrix)``:
    per (block_count, trial) problem, its clean assembly under eta None, then
    one item per eta with its perturbed assembly, None at eta = 0."""
    for count in block_counts:
        for trial in range(trials):
            seed = trial_seed(base_seed, block_size, count, trial)
            problem = synthetic_problem(block_size, count, seed)
            yield (count, seed, None), block.assemble_block_tridiagonal(problem)
            for eta_index, eta in enumerate(etas):
                noise = NoiseModel(eta, noise_seed(seed, eta_index))
                yield (count, seed, float(eta)), (
                    None if noise.eta == 0.0 else
                    block.assemble_block_tridiagonal(perturb_coefficients(problem, noise)))


def _spectra(dsyevd, items):
    """``(key, values)`` for each ``(key, matrix)`` of ``items``, in order:
    the matrix's eigenvalues by :func:`_eigvalsh`, None for a None matrix.

    With ``dsyevd`` None the matrices are solved one at a time. Otherwise a
    one-worker executor solves every other matrix while this thread builds
    the next and solves it; then it takes the worker's values. The worker
    calls only :func:`_eigvalsh` and drops its matrix before its values are
    published, so at most two matrices are alive at once; it is joined
    before this returns or raises. The worker lives through the sweep: a new
    thread per pair made the ``noise`` benchmark 8% slower.
    """
    if dsyevd is None:
        for key, mat in items:
            yield key, None if mat is None else _eigvalsh(None, mat)
        return
    from concurrent.futures import ThreadPoolExecutor

    def solve(handed):
        # popped, so the matrix is freed before the work item sets the result
        return _eigvalsh(dsyevd, handed.pop())

    with ThreadPoolExecutor(max_workers=1) as helper:
        batch, solving = [], None  # [key, values] items awaiting output
        for key, mat in items:
            item = [key, None]
            batch.append(item)
            if mat is not None and solving is None:
                solving, at_helper = helper.submit(solve, [mat]), item
            elif mat is not None:
                item[1] = _eigvalsh(dsyevd, mat)
                at_helper[1] = solving.result()
                yield from batch
                batch, solving = [], None
            del mat  # not alive while the next one is built
        if solving is not None:
            at_helper[1] = solving.result()
        yield from batch


def mae_sweep(
    block_size: int,
    block_counts: list[int],
    etas: list[float],
    trials: int = 32,
    base_seed: int = 0,
) -> list[SweepRow]:
    """MAE of every (block_count, eta, trial) grid point.

    One synthetic problem is drawn per (block_count, trial) and its clean
    spectrum solved once; every eta perturbs that same problem with its own
    noise stream, so the eta trend is measured on common ground. Where
    :func:`_bind_dsyevd` allows it, the spectra are solved two at a time
    (:func:`_spectra`); every row is the same bit for bit either way. A
    sweep whose assemblies would not fit in memory is refused before any
    draw (:func:`check_sweep_fits`).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_sweep_fits(block_size, block_counts)
    items = _sweep_assemblies(block_size, block_counts, etas, trials, base_seed)
    rows = []
    for (count, seed, eta), values in _spectra(_bind_dsyevd(), items):
        if eta is None:
            reference = values
        else:
            rows.append(SweepRow(block_size, count, eta, seed, _mae(values, reference)))
    return rows


@dataclass(frozen=True)
class SummaryRow:
    block_size: int
    block_count: int
    eta: float
    mean_mae: float


def summarize_sweep(rows: list[SweepRow]) -> list[SummaryRow]:
    """Per (block_size, block_count, eta) mean MAE, in first-seen order."""
    totals: dict[tuple[int, int, float], list[float]] = {}
    for row in rows:
        totals.setdefault((row.block_size, row.block_count, row.eta), []).append(row.mae)
    return [SummaryRow(*key, float(np.mean(maes))) for key, maes in totals.items()]


_TOO_FEW_FIT_POINTS = "need at least two positive-eta points to fit"


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def fit_loglog_slope(etas: np.ndarray, maes: np.ndarray) -> FitResult:
    """Least-squares slope of log10(mae) against log10(eta).

    Zero etas (exact points) carry no scaling information and are excluded.
    The arithmetic is ``scipy.stats.linregress``'s, so the fit matches it
    bit for bit: identical etas raise ``ValueError``, and constant maes give
    slope 0 and ``r_squared`` NaN.
    """
    etas = np.asarray(etas, dtype=np.float64)
    maes = np.asarray(maes, dtype=np.float64)
    keep = etas > 0.0
    if np.count_nonzero(keep) < 2:
        raise ValueError(_TOO_FEW_FIT_POINTS)
    if np.any(maes[keep] <= 0.0):
        raise ValueError("positive-eta points must have positive mae")
    x, y = np.log10(etas[keep]), np.log10(maes[keep])
    if np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a slope: all positive etas are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0.0 else 0.0
    else:
        r = float(np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0))
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    return FitResult(float(slope), float(intercept), r**2)


def fit_summary(rows: list[SummaryRow]) -> dict[tuple[int, int], FitResult]:
    """One log-log fit per (block_size, block_count) group of summary rows."""
    grouped: dict[tuple[int, int], list[SummaryRow]] = {}
    for row in rows:
        grouped.setdefault((row.block_size, row.block_count), []).append(row)
    return {
        key: fit_loglog_slope(
            np.array([r.eta for r in group]),
            np.array([r.mean_mae for r in group]),
        )
        for key, group in grouped.items()
    }


def check_fittable_etas(etas: list[float]) -> None:
    """Refuse, before any eigensolve, an eta list whose sweep cannot be
    fitted: every eta must be a valid ``NoiseModel`` width, and at least two
    distinct ones positive (the summary merges repeated etas)."""
    for eta in etas:
        NoiseModel(float(eta), 0)
    if len({float(eta) for eta in etas if eta > 0.0}) < 2:
        raise ValueError(_TOO_FEW_FIT_POINTS)


def check_sweep_fits(block_size: int, block_counts: list[int]) -> None:
    """Refuse, before any draw, a sweep whose largest dense assemblies, float64
    matrices of side ``block_size * max(block_counts)``, would not fit in
    physical memory (the bound the Krylov bases are held to): two of them
    when :func:`mae_sweep` solves two at a time, one otherwise."""
    side = block_size * max(block_counts, default=0)
    two_at_a_time = _bind_dsyevd() is not None
    spinchain._check_fits_memory(
        (2 if two_at_a_time else 1) * side * side * 8,
        f"a noise-sweep assembly of shape {(side, side)}"
        + (", held two at a time," if two_at_a_time else ""),
        "noise-sweep.block_size or block_counts")


def slope_report(fits: dict[tuple[int, int], FitResult]) -> str:
    """Human-readable per-group fit table."""
    lines = ["block_size block_count slope intercept r_squared"]
    for (size, count), fit in sorted(fits.items()):
        lines.append(
            f"{size} {count} {fit.slope!r} {fit.intercept!r} {fit.r_squared!r}"
        )
    return "\n".join(lines) + "\n"


def sampled_energy_errors(
    shots_list: list[int],
    trials: int = 16,
    block_count: int = 8,
    base_seed: int = 0,
) -> list[tuple[int, float]]:
    """Ground-energy error when every scalar coefficient is shot-sampled.

    Each trial draws a scalar (block_size 1) synthetic problem, and solves
    its exact ground value, once for all shot counts. The coefficients lie
    in [0, 1] and therefore double as success probabilities; every
    coefficient is replaced by a Bernoulli estimate at the given shot count
    and the tridiagonal ground value is compared with the exact one.
    Returns (shots, mean absolute error) pairs.
    """
    problems = []
    for trial in range(trials):
        seed = trial_seed(base_seed, 1, block_count, trial)
        problem = synthetic_problem(1, block_count, seed)
        problems.append((seed, problem, float(block.block_ritz_values(problem)[0])))
    results = []
    for shots_index, shots in enumerate(shots_list):
        errors = []
        for seed, problem, exact in problems:
            rng = np.random.default_rng(noise_seed(seed, shots_index))
            sampled = scalar.BlockCoefficients(
                tuple(rng.binomial(shots, a) / shots for a in problem.a_blocks),
                tuple(rng.binomial(shots, b) / shots for b in problem.b_blocks),
            )
            energy = float(block.block_ritz_values(sampled)[0])
            errors.append(abs(energy - exact))
        results.append((int(shots), float(np.mean(errors))))
    return results
