"""Coefficient-noise error propagation and sampling-cost models.

Synthetic problems stand in for recursion output: ``BlockCoefficients``
with entries uniform on [0, 1] and symmetrized diagonal blocks. Gaussian
noise of width eta perturbs every stored coefficient entry, both sets go
through the recursion's own block assembly, and the mean absolute error
between the sorted clean and perturbed spectra measures the damage. A
sweep solves each problem's clean spectrum once and reuses it for every
eta; eta = 0 costs no eigensolve, since its error is exactly 0. The
shot-sampling study reads every scalar coefficient as a success probability
and replaces it with a binomial estimate at a given shot count, and a small
cost formula scores grouped operator application by auxiliary-register
count.
"""

from __future__ import annotations

import math
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


def perturb_and_mae(problem: scalar.BlockCoefficients, noise: NoiseModel,
                    reference: np.ndarray) -> float:
    """Mean absolute eigenvalue error between clean and perturbed spectra,
    paired in sorted order.

    ``reference`` is the clean spectrum, ``block.block_ritz_values(problem)``,
    passed in so that a problem perturbed many times is solved once. eta = 0
    returns exactly 0.0 without an eigensolve.
    """
    if noise.eta == 0.0:
        return 0.0
    perturbed = block.block_ritz_values(perturb_coefficients(problem, noise))
    return float(np.mean(np.abs(perturbed - reference)))


@dataclass(frozen=True)
class CostModel:
    """Auxiliary-register count q and application group size D."""

    q: int
    d_group: int

    def __post_init__(self) -> None:
        if not 1 <= self.d_group <= self.q:
            raise ValueError(
                f"group size must be in [1, q={self.q}], got {self.d_group}"
            )


# The largest q whose table is finite: the group-size-1 score of q = 2048,
# 2^1024, overflows a float.
_MAX_COST_Q = 2047


def oaa_cost(model: CostModel) -> float:
    """Search-cost score D * 2^(ceil(q/D)/2) for grouped application."""
    groups = math.ceil(model.q / model.d_group)
    return model.d_group * 2.0 ** (groups / 2.0)


def cost_sweep(q: int) -> list[tuple[int, float]]:
    """oaa_cost for every group size 1..q."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > _MAX_COST_Q:
        raise ValueError(f"q must be <= {_MAX_COST_Q}, the largest q whose "
                         f"costs are finite, got {q}")
    return [(d, oaa_cost(CostModel(q, d))) for d in range(1, q + 1)]


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
    noise stream, so the eta trend is measured on common ground.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for count in block_counts:
        for trial in range(trials):
            seed = trial_seed(base_seed, block_size, count, trial)
            problem = synthetic_problem(block_size, count, seed)
            reference = block.block_ritz_values(problem)
            for eta_index, eta in enumerate(etas):
                noise = NoiseModel(eta, noise_seed(seed, eta_index))
                rows.append(SweepRow(
                    block_size, count, float(eta), seed,
                    perturb_and_mae(problem, noise, reference),
                ))
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
    """Refuse, before any draw, a sweep whose largest dense assembly, a
    float64 matrix of side ``block_size * max(block_counts)``, would not fit
    in physical memory (the bound the Krylov bases are held to)."""
    side = block_size * max(block_counts)
    spinchain._check_fits_memory(side * side * 8,
                                 f"a noise-sweep assembly of shape {(side, side)}",
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
