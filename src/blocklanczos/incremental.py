"""Incremental interaction ramping with short Lanczos refreshes.

Protocol: start from a solved base chain (the flip-flop part), append the
Ising couplings one bond at a time, optionally in equal fractional slices,
and after every slice rerun a fixed small number of Lanczos expansions
seeded by the previous step's reconstructed ground state. The recorded
trajectory tracks the energy against the exact ground energy of each
partial Hamiltonian.

Three stock scenarios are provided: "small" (equal couplings, one expansion
per added term), "large" (dominant Ising coupling, more expansions needed),
and "random-start" (the same ramp but seeded from an explicit product state
instead of the solved base ground state).
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blocklanczos import scalar, spinchain
from blocklanczos.spinchain import CouplingTerm, HamiltonianSpec, ProductState, ZZ_KIND

SCENARIOS = ("small", "large", "random-start")
CSV_HEADER = ("terms_added", "lambda_fraction", "energy", "delta_vs_exact",
              "lanczos_iters")

ALTERNATING_PATTERN = "uudddudduu"


def alternating_spin_start() -> ProductState:
    """The fixed 10-site product pattern up,up,down,down,down,up,down,down,up,up."""
    return ProductState.from_string(ALTERNATING_PATTERN)


@dataclass(frozen=True)
class RampSchedule:
    """A base Hamiltonian plus ordered term additions in equal slices."""

    base: HamiltonianSpec
    additions: tuple[tuple[CouplingTerm, int], ...]

    def __post_init__(self) -> None:
        additions = tuple((term, int(count)) for term, count in self.additions)
        for term, count in additions:
            if count < 1:
                raise ValueError(f"fraction count must be >= 1, got {count}")
            if not isinstance(term, CouplingTerm):
                raise ValueError("additions must pair CouplingTerm with a count")
        object.__setattr__(self, "additions", additions)

    def stages(self) -> Iterator[tuple[int, float, HamiltonianSpec]]:
        """Yield ``(terms_added, lambda_fraction, spec)`` per stage: for each
        addition of ``count`` slices, k / count of its term for k = 1 ..
        count - 1, then the whole term. Each spec is the previous whole-term
        stage (the base first) plus one term, made by ``add_term``, so once
        that stage's oracle sum is built each later stage adds one bond."""
        whole = self.base
        for done, (term, count) in enumerate(self.additions):
            for k in range(1, count):
                fraction = k / count
                yield done, fraction, whole.add_term(
                    CouplingTerm(term.kind, term.site, term.coefficient * fraction))
            whole = whole.add_term(term)
            yield done + 1, 1.0, whole


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one ramping experiment."""

    scenario: str
    length: int = 10
    j_xy: float = 1.0
    j_z: float = 1.0
    lanczos_per_step: int = 1
    dlambda_fractions: int = 1
    start_state: ProductState | None = None
    descending_order: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        if self.length < 2:
            raise ValueError(f"need at least 2 sites, got {self.length}")
        if self.lanczos_per_step < 1:
            raise ValueError("lanczos_per_step must be >= 1")
        if self.dlambda_fractions < 1:
            raise ValueError("dlambda_fractions must be >= 1")
        if self.scenario == "random-start" and self.start_state is None:
            raise ValueError("random-start scenario requires an explicit start state")
        if self.start_state is not None and self.start_state.length != self.length:
            raise ValueError(
                f"start state has {self.start_state.length} sites, expected "
                f"{self.length}"
            )


def default_config(scenario: str) -> ScenarioConfig:
    """Stock settings for the three scenarios."""
    if scenario == "small":
        return ScenarioConfig("small", j_z=1.0, lanczos_per_step=1)
    if scenario == "large":
        return ScenarioConfig("large", j_z=100.0, lanczos_per_step=2)
    if scenario == "random-start":
        return ScenarioConfig(
            "random-start", j_z=1.0, lanczos_per_step=1,
            start_state=alternating_spin_start(),
        )
    raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")


def build_ramp(config: ScenarioConfig) -> RampSchedule:
    """Base flip-flop chain plus one Ising bond per chain link, in order."""
    base = spinchain.build_xxz(config.length, j_xy=config.j_xy, j_z=0.0)
    sites = range(config.length - 1)
    if config.descending_order:
        sites = reversed(sites)
    additions = tuple(
        (CouplingTerm(ZZ_KIND, site, config.j_z), config.dlambda_fractions)
        for site in sites
    )
    return RampSchedule(base, additions)


@dataclass(frozen=True)
class ConvergenceRow:
    terms_added: int
    lambda_fraction: float
    energy: float
    delta_vs_exact: float
    lanczos_iters: int


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-slice trajectory of the ramping protocol."""

    rows: tuple[ConvergenceRow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        for prev, cur in zip(rows, rows[1:]):
            if cur.terms_added < prev.terms_added:
                raise ValueError("terms_added must be non-decreasing across rows")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def final_energy(self) -> float:
        if not self.rows:
            raise ValueError("record has no rows")
        return self.rows[-1].energy

    @property
    def final_delta(self) -> float:
        if not self.rows:
            raise ValueError("record has no rows")
        return self.rows[-1].delta_vs_exact

    def deltas(self) -> np.ndarray:
        return np.array([row.delta_vs_exact for row in self.rows])

    # kept: `benchmarks/worker.py` calls it
    @classmethod
    def from_csv(cls, path: str | Path) -> ConvergenceRecord:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != list(CSV_HEADER):
                raise ValueError(f"{path}: unexpected header {header}")
            rows = []
            for raw in reader:
                if len(raw) != 5:
                    raise ValueError(f"{path}: malformed row {raw}")
                rows.append(ConvergenceRow(
                    int(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]),
                    int(raw[4]),
                ))
        return cls(tuple(rows))


def run_incremental(config: ScenarioConfig) -> ConvergenceRecord:
    """Ramp the Ising couplings per ``config`` and record the trajectory.

    Each stage of ``build_ramp(config).stages()`` runs ``lanczos_per_step``
    Krylov expansions seeded with the previous stage's reconstructed ground
    state; delta_vs_exact compares against the exact ground energy of the
    stage's partial Hamiltonian. The base chain's oracle sum is built first,
    whatever the start, so every stage extends the previous whole-term
    stage's sum (the base first) by one bond. The sums live on the ramp's
    specs, so none outlives the call.
    """
    if config.length > spinchain.DENSE_SITE_CAP:
        raise ValueError(
            f"exact reference capped at {spinchain.DENSE_SITE_CAP} sites, "
            f"got {config.length}"
        )
    ramp = build_ramp(config)
    spinchain.sparse_matrix(ramp.base)
    if config.start_state is not None:
        current = config.start_state.to_state_vector()
    else:
        current = spinchain.ground_state(ramp.base)[1]
        current = current / np.linalg.norm(current)
    rows: list[ConvergenceRow] = []
    for terms_added, fraction, working in ramp.stages():
        coeffs, basis = scalar.lanczos_run(
            working, current, max_iter=config.lanczos_per_step
        )
        values, vectors = scalar.tridiagonal_eigensolve(coeffs)
        energy = float(values[0])
        current = scalar.reconstruct_state(basis, vectors[:, 0])
        exact = spinchain.ground_energy(working)
        rows.append(ConvergenceRow(
            terms_added=terms_added,
            lambda_fraction=fraction,
            energy=energy,
            delta_vs_exact=energy - exact,
            lanczos_iters=coeffs.iterations,
        ))
    return ConvergenceRecord(tuple(rows))
