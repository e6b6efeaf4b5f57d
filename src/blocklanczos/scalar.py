"""Single-vector Lanczos recursion in exact-arithmetic emulation.

Builds an orthonormal Krylov basis of a Hermitian chain Hamiltonian with the
three-term recurrence, re-orthogonalizing every new vector against the whole
basis so that the classical floating-point loss of orthogonality cannot
contaminate the coefficients. The projected operator is tridiagonal; its
eigenpairs give Ritz energies and reconstruction weights for excited states.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from blocklanczos import spinchain, textio
from blocklanczos.spinchain import HamiltonianSpec, StateVector

DEFAULT_BREAKDOWN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TridiagonalCoefficients:
    """Diagonal (alphas) and off-diagonal (betas) projected-operator entries.

    Gauge: every beta is real and non-negative (each Krylov vector is
    normalized and the residual norm is taken as the coupling).
    ``len(betas) == len(alphas) - 1`` always holds.
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self) -> None:
        alphas = np.atleast_1d(np.asarray(self.alphas, dtype=np.float64))
        betas = np.asarray(self.betas, dtype=np.float64).reshape(-1)
        if alphas.size == 0:
            raise ValueError("coefficients need at least one diagonal entry")
        if betas.size != alphas.size - 1:
            raise ValueError(
                f"expected {alphas.size - 1} off-diagonal entries, got {betas.size}"
            )
        if betas.size and betas.min() < 0.0:
            raise ValueError("off-diagonal coefficients must be non-negative")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    @property
    def size(self) -> int:
        return self.alphas.size

    @property
    def iterations(self) -> int:
        """Number of Krylov expansions actually performed."""
        return self.betas.size

    def prefix(self, iterations: int) -> TridiagonalCoefficients:
        """Coefficients after only ``iterations`` expansions.

        The recursion is deterministic, so this equals the output of a run
        with a smaller ``max_iter``.
        """
        if not 0 <= iterations <= self.iterations:
            raise ValueError(f"iterations must be in [0, {self.iterations}]")
        return TridiagonalCoefficients(
            self.alphas[: iterations + 1], self.betas[:iterations]
        )

    def matrix(self) -> np.ndarray:
        """Dense symmetric tridiagonal assembly."""
        mat = np.diag(self.alphas)
        if self.betas.size:
            mat += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return mat

    def save(self, path: str | Path) -> None:
        """Matrix-section text: 1x1 ``A`` sections for alphas, ``B`` for betas."""
        sections = [("A", 0, self.alphas[:1])]
        for n in range(1, self.size):
            sections.append(("B", n, self.betas[n - 1 : n]))
            sections.append(("A", n, self.alphas[n : n + 1]))
        textio.write_matrix_sections(path, sections, "lanczos coefficients")

    @classmethod
    def load(cls, path: str | Path) -> TridiagonalCoefficients:
        groups = textio.read_named_sections(path, ("A", "B"))
        for mat in (*groups["A"], *groups["B"]):
            if mat.shape != (1, 1):
                raise ValueError(f"{path}: expected 1x1 sections, got {mat.shape}")
        return cls(
            np.array([m[0, 0] for m in groups["A"]]),
            np.array([m[0, 0] for m in groups["B"]]),
        )


@dataclass(frozen=True, eq=False)
class EigenpairReconstruction:
    """One Ritz pair: energy plus the weights of the Krylov vectors.

    ``excitation_index`` is the position in ascending energy order
    (0 = ground). The weight vector is normalized.
    """

    excitation_index: int
    gammas: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        gammas = np.atleast_1d(np.asarray(self.gammas))
        if abs(np.sum(np.abs(gammas) ** 2) - 1.0) > 1e-10:
            raise ValueError("reconstruction weights must have unit norm")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "energy", float(self.energy))


def working_array(amps: np.ndarray) -> np.ndarray:
    """The amplitudes as float64 when purely real, else as complex128."""
    if np.all(np.imag(amps) == 0.0):
        return np.asarray(np.real(amps), dtype=np.float64)
    return np.asarray(amps, dtype=np.complex128)


def allocate_basis(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """Uninitialized Krylov basis buffer.

    A buffer larger than physical memory is refused before allocation, so an
    oversized request fails with a ValueError under every overcommit policy.
    """
    nbytes = int(shape[0]) * int(shape[1]) * np.dtype(dtype).itemsize
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise ValueError(
            f"a Krylov basis of shape {tuple(shape)} needs {nbytes} bytes, more "
            f"than the {physical} bytes of physical memory; lower max_iter"
        )
    try:
        return np.empty(shape, dtype=dtype)
    except MemoryError as err:
        raise ValueError(
            f"cannot allocate a Krylov basis of {nbytes} bytes: {err}"
        ) from err


def lanczos_run(
    spec: HamiltonianSpec,
    start: StateVector,
    max_iter: int,
    breakdown_tol: float = DEFAULT_BREAKDOWN_TOL,
) -> tuple[TridiagonalCoefficients, np.ndarray]:
    """Run the three-term recursion from ``start`` for up to ``max_iter`` expansions.

    Each expansion applies H once, subtracts the projections onto the two
    previous vectors, then re-orthogonalizes against the entire basis (two
    passes) before normalizing. Stops early when the residual norm falls
    below ``breakdown_tol``: the Krylov space has become invariant. The
    realized expansion count is ``len(coeffs.betas)``.

    Returns the coefficient table and the orthonormal basis as a
    ``(dim, len(coeffs.alphas))`` array whose columns are the Krylov
    vectors; it is float64 when the start is real.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if spec.length != start.length:
        raise ValueError(f"start has {start.length} sites but spec has {spec.length}")
    start.require_normalized(1e-10)

    dim = spec.dim
    v0 = working_array(start.amplitudes)
    cap = min(max_iter + 1, dim)
    # rows are Krylov vectors: keeps the reorthogonalization BLAS-contiguous
    basis = allocate_basis((cap, dim), v0.dtype)
    basis[0] = v0
    alphas: list[float] = []
    betas: list[float] = []

    for n in range(cap):
        hv = spinchain.apply_to_array(spec, basis[n])
        alphas.append(float(np.real(np.vdot(basis[n], hv))))
        if n == max_iter or n + 1 == dim:
            break
        w = hv - alphas[n] * basis[n]
        if n > 0:
            w -= betas[n - 1] * basis[n - 1]
        for _ in range(2):
            w -= basis[: n + 1].T @ (basis[: n + 1].conj() @ w)
        beta = float(np.linalg.norm(w))
        if beta < breakdown_tol:
            break
        betas.append(beta)
        basis[n + 1] = w / beta

    kept = len(alphas)
    coeffs = TridiagonalCoefficients(np.array(alphas), np.array(betas))
    return coeffs, basis[:kept].T


def ritz_values(coeffs: TridiagonalCoefficients) -> np.ndarray:
    """Ascending eigenvalues of the projected tridiagonal operator."""
    if coeffs.size == 1:
        return coeffs.alphas.copy()
    return sla.eigh_tridiagonal(coeffs.alphas, coeffs.betas, eigvals_only=True)


def tridiagonal_eigensolve(
    coeffs: TridiagonalCoefficients,
) -> list[EigenpairReconstruction]:
    """All Ritz pairs in ascending energy order.

    The weight vectors are the orthonormal eigenvectors of the tridiagonal
    matrix expressed in the Krylov basis.
    """
    if coeffs.size == 0:  # unreachable through the type, kept as a guard
        raise ValueError("no coefficients to diagonalize")
    if coeffs.size == 1:
        values = coeffs.alphas.copy()
        vectors = np.ones((1, 1))
    else:
        values, vectors = sla.eigh_tridiagonal(coeffs.alphas, coeffs.betas)
    return [
        EigenpairReconstruction(g, vectors[:, g], float(values[g]))
        for g in range(values.size)
    ]


def reconstruct_state(basis: np.ndarray, rec: EigenpairReconstruction) -> StateVector:
    """Combine the columns of a ``(dim, k)`` Krylov basis with the Ritz
    weights; returns a normalized state."""
    dim, size = basis.shape
    if len(rec.gammas) > size:
        raise ValueError(
            f"{len(rec.gammas)} weights exceed the {size}-vector basis"
        )
    # summed column by column, in order, so results do not depend on BLAS
    amps = np.zeros(dim, dtype=np.result_type(basis, rec.gammas))
    for gamma, column in zip(rec.gammas, basis.T):
        amps += gamma * column
    return StateVector(dim.bit_length() - 1, amps).normalized()


def residual_norm(spec: HamiltonianSpec, v: StateVector, energy: float) -> float:
    """|| H v - energy * v ||, the Ritz-quality diagnostic (v normalized)."""
    hv = spinchain.apply_to_array(spec, v.amplitudes)
    return float(np.linalg.norm(hv - energy * v.amplitudes))
