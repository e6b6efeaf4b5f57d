"""Hermitian Lanczos recursion in exact-arithmetic emulation.

One private body advances d orthonormal Krylov vectors per step,
re-orthogonalizing against the whole basis so that the floating-point loss
of orthogonality cannot contaminate the coefficients. It keeps the basis as
the rows of one C-order ``(cap, dim)`` buffer. :func:`lanczos_run` is its
width-1 run, whose tridiagonal eigenpairs give Ritz energies and
reconstruction weights for excited states;
:func:`blocklanczos.block.block_lanczos_run` is its width-d run.

Re-orthogonalization is one classical Gram-Schmidt pass,
:func:`_project_out`, which the two-sided recursion of
:mod:`blocklanczos.nonhermitian` shares. Here a second pass follows only
when the first one shrinks some residual column below 1/sqrt(2) of its norm
(the "twice is enough" rule of Daniel, Gragg, Kaufman and Stewart, Math.
Comp. 30, 1976): a column that kept most of its norm is already orthogonal
to working precision after one pass.

``scipy.linalg`` serves only the tridiagonal eigensolve, so it is imported
at the first :func:`ritz_values` or :func:`tridiagonal_eigensolve` call,
not with the package. Of the CLI commands, ``incremental`` and the width-1
``solve`` load it at their first Ritz solve; ``noise-sweep``,
``cost-table`` and a block ``solve`` (dense numpy eigensolves) never do.
``scipy.sparse`` loads with the first reference-oracle call of
:mod:`blocklanczos.spinchain` (``incremental``), and ``scipy.optimize``,
which pulls in ``scipy.linalg`` and ``scipy.sparse``, with the first
:func:`blocklanczos.nonhermitian.match_spectra` (``nonhermitian-demo``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from blocklanczos import spinchain
from blocklanczos.spinchain import HamiltonianSpec

# Deflation and breakdown tolerance relative to the operator's norm bound,
# so that the Krylov dimension does not depend on the operator's units.
_RELATIVE_TOL = 1e-10


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


def _check_fits_memory(shape: tuple[int, ...], dtype: np.dtype,
                       what: str = "a Krylov basis",
                       remedy: str = "max_iter or the dimension") -> int:
    """Bytes of an array of ``shape`` (a Krylov basis buffer unless ``what``
    says otherwise); one larger than physical memory is refused with a
    ValueError, so callers can check before allocating or drawing anything."""
    nbytes = math.prod(int(n) for n in shape) * np.dtype(dtype).itemsize
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise ValueError(
            f"{what} of shape {tuple(shape)} needs {nbytes} bytes, more than "
            f"the {physical} bytes of physical memory; lower {remedy}"
        )
    return nbytes


def allocate_basis(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """Uninitialized Krylov basis buffer.

    A buffer larger than physical memory is refused before allocation, so an
    oversized request fails with a ValueError under every overcommit policy.
    """
    nbytes = _check_fits_memory(shape, dtype)
    try:
        return np.empty(shape, dtype=dtype)
    except MemoryError as err:
        raise ValueError(
            f"cannot allocate a Krylov basis of {nbytes} bytes: {err}"
        ) from err


def _project_out(residual: np.ndarray, dual: np.ndarray, stack: np.ndarray) -> None:
    """One classical Gram-Schmidt pass, in place: residual -= stack^T (dual
    @ residual) for row-major ``(hi, dim)`` stacks and a ``(dim, w)``
    residual. ``dual`` is ``stack.conj()`` for an orthonormal basis and the
    paired basis for a biorthogonal one."""
    residual -= ((dual @ residual).T @ stack).T


def _column_norms_sq(residual: np.ndarray) -> np.ndarray:
    """Squared column norms of a ``(dim, w)`` array: the diagonal of its
    Gram matrix, one BLAS product, where ``norm(axis=0)`` strides a C-order
    array column by column at several times the cost."""
    return np.diagonal(residual.conj().T @ residual).real


def _reorthogonalize(residual: np.ndarray, rows: np.ndarray) -> None:
    """Project the orthonormal ``rows`` out of ``residual`` in place: one
    pass, and a second only when some column's norm fell below 1/sqrt(2)
    of its norm before the first (DGKS)."""
    dual = rows.conj()  # no copy for a real basis
    before = _column_norms_sq(residual)
    _project_out(residual, dual, rows)
    if np.any(_column_norms_sq(residual) < 0.5 * before):
        _project_out(residual, dual, rows)


def _gram_schmidt_factor(
    residual: np.ndarray, rows: np.ndarray, scale: float
) -> np.ndarray:
    """Factor residual = Q_new @ B: writes the orthonormal columns of Q_new
    to the leading rows of ``rows`` and returns the echelon B, (kept, cols).

    Columns are orthogonalized left to right, each against the rows kept so
    far in two passes of one matrix product; a column whose remainder has
    norm at most ``_RELATIVE_TOL * scale`` (``scale`` the operator's norm
    bound) is deflated: its projection coefficients stay in B but it adds no
    row. No rows: all deflated. A zero operator thus deflates everything.
    """
    cols = residual.shape[1]
    b = np.zeros((cols, cols), dtype=residual.dtype)
    kept = 0
    for j in range(cols):
        r = residual[:, j].copy()
        if kept:  # a width-1 run never projects here
            q = rows[:kept]
            for _ in range(2):
                c = q.conj() @ r
                r -= c @ q
                b[:kept, j] += c
        nrm = float(np.linalg.norm(r))
        if nrm <= _RELATIVE_TOL * scale:
            continue  # a dependent direction: projections only
        b[kept, j] = nrm  # a NaN norm is kept, so the caller sees it
        rows[kept] = r / nrm
        kept += 1
    return b[:kept]


# overflow surfaces as a non-finite block, which the recursion refuses by name
@np.errstate(over="ignore", invalid="ignore")
def _hermitian_recursion(
    spec: HamiltonianSpec, start: np.ndarray, max_iter: int
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Up to ``max_iter`` expansions from the orthonormal ``(dim, width)``
    ``start``: the Hermitized diagonal blocks, the coupling blocks and the
    ``(dim, k)`` basis, Krylov vectors as columns. The basis is float64 for
    a real start and complex128 for a complex one.

    A remainder column of norm at most ``_RELATIVE_TOL`` times the chain's
    norm bound deflates; a fully deflated remainder ends the run (invariant
    space). A non-finite block, which only an overflowing chain produces,
    is refused with a ValueError naming the chain and the step.
    """
    scale = spec.norm_bound
    psi = np.ascontiguousarray(
        start, dtype=np.complex128 if np.iscomplexobj(start) else np.float64)
    dim, width = psi.shape
    basis = allocate_basis((min((max_iter + 1) * width, dim), dim), psi.dtype)
    basis[:width] = psi.T
    hi = width
    a_blocks: list[np.ndarray] = []
    b_blocks: list[np.ndarray] = []

    for n in range(max_iter + 1):
        h_psi = spinchain.apply_to_array(spec, psi)
        a = psi.conj().T @ h_psi
        a = 0.5 * (a + a.conj().T)  # exact Hermiticity, kills roundoff skew
        _check_finite(a, "diagonal", spec, n)
        a_blocks.append(a)
        if n == max_iter or hi >= dim:
            break
        # np.dot scales by a 1x1 block as by a scalar, @ runs a slow gemv
        residual = h_psi - np.dot(psi, a)
        if n > 0:
            residual -= np.dot(prev, b_blocks[n - 1].conj().T)
        _reorthogonalize(residual, basis[:hi])
        b = _gram_schmidt_factor(residual, basis[hi:], scale)
        if b.shape[0] == 0:
            break  # invariant subspace: clean termination
        _check_finite(b, "coupling", spec, n + 1)
        b_blocks.append(b)
        prev, psi = psi, basis[hi : hi + b.shape[0]].T
        hi += b.shape[0]

    return a_blocks, b_blocks, basis[:hi].T


def _check_finite(
    block: np.ndarray, kind: str, spec: HamiltonianSpec, step: int
) -> None:
    if not np.isfinite(block).all():
        raise ValueError(
            f"the Lanczos recursion on the {spec.length}-site chain overflowed "
            f"at step {step}: its {kind} block is not finite")


def lanczos_run(
    spec: HamiltonianSpec,
    start: np.ndarray,
    max_iter: int,
) -> tuple[TridiagonalCoefficients, np.ndarray]:
    """Run the three-term recursion from the normalized ``(dim,)`` ``start``
    for up to ``max_iter`` expansions.

    The width-1 run of the shared recursion: each expansion applies H once,
    subtracts the projections onto the two previous vectors, re-orthogonalizes
    against the entire basis and normalizes. The re-orthogonalization makes
    one Gram-Schmidt pass, and a second only when the first shrinks the
    residual below 1/sqrt(2) of its norm. It stops early when the residual
    norm is at most 1e-10 times the chain's norm bound (``spec.norm_bound``):
    the Krylov space has become invariant. The realized expansion count is
    ``len(coeffs.betas)``.

    Returns the coefficient table and the orthonormal basis as a
    ``(dim, len(coeffs.alphas))`` array whose columns are the Krylov
    vectors; it is float64 when the start is real.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    start = np.asarray(start)
    if start.shape != (spec.dim,):
        raise ValueError(f"start of shape {start.shape} is not ({spec.dim},)")
    norm = float(np.linalg.norm(start))
    if not abs(norm - 1.0) <= 1e-10:  # NaN-safe: a NaN norm is refused
        raise ValueError(f"start not normalized: |v| = {norm!r}")

    a_blocks, b_blocks, basis = _hermitian_recursion(spec, start[:, None], max_iter)
    # 1x1 blocks: the Hermitized A is exactly real, B is the residual norm
    alphas, betas = (np.array(blocks).real.ravel() for blocks in (a_blocks, b_blocks))
    return TridiagonalCoefficients(alphas, betas), basis


def ritz_values(coeffs: TridiagonalCoefficients) -> np.ndarray:
    """Ascending eigenvalues of the projected tridiagonal operator."""
    import scipy.linalg as sla  # deferred: only a Ritz solve loads scipy.linalg

    return sla.eigh_tridiagonal(coeffs.alphas, coeffs.betas, eigvals_only=True)


def tridiagonal_eigensolve(
    coeffs: TridiagonalCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """All Ritz pairs: ascending values and the orthonormal weight vectors
    as columns, the tridiagonal eigenvectors in the Krylov basis."""
    import scipy.linalg as sla  # deferred, as in ritz_values

    return sla.eigh_tridiagonal(coeffs.alphas, coeffs.betas)


def reconstruct_state(basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Combine the columns of a ``(dim, k)`` Krylov basis with the Ritz
    weights; returns the normalized ``(dim,)`` state."""
    dim, size = basis.shape
    if len(weights) > size:
        raise ValueError(f"{len(weights)} weights exceed the {size}-vector basis")
    # summed column by column, in order, so results do not depend on BLAS
    amps = np.zeros(dim, dtype=np.result_type(basis, weights))
    for gamma, column in zip(weights, basis.T):
        amps += gamma * column
    return amps / np.linalg.norm(amps)


def residual_norm(spec: HamiltonianSpec, v: np.ndarray, energy: float) -> float:
    """|| H v - energy * v ||, the Ritz-quality diagnostic (v normalized)."""
    return float(np.linalg.norm(spinchain.apply_to_array(spec, v) - energy * v))
