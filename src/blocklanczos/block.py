"""Block Lanczos recursion: d vectors advance per step.

The projected operator becomes block tridiagonal with d x d Hermitian
diagonal blocks and coupling blocks taken upper-triangular with non-negative
real diagonal, which keeps each coupling block invertible until a column
deflates. Residual columns whose norm is at most 1e-10 times the chain's
norm bound are removed and the block narrows; coupling blocks then become
rectangular. :func:`block_lanczos_run` returns the Hermitian case of
:class:`blocklanczos.scalar.BlockCoefficients`, and
:func:`assemble_block_tridiagonal` is the one dense assembly of every such
table, Hermitian or two-sided, ragged widths included.

The recursion itself is the Hermitian body in :mod:`blocklanczos.scalar`,
which stores the Krylov vectors as the rows of one ``(cap, dim)`` buffer;
:func:`block_lanczos_run` is its width-d front end, so a run with d = 1 is
the scalar recursion by construction. A run with d starting eigenvectors
of the operator terminates after a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from blocklanczos.scalar import (
    BlockCoefficients, _check_start, _hermitian_recursion, reconstruct_state,
)
from blocklanczos.spinchain import HamiltonianSpec


def random_orthonormal_block(
    length: int, width: int, rng: np.random.Generator, complex_amplitudes: bool = False
) -> np.ndarray:
    """Orthonormal random ``(2**length, width)`` block from a QR factorization."""
    dim = 2**length
    if not 1 <= width <= dim:
        raise ValueError(f"width must be in [1, {dim}], got {width}")
    raw = rng.standard_normal((dim, width))
    if complex_amplitudes:
        raw = raw + 1j * rng.standard_normal((dim, width))
    q, _ = np.linalg.qr(raw)
    return q


# kept: `benchmarks/worker.py` calls it
@dataclass
class ExtractionCounter:
    """Counts scalar coefficient extractions, one per block-matrix entry."""

    events: list[tuple[str, int]] = field(default_factory=list)

    def record(self, label: str, rows: int, cols: int) -> None:
        self.events.append((label, rows * cols))

    @property
    def counts(self) -> list[int]:
        return [count for _, count in self.events]

    @property
    def total(self) -> int:
        return sum(self.counts)


def block_lanczos_run(
    spec: HamiltonianSpec,
    start: np.ndarray,
    max_iter: int,
    counter: ExtractionCounter | None = None,  # kept: `benchmarks/worker.py` passes it
) -> tuple[BlockCoefficients, np.ndarray]:
    """Advance the block recursion from ``start`` for up to ``max_iter`` expansions.

    ``start`` is a ``(dim, width)`` array with orthonormal columns: its
    Gram matrix must be within 1e-10 of the identity in every entry, as for
    the scalar and two-sided runs. This is the width-d run of the body that
    :func:`blocklanczos.scalar.lanczos_run` runs at width 1, with its
    re-orthogonalization schedule, and every expansion after a deflation
    covers every stored vector. Each remainder is factored into an
    orthonormal block times an upper-triangular coupling block. A
    remainder column of norm at most 1e-10 times ``spec.norm_bound``
    deflates, so the widths do not depend on the operator's units; a fully
    deflated remainder ends the run: the Krylov space has become invariant.

    Returns the Hermitian table and the basis as one ``(dim, coeffs.dimension)``
    array whose columns are the Krylov vectors, block after block; it is
    float64 when the start is real.

    ``counter``, when given, records one scalar extraction per coefficient
    entry (width**2 per block when nothing deflates).
    """
    start = np.asarray(start)
    if start.ndim != 2 or start.shape[1] == 0:
        raise ValueError(
            f"start must be a (dimension, width) array with width >= 1, "
            f"got shape {start.shape}"
        )
    if start.shape[0] != spec.dim:
        raise ValueError(f"start has dimension {start.shape[0]} but spec has {spec.dim}")
    _check_start(start, "start block not orthonormal")

    coeffs, basis = _hermitian_recursion(spec, start, max_iter)
    if counter is not None:
        counter.record("A0", *coeffs.a_blocks[0].shape)
        for n, b in enumerate(coeffs.b_blocks, start=1):
            counter.record(f"B{n}", *b.shape)
            counter.record(f"A{n}", *coeffs.a_blocks[n].shape)
    return coeffs, basis


# kept: `benchmarks/worker.py` calls it
def assemble_block_tridiagonal(coeffs: BlockCoefficients) -> np.ndarray:
    """The one dense assembly of a coefficient table: A blocks on the
    diagonal, B_n below and C_n above block (n, n) (B_n^H for a Hermitian
    table, which is then Hermitian up to the A blocks' skew that
    ``BlockCoefficients`` bounds), exact zeros elsewhere. Real when no block
    has a nonzero imaginary part."""
    upper = coeffs.upper_blocks
    widths = coeffs.widths
    offsets = np.concatenate([[0], np.cumsum(widths)])
    any_complex = any(
        m.dtype.kind == "c" and np.any(m.imag != 0.0)
        for m in (*coeffs.a_blocks, *coeffs.b_blocks, *upper)
    )
    total = int(offsets[-1])
    mat = np.zeros((total, total), dtype=np.complex128 if any_complex else np.float64)
    for n, a in enumerate(coeffs.a_blocks):
        i = offsets[n]
        mat[i : i + widths[n], i : i + widths[n]] = a if any_complex else a.real
    for n, (b, c) in enumerate(zip(coeffs.b_blocks, upper)):
        i, j = offsets[n + 1], offsets[n]
        mat[i : i + widths[n + 1], j : j + widths[n]] = b if any_complex else b.real
        mat[j : j + widths[n], i : i + widths[n + 1]] = c if any_complex else c.real
    return mat


# kept: `benchmarks/worker.py` calls it
def block_ritz_values(coeffs: BlockCoefficients) -> np.ndarray:
    """Ascending eigenvalues of the assembled projected operator."""
    return np.linalg.eigvalsh(assemble_block_tridiagonal(coeffs))


# kept: `benchmarks/worker.py` calls it
def block_eigensolve(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of an assembly: ascending values and the weight
    vectors as columns, rows in (block, column) flattened assembly order."""
    return np.linalg.eigh(mat)


def reconstruct_excitations(
    basis: np.ndarray, vectors: np.ndarray, count: int
) -> np.ndarray:
    """The ``count`` lowest states reconstructed from the ``(dim, k)`` basis
    of a block run and the ascending weight columns of
    :func:`block_eigensolve` on the assembly of its Hermitian
    ``BlockCoefficients``: a ``(dim, count)`` array of normalized columns."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > vectors.shape[1]:
        raise ValueError(
            f"requested {count} states but only {vectors.shape[1]} pairs exist")
    return np.column_stack([reconstruct_state(basis, w) for w in vectors.T[:count]])
