"""Block Lanczos recursion: d vectors advance per step.

The projected operator becomes block tridiagonal with d x d diagonal blocks
(Hermitian) and coupling blocks taken upper-triangular with non-negative
real diagonal. The triangular gauge makes the coupling block invertible
whenever no deflation occurs, so the recursion step amounts to a stable
triangular solve. Residual columns whose norm is at most 1e-10 times the
chain's norm bound are removed and the block narrows; coupling blocks then
become rectangular and the assembly handles ragged widths. The assembly is
a plain dense ndarray, Hermitian by construction.

The recursion itself is the Hermitian body in :mod:`blocklanczos.scalar`,
which stores the Krylov vectors as the rows of one ``(cap, dim)`` buffer;
:func:`block_lanczos_run` is its width-d front end, so a run with d = 1 is
the scalar recursion by construction. A run with d starting eigenvectors
of the operator terminates after a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from blocklanczos.scalar import _check_start, _hermitian_recursion, reconstruct_state
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


@dataclass(frozen=True, eq=False)
class BlockCoefficients:
    """Per-iteration projected-operator blocks.

    ``a_blocks[n]`` is the Hermitian diagonal block of iteration n;
    ``b_blocks[n]`` couples iteration n to n+1 and, in the gauge produced by
    :func:`block_lanczos_run`, is upper-triangular (upper-trapezoidal after
    deflation) with non-negative real diagonal. Only finiteness, Hermiticity
    (within 1e-12) and shape consistency are validated, so the perturbed and
    synthetic coefficient sets of :mod:`blocklanczos.noise` use this type too.
    """

    a_blocks: tuple[np.ndarray, ...]
    b_blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        a_blocks = tuple(np.atleast_2d(np.asarray(a)) for a in self.a_blocks)
        b_blocks = tuple(np.atleast_2d(np.asarray(b)) for b in self.b_blocks)
        if not a_blocks:
            raise ValueError("need at least one diagonal block")
        if len(b_blocks) != len(a_blocks) - 1:
            raise ValueError(
                f"expected {len(a_blocks) - 1} coupling blocks, got {len(b_blocks)}"
            )
        # NaN-safe: a non-finite entry makes the skew NaN (inf - inf); numpy's
        # warnings about it are silenced, since the refusals name the fault
        with np.errstate(over="ignore", invalid="ignore"):
            for n, a in enumerate(a_blocks):
                if a.shape[0] != a.shape[1]:
                    raise ValueError(f"diagonal block {n} is not square: {a.shape}")
                if not np.max(np.abs(a - a.conj().T)) <= 1e-12:
                    if not np.isfinite(a).all():
                        raise ValueError(f"diagonal block {n} has a non-finite entry")
                    raise ValueError(f"diagonal block {n} is not Hermitian within 1e-12")
        for n, b in enumerate(b_blocks):
            expected = (a_blocks[n + 1].shape[0], a_blocks[n].shape[0])
            if b.shape != expected:
                raise ValueError(
                    f"coupling block {n} has shape {b.shape}, expected {expected}"
                )
            if not np.isfinite(b).all():
                raise ValueError(f"coupling block {n} has a non-finite entry")
        object.__setattr__(self, "a_blocks", a_blocks)
        object.__setattr__(self, "b_blocks", b_blocks)

    @property
    def iterations(self) -> int:
        return len(self.b_blocks)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.a_blocks)

    @property
    def dimension(self) -> int:
        return sum(self.widths)

    def prefix(self, iterations: int) -> BlockCoefficients:
        """Coefficients after only ``iterations`` expansions (deterministic)."""
        if not 0 <= iterations <= self.iterations:
            raise ValueError(f"iterations must be in [0, {self.iterations}]")
        return BlockCoefficients(
            self.a_blocks[: iterations + 1], self.b_blocks[:iterations]
        )


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
    counter: ExtractionCounter | None = None,
) -> tuple[BlockCoefficients, np.ndarray]:
    """Advance the block recursion from ``start`` for up to ``max_iter`` expansions.

    ``start`` is a ``(dim, width)`` array with orthonormal columns: its
    Gram matrix must be within 1e-10 of the identity in every entry, as for
    the scalar and two-sided runs. Each expansion applies H to the whole
    block, subtracts the diagonal and previous-coupling projections,
    re-orthogonalizes, then factors the remainder into an orthonormal block
    times an upper-triangular coupling block. From the third expansion on
    the re-orthogonalization covers the two previous blocks only, unless the
    estimated overlap with an older block crosses sqrt(eps); then it covers
    every stored vector, on that expansion and the next, as it does on
    every expansion after a deflation (see :mod:`blocklanczos.scalar`). It
    makes one Gram-Schmidt pass, and a second only when the first shrinks
    some column below 1/sqrt(2) of its norm. A
    remainder column of norm at most 1e-10 times ``spec.norm_bound``
    deflates, so the widths do not depend on the operator's units; a fully
    deflated remainder ends the run: the Krylov space has become invariant.

    Returns the coefficients and the basis as one ``(dim, coeffs.dimension)``
    array whose columns are the Krylov vectors, block after block; it is
    float64 when the start is real.

    ``counter``, when given, records one scalar extraction per coefficient
    entry (width**2 per block when nothing deflates).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    start = np.asarray(start)
    if start.ndim != 2 or start.shape[1] == 0:
        raise ValueError(
            f"start must be a (dimension, width) array with width >= 1, "
            f"got shape {start.shape}"
        )
    if start.shape[0] != spec.dim:
        raise ValueError(f"start has dimension {start.shape[0]} but spec has {spec.dim}")
    _check_start(start, "start block not orthonormal")

    a_blocks, b_blocks, basis = _hermitian_recursion(spec, start, max_iter)
    if counter is not None:
        counter.record("A0", *a_blocks[0].shape)
        for n, b in enumerate(b_blocks, start=1):
            counter.record(f"B{n}", *b.shape)
            counter.record(f"A{n}", *a_blocks[n].shape)
    return BlockCoefficients(tuple(a_blocks), tuple(b_blocks)), basis


def _assemble(
    diagonal: tuple[np.ndarray, ...],
    lower: tuple[np.ndarray, ...],
    upper: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Dense block tridiagonal matrix: ``diagonal`` blocks on the diagonal,
    ``lower[n]`` below and ``upper[n]`` above block (n, n), exact zeros
    elsewhere. Real when no block has a nonzero imaginary part."""
    widths = [a.shape[0] for a in diagonal]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    total = int(offsets[-1])
    any_complex = any(
        m.dtype.kind == "c" and np.any(m.imag != 0.0)
        for m in (*diagonal, *lower, *upper)
    )
    mat = np.zeros((total, total), dtype=np.complex128 if any_complex else np.float64)
    for n, a in enumerate(diagonal):
        i = offsets[n]
        mat[i : i + widths[n], i : i + widths[n]] = a if any_complex else a.real
    for n, (b, c) in enumerate(zip(lower, upper)):
        i, j = offsets[n + 1], offsets[n]
        mat[i : i + widths[n + 1], j : j + widths[n]] = b if any_complex else b.real
        mat[j : j + widths[n], i : i + widths[n + 1]] = c if any_complex else c.real
    return mat


def assemble_block_tridiagonal(coeffs: BlockCoefficients) -> np.ndarray:
    """Dense assembly: diagonal blocks on the diagonal, couplings below,
    conjugate-transposed couplings above, exact zeros elsewhere. Hermitian
    up to the diagonal blocks' skew, which ``BlockCoefficients`` bounds."""
    upper = tuple(b.conj().T for b in coeffs.b_blocks)
    return _assemble(coeffs.a_blocks, coeffs.b_blocks, upper)


def block_ritz_values(coeffs: BlockCoefficients) -> np.ndarray:
    """Ascending eigenvalues of the assembled projected operator."""
    return np.linalg.eigvalsh(assemble_block_tridiagonal(coeffs))


def block_eigensolve(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of an assembly: ascending values and the weight
    vectors as columns, rows in (block, column) flattened assembly order."""
    return np.linalg.eigh(mat)


def reconstruct_excitations(
    basis: np.ndarray, vectors: np.ndarray, count: int
) -> np.ndarray:
    """The ``count`` lowest states reconstructed from a ``(dim, k)`` block
    Krylov basis and the ascending weight columns of :func:`block_eigensolve`:
    a ``(dim, count)`` array of normalized columns."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > vectors.shape[1]:
        raise ValueError(
            f"requested {count} states but only {vectors.shape[1]} pairs exist")
    return np.column_stack([reconstruct_state(basis, w) for w in vectors.T[:count]])
