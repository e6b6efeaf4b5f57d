"""Two-sided (biorthogonal) block Lanczos for general square operators.

Left and right block Krylov bases advance together under the plain-transpose
pairing convention: every left-side product uses ``M.T`` / ``psi.T`` rather
than the conjugate transpose, also for complex entries. The projected
operator is block tridiagonal but no longer Hermitian; its diagonal blocks
are A_n with couplings B_n below and C_n above the diagonal, the general
form of :class:`blocklanczos.scalar.BlockCoefficients` (C given).

The run is the two-sided case of the step loop of
:mod:`blocklanczos.scalar`, whose module docstring gives the row-block
layout and the semi-biorthogonal window-or-whole-basis schedule. This
module adds the factor: after re-biorthogonalizing both residual blocks,
their pair Gram matrix W = S^T R is split through its SVD,
W = U diag(s) Vh, as C = U diag(sqrt(s)) and B = diag(sqrt(s)) Vh, with
the new basis pair scaled accordingly. On a real symmetric operator with
identical starts this reduces to C = B^T and reproduces the Hermitian block
recursion. The split of the unprojected residuals' W gives both sides'
overlap estimates their inverse factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from blocklanczos.block import assemble_block_tridiagonal
from blocklanczos.scalar import (
    _EPS, _RELATIVE_TOL, BlockCoefficients, _block_recursion, _check_start,
)
from blocklanczos.spinchain import HamiltonianSpec, apply_to_array

DENSE_DIMENSION_CAP = 512


class SeriousBreakdownError(RuntimeError):
    """The two-sided recursion hit a singular residual pairing.

    Attributes
    ----------
    iteration : int
        The expansion index at which the pairing collapsed.
    """

    def __init__(self, iteration: int, detail: str):
        super().__init__(f"serious breakdown at iteration {iteration}: {detail}")
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class GeneralOperator:
    """A square operator given by its action ``apply`` and its transpose
    action ``apply_transpose``, both called on a ``(dim,)`` or ``(dim, k)``
    array and returning an array of the same shape.

    A product may come back in any layout, read-only, or sharing memory
    with its input: :func:`two_sided_block_run` passes the right start
    first and then the F-ordered transpose of a row block, and forms the
    residual in place in the product's transpose when the product is a
    writable F-ordered array of its own, as the chain kernel's and the
    dense backing's products of a row block are, and in a row-major copy
    otherwise.

    The two actions must be mutually consistent under the plain (non
    conjugating) pairing: u . (M v) == (M^T u) . v. ``scale`` is an upper
    bound on the operator's norm, finite and non-negative; the saturation
    test of :func:`two_sided_block_run` is relative to it.
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]
    scale: float

    def __post_init__(self) -> None:
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale >= 0.0):
            raise ValueError(f"operator scale must be finite and >= 0, got {scale!r}")
        object.__setattr__(self, "scale", scale)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> GeneralOperator:
        """Dense backing; ``scale`` is the larger of the matrix's 1-norm and
        infinity-norm."""
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        if mat.shape[0] > DENSE_DIMENSION_CAP:
            raise ValueError(
                f"dense backing capped at {DENSE_DIMENSION_CAP}, got {mat.shape[0]}"
            )
        scale = max(np.linalg.norm(mat, 1), np.linalg.norm(mat, np.inf))
        # (v^T M^T)^T: the F-ordered transpose of a row block gives an
        # F-ordered product, whose transpose is the row block itself
        return cls(mat.shape[0], lambda v: (v.T @ mat.T).T, lambda v: (v.T @ mat).T, scale)

    @classmethod
    def from_hamiltonian(cls, spec: HamiltonianSpec) -> GeneralOperator:
        """Chain Hamiltonian, applied through its CSR kernel, as a
        (symmetric) general operator, scaled by the chain's ``norm_bound``."""
        apply = lambda v: apply_to_array(spec, v)  # noqa: E731 - trivial adapters
        return cls(spec.dim, apply, apply, spec.norm_bound)


def biorthogonality_check(left: np.ndarray, right: np.ndarray) -> float:
    """max-abs entry of left^T right - I for equal-shape (dim, k) bases."""
    if left.shape != right.shape:
        raise ValueError(f"left basis {left.shape} vs right basis {right.shape}")
    gram = left.T @ right
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


# kept: `benchmarks/worker.py` calls it
def t_eigenvalues(coeffs: BlockCoefficients) -> np.ndarray:
    """Eigenvalues (generally complex) of the assembled projected operator."""
    return np.linalg.eigvals(assemble_block_tridiagonal(coeffs))


def paired_random_start(
    dimension: int,
    width: int,
    rng: np.random.Generator,
    distinct_left: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """A (right, left) start pair with left^T right = I.

    By default the left block equals the (orthonormal) right block; with
    ``distinct_left`` an independent random left block is drawn and rescaled
    against the right one.
    """
    if not 1 <= width <= dimension:
        raise ValueError(f"width must be in [1, {dimension}], got {width}")
    right, _ = np.linalg.qr(rng.standard_normal((dimension, width)))
    if not distinct_left:
        return right, right.copy()
    raw = rng.standard_normal((dimension, width))
    mix = raw.T @ right
    left = raw @ np.linalg.inv(mix).T
    return right, left


class _TwoSidedParts:
    """The two-sided run's parts for the step loop of
    :mod:`blocklanczos.scalar`: a right side applying ``M`` and a left one
    applying ``M^T``, each paired with the other; the SVD split of the pair
    Gram matrix, for the estimates and the factor; two passes per side."""

    orthonormal = False
    label = "the two-sided Lanczos recursion left the finite range"

    def __init__(self, op: GeneralOperator) -> None:
        self.scale = op.scale
        self.applies = (op.apply, op.apply_transpose)

    @staticmethod
    def paired(blocks: tuple[np.ndarray, ...], side: int) -> np.ndarray:
        return blocks[1 - side]

    @staticmethod
    def diagonal(a: np.ndarray) -> np.ndarray:
        return a

    @staticmethod
    @np.errstate(divide="ignore", invalid="ignore")  # s = 0: inf, NaN fail the test
    def split(w: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float] | None:
        """B_n^-1 = Vh^H diag(1/sqrt(s)) for the right side and C_n^-T =
        conj(U) diag(1/sqrt(s)) for the left from the SVD of the pair Gram
        ``w``, and the pairing defect eps s_max / s_min that the split
        carries into the new pair's L^T R - I as the test-value floor; None
        for a non-finite ``w``, which has no SVD."""
        if not np.isfinite(w).all():
            return None
        u, sing, vh = np.linalg.svd(w)
        root = 1.0 / np.sqrt(sing)
        return (vh.conj().T * root, u.conj() * root), _EPS * sing[0] / sing[-1]

    @staticmethod
    def second_pass_norms(w: np.ndarray) -> None:
        return None  # I - R L^T is not a contraction: no norm test, two passes

    def factor(self, residuals: tuple[np.ndarray, ...], new: tuple[np.ndarray, ...],
               n: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The SVD split of the module docstring; None when a side saturated."""
        r_res, s_res = residuals
        r_norm = float(np.linalg.norm(r_res))
        s_norm = float(np.linalg.norm(s_res))
        if min(r_norm, s_norm) <= _RELATIVE_TOL * self.scale:
            return None  # one side saturated: clean invariant-subspace termination
        w = s_res @ r_res.T
        if not np.isfinite(w).all():
            return w, w  # no SVD: the loop refuses it as the coupling by name
        u, sing, vh = np.linalg.svd(w)
        if sing[-1] <= _RELATIVE_TOL * r_norm * s_norm:
            raise SeriousBreakdownError(
                n + 1,
                f"pair Gram smallest singular value {sing[-1]:.3e} with "
                f"residual norms {r_norm:.3e}, {s_norm:.3e}",
            )
        root = np.sqrt(sing)
        right, left = new[0][: root.size], new[1][: root.size]
        np.matmul(vh.conj(), r_res, out=right)
        np.matmul(u.T.conj(), s_res, out=left)
        right /= root[:, None]
        left /= root[:, None]
        return root[:, None] * vh, u * root[None, :]


def two_sided_block_run(
    op: GeneralOperator,
    right_start: np.ndarray,
    left_start: np.ndarray,
    max_iter: int,
) -> tuple[BlockCoefficients, tuple[np.ndarray, np.ndarray]]:
    """Advance the coupled left/right recursions for up to ``max_iter`` expansions.

    The step loop and its schedule are those of :mod:`blocklanczos.scalar`.
    Termination, relative to the one constant 1e-10 of the Hermitian
    recursion: saturation, when either residual block's norm is at most
    1e-10 times ``op.scale`` (the reachable subspace on that side is
    exhausted; a zero operator ends after step 0); or serious breakdown,
    when both residuals are still nonzero but their pair Gram matrix has a
    smallest singular value at most 1e-10 times the product of their norms,
    in which case :class:`SeriousBreakdownError` is raised (no look-ahead
    cure is attempted). A non-finite diagonal or coupling block, from an
    operator that returns NaN or overflows, is refused with a ValueError
    naming the step. The step loop makes the first right product, of the
    start itself, which fixes the bases' dtype; no product is written into
    the caller's starts (see :class:`GeneralOperator`).

    Returns the general-form table and the ``(left, right)`` bases, two
    ``(dim, coeffs.dimension)`` arrays (transposed views of the row buffers)
    whose columns are paired block after block with ``left.T @ right = I``,
    up to the semi-biorthogonality of the schedule.
    """
    starts = (np.asarray(right_start), np.asarray(left_start))
    _check_start(starts, op.dimension, "start pair is not biorthonormal")
    coeffs, (right, left) = _block_recursion(_TwoSidedParts(op), starts, max_iter)
    return coeffs, (left, right)


def match_spectra(computed: np.ndarray, reference: np.ndarray) -> float:
    """Largest paired distance under the pairing of two complex multisets
    that minimizes the summed distance. Lengths must agree."""
    # deferred: only spectrum matching loads scipy.optimize
    from scipy.optimize import linear_sum_assignment

    computed = np.asarray(computed, dtype=np.complex128).ravel()
    reference = np.asarray(reference, dtype=np.complex128).ravel()
    if computed.size != reference.size:
        raise ValueError(
            f"spectra differ in size: {computed.size} vs {reference.size}"
        )
    dists = np.abs(computed[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(dists)
    return float(dists[rows, cols].max(initial=0.0))
