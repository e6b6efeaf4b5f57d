"""Two-sided (biorthogonal) block Lanczos for general square operators.

Left and right block Krylov bases advance together under the plain-transpose
pairing convention: every left-side product uses ``M.T`` / ``psi.T`` rather
than the conjugate transpose, also for complex entries. The projected
operator is block tridiagonal but no longer Hermitian; its diagonal blocks
are A_n with couplings B_n below and C_n above the diagonal, the general
form of :class:`blocklanczos.scalar.BlockCoefficients` (C given).

Both bases are kept as the rows of two C-order ``(cap, dim)`` buffers, and
every block as a C-order ``(w, dim)`` row block, the layout of the
Hermitian recursion in :mod:`blocklanczos.scalar`; both residual blocks are
re-biorthogonalized with its Gram-Schmidt pass. The
pass always runs twice per side: the oblique projector I - R L^T is not a
contraction, so the norm test that lets the Hermitian recursion skip its
second pass says nothing here.

The bases are kept semi-biorthogonal: every overlap L_k^T R_j and R_k^T L_j
between different blocks stays at most sqrt(eps), which leaves the
projected matrix exact to working precision (Day, SIAM J. Matrix Anal.
Appl. 18, 1997). Steps 0 and 1 project against every stored pair; later
steps against the last two pairs only. A step projects against every
stored pair when a signed estimate of the new blocks' overlaps with the
older ones, scaled by the largest norm product of a stored pair, crosses
sqrt(eps), and so does the step after it. The estimate is the Hermitian
recursion's signed omega recurrence carried over to the oblique case, one
instance per side (:class:`blocklanczos.scalar._OverlapEstimate`), with
the inverse factors of the SVD split below taken from the pair Gram matrix
of the unprojected residuals; it estimates the overlaps and does not bound
them (Simon, Math. Comp. 42, 1984; Larsen, DAIMI PB-537, 1998). A pair
Gram whose split would leave the new pair with a pairing defect
eps s_max / s_min above sqrt(eps), or that has a zero singular value or a
NaN, takes the whole basis too. Every step that takes the whole basis runs
the same operations as a run that always does; its two passes per side
leave round-off overlaps, from which both estimates restart.

Residual factorization gauge: after re-biorthogonalizing both residual
blocks, their pair Gram matrix W = S^T R is split through its SVD,
W = U diag(s) Vh, as C = U diag(sqrt(s)) and B = diag(sqrt(s)) Vh, with
the new basis pair scaled accordingly. On a real symmetric operator with
identical starts this reduces to C = B^T and reproduces the Hermitian block
recursion.

Termination uses the one relative constant of the Hermitian recursion,
1e-10. A side saturates when its residual block's norm is at most 1e-10
times the operator's ``scale``. Serious breakdown, where both residuals are
still nonzero but the smallest singular value of W is at most 1e-10 times
the product of their norms, raises :class:`SeriousBreakdownError` carrying
the iteration index; no look-ahead cure is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from blocklanczos.block import assemble_block_tridiagonal
from blocklanczos.scalar import (
    _EPS,
    _RELATIVE_TOL,
    _SEMI_ORTHOGONAL,
    _WINDOW_BLOCKS,
    BlockCoefficients,
    _check_start,
    _OverlapEstimate,
    _project_out,
    _row_norms_sq,
    allocate_basis,
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
    with its input: :func:`two_sided_block_run` passes the F-ordered
    transpose of a row block and forms the residual in place in the
    product's transpose when the product is a writable F-ordered array of
    its own, as the chain kernel's products are, and in a row-major copy
    otherwise (a dense backing's C-ordered product, for one).

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
        mat_t = np.ascontiguousarray(mat.T)
        scale = max(np.linalg.norm(mat, 1), np.linalg.norm(mat, np.inf))
        return cls(mat.shape[0], lambda v: mat @ v, lambda v: mat_t @ v, scale)

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


def _max_row_norm(rows: np.ndarray) -> float:
    """Largest row norm of a ``(w, dim)`` block."""
    return float(np.sqrt(_row_norms_sq(rows).max()))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _window_estimates(
    estimates: tuple[_OverlapEstimate, _OverlapEstimate], n: int,
    a: np.ndarray, w: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """Estimates of the overlaps of step n's new right and left blocks with
    the paired blocks 0 .. n - 2, from the pair Gram matrix ``w`` of the
    unprojected residuals, and the largest entry that the window test
    compares with sqrt(eps).

    The split of ``w`` through its SVD gives B_n^-1 = Vh^H diag(1/sqrt(s))
    for the right side and C_n^-T = conj(U) diag(1/sqrt(s)) for the left,
    and carries the round-off of ``w`` into the new pair's L^T R - I as
    eps s_max / s_min. The estimates enter the largest entry scaled by the
    largest norm product ||L_k|| ||R_k|| of a stored pair, which is 1 for
    orthonormal blocks: on non-normal operators the oblique recurrence's
    large coefficients magnify the round-off that the signed estimate
    cannot follow, and unscaled it lagged the measured overlaps by up to
    about that product (random dense matrices run to saturation). A zero
    singular value or a NaN makes the largest entry inf or NaN, which no
    threshold test passes.
    """
    try:
        u, sing, vh = np.linalg.svd(w)
    except np.linalg.LinAlgError:  # a non-finite w: the full pass meets it
        return None, None, math.nan
    root = 1.0 / np.sqrt(sing)
    right = estimates[0].propagate(n, a, vh.conj().T * root)
    left = estimates[1].propagate(n, a.T, u.conj() * root)
    magnify = np.max(estimates[0].paired[: n + 1] * estimates[0].own[: n + 1])
    worst = np.max((magnify * np.abs(right).max(), magnify * np.abs(left).max(),
                    _EPS * sing[0] / sing[-1]))
    return right, left, float(worst)


def _pair_gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The plain pairing ``left @ right.T`` of two ``(w, dim)`` row blocks,
    given to BLAS as the transpose of a C-order ``(dim, w)`` copy of
    ``left``.

    OpenBLAS sums a product with so few rows in an order set by its
    operands' layouts, and this layout keeps the order of a ``(dim, w)``
    column recursion, in which the golden ``nonhermitian_demo`` run was
    recorded: without the copy its spectrum error moves from 5.1e-10 to
    1.1e-9 on round-off alone. The copy is a strided pass over the block,
    several times the cost of a width-2 product itself."""
    return np.ascontiguousarray(left.T).T @ right.T


def _residual_rows(product: np.ndarray, source: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The ``(w, dim)`` transpose of the ``(dim, w)`` operator ``product``
    of ``source`` as a writable C-order ``dtype`` block that shares no
    memory with ``source``, so the residual can be formed in it in place.
    It is copied only when it is not one already: when the product is not
    F-ordered, is read-only, or aliases its input."""
    rows = product.T
    if (rows.dtype == dtype and rows.flags.c_contiguous and rows.flags.writeable
            and not np.may_share_memory(rows, source)):
        return rows
    return np.array(rows, dtype=dtype, order="C")


def two_sided_block_run(
    op: GeneralOperator,
    right_start: np.ndarray,
    left_start: np.ndarray,
    max_iter: int,
) -> tuple[BlockCoefficients, tuple[np.ndarray, np.ndarray]]:
    """Advance the coupled left/right recursions for up to ``max_iter`` expansions.

    Both residual blocks are re-biorthogonalized in two Gram-Schmidt passes
    per side, with the bases kept as the rows of two ``(cap, dim)``
    buffers. Steps 0 and 1 project against every stored pair; later steps
    against the last two pairs only, unless the overlap estimate of the
    module docstring crosses sqrt(eps), in which case that step and the
    next project against every stored pair. Termination: saturation, when
    either residual block's norm is at most 1e-10 times ``op.scale`` (the
    reachable subspace on that side is exhausted; a zero operator ends
    after step 0); or serious breakdown, when both residuals are still
    nonzero but their pair Gram matrix has a smallest singular value at
    most 1e-10 times the product of their norms, in which case
    :class:`SeriousBreakdownError` is raised.

    Every block is a C-order ``(w, dim)`` row block: the starts and each
    new pair are written into the rows of the bases, and the operators are
    applied to the rows' transposes (the first right product to the start
    itself, since it fixes the bases' dtype). Each residual is formed in
    place in the transpose of the array its operator product returned, or
    in a row-major copy when that array is not F-ordered, is read-only or
    shares memory with the product's input, so the caller's starts are
    never written.

    Returns the general-form table and the ``(left, right)`` bases, two
    ``(dim, coeffs.dimension)`` arrays (transposed views of the row buffers)
    whose columns are paired block after block with ``left.T @ right = I``,
    up to the semi-biorthogonality of the module docstring.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    right = (np.asarray(right_start, dtype=np.float64)
             if not np.iscomplexobj(right_start) else np.asarray(right_start))
    left = (np.asarray(left_start, dtype=np.float64)
            if not np.iscomplexobj(left_start) else np.asarray(left_start))
    if right.ndim != 2 or right.shape != left.shape or right.shape[1] == 0:
        raise ValueError(
            f"start blocks must be equal-shape (dimension x width) arrays with "
            f"width >= 1, got shapes {right.shape} and {left.shape}")
    if right.shape[0] != op.dimension:
        raise ValueError(
            f"start blocks have dimension {right.shape[0]}, operator {op.dimension}"
        )
    width = right.shape[1]
    _check_start(right, "start pair is not biorthonormal", left)

    dim = op.dimension
    # The first product fixes the bases' dtype: a complex operator makes
    # every later block complex even from a real start.
    product = op.apply(right)
    dtype = np.result_type(right, left, product)
    h_right = _residual_rows(product, right, dtype)
    cap = min((max_iter + 1) * width, dim)
    rights = allocate_basis((cap, dim), dtype)
    lefts = allocate_basis((cap, dim), dtype)
    rights[:width] = right.T
    lefts[:width] = left.T
    right, left, hi = rights[:width], lefts[:width], width
    prev_right = prev_left = None
    a_list: list[np.ndarray] = []
    b_list: list[np.ndarray] = []
    c_list: list[np.ndarray] = []
    # the right side's estimate is of L_k^T R_n, the left side's of R_k^T L_n
    right_norms, left_norms = np.empty((2, cap // width + 1))
    right_norms[0], left_norms[0] = _max_row_norm(right), _max_row_norm(left)
    estimates = (
        _OverlapEstimate(right_norms.size, width, op.scale, dtype,
                         (left_norms, right_norms)),
        _OverlapEstimate(right_norms.size, width, op.scale, dtype,
                         (right_norms, left_norms)),
    )
    triggered = False

    for n in range(max_iter + 1):
        a = _pair_gram(left, h_right)
        a_list.append(a)
        if n == max_iter or hi >= dim:
            break
        r_res = h_right
        s_res = _residual_rows(op.apply_transpose(left.T), left, dtype)
        r_res -= a.T @ right
        s_res -= a @ left
        if prev_right is not None:
            r_res -= c_list[n - 1].T @ prev_right
            s_res -= b_list[n - 1] @ prev_left
        lo, right_overlaps, left_overlaps = 0, None, None
        if n >= _WINDOW_BLOCKS and not triggered:
            right_overlaps, left_overlaps, worst = _window_estimates(
                estimates, n, a, _pair_gram(s_res, r_res))
            if worst <= _SEMI_ORTHOGONAL:  # NaN-safe: NaN takes the full pass
                lo = hi - _WINDOW_BLOCKS * width
            else:
                triggered = True
        elif triggered:
            triggered = False  # the step after a trigger: a full pass
        for _ in range(2):
            _project_out(r_res, lefts[lo:hi], rights[lo:hi])
            _project_out(s_res, rights[lo:hi], lefts[lo:hi])
        r_norm = float(np.linalg.norm(r_res))
        s_norm = float(np.linalg.norm(s_res))
        if min(r_norm, s_norm) <= _RELATIVE_TOL * op.scale:
            break  # one side saturated: clean invariant-subspace termination
        w = _pair_gram(s_res, r_res)
        u, sing, vh = np.linalg.svd(w)
        if sing[-1] <= _RELATIVE_TOL * r_norm * s_norm:
            raise SeriousBreakdownError(
                n + 1,
                f"pair Gram smallest singular value {sing[-1]:.3e} with "
                f"residual norms {r_norm:.3e}, {s_norm:.3e}",
            )
        root = np.sqrt(sing)
        b, c = root[:, None] * vh, u * root[None, :]
        b_list.append(b)
        c_list.append(c)
        prev_right, prev_left = right, left
        right, left = rights[hi : hi + width], lefts[hi : hi + width]
        np.matmul(vh.conj(), r_res, out=right)
        np.matmul(u.T.conj(), s_res, out=left)
        right /= root[:, None]
        left /= root[:, None]
        hi += width
        right_norms[n + 1], left_norms[n + 1] = _max_row_norm(right), _max_row_norm(left)
        estimates[0].advance(n, a, b, c, right_overlaps if lo else None)
        estimates[1].advance(n, a.T, c.T, b.T, left_overlaps if lo else None)
        h_right = _residual_rows(op.apply(right.T), right, dtype)

    coeffs = BlockCoefficients(tuple(a_list), tuple(b_list), tuple(c_list))
    return coeffs, (lefts[:hi].T, rights[:hi].T)


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
