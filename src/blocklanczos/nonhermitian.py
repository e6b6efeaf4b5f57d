"""Two-sided (biorthogonal) block Lanczos for general square operators.

Left and right block Krylov bases advance together under the plain-transpose
pairing convention: every left-side product uses ``M.T`` / ``psi.T`` rather
than the conjugate transpose, also for complex entries. The projected
operator is block tridiagonal but no longer Hermitian; its diagonal blocks
are A_n with couplings B_n below and C_n above the diagonal.

Both bases are kept as the rows of two C-order ``(cap, dim)`` buffers, the
layout of the Hermitian recursion in :mod:`blocklanczos.scalar`, and both
residual blocks are re-biorthogonalized against all stored pairs with its
Gram-Schmidt pass. The pass always runs twice per side: the oblique
projector I - R L^T is not a contraction, so the norm test that lets the
Hermitian recursion skip its second pass says nothing here.

Residual factorization gauge: after re-biorthogonalizing both residual
blocks against all stored pairs, their pair Gram matrix W = S^T R is split
through its SVD, W = U diag(s) Vh, as C = U diag(sqrt(s)) and
B = diag(sqrt(s)) Vh, with the new basis pair scaled accordingly. On a real
symmetric operator with identical starts this reduces to C = B^T and
reproduces the Hermitian block recursion.

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
from pathlib import Path
from typing import Callable

import numpy as np

from blocklanczos import textio
from blocklanczos.block import _assemble
from blocklanczos.scalar import _RELATIVE_TOL, _project_out, allocate_basis
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
    array.

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
        """Matrix-free chain Hamiltonian as a (symmetric) general operator,
        scaled by the chain's ``norm_bound``."""
        apply = lambda v: apply_to_array(spec, v)  # noqa: E731 - trivial adapters
        return cls(spec.dim, apply, apply, spec.norm_bound)


def biorthogonality_check(left: np.ndarray, right: np.ndarray) -> float:
    """max-abs entry of left^T right - I for equal-shape (dim, k) bases."""
    if left.shape != right.shape:
        raise ValueError(f"left basis {left.shape} vs right basis {right.shape}")
    gram = left.T @ right
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


@dataclass(frozen=True, eq=False)
class NonHermitianBlockTridiagonal:
    """Projected-operator blocks: diagonal A, subdiagonal B, superdiagonal C."""

    a_blocks: tuple[np.ndarray, ...]
    b_blocks: tuple[np.ndarray, ...]
    c_blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        a = tuple(np.atleast_2d(np.asarray(m)) for m in self.a_blocks)
        b = tuple(np.atleast_2d(np.asarray(m)) for m in self.b_blocks)
        c = tuple(np.atleast_2d(np.asarray(m)) for m in self.c_blocks)
        if not a:
            raise ValueError("need at least one diagonal block")
        if len(b) != len(a) - 1 or len(c) != len(a) - 1:
            raise ValueError(
                f"expected {len(a) - 1} sub- and superdiagonal blocks, "
                f"got {len(b)} and {len(c)}"
            )
        for n, m in enumerate(a):
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"diagonal block {n} is not square: {m.shape}")
        for n in range(len(b)):
            wn, wn1 = a[n].shape[0], a[n + 1].shape[0]
            if b[n].shape != (wn1, wn):
                raise ValueError(f"subdiagonal block {n} has shape {b[n].shape}")
            if c[n].shape != (wn, wn1):
                raise ValueError(f"superdiagonal block {n} has shape {c[n].shape}")
        object.__setattr__(self, "a_blocks", a)
        object.__setattr__(self, "b_blocks", b)
        object.__setattr__(self, "c_blocks", c)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.a_blocks)

    @property
    def dimension(self) -> int:
        return sum(self.widths)

    @property
    def iterations(self) -> int:
        return len(self.b_blocks)

    def prefix(self, iterations: int) -> NonHermitianBlockTridiagonal:
        if not 0 <= iterations <= self.iterations:
            raise ValueError(f"iterations must be in [0, {self.iterations}]")
        k = iterations
        return NonHermitianBlockTridiagonal(
            self.a_blocks[: k + 1], self.b_blocks[:k], self.c_blocks[:k]
        )

    def save(self, path: str | Path) -> None:
        sections = [("A", 0, self.a_blocks[0])]
        for n in range(1, len(self.a_blocks)):
            sections.append(("B", n, self.b_blocks[n - 1]))
            sections.append(("C", n, self.c_blocks[n - 1]))
            sections.append(("A", n, self.a_blocks[n]))
        textio.write_matrix_sections(path, sections, "two-sided block coefficients")

    @classmethod
    def load(cls, path: str | Path) -> NonHermitianBlockTridiagonal:
        groups = textio.read_named_sections(path, ("A", "B", "C"))
        return cls(tuple(groups["A"]), tuple(groups["B"]), tuple(groups["C"]))


def assemble_t(coeffs: NonHermitianBlockTridiagonal) -> np.ndarray:
    """Dense general block tridiagonal: B below, C above the diagonal."""
    return _assemble(coeffs.a_blocks, coeffs.b_blocks, coeffs.c_blocks)


def t_eigenvalues(coeffs: NonHermitianBlockTridiagonal) -> np.ndarray:
    """Eigenvalues (generally complex) of the assembled projected operator."""
    return np.linalg.eigvals(assemble_t(coeffs))


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


def two_sided_block_run(
    op: GeneralOperator,
    right_start: np.ndarray,
    left_start: np.ndarray,
    max_iter: int,
) -> tuple[NonHermitianBlockTridiagonal, tuple[np.ndarray, np.ndarray]]:
    """Advance the coupled left/right recursions for up to ``max_iter`` expansions.

    Both residual blocks are re-biorthogonalized against every stored pair
    in two Gram-Schmidt passes, with the bases kept as the rows of two
    ``(cap, dim)`` buffers. Termination: saturation, when either residual
    block's norm is at most 1e-10 times ``op.scale`` (the reachable
    subspace on that side is exhausted; a zero operator ends after step 0);
    or serious breakdown, when both residuals are still nonzero but their
    pair Gram matrix has a smallest singular value at most 1e-10 times the
    product of their norms, in which case :class:`SeriousBreakdownError` is
    raised.

    Returns the coefficients and the ``(left, right)`` bases, two
    ``(dim, coeffs.dimension)`` arrays (transposed views of the row buffers)
    whose columns are paired block after block with ``left.T @ right = I``.
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
    defect = float(np.max(np.abs(left.T @ right - np.eye(width))))
    if not defect <= 1e-10:  # NaN-safe: a non-finite start is refused here
        raise ValueError(
            f"start pair is not biorthonormal: left^T right != I, defect {defect:.3e}")

    dim = op.dimension
    # The first product fixes the bases' dtype: a complex operator makes
    # every later block complex even from a real start.
    h_right = op.apply(right)
    dtype = np.result_type(right, left, h_right)
    cap = min((max_iter + 1) * width, dim)
    rights = allocate_basis((cap, dim), dtype)
    lefts = allocate_basis((cap, dim), dtype)
    rights[:width] = right.T
    lefts[:width] = left.T
    hi = width
    prev_right = prev_left = None
    a_list: list[np.ndarray] = []
    b_list: list[np.ndarray] = []
    c_list: list[np.ndarray] = []

    for n in range(max_iter + 1):
        a = left.T @ h_right
        a_list.append(a)
        if n == max_iter or hi >= dim:
            break
        ht_left = op.apply_transpose(left)
        r_res = h_right - right @ a
        s_res = ht_left - left @ a.T
        if prev_right is not None:
            r_res -= prev_right @ c_list[n - 1]
            s_res -= prev_left @ b_list[n - 1].T
        for _ in range(2):
            _project_out(r_res, lefts[:hi], rights[:hi])
            _project_out(s_res, rights[:hi], lefts[:hi])
        r_norm = float(np.linalg.norm(r_res))
        s_norm = float(np.linalg.norm(s_res))
        if min(r_norm, s_norm) <= _RELATIVE_TOL * op.scale:
            break  # one side saturated: clean invariant-subspace termination
        w = s_res.T @ r_res
        u, sing, vh = np.linalg.svd(w)
        if sing[-1] <= _RELATIVE_TOL * r_norm * s_norm:
            raise SeriousBreakdownError(
                n + 1,
                f"pair Gram smallest singular value {sing[-1]:.3e} with "
                f"residual norms {r_norm:.3e}, {s_norm:.3e}",
            )
        root = np.sqrt(sing)
        b_list.append(root[:, None] * vh)
        c_list.append(u * root[None, :])
        prev_right, prev_left = right, left
        right = (r_res @ vh.conj().T) / root[None, :]
        left = (s_res @ u.conj()) / root[None, :]
        rights[hi : hi + width] = right.T
        lefts[hi : hi + width] = left.T
        hi += width
        h_right = op.apply(right)

    coeffs = NonHermitianBlockTridiagonal(tuple(a_list), tuple(b_list), tuple(c_list))
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
