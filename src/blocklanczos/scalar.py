"""Hermitian Lanczos recursion in exact-arithmetic emulation.

One private body advances d orthonormal Krylov vectors per step and keeps
the basis as the rows of one C-order ``(cap, dim)`` buffer.
:func:`lanczos_run` is its width-1 run, whose tridiagonal eigenpairs give
Ritz energies and reconstruction weights for excited states;
:func:`blocklanczos.block.block_lanczos_run` is its width-d run.

The basis is kept semi-orthogonal: every overlap between Krylov vectors
stays at most sqrt(eps), which leaves the projected matrix exact to working
precision (Simon, Math. Comp. 42, 1984). Each residual is re-orthogonalized
against the last two blocks only, and against the whole basis when a
majorant of its overlaps with the older blocks, propagated from the
coefficients by the block omega recurrence (Grimes, Lewis and Simon, SIAM
J. Matrix Anal. Appl. 15, 1994), crosses sqrt(eps); the step after such a
trigger takes the whole basis too. The first two steps, and every step
after a deflated block or a residual whose Gram matrix is not positive
definite, take the whole basis. The two-sided recursion of
:mod:`blocklanczos.nonhermitian` keeps its bases semi-biorthogonal with the
same majorant, one instance per side.

All three recursions return one coefficient type, :class:`BlockCoefficients`:
the block tridiagonal table of diagonal blocks A, couplings B below and, for
the two-sided run, C above the diagonal (C = B^H otherwise). The scalar
run's table is its width-1 Hermitian case, read as ``alphas`` and ``betas``.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from blocklanczos import spinchain, textio
from blocklanczos.spinchain import HamiltonianSpec

# Deflation and breakdown tolerance relative to the operator's norm bound,
# so that the Krylov dimension does not depend on the operator's units.
_RELATIVE_TOL = 1e-10

# Semi-orthogonality: the overlap bound that triggers a pass over the whole
# basis, and the trailing blocks every other pass projects against.
_EPS = float(np.finfo(np.float64).eps)
_SEMI_ORTHOGONAL = math.sqrt(_EPS)
_WINDOW_BLOCKS = 2


@dataclass(frozen=True, eq=False)
class BlockCoefficients:
    """The projected operator of a Lanczos run: a block tridiagonal table of
    diagonal blocks A_n, couplings B_n below block (n, n) and C_n above it.

    ``c_blocks`` None is the Hermitian table of :func:`lanczos_run` and
    :func:`blocklanczos.block.block_lanczos_run`: C_n = B_n^H, and every A_n
    must be Hermitian within 1e-12. In their gauge each B_n is upper
    triangular (upper trapezoidal after deflation) with real, non-negative
    leading entries, but only the shapes, finiteness and Hermiticity are
    validated, so the perturbed and synthetic tables of
    :mod:`blocklanczos.noise` use this type too. ``c_blocks`` given is the
    general form of :func:`blocklanczos.nonhermitian.two_sided_block_run`.
    """

    a_blocks: tuple[np.ndarray, ...]
    b_blocks: tuple[np.ndarray, ...]  # kept: `benchmarks/worker.py` reads it
    c_blocks: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        a_blocks = tuple(np.atleast_2d(np.asarray(a)) for a in self.a_blocks)
        b_blocks = tuple(np.atleast_2d(np.asarray(b)) for b in self.b_blocks)
        c_blocks = (None if self.c_blocks is None
                    else tuple(np.atleast_2d(np.asarray(c)) for c in self.c_blocks))
        if not a_blocks:
            raise ValueError("need at least one diagonal block")
        above = b_blocks if c_blocks is None else c_blocks
        if not len(b_blocks) == len(above) == len(a_blocks) - 1:
            raise ValueError(
                f"expected {len(a_blocks) - 1} coupling blocks on each side, "
                f"got {len(b_blocks)} below and {len(above)} above"
            )
        # NaN-safe: a non-finite entry makes the skew NaN (inf - inf); numpy's
        # warnings about it are silenced, since the refusals name the fault
        with np.errstate(over="ignore", invalid="ignore"):
            for n, a in enumerate(a_blocks):
                if a.shape[0] != a.shape[1]:
                    raise ValueError(f"diagonal block {n} is not square: {a.shape}")
                if c_blocks is None and np.abs(a - a.conj().T).max() <= 1e-12:
                    continue  # Hermitian, hence finite
                if not np.isfinite(a).all():
                    raise ValueError(f"diagonal block {n} has a non-finite entry")
                if c_blocks is None:
                    raise ValueError(f"diagonal block {n} is not Hermitian within 1e-12")
        for n, b in enumerate(b_blocks):
            expected = (a_blocks[n + 1].shape[0], a_blocks[n].shape[0])
            if b.shape != expected:
                raise ValueError(
                    f"coupling block {n} has shape {b.shape}, expected {expected}"
                )
            if not np.isfinite(b).all():
                raise ValueError(f"coupling block {n} has a non-finite entry")
        for n, c in enumerate(c_blocks or ()):
            if c.shape != b_blocks[n].shape[::-1]:
                raise ValueError(f"upper coupling block {n} has shape {c.shape}, "
                                 f"expected {b_blocks[n].shape[::-1]}")
            if not np.isfinite(c).all():
                raise ValueError(f"upper coupling block {n} has a non-finite entry")
        object.__setattr__(self, "a_blocks", a_blocks)
        object.__setattr__(self, "b_blocks", b_blocks)
        object.__setattr__(self, "c_blocks", c_blocks)

    @property
    def iterations(self) -> int:
        """Number of Krylov expansions actually performed."""
        return len(self.b_blocks)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.a_blocks)

    @property
    def dimension(self) -> int:
        return sum(self.widths)

    @property
    def upper_blocks(self) -> tuple[np.ndarray, ...]:
        """The C_n: ``c_blocks``, or B_n^H for a Hermitian table."""
        return self.c_blocks if self.c_blocks is not None else tuple(
            b.conj().T for b in self.b_blocks)

    def prefix(self, iterations: int) -> BlockCoefficients:
        """Coefficients after only ``iterations`` expansions.

        The recursions are deterministic, so this equals the output of a run
        with a smaller ``max_iter``.
        """
        if not 0 <= iterations <= self.iterations:
            raise ValueError(f"iterations must be in [0, {self.iterations}]")
        c_blocks = None if self.c_blocks is None else self.c_blocks[:iterations]
        return BlockCoefficients(
            self.a_blocks[: iterations + 1], self.b_blocks[:iterations], c_blocks)

    @cached_property
    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        if (self.c_blocks is not None or self.dimension != len(self.a_blocks)
                or any(np.imag(b).any() for b in self.b_blocks)):
            kind = "Hermitian" if self.c_blocks is None else "general"
            raise ValueError("alphas and betas need a width-1 Hermitian table with real "
                             f"couplings, not a {kind} one of widths {self.widths}")
        # a 1x1 Hermitian A is real; the run's B is the residual norm
        alphas, betas = (np.array(blocks).real.astype(np.float64).ravel()
                         for blocks in (self.a_blocks, self.b_blocks))
        alphas.flags.writeable = betas.flags.writeable = False
        return alphas, betas

    # kept: `benchmarks/worker.py` reads it
    @property
    def alphas(self) -> np.ndarray:
        """Read-only diagonal of a width-1 Hermitian table."""
        return self._tridiagonal[0]

    # kept: `benchmarks/worker.py` reads it
    @property
    def betas(self) -> np.ndarray:
        """Read-only off-diagonal of a width-1 Hermitian table with real
        couplings (non-negative in the runs' gauge)."""
        return self._tridiagonal[1]

    def save(self, path: str | Path) -> None:
        """Named matrix sections: A 0, then B n, C n and A n per step (a
        Hermitian table writes C_n = B_n^H)."""
        sections = [("A", 0, self.a_blocks[0])]
        for n, (b, c) in enumerate(zip(self.b_blocks, self.upper_blocks), start=1):
            sections += [("B", n, b), ("C", n, c), ("A", n, self.a_blocks[n])]
        textio.write_matrix_sections(path, sections, "two-sided block coefficients")

    @classmethod
    def load(cls, path: str | Path) -> BlockCoefficients:
        """The table :meth:`save` wrote, in the general form (C given)."""
        groups = textio.read_named_sections(path, ("A", "B", "C"))
        return cls(tuple(groups["A"]), tuple(groups["B"]), tuple(groups["C"]))


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


def _reorthogonalize(residual: np.ndarray, rows: np.ndarray, before: np.ndarray) -> None:
    """Project the orthonormal ``rows`` out of ``residual`` in place: one
    pass, and a second only when some column's norm fell below 1/sqrt(2)
    of its norm before the first (DGKS), ``before`` being the squared
    column norms of ``residual`` on entry."""
    dual = rows.conj()  # no copy for a real basis
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


class _OverlapMajorant:
    """Elementwise bounds Omega_k >= |L_k^T R_n| on the overlaps of the
    newest block R_n of one side of a run of uniform width w with every
    older block L_k of the paired side.

    The side follows M R_j = R_{j-1} C_{j-1} + R_j A_j + R_{j+1} B_j and its
    pair M^T L_j = L_{j-1} B_{j-1}^T + L_j A_j^T + L_{j+1} C_j^T. Taking
    L_k^T of the first and the transpose of the second gives, for k < n - 1,
    Simon's omega recurrence carried over to the oblique case:

        Omega_{k,n+1} = (|A_k| Omega_k + |B_{k-1}| Omega_{k-1}
                         + |C_k| Omega_{k+1} + Omega_k |A_n|
                         + Omega_{k,n-1} |C_{n-1}|
                         + eps scale ||L_k|| ||R_n||) |B_n^-1|

    with ||.|| a block's largest column norm. The Hermitian recursion is the
    case L = conj(Q), R = Q, C = B^H with unit norms and |B_n^-1| = |R^-1|,
    R the Cholesky factor of the next residual's Gram matrix. The left side
    of a two-sided run is a second instance with A -> A^T, B -> C^T,
    C -> B^T and the paired norms swapped.

    A residual projected against blocks n - 1 and n is left with overlaps
    of round-off size, eps ||L_k|| ||R_{n+1}||, with them, and so is one
    projected against the whole basis with every block. Storage is
    O(blocks w^2): the |A|, |B| and |C| stacks and the block-columns of R_n
    and R_{n-1}.
    """

    def __init__(self, blocks: int, width: int, scale: float,
                 norms: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """``norms`` holds two ``(blocks,)`` arrays, the largest column norm
        of each block of the paired side and of this side, which the caller
        fills as blocks are stored; None means orthonormal blocks."""
        shape = (blocks, width, width)
        self.abs_a = np.empty(shape)
        self.abs_b = np.empty(shape)
        self.abs_c = np.empty(shape)
        self.cur = np.empty(shape)  # Omega_{k,n}, k < n
        self.prev = np.empty(shape)  # Omega_{k,n-1}, k < n - 1
        self.noise = _EPS * scale
        self.paired, self.own = (np.ones(blocks),) * 2 if norms is None else norms

    def propagate(self, n: int, a: np.ndarray, inverse: np.ndarray) -> np.ndarray:
        """Bounds on the next block's overlaps with blocks 0 .. n - 2, an
        ``(n - 1, w, w)`` stack; ``a`` is step n's diagonal block and
        ``inverse`` is |B_n^-1|. A non-finite ``inverse`` gives a
        non-finite bound, which no threshold test passes."""
        abs_a, abs_b, abs_c, cur = self.abs_a, self.abs_b, self.abs_c, self.cur
        bound = abs_a[: n - 1] @ cur[: n - 1] + cur[: n - 1] @ np.abs(a)
        bound += abs_c[: n - 1] @ cur[1:n]
        bound[1:] += abs_b[: n - 2] @ cur[: n - 2]
        bound += self.prev[: n - 1] @ abs_c[n - 1]
        bound += self.noise * self.paired[: n - 1, None, None] * self.own[n]
        return bound @ inverse

    def advance(self, n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                bound: np.ndarray | None) -> None:
        """Store step n's blocks and make the next block the newest: its
        overlaps are ``bound`` for blocks 0 .. n - 2 after a windowed pass,
        and round-off for every block after a full one (``bound`` None).
        The norms of block n + 1 must be stored first."""
        self.abs_a[n] = np.abs(a)
        self.abs_b[n] = np.abs(b)
        self.abs_c[n] = np.abs(c)
        self.prev, self.cur = self.cur, self.prev
        self.cur[: n + 1] = _EPS * self.paired[: n + 1, None, None] * self.own[n + 1]
        if bound is not None:
            self.cur[: n - 1] = bound


def _cholesky_inverse(gram: np.ndarray) -> np.ndarray | None:
    """|R^-1| for the Cholesky factor R of ``gram``, or None when ``gram``
    is not positive definite."""
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    return np.abs(np.linalg.inv(lower)).T  # |R^-1| for R = lower^H


# overflow surfaces as a non-finite block, which the recursion refuses by name
@np.errstate(over="ignore", invalid="ignore")
def _hermitian_recursion(
    spec: HamiltonianSpec, start: np.ndarray, max_iter: int
) -> tuple[BlockCoefficients, np.ndarray]:
    """Up to ``max_iter`` expansions from the orthonormal ``(dim, width)``
    ``start``: the Hermitian table of the Hermitized diagonal blocks and the
    coupling blocks, and the ``(dim, k)`` basis, Krylov vectors as columns.
    The basis is float64 for a real start and complex128 for a complex one.

    A remainder column of norm at most ``_RELATIVE_TOL`` times the chain's
    norm bound deflates; a fully deflated remainder ends the run (invariant
    space). A non-finite block, which only an overflowing chain produces,
    is refused with a ValueError naming the chain and the step. Which rows
    each residual is projected against follows the module docstring.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    scale = spec.norm_bound
    psi = np.ascontiguousarray(
        start, dtype=np.complex128 if np.iscomplexobj(start) else np.float64)
    dim, width = psi.shape
    basis = allocate_basis((min((max_iter + 1) * width, dim), dim), psi.dtype)
    basis[:width] = psi.T
    hi = width
    a_blocks: list[np.ndarray] = []
    b_blocks: list[np.ndarray] = []
    majorant: _OverlapMajorant | None = _OverlapMajorant(
        basis.shape[0] // width + 1, width, scale)
    triggered = False

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
        gram = residual.conj().T @ residual
        lo, bound = 0, None
        if majorant is not None and n >= _WINDOW_BLOCKS and not triggered:
            r_inv = _cholesky_inverse(gram)
            if r_inv is None:
                majorant = None  # no Cholesky factor: full passes from here on
            else:
                bound = majorant.propagate(n, a, r_inv)
                if bound.max() <= _SEMI_ORTHOGONAL:  # NaN-safe: NaN takes the full pass
                    lo = hi - _WINDOW_BLOCKS * width
                else:
                    bound, triggered = None, True
        elif triggered:
            triggered = False  # the step after a trigger: a full pass
        _reorthogonalize(residual, basis[lo:hi], np.diagonal(gram).real)
        b = _gram_schmidt_factor(residual, basis[hi:], scale)
        if b.shape[0] == 0:
            break  # invariant subspace: clean termination
        _check_finite(b, "coupling", spec, n + 1)
        b_blocks.append(b)
        if b.shape[0] < width:
            majorant = None  # a deflated block: full passes from here on
        elif majorant is not None:
            majorant.advance(n, a, b, b.conj().T, bound)
        prev, psi = psi, basis[hi : hi + b.shape[0]].T
        hi += b.shape[0]

    return BlockCoefficients(tuple(a_blocks), tuple(b_blocks)), basis[:hi].T


def _check_finite(
    block: np.ndarray, kind: str, spec: HamiltonianSpec, step: int
) -> None:
    if not np.isfinite(block).all():
        raise ValueError(
            f"the Lanczos recursion on the {spec.length}-site chain overflowed "
            f"at step {step}: its {kind} block is not finite")


def _check_start(start: np.ndarray, refusal: str, left: np.ndarray | None = None) -> None:
    """Refuse a ``(dim, width)`` start whose Gram matrix differs from the
    identity by more than 1e-10 in some entry: ``start^H start``, or for a
    two-sided run's pair ``left^T start``."""
    gram = start.conj().T @ start if left is None else left.T @ start
    defect = float(np.max(np.abs(gram - np.eye(start.shape[1]))))
    if not defect <= 1e-10:  # NaN-safe: a non-finite start is refused here
        raise ValueError(f"{refusal}: Gram defect {defect:.3e}")


def lanczos_run(
    spec: HamiltonianSpec,
    start: np.ndarray,
    max_iter: int,
) -> tuple[BlockCoefficients, np.ndarray]:
    """Run the three-term recursion from the normalized ``(dim,)`` ``start``
    (|v|^2 within 1e-10 of 1) for up to ``max_iter`` expansions.

    The width-1 run of the shared recursion: each expansion applies H once,
    subtracts the projections onto the two previous vectors, re-orthogonalizes
    and normalizes. From the third expansion on the re-orthogonalization
    covers the two previous vectors only, unless the estimated overlap with
    an older vector crosses sqrt(eps); then it covers the whole basis, on
    that expansion and the next. It makes one Gram-Schmidt pass, and a
    second only when the first shrinks the residual below 1/sqrt(2) of its
    norm. The basis stays orthonormal to within sqrt(eps) in every entry of
    its Gram matrix. It stops early when the residual
    norm is at most 1e-10 times the chain's norm bound (``spec.norm_bound``):
    the Krylov space has become invariant. The realized expansion count is
    ``coeffs.iterations``.

    Returns the width-1 Hermitian table, whose ``alphas`` and ``betas`` are
    the tridiagonal entries, and the orthonormal basis as a
    ``(dim, coeffs.dimension)`` array whose columns are the Krylov vectors;
    it is float64 when the start is real.
    """
    start = np.asarray(start)
    if start.shape != (spec.dim,):
        raise ValueError(f"start of shape {start.shape} is not ({spec.dim},)")
    _check_start(start[:, None], "start not normalized")

    return _hermitian_recursion(spec, start[:, None], max_iter)


# kept: `benchmarks/worker.py` calls it
def ritz_values(coeffs: BlockCoefficients) -> np.ndarray:
    """Ascending eigenvalues of a width-1 Hermitian table, the projected
    tridiagonal operator."""
    import scipy.linalg as sla  # deferred: only a Ritz solve loads scipy.linalg

    return sla.eigh_tridiagonal(coeffs.alphas, coeffs.betas, eigvals_only=True)


# kept: `benchmarks/worker.py` calls it
def tridiagonal_eigensolve(
    coeffs: BlockCoefficients,
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
