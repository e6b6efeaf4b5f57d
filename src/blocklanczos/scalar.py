"""Lanczos recursions in exact-arithmetic emulation: the one step loop.

One private step loop advances every recursion of the package, d Krylov
vectors per side and step, each side's basis kept as the rows of one
C-order ``(cap, dim)`` buffer. The Hermitian recursion has one side,
paired with its own conjugate: :func:`lanczos_run` is its width-1 run,
whose tridiagonal eigenpairs give Ritz energies and reconstruction weights
for excited states, and :func:`blocklanczos.block.block_lanczos_run` its
width-d run. The two-sided run of :mod:`blocklanczos.nonhermitian` has a
right and a left side, each paired with the other. A small parts object
per recursion supplies what differs, chiefly the factor of the residuals
into the next block.

Every block stays a C-order ``(w, dim)`` row block from the operator
product to the next block's rows: an operator is applied to the F-ordered
transpose of the newest rows, and the transpose of its F-ordered product
is the row block in which the residual is formed in place.

Each step takes the diagonal block A_n, subtracts the three-term
recurrence from each side's residual (side 0 with A, B, C, its pair with
A^T, C^T, B^T) and re-orthogonalizes, keeping every overlap between blocks
at most sqrt(eps), which leaves the projected matrix exact to working
precision (Simon, Math. Comp. 42, 1984; Day, SIAM J. Matrix Anal. Appl.
18, 1997). Steps 0 and 1 project against the whole basis, later steps
against the last two blocks only unless the window test value crosses
sqrt(eps), and then that step and the next take the whole basis. The value
is the largest signed overlap estimate of :class:`_OverlapEstimate` (one
per side), magnified by the largest norm product of a stored pair, or the
two-sided split's pairing defect eps s_max / s_min when that is larger.
A deflated block, or a residual without a factor for the estimate (a Gram
matrix that is not positive definite, a non-finite pair Gram), makes every
later step take the whole basis. A non-finite diagonal or coupling block
is refused with a ValueError that names the step.

Re-orthogonalization is the classical Gram-Schmidt pass
:func:`_project_out`. The Hermitian recursion makes a second pass only
when the first shrinks some residual row below 1/sqrt(2) of its norm (the
"twice is enough" rule of Daniel, Gragg, Kaufman and Stewart, Math. Comp.
30, 1976) and restarts its estimate from measured overlaps after each
whole-basis step; the two-sided run always makes two passes per side,
since its oblique projector I - R L^T is not a contraction.

The loop owns every run from its checks to its finished table (see
:func:`_block_recursion`), and :func:`_check_start` is the one start check
of its three front ends.

All three recursions return one coefficient type, :class:`BlockCoefficients`:
the block tridiagonal table of diagonal blocks A, couplings B below and, for
the two-sided run, C above the diagonal (C = B^H otherwise). The scalar
run's table is its width-1 Hermitian case, read as ``alphas`` and ``betas``.

Each step's thin products between ``(w, dim)`` blocks run near memory
speed: a multi-row block's update ``block -= coefficients @ rows`` is one
in-place gemm (:func:`_subtract_product`), and the inner products between
blocks of 3 or more rows are summed over column panels (:func:`_inner`).

``scipy.linalg`` serves the tridiagonal eigensolve and that gemm, so it is
imported at the first :func:`ritz_values` or :func:`tridiagonal_eigensolve`
call or the first step of a width >= 2 run, not with the package. Of the
CLI commands, ``incremental`` and the width-1 ``solve`` load it at their
first Ritz solve, and a block ``solve`` of width >= 2 at its first step;
``noise-sweep`` and ``cost-table`` never do.
``scipy.sparse`` loads with the first operator product,
:func:`blocklanczos.spinchain.apply_to_array`, which builds the chain's
CSR kernel (``solve`` and ``incremental``), or the first reference-oracle
call of :mod:`blocklanczos.spinchain`, whichever comes first; and
``scipy.optimize``, which pulls in ``scipy.linalg`` and ``scipy.sparse``,
with the first :func:`blocklanczos.nonhermitian.match_spectra`
(``nonhermitian-demo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from blocklanczos import spinchain, textio
from blocklanczos.spinchain import HamiltonianSpec

# Deflation and breakdown tolerance relative to the operator's norm bound,
# so that the Krylov dimension does not depend on the operator's units.
_RELATIVE_TOL = 1e-10

# Semi-orthogonality: the estimated overlap that triggers a pass over the
# whole basis, and the trailing blocks every other pass projects against.
_EPS = float(np.finfo(np.float64).eps)
_SEMI_ORTHOGONAL = math.sqrt(_EPS)
_WINDOW_BLOCKS = 2

# Thin block products: the column panel of :func:`_inner` and the BLAS
# routine of :func:`_subtract_product` per run dtype.
_PANEL = 1 << 14
_GEMM = {np.dtype(np.float64): "dgemm", np.dtype(np.complex128): "zgemm"}


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
        # tuples built from lists, not generators: a tuple() of a generator is
        # resized to its length, which leaves the per-size free lists growing
        a_blocks = tuple([np.atleast_2d(np.asarray(a)) for a in self.a_blocks])
        b_blocks = tuple([np.atleast_2d(np.asarray(b)) for b in self.b_blocks])
        c_blocks = (None if self.c_blocks is None
                    else tuple([np.atleast_2d(np.asarray(c)) for c in self.c_blocks]))
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
        return tuple([a.shape[0] for a in self.a_blocks])

    @property
    def dimension(self) -> int:
        return sum(self.widths)

    @property
    def upper_blocks(self) -> tuple[np.ndarray, ...]:
        """The C_n: ``c_blocks``, or B_n^H for a Hermitian table."""
        return self.c_blocks if self.c_blocks is not None else tuple(
            [b.conj().T for b in self.b_blocks])

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


def _check_basis_fits(dim: int, width: int, max_iter: int, dtype: np.dtype,
                      count: int = 1) -> tuple[int, int]:
    """The ``(cap, dim)`` shape of each Krylov basis buffer of a run of up to
    ``max_iter`` expansions of width ``width``; one buffer larger than
    physical memory, or ``count`` of them that together are, is refused with
    a ValueError (see :func:`blocklanczos.spinchain._check_fits_memory`)."""
    shape = (int(min((max_iter + 1) * width, dim)), dim)
    remedy = "max_iter or the dimension"
    nbytes = spinchain._check_fits_memory(
        math.prod(shape) * np.dtype(dtype).itemsize,
        f"a Krylov basis of shape {shape}", remedy)
    if count > 1:
        spinchain._check_fits_memory(
            count * nbytes, f"a Krylov basis of {count} buffers of shape {shape}",
            remedy)
    return shape


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y.T`` for row-major ``(p, dim)`` and ``(q, dim)`` blocks.

    With p, q >= 3 and dim > ``_PANEL`` it is summed over ``_PANEL``-column
    panels: OpenBLAS runs such a thin product over the whole length at a
    fraction of memory speed (0.41 against 0.16 ms for 4 x 4 at dim 2^16
    on a 2-vCPU Xeon guest, one BLAS thread), and a panel of a few rows
    stays in cache. Thinner products already run at memory speed, and
    panels would slow them down."""
    dim = x.shape[1]
    if min(x.shape[0], y.shape[0]) < 3 or dim <= _PANEL:
        return x @ y.T
    out = x[:, :_PANEL] @ y[:, :_PANEL].T
    for lo in range(_PANEL, dim, _PANEL):
        out += x[:, lo : lo + _PANEL] @ y[:, lo : lo + _PANEL].T
    return out


def _subtract_product(out: np.ndarray, coef: np.ndarray, rows: np.ndarray) -> None:
    """``out -= coef @ rows`` in place for a C-order, writable ``(w, dim)``
    float64 or complex128 block ``out`` and ``(hi, dim)`` rows.

    A single row is updated by ``np.dot``, which scales by a 1x1 ``coef``
    as by a scalar: a gemm with a single-row output packs all of ``rows``.
    More rows take one BLAS gemm with beta = 1 on the F-ordered
    transposes, without the block-sized temporary of numpy's ``out -= coef
    @ rows``, written and then read back. f2py hands back an updated copy,
    and leaves ``out`` as it was, when the transpose of ``out`` is not an
    F-ordered, writable array of the routine's dtype, so a multi-row
    ``out`` that is not one is refused with a ValueError."""
    if out.shape[0] == 1:
        out -= np.dot(coef, rows)
        return
    gemm = _GEMM.get(out.dtype)
    if (gemm is None or not (out.flags.c_contiguous and out.flags.writeable)
            or np.result_type(out, coef, rows) != out.dtype):
        raise ValueError(
            f"cannot update a {out.dtype} block in place (C-contiguous "
            f"{out.flags.c_contiguous}, writeable {out.flags.writeable}) with "
            f"{coef.dtype} coefficients and {rows.dtype} rows")
    from scipy.linalg import blas  # deferred: a width-1 run never loads it

    getattr(blas, gemm)(-1.0, rows.T, coef.T, beta=1.0, c=out.T, overwrite_c=True)


def _project_out(residual: np.ndarray, dual: np.ndarray, stack: np.ndarray) -> None:
    """One classical Gram-Schmidt pass, in place: residual -= (dual
    residual^T)^T stack for a ``(w, dim)`` residual and ``(hi, dim)``
    stacks, all row-major. ``dual`` is ``stack.conj()`` for an orthonormal
    basis and the paired basis for a biorthogonal one."""
    _subtract_product(residual, _inner(dual, residual).T, stack)


def _row_norms_sq(rows: np.ndarray) -> np.ndarray:
    """Squared row norms of a ``(w, dim)`` array: the diagonal of its Gram
    matrix, one BLAS product."""
    return np.diagonal(_inner(rows.conj(), rows)).real


def _max_row_norm(rows: np.ndarray) -> float:
    """Largest row norm of a ``(w, dim)`` block."""
    return float(np.sqrt(_row_norms_sq(rows).max()))


def _reorthogonalize(residual: np.ndarray, dual: np.ndarray, stack: np.ndarray,
                     before: np.ndarray | None) -> None:
    """Project the ``(hi, dim)`` ``stack``, paired by ``dual``, out of the
    ``(w, dim)`` ``residual`` in place: one pass and a second one, always
    when ``before`` is None and otherwise only when some residual row's norm
    fell below 1/sqrt(2) of its norm before the first (DGKS), ``before``
    being its squared row norms on entry."""
    _project_out(residual, dual, stack)
    if before is None or np.any(_row_norms_sq(residual) < 0.5 * before):
        _project_out(residual, dual, stack)


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


def _gram_schmidt_factor(
    residual: np.ndarray, rows: np.ndarray, scale: float
) -> np.ndarray:
    """Factor the ``(cols, dim)`` rows of ``residual`` as B^T Q_new: writes
    the orthonormal rows of Q_new to the leading rows of ``rows`` and
    returns the echelon B, (kept, cols). ``residual`` is overwritten.

    Residual rows are orthogonalized in order, each against the rows kept
    so far in two passes of one matrix product; one whose remainder has
    norm at most ``_RELATIVE_TOL * scale`` (``scale`` the operator's norm
    bound) is deflated: its projection coefficients stay in B but it adds no
    row. No rows: all deflated. A zero operator thus deflates everything.
    """
    cols = residual.shape[0]
    b = np.zeros((cols, cols), dtype=residual.dtype)
    kept = 0
    for j, r in enumerate(residual):
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
        np.divide(r, nrm, out=rows[kept])
        kept += 1
    return b[:kept]


class _OverlapEstimate:
    """Signed estimates Omega_k of the overlaps L_k^T R_n of the newest
    block R_n of one side of a run of uniform width w with every older block
    L_k of the paired side. They are estimates, not bounds.

    The side follows M R_j = R_{j-1} C_{j-1} + R_j A_j + R_{j+1} B_j and its
    pair M^T L_j = L_{j-1} B_{j-1}^T + L_j A_j^T + L_{j+1} C_j^T. Taking
    L_k^T of the first and the transpose of the second gives, for k < n - 1,
    Simon's omega recurrence (Simon, Math. Comp. 42, 1984), in the block
    form of Grimes, Lewis and Simon (SIAM J. Matrix Anal. Appl. 15, 1994)
    and carried over to the oblique case (Day, SIAM J. Matrix Anal. Appl.
    18, 1997):

        Omega_{k,n+1} = (A_k Omega_k + B_{k-1} Omega_{k-1} + C_k Omega_{k+1}
                         - Omega_k A_n - Omega_{k,n-1} C_{n-1}
                         + eps scale ||L_k|| ||R_n|| sign) B_n^-1

    with ||.|| a block's largest column norm. Without the eps term the
    recurrence is exact; that term stands for the step's unknown round-off
    and is added to every entry with the sign of the sum before it (its
    phase for a complex entry, + for zero), as PROPACK does (Larsen, DAIMI
    PB-537, 1998), so it is deterministic and moves each entry away from
    zero. The signed terms cancel where the true overlaps cancel; a
    majorant that takes every term in absolute value adds them up instead
    and, on the Heisenberg chain, overstates the overlaps about 1e6-fold
    by the time it crosses sqrt(eps).

    The Hermitian recursion is the case L = conj(Q), R = Q, C = B^H with
    unit norms and B_n^-1 = R^-1, R the Cholesky factor of the next
    residual's Gram matrix. The left side of a two-sided run is a second
    instance with A -> A^T, B -> C^T, C -> B^T and the paired norms swapped.

    A residual projected against blocks n - 1 and n is left with overlaps
    of round-off size, eps ||L_k|| ||R_{n+1}||, with them, and so is one
    projected twice against every block, as the two-sided run does. A
    single classical Gram-Schmidt pass against blocks that are only
    semi-orthogonal, which the Hermitian recursion makes unless the DGKS rule
    calls a second, leaves more: their own overlaps times the residual's,
    in the very pattern that grows fastest. So after its passes over the
    whole basis the Hermitian recursion measures the new block's overlaps, one
    product with the basis, and the estimate restarts from them; restarted
    from round-off instead, it lagged the true overlaps until they passed
    1e-3 on saturating L = 8-10 Heisenberg runs, and so it did when every
    such step made two passes. A block that no later step propagates is
    not measured. Storage is O(blocks w^2): the A, B and C stacks and the
    block-columns of R_n and R_{n-1}.
    """

    def __init__(self, blocks: int, width: int, scale: float, dtype: np.dtype,
                 norms: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """``dtype`` is the run's, float64 or complex128; ``norms`` holds two
        ``(blocks,)`` arrays, the largest column norm of each block of the
        paired side and of this side, which the caller fills as blocks are
        stored; None means orthonormal blocks."""
        shape = (blocks, width, width)
        self.a = np.empty(shape, dtype)
        self.b = np.empty(shape, dtype)
        self.c = np.empty(shape, dtype)
        self.cur = np.empty(shape, dtype)  # Omega_{k,n}, k < n
        self.prev = np.empty(shape, dtype)  # Omega_{k,n-1}, k < n - 1
        self.noise = _EPS * scale
        self.paired, self.own = (np.ones(blocks),) * 2 if norms is None else norms

    def propagate(self, n: int, a: np.ndarray, inverse: np.ndarray) -> np.ndarray:
        """Estimates of the next block's overlaps with blocks 0 .. n - 2, an
        ``(n - 1, w, w)`` stack; ``a`` is step n's diagonal block and
        ``inverse`` is B_n^-1. A non-finite ``inverse`` gives a non-finite
        estimate, which no threshold test passes."""
        a_s, b_s, c_s, cur = self.a, self.b, self.c, self.cur
        est = a_s[: n - 1] @ cur[: n - 1] - cur[: n - 1] @ a
        est += c_s[: n - 1] @ cur[1:n]
        est[1:] += b_s[: n - 2] @ cur[: n - 2]
        est -= self.prev[: n - 1] @ c_s[n - 1]
        size = np.abs(est)  # each entry's sign, or phase when complex; 1 at 0
        signs = np.divide(est, size, out=np.ones_like(est), where=size > 0)
        est += self.noise * self.paired[: n - 1, None, None] * self.own[n] * signs
        return est @ inverse

    def advance(self, n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                estimate: np.ndarray | None,
                measured: np.ndarray | None = None) -> None:
        """Store step n's blocks and make the next block the newest.

        Its overlaps with blocks 0 .. n are ``measured`` when given, the
        ``((n + 1) w, w)`` product of the paired side's blocks with it.
        Otherwise they are round-off, eps ||L_k|| ||R_{n+1}||, with blocks
        n - 1 and n, ``estimate`` with blocks 0 .. n - 2 after a windowed
        pass, and round-off with those too without one (steps 0 and 1, the
        two-sided run's double passes over the whole basis, and a block no
        later step propagates). The norms of block n + 1 must be stored
        first."""
        self.a[n], self.b[n], self.c[n] = a, b, c
        self.prev, self.cur = self.cur, self.prev
        if measured is not None:
            self.cur[: n + 1] = measured.reshape(n + 1, *self.cur.shape[1:])
            return
        self.cur[: n + 1] = _EPS * self.paired[: n + 1, None, None] * self.own[n + 1]
        if estimate is not None:
            self.cur[: n - 1] = estimate


def _window_test(estimates: tuple[_OverlapEstimate, ...], n: int, a: np.ndarray,
                 inverses: tuple[np.ndarray, ...], floor: float,
                 ) -> tuple[tuple[np.ndarray, ...], float]:
    """Each side's estimates of its next block's overlaps with the paired
    blocks 0 .. n - 2 (``a`` is step n's diagonal block), and the value the
    window test compares with sqrt(eps): their largest entry times the
    largest norm product ||L_k|| ||R_k|| of a stored pair, or ``floor`` if
    larger. The product is 1 for orthonormal blocks; on non-normal
    operators the oblique recurrence magnifies round-off that the signed
    estimate cannot follow, and unscaled it lagged the measured overlaps by
    up to about that product. A NaN makes the value NaN, which fails."""
    overlaps = tuple(estimate.propagate(n, side_a, inverse)
                     for estimate, side_a, inverse in zip(estimates, (a, a.T), inverses))
    magnify = np.max(estimates[0].paired[: n + 1] * estimates[0].own[: n + 1])
    return overlaps, float(np.max((*(magnify * np.abs(o).max() for o in overlaps), floor)))


class _HermitianParts:
    """The Hermitian recursion's parts for the step loop: one side paired
    with its own conjugate, Hermitized diagonal blocks, the Cholesky factor
    of the residual's Gram matrix for the estimate, the DGKS pass rule and
    the deflating Gram-Schmidt factor."""

    orthonormal = True

    def __init__(self, spec: HamiltonianSpec) -> None:
        self.scale = spec.norm_bound
        self.label = f"the Lanczos recursion on the {spec.length}-site chain overflowed"
        # looked up at call time, so a wrapped spinchain.apply_to_array is seen
        self.applies = (lambda v: spinchain.apply_to_array(spec, v),)

    @staticmethod
    def paired(blocks: tuple[np.ndarray, ...], side: int) -> np.ndarray:
        return blocks[0].conj()  # no copy for a real basis

    @staticmethod
    def diagonal(a: np.ndarray) -> np.ndarray:
        return 0.5 * (a + a.conj().T)  # exact Hermiticity, kills roundoff skew

    @staticmethod
    def split(gram: np.ndarray) -> tuple[tuple[np.ndarray], float] | None:
        """R^-1 for the upper Cholesky factor R of ``gram``, or None when it
        is not positive definite."""
        try:
            lower = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        return (np.linalg.inv(lower).conj().T,), 0.0  # R^-1 for R = lower^H

    @staticmethod
    def second_pass_norms(gram: np.ndarray) -> np.ndarray:
        return np.diagonal(gram).real

    def factor(self, residuals: tuple[np.ndarray, ...], new: tuple[np.ndarray, ...],
               n: int) -> tuple[np.ndarray, np.ndarray] | None:
        b = _gram_schmidt_factor(residuals[0], new[0], self.scale)
        return (b, b.conj().T) if b.shape[0] else None  # no rows: invariant subspace


# a non-finite block is refused by name, and a window test that meets an
# inf or a NaN never passes, so numpy's warnings about them are noise
@np.errstate(over="ignore", invalid="ignore")
def _block_recursion(
    parts, starts: tuple[np.ndarray, ...], max_iter: int,
) -> tuple[BlockCoefficients, tuple[np.ndarray, ...]]:
    """Up to ``max_iter`` expansions from one ``(dim, width)`` start per
    side, checked by :func:`_check_start`, under the schedule of the module
    docstring.

    ``parts`` holds each side's operator in ``applies``; ``paired(blocks,
    k)`` pairs side k's blocks; ``diagonal`` finishes A_n; ``split`` gives
    each side's inverse factor and the test-value floor from the residuals'
    pair Gram matrix, or None; ``second_pass_norms`` feeds
    :func:`_reorthogonalize` (None: two passes; otherwise the step's
    overlaps are measured after a whole-basis step); and ``factor`` writes
    each side's next block and returns (B_n, C_n), or None to end the run.

    The loop owns the run: it refuses ``max_iter`` < 1 and a basis larger
    than physical memory, one side's or every side's together, before any
    operator product, then applies side 0's operator to its start. That
    product fixes the run's dtype, float64 or complex128: a complex
    operator makes every block complex even from a real start, so every
    side's basis is checked together again at that dtype before any is
    allocated. No product is written into a start. Returns the table, with
    C only for two sides, and each side's ``(dim, k)`` basis, the Krylov
    vectors as columns (transposed views of the row buffers).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    dim, width = starts[0].shape
    shape = _check_basis_fits(dim, width, max_iter,
                              np.result_type(np.float64, *starts), len(starts))
    first = parts.applies[0](starts[0])
    dtype = np.result_type(np.float64, *starts, first)
    _check_basis_fits(dim, width, max_iter, dtype, len(starts))
    residual = _residual_rows(first, starts[0], dtype)
    bases = tuple(np.empty(shape, dtype) for _ in starts)
    for basis, start in zip(bases, starts):
        basis[:width] = start.T

    def apply(side: int, rows: np.ndarray) -> np.ndarray:
        # the F-ordered transpose of a row block goes in, and the transpose
        # of the product is the row block the residual is formed in
        return _residual_rows(parts.applies[side](rows.T), rows, dtype)

    def check_finite(block: np.ndarray, kind: str, step: int) -> None:
        if not np.isfinite(block).all():
            raise ValueError(
                f"{parts.label} at step {step}: its {kind} block is not finite")

    rows, prev, hi = tuple(basis[:width] for basis in bases), (), width
    a_list: list[np.ndarray] = []
    b_list: list[np.ndarray] = []
    c_list: list[np.ndarray] = []
    blocks = shape[0] // width + 1
    norms = None
    if not parts.orthonormal:  # each block's largest row norm, per side
        norms = np.empty((len(bases), blocks))
        norms[:, 0] = [_max_row_norm(r) for r in rows]
    estimates = tuple(
        _OverlapEstimate(blocks, width, parts.scale, dtype,
                         None if norms is None else (norms[1 - k], norms[k]))
        for k in range(len(bases)))
    triggered = False

    for n in range(max_iter + 1):
        a = parts.diagonal(_inner(parts.paired(rows, 0), residual))
        check_finite(a, "diagonal", n)
        a_list.append(a)
        if n == max_iter or hi >= dim:
            break
        residuals = (residual, *(apply(k, rows[k]) for k in range(1, len(rows))))
        # side 0 takes A^T and C_{n-1}^T, its pair A and B_{n-1}
        for k, res in enumerate(residuals):
            _subtract_product(res, (a.T, a)[k], rows[k])
            if n > 0:
                _subtract_product(res, (c_list[-1].T, b_list[-1])[k], prev[k])
        gram = _inner(parts.paired(residuals, 0), residuals[0])
        lo, overlaps = 0, ()
        if estimates and n >= _WINDOW_BLOCKS and not triggered:
            split = parts.split(gram)
            if split is None:
                estimates = ()  # no factor: whole-basis steps from here on
            else:
                overlaps, worst = _window_test(estimates, n, a, *split)
                if worst <= _SEMI_ORTHOGONAL:  # NaN-safe: NaN takes the whole basis
                    lo = hi - _WINDOW_BLOCKS * width
                else:
                    triggered = True
        elif triggered:
            triggered = False  # the step after a trigger: the whole basis
        window = tuple(basis[lo:hi] for basis in bases)
        before = parts.second_pass_norms(gram)
        for k, res in enumerate(residuals):
            _reorthogonalize(res, parts.paired(window, k), window[k], before)
        couplings = parts.factor(residuals, tuple(basis[hi:] for basis in bases), n)
        if couplings is None:
            break
        b, c = couplings
        check_finite(b, "coupling", n + 1)
        b_list.append(b)
        c_list.append(c)
        kept = b.shape[0]
        prev, rows = rows, tuple(basis[hi : hi + kept] for basis in bases)
        if norms is not None:
            norms[:, n + 1] = [_max_row_norm(r) for r in rows]
        if kept < width:
            estimates = ()  # a deflated block: whole-basis steps from here on
        # the run stops at the next step when it reaches max_iter or dim
        measure = (before is not None and n >= _WINDOW_BLOCKS and not lo
                   and n + 1 < max_iter and hi + width < dim)
        for k, (estimate, side) in enumerate(zip(estimates, ((a, b, c), (a.T, c.T, b.T)))):
            measured = (_inner(parts.paired(tuple(basis[:hi] for basis in bases), k), rows[k])
                        if measure else None)
            estimate.advance(n, *side, overlaps[k] if lo else None, measured)
        hi += kept
        residual = apply(0, rows[0])

    c_blocks = tuple(c_list) if len(bases) == 2 else None
    return (BlockCoefficients(tuple(a_list), tuple(b_list), c_blocks),
            tuple(basis[:hi].T for basis in bases))


def _check_start(starts: tuple[np.ndarray, ...], dim: int, refusal: str) -> None:
    """Refuse starts that are not equal-shape ``(dim, width)`` arrays with
    width >= 1, and then, with ``refusal``, starts whose Gram matrix
    differs from the identity by more than 1e-10 in some entry: ``start^H
    start`` for one side, ``left^T right`` for a two-sided run's (right,
    left) pair."""
    shapes = [start.shape for start in starts]
    if len(set(shapes)) > 1 or len(shapes[0]) != 2 or shapes[0][0] != dim or not shapes[0][1]:
        raise ValueError(
            f"starts must be equal-shape (dimension x width) arrays of dimension "
            f"{dim} and width >= 1, got shapes {', '.join(map(str, shapes))}")
    right, left = starts[0], starts[-1]
    gram = left.T @ right if len(starts) > 1 else right.conj().T @ right
    defect = float(np.max(np.abs(gram - np.eye(right.shape[1]))))
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
    it is float64 when the start is real. The start is checked as a
    ``(dim, 1)`` column, so a start of another shape is refused with the
    shapes of that column view.
    """
    start = np.asarray(start)[..., None]
    _check_start((start,), spec.dim, "start not normalized")
    coeffs, (basis,) = _block_recursion(_HermitianParts(spec), (start,), max_iter)
    return coeffs, basis


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
