"""Spin-1/2 open-chain Hamiltonians on a bit-encoded basis.

Provides application of nearest-neighbour XXZ-type couplings by a CSR kernel,
a sparse Kronecker-product assembly as the reference oracle (ARPACK ground
state, dense full spectra), and the closed-form free-fermion ground energy
of the open XY chain as an independent cross-check. Every coupling is real,
so the oracle is float64 throughout: its two bond operators are built from
the complex single-site Sx, Sy, Sz and keep only their (exact) real parts.

H is applied as its diagonal (the constant and every ZZ bond, kept with
each spec as one read-only array) plus a CSR kernel of the off-diagonal
part in the standard exact-diagonalization row layout (Sandvik,
arXiv:1101.3281, section 4), built by bit arithmetic once per spec, on
first use, and kept with it. Row x holds one entry per XX+YY bond that is
antiparallel in x, in spec order: column ``x ^ (3 << site)``, value
coefficient/2. The product starts each row from the diagonal product and
walks the row in that order, so every output element is the diagonal
product plus each flip product in spec order, one rounding at a time (see
:func:`apply_to_array`).

The Kronecker oracle never shares this layout, so the two routes check each
other. Each of its bonds is ``I (x) pair (x) I`` around a 4x4 Kronecker
product of the single-site operators, written as CSR arrays by Kronecker
index arithmetic on the pair (:func:`_bond`), never by the kernel's bit
flips; the sum is a sparse fold of those bonds (:func:`sparse_matrix`).
ARPACK runs on that sum through the same ``csr_matvec`` row loop that
``sum @ x`` runs (:func:`ground_state`).

Conventions (fixed and tested):
  * spin operators are S = sigma/2, so ZZ bonds contribute +-1/4 per unit
    coefficient and XX+YY bonds flip antiparallel neighbours with amplitude
    coefficient/2;
  * site i of a chain of ``length`` sites maps to bit i of the basis index,
    site 0 being the least significant bit, bit value 1 meaning up;
  * open boundary conditions: a term at ``site`` couples ``site`` and
    ``site + 1``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

FLIP_KIND = "XX+YY"
ZZ_KIND = "ZZ"
TERM_KINDS = (FLIP_KIND, ZZ_KIND)

# 2**14 is the largest dense Hermitian solve treated as desk-scale.
DENSE_SITE_CAP = 14

# Single-site operators in basis order (down, up).
_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128)
_SZ = np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=np.complex128)
# Two-site bond operators on sites (site + 1, site), site varying fastest.
# Both are real (every imaginary part is exactly 0), so the oracle is float64.
_ZZ_PAIR = np.kron(_SZ, _SZ).real
_FLIP_PAIR = (np.kron(_SX, _SX) + np.kron(_SY, _SY)).real


@dataclass(frozen=True)
class CouplingTerm:
    """One nearest-neighbour bond: ``kind`` coupling sites (site, site+1)."""

    kind: str
    site: int
    coefficient: float

    def __post_init__(self) -> None:
        if self.kind not in TERM_KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}; expected one of {TERM_KINDS}")
        if self.site < 0:
            raise ValueError(f"site must be >= 0, got {self.site}")
        coefficient = float(self.coefficient)
        if not math.isfinite(coefficient):
            raise ValueError(f"coefficient must be finite, got {coefficient!r}")
        object.__setattr__(self, "coefficient", coefficient)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ordered list of two-site coupling terms plus a constant offset.

    Term order is preserved exactly; incremental experiments append terms
    one at a time and rely on that ordering.
    """

    length: int
    terms: tuple[CouplingTerm, ...] = ()
    constant: float = 0.0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        terms = tuple(self.terms)
        for t in terms:
            if t.site > self.length - 2:
                raise ValueError(
                    f"term at site {t.site} does not fit an open chain of "
                    f"{self.length} sites"
                )
        constant = float(self.constant)
        if not math.isfinite(constant):
            raise ValueError(f"constant must be finite, got {constant!r}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "constant", constant)

    @property
    def dim(self) -> int:
        return 2**self.length

    def add_term(self, term: CouplingTerm) -> HamiltonianSpec:
        """Return a new spec with ``term`` appended (order preserved). If
        this spec's oracle sum (:func:`sparse_matrix`) is built, the new spec
        keeps it until its own sum is built from it by adding one bond. A ZZ
        bond changes only the diagonal, so the new spec shares this spec's
        built kernel (see ``_kernel``), which holds the XX+YY bonds only."""
        spec = HamiltonianSpec(self.length, self.terms + (term,), self.constant)
        if "_sum" in self.__dict__:
            spec.__dict__["_parent_sum"] = self._sum
        if term.kind == ZZ_KIND and "_kernel" in self.__dict__:
            spec.__dict__["_kernel"] = self._kernel
        return spec

    @property
    def norm_bound(self) -> float:
        """Upper bound on the operator norm of H: |constant| plus 0.5|c| per
        XX+YY bond and 0.25|c| per ZZ bond. A bound that overflows to inf is
        refused, since no Krylov coefficient of such a chain is finite."""
        bound = abs(self.constant) + sum(
            (0.25 if term.kind == ZZ_KIND else 0.5) * abs(term.coefficient)
            for term in self.terms
        )
        if bound == math.inf:
            raise ValueError(
                f"the norm bound of the {self.length}-site chain overflows to inf")
        return bound

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Read-only ``(dim,)`` diagonal of H, built on first use and kept
        with the spec: the constant, then each ZZ bond's +coefficient/4 on
        parallel and -coefficient/4 on antiparallel spins, added in spec
        order through strided views of the bond's two basis bits (see
        ``_bond_shape``). Only the fields enter equality and hashing, so the
        kept array changes neither.
        """
        diagonal = np.full(self.dim, self.constant)
        for term in self.terms:
            if term.kind == ZZ_KIND:
                d4 = diagonal.reshape(_bond_shape(self.length, term.site))
                quarter = 0.25 * term.coefficient
                d4[:, ::3] += quarter
                d4[:, 1:3] -= quarter
        diagonal.flags.writeable = False
        return diagonal

    @cached_property
    def _kernel(self) -> sp.csr_matrix:
        """The CSR kernel of :func:`apply_to_array`, built on first use and
        kept: row x holds column ``x ^ (3 << site)`` with value
        coefficient/2 for each XX+YY bond antiparallel in x, in spec order,
        zero coefficients included. A kernel larger than physical memory is
        refused before anything is allocated (see :func:`check_kernel_fits`).
        Its arrays are read-only: summing its duplicate entries or sorting
        its rows would change the product's bits. It depends on the XX+YY
        bonds alone, so :meth:`add_term` hands it on with a ZZ bond."""
        import scipy.sparse as sp  # deferred: the first apply loads scipy.sparse

        nnz, index = check_kernel_fits(self)
        rows = np.arange(self.dim, dtype=index)
        flips = [term for term in self.terms if term.kind == FLIP_KIND]
        slot = np.zeros_like(rows)  # row lengths, then each row's next free entry
        for term in flips:
            slot += _antiparallel(rows, term.site)
        indptr = np.zeros(self.dim + 1, dtype=index)
        np.cumsum(slot, out=indptr[1:])
        slot[:] = indptr[:-1]
        indices = np.empty(nnz, dtype=index)
        data = np.empty(nnz)
        for term in flips:  # recomputed, so the build holds O(dim) besides the kernel
            flipping = np.flatnonzero(_antiparallel(rows, term.site))
            indices[slot[flipping]] = flipping ^ (3 << term.site)
            data[slot[flipping]] = 0.5 * term.coefficient
            slot[flipping] += 1
        data.flags.writeable = indices.flags.writeable = indptr.flags.writeable = False
        return sp.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim))

    @cached_property
    def _sum(self) -> sp.csr_matrix:
        """The fold of :func:`sparse_matrix`, built on first use and kept."""
        import scipy.sparse as sp  # deferred, as in _kernel

        mat = self.__dict__.pop("_parent_sum", None)  # see add_term
        terms = self.terms if mat is None else self.terms[-1:]
        if mat is None:
            mat = self.constant * sp.identity(self.dim, format="csr")
        for term in terms:  # in spec order
            mat = mat + term.coefficient * _bond(term.kind, term.site, self.length)
        return mat


_UP_CHARS = frozenset("uU↑")
_DOWN_CHARS = frozenset("dD↓")


@dataclass(frozen=True)
class ProductState:
    """Definite spin per site; converts to a single-basis-state vector."""

    pattern: tuple[str, ...]  # "u" or "d" per site, site 0 first

    def __post_init__(self) -> None:
        norm = []
        for label in self.pattern:
            if label in _UP_CHARS:
                norm.append("u")
            elif label in _DOWN_CHARS:
                norm.append("d")
            else:
                raise ValueError(f"spin label {label!r} is not one of up/down")
        if not norm:
            raise ValueError("empty spin pattern")
        object.__setattr__(self, "pattern", tuple(norm))

    @classmethod
    def from_string(cls, text: str) -> ProductState:
        """Parse a compact pattern such as ``"uudd"``: one character per site,
        site 0 first, each ``u``, ``U`` or ``↑`` for up and ``d``, ``D`` or
        ``↓`` for down. Surrounding whitespace is ignored."""
        return cls(tuple(text.strip()))

    @property
    def length(self) -> int:
        return len(self.pattern)

    def basis_index(self) -> int:
        idx = 0
        for site, label in enumerate(self.pattern):
            if label == "u":
                idx |= 1 << site
        return idx

    def to_state_vector(self) -> np.ndarray:
        """The basis state as a real ``(2**length,)`` array."""
        amps = np.zeros(2 ** len(self.pattern))
        amps[self.basis_index()] = 1.0
        return amps


def build_xxz(length: int, j_xy: float, j_z: float) -> HamiltonianSpec:
    """Open XXZ chain: XX+YY bonds with j_xy and ZZ bonds with j_z.

    Zero-coefficient kinds are omitted, so ``j_z = 0`` yields the XY model.
    Terms are ordered kind-major, site-ascending.
    """
    if length < 2:
        raise ValueError(f"chain needs at least 2 sites, got {length}")
    terms: list[CouplingTerm] = []
    if j_xy != 0.0:
        terms.extend(CouplingTerm(FLIP_KIND, s, j_xy) for s in range(length - 1))
    if j_z != 0.0:
        terms.extend(CouplingTerm(ZZ_KIND, s, j_z) for s in range(length - 1))
    return HamiltonianSpec(length, tuple(terms))


def _bond_shape(length: int, site: int) -> tuple[int, int, int]:
    """Row shape that puts the two-bit state p = 2*b[site+1] + b[site] of a
    bond on sites (site, site+1) on the middle axis of a C-ordered array."""
    return (2 ** (length - site - 2), 4, 2**site)


def _antiparallel(rows: np.ndarray, site: int) -> np.ndarray:
    """1 where basis index ``rows`` has bits ``site`` and ``site + 1``
    unequal (the bond on those sites can flip them), else 0."""
    return ((rows >> site) ^ (rows >> (site + 1))) & 1


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_fits_memory(nbytes: int, what: str, remedy: str) -> int:
    """``nbytes``, the size of ``what``; more than physical memory is refused
    with a ValueError naming ``what``, so callers can check before
    allocating or drawing anything."""
    physical = _physical_memory()
    if nbytes > physical:
        raise ValueError(
            f"{what} needs {nbytes} bytes, more than the {physical} bytes of "
            f"physical memory; lower {remedy}"
        )
    return nbytes


def check_kernel_fits(spec: HamiltonianSpec) -> tuple[int, type]:
    """Entry count and index dtype of the spec's CSR kernel (see
    :func:`apply_to_array`), after refusing with a ValueError a kernel whose
    data, indices and row pointers would not fit in physical memory
    together with the spec's float64 diagonal. Allocates nothing. Every
    XX+YY bond is antiparallel in half the basis, so the kernel has
    flips * dim/2 entries; the indices are int32 below 2**31 entries and
    int64 from there on."""
    flips = sum(term.kind == FLIP_KIND for term in spec.terms)
    nnz = flips * (spec.dim // 2)
    index = np.int32 if nnz < 2**31 else np.int64
    width = np.dtype(index).itemsize
    _check_fits_memory(
        nnz * (8 + width) + (spec.dim + 1) * width + 8 * spec.dim,
        f"the Hamiltonian kernel of the {spec.length}-site chain ({nnz} "
        f"entries)", "the chain length or its number of XX+YY terms")
    return nnz, index


def apply_to_array(spec: HamiltonianSpec, amps: np.ndarray) -> np.ndarray:
    """H @ amps for a single vector (dim,) or stacked columns (dim, k).

    Each column takes two steps: the product with the spec's diagonal
    (``HamiltonianSpec._diagonal``: the constant plus every ZZ bond) is
    written to the output, and one product with the spec's CSR kernel of
    the XX+YY bonds (``HamiltonianSpec._kernel``, built on the first call
    and kept with the spec) adds to it. Row x of the kernel holds one entry
    per XX+YY bond that is antiparallel in x, in spec order: a bond on
    sites (i, i+1) swaps the antiparallel pairs of bits i and i+1 with
    amplitude coefficient/2.

    The row loop of ``scipy.sparse`` (``_sparsetools``) walks each row in
    that order, adding each product to a running sum without fused
    multiply-adds, so every output element is the diagonal product plus
    each flip product in spec order, rounded once per operation: the bits
    of one diagonal pass followed by one strided update per bond. The loop
    is called directly so that each row's sum starts from the diagonal
    product.

    Columns are applied one at a time, each as a contiguous vector, so the
    bits do not depend on the layout. The output has the input's layout: an
    F-ordered stack, such as the transposed rows of a Krylov basis, gives an
    F-ordered product with no copy of either, and a C-ordered stack a
    C-ordered one; any other input gives an F-ordered product. A C-ordered
    stack costs a copy of each column and of the output, about twice the
    time of an F-ordered one. The input is cast to float64 or complex128
    and never written. A complex input is multiplied by a complex copy of
    the kernel's values, made once per call.
    """
    from scipy.sparse import _sparsetools  # deferred, as in HamiltonianSpec._kernel

    dim = spec.dim
    if amps.shape[0] != dim:
        raise ValueError(f"vector of dimension {amps.shape[0]} does not match 2**{spec.length}")
    kernel, diagonal = spec._kernel, spec._diagonal
    dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
    columns = amps.reshape(dim, -1).T
    rows = np.empty(columns.shape, dtype)
    values = kernel.data.astype(dtype, copy=False)
    for x, y in zip(columns, rows):
        x = np.ascontiguousarray(x, dtype=dtype)  # no copy for an F-ordered column
        np.multiply(diagonal, x, out=y)
        _sparsetools.csr_matvec(dim, dim, kernel.indptr, kernel.indices, values, x, y)
    return np.asarray(rows.T.reshape(amps.shape),
                      order="C" if amps.flags.c_contiguous else "F")


def _bond(kind: str, site: int, length: int) -> sp.csr_matrix:
    """The unit-coefficient bond ``I_hi (x) pair (x) I_lo`` on sites (site,
    site+1), hi = 2**(length-site-2) and lo = 2**site, written directly as
    CSR arrays by Kronecker index arithmetic.

    Row (h, p, l), index (4h + p) * lo + l, holds column (h, q, l) with
    value ``pair[p, q]`` for each nonzero ``pair[p, q]``. No row of either
    pair holds more than one, so no bond row does and every row is sorted.
    The arrays are those of ``scipy.sparse.kron(kron(I_hi, pair), I_lo,
    format="csr")``, dtypes included, without its COO round trip. Only the
    pair's indices and values enter, never the kernel's basis bits."""
    import scipy.sparse as sp  # deferred, as in HamiltonianSpec._sum

    pair = _ZZ_PAIR if kind == ZZ_KIND else _FLIP_PAIR
    hi, lo = 2 ** (length - site - 2), 2**site
    dim = 4 * hi * lo
    index = np.int32 if dim < 2**31 else np.int64
    p, q = np.nonzero(pair)  # row-major: ascending p, at most one entry per p
    per_row = np.zeros((1, 4, 1), dtype=index)
    per_row[0, p] = 1
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(np.broadcast_to(per_row, (hi, 4, lo)), out=indptr[1:])
    indices = (np.arange(0, dim, 4 * lo, dtype=index)[:, None, None]
               + (q * lo).astype(index)[:, None] + np.arange(lo, dtype=index))
    data = np.repeat(np.tile(pair[p, q], hi), lo)
    return sp.csr_matrix((data, indices.ravel(), indptr), shape=(dim, dim))


def sparse_matrix(spec: HamiltonianSpec) -> sp.csr_matrix:
    """Sparse 2**L x 2**L assembly from explicit Kronecker products.

    Deliberately independent of :func:`apply_to_array`: each bond is a
    two-site product of single-site Sx, Sy, Sz matrices between identities,
    embedded by Kronecker index arithmetic (:func:`_bond`), not the
    kernel's bit-arithmetic rows, so the two routes cross-validate each
    other. The sum is a float64 fold in spec order, ``constant * I`` then
    ``mat + coefficient * bond`` per term.

    The sum is built once per spec and kept with it, like the spec's
    diagonal. A spec made by :meth:`HamiltonianSpec.add_term` from a spec
    whose sum is built starts from that sum and adds one bond: the same
    fold, so the same sum bit for bit. The returned matrix is the kept one;
    do not modify it in place.
    """
    return spec._sum


def _check_dense_size(spec: HamiltonianSpec) -> None:
    if spec.length > DENSE_SITE_CAP:
        raise ValueError(
            f"dense assembly capped at {DENSE_SITE_CAP} sites, got {spec.length}"
        )


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense float64 form of :func:`sparse_matrix`, capped at ``DENSE_SITE_CAP``."""
    _check_dense_size(spec)
    return sparse_matrix(spec).toarray()


def exact_diagonalize(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray]:
    """Full dense spectrum: ascending eigenvalues and the float64 ``(dim, dim)``
    array of orthonormal eigenvector columns.

    The reference oracle for every solver in this package. Capped at
    ``DENSE_SITE_CAP`` sites.
    """
    return np.linalg.eigh(dense_matrix(spec))


def eigenvalues(spec: HamiltonianSpec) -> np.ndarray:
    """Ascending dense spectrum without eigenvectors (cheaper)."""
    return np.linalg.eigvalsh(dense_matrix(spec))


def ground_state(spec: HamiltonianSpec) -> tuple[float, np.ndarray]:
    """Lowest eigenpair: the energy and the normalized float64 ``(dim,)`` state.

    ARPACK's implicitly restarted Lanczos (Lehoucq, Sorensen & Yang,
    *ARPACK Users' Guide*, SIAM 1998) on the Kronecker sum of
    :func:`sparse_matrix`, started from a fixed-seed vector so that earlier
    ARPACK calls cannot change it. Each ARPACK product runs the row loop
    that ``sum @ x`` runs, ``_sparsetools.csr_matvec`` on the sum's arrays
    into a zeroed float64 vector, called directly to skip scipy's per-call
    sparse dispatch: the same bits as ``eigsh(sparse_matrix(spec), ...)``.
    Capped at ``DENSE_SITE_CAP`` sites. A spec whose terms are all zero is
    ``constant * I`` (ARPACK rejects the zero matrix): it gets ``constant``
    and basis state 0, as dense eigh does, without assembling the matrix. An
    ARPACK failure, such as a matrix whose finite couplings overflow, is
    raised as a ValueError."""
    from scipy.sparse import _sparsetools  # deferred, as in sparse_matrix
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    _check_dense_size(spec)
    if not any(term.coefficient for term in spec.terms):
        return spec.constant, np.eye(1, spec.dim)[0]
    dim, mat = spec.dim, sparse_matrix(spec)

    def product(x: np.ndarray) -> np.ndarray:
        y = np.zeros(dim)
        _sparsetools.csr_matvec(dim, dim, mat.indptr, mat.indices, mat.data, x, y)
        return y

    v0 = np.random.default_rng(0).standard_normal(dim)
    try:
        vals, vecs = eigsh(LinearOperator(mat.shape, matvec=product, dtype=np.float64),
                           k=1, which="SA", v0=v0, tol=0.0)
    except ArpackError as err:
        raise ValueError(
            f"no ground state of the {spec.length}-site chain with "
            f"{len(spec.terms)} terms: {err}") from err
    return float(vals[0]), vecs[:, 0]


def ground_energy(spec: HamiltonianSpec) -> float:
    """Lowest eigenvalue; see :func:`ground_state`."""
    return ground_state(spec)[0]


def xy_analytic_ground_energy(length: int, j_xy: float) -> float:
    """Free-fermion ground energy of the open XY chain.

    Sum of the negative single-particle energies
    e_k = j_xy * cos(k*pi/(L+1)), k = 1..L. Independent of every other
    routine here; used to cross-check the dense oracle.
    """
    if length < 2:
        raise ValueError(f"chain needs at least 2 sites, got {length}")
    if j_xy <= 0.0:
        raise ValueError(f"j_xy must be positive, got {j_xy}")
    total = 0.0
    for k in range(1, length + 1):
        e_k = j_xy * math.cos(k * math.pi / (length + 1))
        total += min(0.0, e_k)
    return total


def random_state_vector(
    length: int, rng: np.random.Generator, complex_amplitudes: bool = False
) -> np.ndarray:
    """Normalized random ``(2**length,)`` state, Gaussian amplitudes (real
    unless requested)."""
    dim = 2**length
    amps = rng.standard_normal(dim)
    if complex_amplitudes:
        amps = amps + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)
