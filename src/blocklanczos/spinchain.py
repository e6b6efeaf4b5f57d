"""Spin-1/2 open-chain Hamiltonians on a bit-encoded basis.

Provides matrix-free application of nearest-neighbour XXZ-type couplings,
a sparse Kronecker-product assembly as the reference oracle (ARPACK ground
state, dense full spectra), and the closed-form free-fermion ground energy
of the open XY chain as an independent cross-check. Every coupling is real,
so the oracle is float64 throughout: its two bond operators are built from
the complex single-site Sx, Sy, Sz and keep only their (exact) real parts.

The matrix-free kernel splits H into its diagonal and its spin flips, the
standard exact-diagonalization layout (Sandvik, arXiv:1101.3281, section 4).
The constant and every ZZ bond form one fixed diagonal, which each spec
builds once, on first use, and keeps as a read-only array. The flips need
no index arrays: a bond on sites (i, i+1) acts only on bits i and i+1 of
the basis index, so reshaping the rows of a C-ordered array to
``(2**(L-i-2), 4, 2**i)`` exposes the bond's four two-spin states as plain
strided slices, and each XX+YY term is one in-place slice update. Input in
another memory layout is copied to C order first (see
:func:`apply_to_array`).

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
        keeps it until its own sum is built from it by adding one bond."""
        spec = HamiltonianSpec(self.length, self.terms + (term,), self.constant)
        if "_sum" in self.__dict__:
            spec.__dict__["_parent_sum"] = self._sum
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
        order through the strided views of :func:`apply_to_array`. Only the
        fields enter equality and hashing, so the kept array changes neither.
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
    def _sum(self) -> sp.csr_matrix:
        """The fold of :func:`sparse_matrix`, built on first use and kept."""
        import scipy.sparse as sp  # deferred: only the oracle loads scipy.sparse

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


def apply_to_array(spec: HamiltonianSpec, amps: np.ndarray) -> np.ndarray:
    """H @ amps for a single vector (dim,) or stacked columns (dim, k).

    Matrix-free, in two stages. First ``out`` is the spec's diagonal (the
    constant plus every ZZ bond, see ``HamiltonianSpec._diagonal``) times
    the amplitudes, broadcast over the columns. Then the XX+YY terms are
    added in spec order through strided views: a bond on sites (i, i+1)
    reads bits i and i+1 of the basis index, so viewing the rows as
    ``(2**(L-i-2), 4, 2**i)`` puts the bond's two-bit state p = 2*b[i+1] +
    b[i] on the middle axis, and the term swaps the antiparallel pair
    p = 1 <-> 2 with amplitude coefficient/2. Each output element thus gets
    one diagonal product and then one product per flip term, in spec order,
    with no index array.

    Input in any layout other than C order (an F-ordered stack, a
    transposed basis, a column-strided slice) is first copied to a C-ordered
    array, and ``out`` is computed from that copy: every slice update then
    streams through contiguous rows, which measured faster than updating
    strided views of the input even with the copy, and ``out`` is always
    C-ordered. The input is never written.
    """
    dim = spec.dim
    if amps.shape[0] != dim:
        raise ValueError(f"vector of dimension {amps.shape[0]} does not match 2**{spec.length}")
    a = np.ascontiguousarray(amps)
    out = spec._diagonal.reshape((dim,) + (1,) * (a.ndim - 1)) * a
    for term in spec.terms:
        if term.kind == FLIP_KIND:
            shape = _bond_shape(spec.length, term.site) + a.shape[1:]
            a4, o4 = a.reshape(shape), out.reshape(shape)
            o4[:, 1:3] += (0.5 * term.coefficient) * a4[:, 2:0:-1]
    return out


def _bond(kind: str, site: int, length: int) -> sp.csr_matrix:
    """The unit-coefficient bond ``I (x) pair (x) I`` on sites (site, site+1)."""
    import scipy.sparse as sp  # deferred, as in HamiltonianSpec._sum

    pair = _ZZ_PAIR if kind == ZZ_KIND else _FLIP_PAIR
    above = sp.identity(2 ** (length - site - 2))
    return sp.kron(sp.kron(above, pair), sp.identity(2**site), format="csr")


def sparse_matrix(spec: HamiltonianSpec) -> sp.csr_matrix:
    """Sparse 2**L x 2**L assembly from explicit Kronecker products.

    Deliberately independent of :func:`apply_to_array`: each bond is a
    two-site product of single-site Sx, Sy, Sz matrices between identities,
    not strided views of the basis bits, so the two routes cross-validate
    each other. The sum is a float64 fold in spec order, ``constant * I``
    then ``mat + coefficient * bond`` per term.

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

    ARPACK's implicitly restarted Lanczos on the sparse assembly, started
    from a fixed-seed vector so that earlier ARPACK calls cannot change it.
    Capped at ``DENSE_SITE_CAP`` sites. A spec whose terms are all zero is
    ``constant * I`` (ARPACK rejects the zero matrix): it gets ``constant``
    and basis state 0, as dense eigh does, without assembling the matrix. An
    ARPACK failure, such as a matrix whose finite couplings overflow, is
    raised as a ValueError."""
    from scipy.sparse.linalg import ArpackError, eigsh  # deferred, as in sparse_matrix

    _check_dense_size(spec)
    if not any(term.coefficient for term in spec.terms):
        return spec.constant, np.eye(1, spec.dim)[0]
    v0 = np.random.default_rng(0).standard_normal(spec.dim)
    try:
        vals, vecs = eigsh(sparse_matrix(spec), k=1, which="SA", v0=v0, tol=0.0)
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
