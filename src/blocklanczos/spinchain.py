"""Spin-1/2 open-chain Hamiltonians on a bit-encoded basis.

Provides matrix-free application of nearest-neighbour XXZ-type couplings,
a sparse Kronecker-product assembly as the reference oracle (ARPACK ground
state, dense full spectra), and the closed-form free-fermion ground energy
of the open XY chain as an independent cross-check.

The matrix-free kernel needs no index arrays: a bond on sites (i, i+1)
acts only on bits i and i+1 of the basis index, so reshaping the rows of a
C-ordered array to ``(2**(L-i-2), 4, 2**i)`` exposes the bond's four
two-spin states as plain strided slices, and each term is one or two
in-place slice updates (Sandvik, arXiv:1101.3281, section 4). Input in
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

import json
import math
from dataclasses import dataclass
from pathlib import Path
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
_ZZ_PAIR = np.kron(_SZ, _SZ)
_FLIP_PAIR = np.kron(_SX, _SX) + np.kron(_SY, _SY)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the 2**length spin-configuration basis.

    Parameters
    ----------
    length : int
        Number of lattice sites L.
    amplitudes : ndarray
        Array of 2**L complex amplitudes, indexed by the bit-encoded
        configuration (bit i = spin at site i, 1 = up).
    """

    length: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.length,):
            raise ValueError(
                f"amplitude array of shape {np.shape(self.amplitudes)} does not "
                f"match 2**{self.length} basis states"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: StateVector) -> complex:
        """<self|other> with conjugation on the left argument."""
        if other.length != self.length:
            raise ValueError("site counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def normalized(self) -> StateVector:
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.length, self.amplitudes / n)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def require_normalized(self, tol: float = 1e-12) -> None:
        if not self.is_normalized(tol):
            raise ValueError(f"state not normalized: |v| = {self.norm()!r}")


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
        object.__setattr__(self, "coefficient", float(self.coefficient))


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
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def dim(self) -> int:
        return 2**self.length

    def add_term(self, term: CouplingTerm) -> HamiltonianSpec:
        """Return a new spec with ``term`` appended (order preserved)."""
        return HamiltonianSpec(self.length, self.terms + (term,), self.constant)

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "constant": self.constant,
            "terms": [
                {"kind": t.kind, "site": t.site, "coefficient": t.coefficient}
                for t in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> HamiltonianSpec:
        try:
            length = int(data["length"])
            constant = float(data["constant"])
            raw_terms = data["terms"]
        except KeyError as exc:
            raise ValueError(f"missing required field {exc.args[0]!r}") from exc
        terms = []
        for k, rec in enumerate(raw_terms):
            try:
                terms.append(
                    CouplingTerm(rec["kind"], int(rec["site"]), float(rec["coefficient"]))
                )
            except KeyError as exc:
                raise ValueError(
                    f"term {k}: missing required field {exc.args[0]!r}"
                ) from exc
        return cls(length, tuple(terms), constant)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> HamiltonianSpec:
        return cls.from_dict(json.loads(Path(path).read_text()))


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
        """Parse a compact pattern such as ``"uudd"`` or ``"<up><up><down><down>"``."""
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

    def total_sz(self) -> float:
        ups = sum(1 for s in self.pattern if s == "u")
        return 0.5 * ups - 0.5 * (len(self.pattern) - ups)

    def to_state_vector(self) -> StateVector:
        amps = np.zeros(2 ** len(self.pattern), dtype=np.complex128)
        amps[self.basis_index()] = 1.0
        return StateVector(len(self.pattern), amps)

    def __str__(self) -> str:
        return "".join("↑" if s == "u" else "↓" for s in self.pattern)


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


def apply_to_array(spec: HamiltonianSpec, amps: np.ndarray) -> np.ndarray:
    """H @ amps for a single vector (dim,) or stacked columns (dim, k).

    Matrix-free, through strided views: a bond on sites (i, i+1) reads bits
    i and i+1 of the basis index, so viewing the rows as
    ``(2**(L-i-2), 4, 2**i)`` puts the bond's two-bit state p = 2*b[i+1] +
    b[i] on the middle axis. ZZ adds +coefficient/4 times the amplitude at
    p = 0 and 3 (parallel spins) and -coefficient/4 at p = 1 and 2; XX+YY
    swaps the antiparallel pair p = 1 <-> 2 with amplitude coefficient/2.
    Every output element receives one product per term, added in spec
    order, with no index array.

    Input in any layout other than C order (an F-ordered stack, a
    transposed basis, a column-strided slice) is first copied to a C-ordered
    array, and ``out`` is allocated from that copy: every slice update then
    streams through contiguous rows, which measured faster than updating
    strided views of the input even with the copy, and ``out`` is always
    C-ordered. The input is never written.
    """
    dim = spec.dim
    if amps.shape[0] != dim:
        raise ValueError(f"vector of dimension {amps.shape[0]} does not match 2**{spec.length}")
    a = np.ascontiguousarray(amps)
    out = spec.constant * a if spec.constant != 0.0 else np.zeros_like(a)
    for term in spec.terms:
        shape = (2 ** (spec.length - term.site - 2), 4, 2**term.site) + a.shape[1:]
        a4, o4 = a.reshape(shape), out.reshape(shape)
        if term.kind == ZZ_KIND:
            quarter = 0.25 * term.coefficient
            o4[:, ::3] += quarter * a4[:, ::3]
            o4[:, 1:3] += -quarter * a4[:, 1:3]
        else:
            o4[:, 1:3] += (0.5 * term.coefficient) * a4[:, 2:0:-1]
    return out


def apply_hamiltonian(spec: HamiltonianSpec, v: StateVector) -> StateVector:
    """Return H|v> computed matrix-free; linear and Hermitian by construction."""
    if v.length != spec.length:
        raise ValueError(f"state has {v.length} sites but spec has {spec.length}")
    return StateVector(spec.length, apply_to_array(spec, v.amplitudes))


def sparse_matrix(spec: HamiltonianSpec) -> sp.csr_matrix:
    """Sparse 2**L x 2**L assembly from explicit Kronecker products.

    Deliberately independent of :func:`apply_to_array`: each bond is a
    two-site product of single-site Sx, Sy, Sz matrices between identities,
    not strided views of the basis bits, so the two routes cross-validate
    each other.
    """
    import scipy.sparse as sp  # deferred: only the oracle loads scipy.sparse

    mat = spec.constant * sp.identity(spec.dim, dtype=np.complex128, format="csr")
    for term in spec.terms:  # in spec order
        pair = _ZZ_PAIR if term.kind == ZZ_KIND else _FLIP_PAIR
        above = sp.identity(2 ** (spec.length - term.site - 2))
        bond = sp.kron(sp.kron(above, pair), sp.identity(2**term.site), format="csr")
        mat = mat + term.coefficient * bond
    return mat


def _oracle_matrix(spec: HamiltonianSpec) -> sp.csr_matrix:
    """:func:`sparse_matrix` under ``DENSE_SITE_CAP``, real when it can be."""
    if spec.length > DENSE_SITE_CAP:
        raise ValueError(
            f"dense assembly capped at {DENSE_SITE_CAP} sites, got {spec.length}"
        )
    mat = sparse_matrix(spec)
    return mat if mat.data.imag.any() else mat.real


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense complex form of :func:`sparse_matrix`, capped at ``DENSE_SITE_CAP``."""
    return _oracle_matrix(spec).toarray().astype(np.complex128)


def exact_diagonalize(spec: HamiltonianSpec) -> tuple[np.ndarray, list[StateVector]]:
    """Full dense spectrum: (ascending eigenvalues, orthonormal eigenvectors).

    The reference oracle for every solver in this package. Capped at
    ``DENSE_SITE_CAP`` sites.
    """
    values, vectors = np.linalg.eigh(_oracle_matrix(spec).toarray())
    states = [StateVector(spec.length, vectors[:, k]) for k in range(vectors.shape[1])]
    return values, states


def eigenvalues(spec: HamiltonianSpec) -> np.ndarray:
    """Ascending dense spectrum without eigenvectors (cheaper)."""
    return np.linalg.eigvalsh(_oracle_matrix(spec).toarray())


def _lowest_eigenpair(spec: HamiltonianSpec) -> tuple[float, np.ndarray]:
    """ARPACK's implicitly restarted Lanczos on the sparse assembly, started
    from a fixed-seed vector so that earlier ARPACK calls cannot change it.
    A spec whose terms are all zero is ``constant * I`` (ARPACK rejects the
    zero matrix): it gets ``constant`` and basis state 0, as dense eigh does."""
    from scipy.sparse.linalg import eigsh  # deferred, as in sparse_matrix

    mat = _oracle_matrix(spec)
    if not any(term.coefficient for term in spec.terms):
        return spec.constant, np.eye(1, spec.dim)[0]
    v0 = np.random.default_rng(0).standard_normal(spec.dim)
    vals, vecs = eigsh(mat, k=1, which="SA", v0=v0, tol=0.0)
    return float(vals[0]), vecs[:, 0]


def ground_energy(spec: HamiltonianSpec) -> float:
    """Lowest eigenvalue; see :func:`_lowest_eigenpair`."""
    return _lowest_eigenpair(spec)[0]


def ground_state(spec: HamiltonianSpec) -> tuple[float, StateVector]:
    """Lowest eigenpair; see :func:`_lowest_eigenpair`."""
    energy, amps = _lowest_eigenpair(spec)
    return energy, StateVector(spec.length, amps)


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
) -> StateVector:
    """Normalized random state, Gaussian amplitudes (real unless requested)."""
    dim = 2**length
    amps = rng.standard_normal(dim)
    if complex_amplitudes:
        amps = amps + 1j * rng.standard_normal(dim)
    return StateVector(length, amps).normalized()
