"""Independent reference spectra for the benchmark's correctness checks.

Chain Hamiltonians are assembled here from ``scipy.sparse.kron`` products of
the single-site spin matrices Sx, Sy and Sz and solved with ``eigsh``. No
code of the package under test is used, so these values check its
bit-manipulation operator and its dense oracle alike.

Conventions match the package: S = sigma / 2, site 0 is the least
significant bit, open chain, a bond ``b`` couples sites b and b + 1, an
"XX+YY" bond is j * (SxSx + SySy) and a "ZZ" bond is j * SzSz.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

_SX = sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
_ISY = sp.csr_matrix(np.array([[0.0, 0.5], [-0.5, 0.0]]))  # i * Sy, real
_SZ = sp.csr_matrix(np.array([[-0.5, 0.0], [0.0, 0.5]]))


def bond_operator(length: int, bond: int, single: sp.csr_matrix) -> sp.csr_matrix:
    """``single`` on sites bond and bond + 1, identity elsewhere."""
    ops = [single if site in (bond, bond + 1) else sp.identity(2, format="csr")
           for site in range(length)]
    mat = sp.identity(1, format="csr")
    for op in reversed(ops):  # highest site first: site 0 varies fastest
        mat = sp.kron(mat, op, format="csr")
    return mat


def flip_bond(length: int, bond: int) -> sp.csr_matrix:
    # SySy = -(i Sy)(i Sy), which keeps the assembly real
    return bond_operator(length, bond, _SX) - bond_operator(length, bond, _ISY)


def zz_bond(length: int, bond: int) -> sp.csr_matrix:
    return bond_operator(length, bond, _SZ)


def lowest(mat: sp.csr_matrix, k: int) -> np.ndarray:
    """The ``k`` lowest eigenvalues, ascending, to machine precision."""
    v0 = np.random.default_rng(20210929).standard_normal(mat.shape[0])
    return np.sort(eigsh(mat, k=k, which="SA", v0=v0, tol=0.0,
                         return_eigenvectors=False))


def xxz_levels(length: int, j_xy: float, j_z: float, k: int) -> np.ndarray:
    """Lowest ``k`` levels of the open XXZ chain."""
    mat = sum(j_xy * flip_bond(length, b) + j_z * zz_bond(length, b)
              for b in range(length - 1))
    return lowest(mat, k)


def ramp_ground_energies(length: int, j_xy: float, j_z: float) -> list[float]:
    """Exact ground energy after each ramp stage: the flip-flop chain plus
    ZZ bonds 0..k-1 at full strength, for k = 1 .. length - 1."""
    mat = sum(j_xy * flip_bond(length, b) for b in range(length - 1))
    energies = []
    for b in range(length - 1):
        mat = mat + j_z * zz_bond(length, b)
        energies.append(float(lowest(mat, 1)[0]))
    return energies
