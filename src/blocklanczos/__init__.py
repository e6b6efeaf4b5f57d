"""Scalar and block Lanczos eigensolvers for spin-1/2 chains.

Subpackages by role:

* :mod:`blocklanczos.spinchain` - chain Hamiltonians, their bit-built CSR kernel,
  dense exact-diagonalization oracle, analytic XY cross-check.
* :mod:`blocklanczos.scalar` - the one coefficient type of all three
  recursions, the one Lanczos step loop and the Hermitian width-1 front
  end, tridiagonal eigensolve, eigenstate reconstruction.
* :mod:`blocklanczos.block` - the Hermitian width-d front end with deflation,
  the one block-tridiagonal assembly.
* :mod:`blocklanczos.nonhermitian` - two-sided biorthogonal block Lanczos for
  general square operators, the step loop's two-sided case.
* :mod:`blocklanczos.incremental` - interaction-ramping protocol: append bond
  terms (whole or in fractions) and re-solve with a few seeded Lanczos steps.
* :mod:`blocklanczos.noise` - coefficient-noise error study, shot-sampled
  coefficient study, auxiliary-register cost model.
* :mod:`blocklanczos.textio` - the CSV and matrix-section text formats of
  every artifact.
* :mod:`blocklanczos.cli` - config-driven command line runner.
"""

from blocklanczos.block import block_lanczos_run
from blocklanczos.incremental import run_incremental
from blocklanczos.noise import perturb_and_mae
from blocklanczos.nonhermitian import two_sided_block_run
from blocklanczos.scalar import lanczos_run
from blocklanczos.spinchain import (
    CouplingTerm,
    HamiltonianSpec,
    ProductState,
    build_xxz,
    exact_diagonalize,
    xy_analytic_ground_energy,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingTerm",
    "HamiltonianSpec",
    "ProductState",
    "block_lanczos_run",
    "build_xxz",
    "exact_diagonalize",
    "lanczos_run",
    "perturb_and_mae",
    "run_incremental",
    "two_sided_block_run",
    "xy_analytic_ground_energy",
    "__version__",
]
