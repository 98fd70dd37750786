"""Exact diagonalization of three-level collective atom-field models.

Builds the ladder, lambda and V configuration Hamiltonians on a truncated
occupation basis, applies the level-decoupling rotations, and provides
ground-state observables, fidelity-based phase-diagram scans, and the
store/retrieve qubit-exchange procedure.
"""

import os

# Every solve is too small for a second BLAS thread, which only spin-waits.
# OpenBLAS reads these once, when numpy loads it, so they are set before the
# first import below; a value already in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .basis import (
    BasisSet,
    BasisState,
    DimensionLimitError,
    basis_dimension,
    enumerate_basis,
    index_of,
)
from .operators import BlockHamiltonian, Configuration, OperatorMatrix
from .model import (
    ModelConfig,
    RotatedParameters,
    build_hamiltonian,
    detuning,
    rotated_parameters,
    with_couplings,
)
from .rotations import (
    Branch,
    UndefinedAngleError,
    decoupling_angle,
    rotate_amplitudes,
    transform_generator_closed_form,
)
from .solver import (
    NonConvergenceError,
    QuantumState,
    Spectrum,
    converge_cutoff,
    converged_ground_state,
    diagonalize,
    evolve,
    ground_state,
    populations,
)
from .analysis import (
    PhaseDiagram,
    RaySweep,
    dalpha_dmu,
    fidelity,
    fidelity_rot_second_order,
    fidelity_rotated_exact,
    phase_diagram,
    ray_pencil,
    separatrix_lambda,
    separatrix_v,
    separatrix_xi,
)
from .protocol import (
    QubitContent,
    RabiSeries,
    classical_bit,
    content_overlap,
    rabi_demo,
    retrieve,
    store,
)

__version__ = "0.1.0"
