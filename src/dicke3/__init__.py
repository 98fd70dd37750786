"""Exact diagonalization of three-level collective atom-field models.

Builds the ladder, lambda and V configuration Hamiltonians on a truncated
occupation basis, applies the level-decoupling rotations, and provides
ground-state observables, fidelity-based phase-diagram scans, and the
store/retrieve qubit-exchange procedure.
"""

from .basis import (
    BasisSet,
    BasisState,
    DimensionLimitError,
    LevelSector,
    basis_dimension,
    enumerate_basis,
    fixed_level_sector,
    index_of,
)
from .operators import (
    Configuration,
    OperatorMatrix,
    boson_annihilate,
    boson_create,
    collective_A,
    excitation_number,
    parity,
)
from .model import (
    ModelConfig,
    RotatedParameters,
    build_effective_two_level,
    build_frame_hamiltonian,
    build_hamiltonian,
    build_rotated_hamiltonian,
    detuning,
    effective_coupling,
    rotated_parameters,
    with_couplings,
)
from .rotations import (
    Branch,
    RotationSpec,
    UndefinedAngleError,
    decoupling_angle,
    decoupling_rotation,
    generator_K,
    plane_rotation,
    rotate_amplitudes,
    rotation_matrix,
    rotation_pair,
    transform_exact,
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
    expectation,
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
    scan_line,
    scan_ray,
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
