"""Information exchange between the two effective qubits of a rotated frame.

Storing applies the first decoupling rotation to a state, leaving a two-level
(qubit) subsystem plus an isolated level; retrieving switches to the second
frame, where the qubit sits on a different level pair but carries the same
coefficient table.  At equal detuning the isolated level stays strictly
empty, the switch is lossless, and the occupation of the bypassed level works
as a classical presence/absence bit.  The ladder configuration has no
decoupled level and is rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisState, enumerate_basis, index_of
from .model import ModelConfig, build_hamiltonian, rotated_parameters
from .operators import Configuration
from .rotations import Branch, decoupling_angle, rotate_amplitudes
from .solver import QuantumState, diagonalize, evolve, populations


class DetuningWarning(UserWarning):
    """Levels are not equally detuned; isolation is approximate."""


@dataclass(frozen=True)
class QubitContent:
    """Coefficient table of the qubit subsystem in a decoupled frame.

    ``coefficients[nu, n]`` is the amplitude of the state with nu photons and
    n atoms in the first level of ``pair``, within the sector whose isolated
    level is empty.  The table sums to unit weight exactly when that sector
    carries all the probability.
    """

    pair: tuple[int, int]
    isolated_level: int
    coefficients: np.ndarray
    sector_weight: float
    isolated_population: float
    detuned: bool


def _extract_content(
    state: QuantumState, pair: tuple[int, int], isolated: int, detuned: bool
) -> QubitContent:
    basis = state.basis
    table = np.zeros((basis.nmax + 1, basis.na + 1), dtype=complex)
    # (nu, n_pair[0]) fixes a state with the isolated level empty, so no cell
    # is written twice
    counts = basis.level_counts
    sector = counts[:, isolated - 1] == 0
    table[basis.photon_numbers[sector], counts[sector, pair[0] - 1]] = state.amplitudes[sector]
    table.setflags(write=False)
    weight = float(np.sum(np.abs(table) ** 2))
    pops = populations(state)
    return QubitContent(
        pair=pair,
        isolated_level=isolated,
        coefficients=table,
        sector_weight=weight,
        isolated_population=pops[isolated - 1],
        detuned=detuned,
    )


def store(config: ModelConfig, state: QuantumState) -> tuple[QuantumState, QubitContent]:
    """Rotate into the first decoupled frame and read off the qubit table.

    For a ground state at equal detuning the isolated level population of
    the output vanishes; off detuning the operation proceeds with a warning
    and reports the residual population.
    """
    return _switch_frame(config, state, None, Branch.FIRST)


def retrieve(config: ModelConfig, stored: QuantumState) -> tuple[QuantumState, QubitContent]:
    """Switch a stored state to the second decoupled frame.

    The two frames share one rotation generator, so the switch is the single
    rotation by the angle difference; the qubit content moves to the (1, 3)
    pair with the second frame's isolated level emptied.
    """
    return _switch_frame(config, stored, Branch.FIRST, Branch.SECOND)


def _switch_frame(
    config: ModelConfig, state: QuantumState, source: Branch | None, target: Branch
) -> tuple[QuantumState, QubitContent]:
    """Rotate ``state`` from the ``source`` frame (None: unrotated) into ``target``."""
    if config.cfg is Configuration.XI:
        raise ValueError(
            "the ladder configuration has no isolated level; store/retrieve "
            "needs the lambda or V configuration"
        )
    detuned = not config.equal_detuning()
    if detuned:
        warnings.warn(
            f"one-body gap {config.one_body_gap:g} != 0: the isolated level "
            "population is only approximately zero",
            DetuningWarning,
            stacklevel=3,
        )
    alpha_source = 0.0 if source is None else decoupling_angle(config, source)
    params = rotated_parameters(config, target)
    amplitudes = rotate_amplitudes(config.cfg, params.alpha - alpha_source, state.amplitudes, state.basis)
    switched = QuantumState(amplitudes, state.basis)
    content = _extract_content(switched, params.coupled_pair, params.isolated_level, detuned)
    return switched, content


def content_overlap(a: QubitContent, b: QubitContent) -> float:
    """Squared overlap of two qubit tables, each normalized as a state."""
    if a.coefficients.shape != b.coefficients.shape:
        raise ValueError(
            f"content tables have different shapes: {a.coefficients.shape} "
            f"vs {b.coefficients.shape}"
        )
    na_ = np.linalg.norm(a.coefficients)
    nb = np.linalg.norm(b.coefficients)
    if na_ == 0.0 or nb == 0.0:
        raise ValueError("cannot overlap an empty content table")
    z = np.vdot(a.coefficients, b.coefficients)
    return float(np.abs(z) ** 2 / (na_**2 * nb**2))


def classical_bit(state: QuantumState, level: int, threshold: float | None = None) -> int:
    """1 if the level population exceeds the threshold, else 0."""
    if threshold is None:
        threshold = 1e-6 * state.basis.na
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    return int(populations(state)[level - 1] > threshold)


@dataclass(frozen=True)
class RabiSeries:
    """Populations over time in the stored frame and after the frame switch.

    Columns are (<A11>, <A22>, <A33>, <n>) at each time.
    """

    times: np.ndarray
    stored: np.ndarray
    switched: np.ndarray


def rabi_demo(config: ModelConfig, nu0: int, t_grid) -> RabiSeries:
    """Single-atom oscillation demo in the stored frame.

    Prepares |nu0; one atom in the top level, isolated level empty> and
    evolves it under the first-frame Hamiltonian: the isolated-level
    population stays zero for all times, and after switching frames the
    newly isolated level is the empty one.  Requires the equal-detuning
    lambda configuration with a single atom.
    """
    if config.cfg is not Configuration.LAMBDA:
        raise ValueError("the oscillation demo runs in the lambda configuration")
    if config.na != 1:
        raise ValueError("the oscillation demo is a single-atom setup")
    if not config.equal_detuning():
        raise ValueError("the oscillation demo requires equal detuning")
    basis = enumerate_basis(config.na, config.nmax)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[index_of(basis, BasisState(nu0, 0, 0, 1))] = 1.0
    psi0 = QuantumState(amps, basis)

    spectrum = diagonalize(build_hamiltonian(config, basis, Branch.FIRST), basis)
    alpha_store = decoupling_angle(config, Branch.FIRST)
    alpha_retrieve = decoupling_angle(config, Branch.SECOND)

    times = np.asarray(t_grid, dtype=float)
    states = evolve(spectrum, psi0, times)
    stored = np.array([populations(psi_t) for psi_t in states]).reshape(-1, 4)
    # one rotation switches the states of every time
    evolved = np.array([psi_t.amplitudes for psi_t in states]).reshape(-1, basis.dim)
    after_switch = rotate_amplitudes(config.cfg, alpha_retrieve - alpha_store, evolved, basis)
    switched = np.array([populations(QuantumState(psi, basis)) for psi in after_switch]).reshape(-1, 4)
    return RabiSeries(times, stored, switched)
