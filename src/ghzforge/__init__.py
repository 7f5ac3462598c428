"""One-step GHZ-state generation for flux qubits in driven TLRs.

The package simulates a geometric-phase entangling gate: strongly driven
flux qubits couple off-resonantly to one transmission-line resonator (or
to the normal modes of two coupled ones), the mode traces a closed loop
in phase space, and at the closure time the qubits disentangle from the
field carrying pairwise sigma_x sigma_x phases that turn a product state
into a GHZ state.

Both layouts are one model: N qubits coupled to M modes with detunings
Delta_m through a coupling matrix G.  One record, `ResonatorArray`, holds
M identical resonators and their photon-hopping matrix J_rs (J != 0 when
M > 1); its normal modes are the eigenvectors of J, the mode with the larger
overlap with the uniform vector first and each with a positive first
nonzero entry.  `SingleTlrCircuit` (M = 1) and `CoupledTlrCircuit` (M = 2)
are its two constructors.

Layers: `operators` (truncated-space linear algebra), `model` (circuit
records and Hamiltonian builders), `analytic` (closed forms: displacement
loops, pair phases, phase-condition solvers, SQUID coupler), `dynamics`
(exact and fixed-step propagation, trajectories, sweeps), `scenario` (JSON run
descriptions: read and written), `cli` (command line).
"""

from .analytic import (
    GHZ_CONVENTIONS,
    CoupledPhaseSolution,
    SinglePhaseSolution,
    SquidCoupler,
    accumulated_pair_phase,
    decoupling_time,
    decoupling_unitary,
    effective_mutual_inductance,
    estimated_drive_fidelity,
    ghz_target,
    mode_displacement_amplitude,
    pair_phase_matrix,
    resonator_coupling_rate,
    solve_coupled_phase_condition,
    solve_single_phase_condition,
)
from .dynamics import (
    Trajectory,
    ground_vacuum_state,
    run,
    sweep_drive_strength,
)
from .errors import (
    ApproximationWarning,
    GhzforgeError,
    PreconditionError,
    ScenarioFormatError,
    UnsolvableConditionError,
)
from .model import (
    CoupledTlrCircuit,
    DriveMappingReport,
    QubitSpec,
    ResonatorArray,
    SingleTlrCircuit,
    TimeDependentHamiltonian,
    effective_hamiltonian,
    full_simulation_hamiltonian,
    interaction_picture_hamiltonian,
    qubit_drive_from_resonator_drive,
    rotating_frame_hamiltonian,
)
from .operators import HilbertSpace
from .scenario import (
    LoadedScenario,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    run_scenario,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ApproximationWarning",
    "GhzforgeError",
    "PreconditionError",
    "ScenarioFormatError",
    "UnsolvableConditionError",
    "HilbertSpace",
    "QubitSpec",
    "ResonatorArray",
    "SingleTlrCircuit",
    "CoupledTlrCircuit",
    "DriveMappingReport",
    "TimeDependentHamiltonian",
    "rotating_frame_hamiltonian",
    "interaction_picture_hamiltonian",
    "effective_hamiltonian",
    "full_simulation_hamiltonian",
    "qubit_drive_from_resonator_drive",
    "GHZ_CONVENTIONS",
    "ghz_target",
    "mode_displacement_amplitude",
    "accumulated_pair_phase",
    "decoupling_time",
    "pair_phase_matrix",
    "decoupling_unitary",
    "estimated_drive_fidelity",
    "SquidCoupler",
    "effective_mutual_inductance",
    "resonator_coupling_rate",
    "SinglePhaseSolution",
    "CoupledPhaseSolution",
    "solve_single_phase_condition",
    "solve_coupled_phase_condition",
    "Trajectory",
    "ground_vacuum_state",
    "run",
    "sweep_drive_strength",
    "LoadedScenario",
    "validate_scenario",
    "load_scenario",
    "run_scenario",
    "bundled_scenario_names",
    "bundled_scenario_path",
]
