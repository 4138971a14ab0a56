"""Simulation and certification toolkit for a multiplexed photon-memory
entangled source: count-level Monte Carlo, dimension witness, entanglement
of formation bound, Bell-parameter tests, and pair tomography."""

from .errors import ComputationError, QcertError, ValidationError
from .linalg import (
    DensityOperator,
    PairRestriction,
    Projector,
    StateVector,
    density_from_ket,
    fidelity_to_pure,
    outcome_probabilities,
    restrict_to_pair,
)
from .source import SourceConfig, ideal_state, mean_pair_visibility, noisy_state
from .bases import (
    MeasurementBasis,
    RfToneProgram,
    cglmp_basis,
    joint_probability_table,
    k_basis,
    ket_from_tone_program,
    mode_vector,
    pair_basis,
    rf_tone_program,
    tomo_settings,
    x_basis,
)
from .counting import (
    CoincidenceTable,
    CorrectedCount,
    CountingParams,
    CountRecord,
    bootstrap_table,
    load_table,
    save_table,
    setting_means,
    simulate_setting,
    subtract_accidentals,
    with_accidental_noise,
)
from .certify import (
    CglmpResult,
    EofResult,
    WitnessResult,
    cglmp,
    cglmp_weights,
    eof_bound,
    visibility_from_counts,
    witness,
    witness_bound,
)
from .tomo import TomoResult, project_to_physical, reconstruct, reconstruct_exact
from .pipeline import (
    CurvePoint,
    SimulationConfig,
    fit_noise_to_visibility,
    preset,
    run_simulation,
    violation_curve,
)

__version__ = "0.1.0"
