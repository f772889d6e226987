"""GHZ-circuit simulation and Mermin-inequality estimation on a
star-constrained device model."""

from .circuits import (
    Circuit,
    CircuitFormatError,
    Gate,
    MeasurementSetting,
    ghz_circuit,
    parse_circuit,
    serialize_circuit,
    with_setting,
)
from .config import ConfigError, RunConfig, parse_config
from .experiment import (
    ExperimentPlan,
    MerminEstimate,
    build_plan,
    combine,
    exact_value,
    full_term_run,
    parity_expectation,
    parity_expectation_probs,
    run_plan,
    stderr_probability,
)
from .mermin import (
    BoundsRecord,
    MerminPolynomial,
    SymmetryClass,
    bounds_for,
    canonical_polynomial,
    lr_bound,
    mermin_operator,
    qm_bound,
    recursive_polynomial,
    symmetry_classes,
)
from .noise import (
    NoiseModel,
    ZERO_NOISE,
    calibrate_depol_2q,
    degradation_curve,
    noisy_distribution,
)
from .statevector import (
    CountsTable,
    DensityMatrix,
    OutcomeDistribution,
    PauliString,
    Statevector,
    apply_gate,
    density_from_state,
    depolarize_dm,
    dm_pauli_expectation,
    outcome_distribution,
    pauli_expectation,
    sample_counts,
    simulate_circuit,
    unitary_equivalent,
)
from .transpile import (
    DeviceModel,
    StarTopologyError,
    TranspileReport,
    cancel_adjacent_pass,
    default_device,
    place_phase_pass,
    reverse_cnot_pass,
    transpile,
)

__version__ = "0.1.0"
