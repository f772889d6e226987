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
    full_term_run,
    parity_expectation,
    parity_expectation_probs,
    run_plan,
)
from .mermin import (
    BoundsRecord,
    MerminPolynomial,
    SymmetryClass,
    bounds_for,
    canonical_polynomial,
    lr_bound,
    qm_bound,
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
    OutcomeDistribution,
    sample_counts,
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
