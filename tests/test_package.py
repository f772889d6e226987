"""The package's public surface: the names `import merminsim` exposes."""

import types

import merminsim

# Removing a name from this set is an API change: state it in CHANGES.md.
PUBLIC_NAMES = {
    "BoundsRecord", "Circuit", "CircuitFormatError", "ConfigError", "CountsTable",
    "DensityMatrix", "DeviceModel", "ExperimentPlan", "Gate", "MeasurementSetting",
    "MerminEstimate", "MerminPolynomial", "NoiseModel", "OutcomeDistribution",
    "RunConfig", "StarTopologyError", "Statevector", "SymmetryClass",
    "TranspileReport", "ZERO_NOISE",
    "apply_gate", "bounds_for", "build_plan", "calibrate_depol_2q",
    "cancel_adjacent_pass", "canonical_polynomial", "combine", "default_device",
    "degradation_curve", "depolarize_dm", "full_term_run", "ghz_circuit", "lr_bound",
    "mermin_operator", "noisy_distribution", "outcome_distribution",
    "parity_expectation", "parity_expectation_probs", "parse_circuit", "parse_config",
    "place_phase_pass", "qm_bound", "recursive_polynomial", "reverse_cnot_pass",
    "run_plan", "sample_counts", "serialize_circuit", "simulate_circuit",
    "symmetry_classes", "transpile", "unitary_equivalent", "with_setting",
}


def test_public_names_are_pinned():
    exposed = {
        name for name, value in vars(merminsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exposed == PUBLIC_NAMES
