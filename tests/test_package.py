"""The package's public surface: the names `import merminsim` exposes, and
the names the span tracer in perfbench/ patches."""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import merminsim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Positional parameters each tracer hook reads by index and by name.
HOOK_PARAMETERS = {
    "mermin.bounds_for": {0: "n"},
    "noise.noisy_distribution": {0: "c", 1: "m"},
    "statevector.sample_counts": {1: "shots"},
    "transpile.transpile": {0: "c", 1: "d"},
}

# Removing a name from this set is an API change: state it in CHANGES.md.
PUBLIC_NAMES = {
    "BoundsRecord", "Circuit", "CircuitFormatError", "ConfigError", "CountsTable",
    "DeviceModel", "ExperimentPlan", "Gate", "MeasurementSetting",
    "MerminEstimate", "MerminPolynomial", "NoiseModel", "OutcomeDistribution",
    "RunConfig", "StarTopologyError", "SymmetryClass",
    "TranspileReport", "ZERO_NOISE",
    "bounds_for", "build_plan", "calibrate_depol_2q", "cancel_adjacent_pass",
    "canonical_polynomial", "combine", "default_device", "degradation_curve",
    "full_term_run", "ghz_circuit", "lr_bound", "noisy_distribution",
    "parity_expectation", "parity_expectation_probs", "parse_circuit", "parse_config",
    "place_phase_pass", "qm_bound", "reverse_cnot_pass",
    "run_plan", "sample_counts", "serialize_circuit",
    "symmetry_classes", "transpile", "with_setting",
}

# Parameter names, in order, of every public function. Adding, removing or
# renaming one is an API change as well: state it in CHANGES.md.
PUBLIC_PARAMETERS = {
    "bounds_for": ("n",),
    "build_plan": ("n", "prep_phase", "shots", "seed", "device", "noise", "reduction"),
    "calibrate_depol_2q": ("target",),
    "cancel_adjacent_pass": ("c",),
    "canonical_polynomial": ("n",),
    "combine": ("per_class", "plan", "mode"),
    "default_device": ("n",),
    "degradation_curve": ("n", "m_grid"),
    "full_term_run": ("plan", "mode"),
    "ghz_circuit": ("n", "target_phase", "control"),
    "lr_bound": ("p",),
    "noisy_distribution": ("c", "m"),
    "parity_expectation": ("t",),
    "parity_expectation_probs": ("probs",),
    "parse_circuit": ("text",),
    "parse_config": ("text",),
    "place_phase_pass": ("c", "d"),
    "qm_bound": ("p",),
    "reverse_cnot_pass": ("c", "d"),
    "run_plan": ("plan", "mode"),
    "sample_counts": ("dist", "shots", "seed"),
    "serialize_circuit": ("c",),
    "symmetry_classes": ("p",),
    "transpile": ("c", "d"),
    "with_setting": ("c", "setting"),
}


def test_public_names_are_pinned():
    exposed = {
        name for name, value in vars(merminsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exposed == PUBLIC_NAMES


def test_public_parameters_are_pinned():
    public = {name: getattr(merminsim, name) for name in PUBLIC_NAMES}
    functions = {
        name: tuple(inspect.signature(fn).parameters)
        for name, fn in public.items()
        if callable(fn) and not isinstance(fn, type)
    }
    assert functions == PUBLIC_PARAMETERS


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"merminsim.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert set(tracer.HOOKS) == set(HOOK_PARAMETERS)
    for key, wanted in HOOK_PARAMETERS.items():
        layer, name = key.split(".")
        fn = getattr(importlib.import_module(f"merminsim.{layer}"), name)
        assert callable(fn), key
        params = list(inspect.signature(fn).parameters)
        assert {i: params[i] for i in wanted} == wanted, key
