"""The package's public surface: the names `import merminsim` exposes, and
the names the span tracer in perfbench/ patches; and its inner structure:
which modules import which, and the one home of the noise parameter names."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import runpy
import types
from pathlib import Path

import pytest

import merminsim
from merminsim import cli
from merminsim.config import ConfigError, parse_config
from merminsim.noise import NOISE_PARAMS, NoiseModel

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

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


# The sibling modules each module of the package imports from, function-level
# imports included. A new edge is a design change: state it in CHANGES.md.
IMPORT_GRAPH = {
    "__init__": {"circuits", "config", "experiment", "mermin", "noise", "statevector",
                 "transpile"},
    "__main__": {"cli"},
    "circuits": set(),
    "cli": {"circuits", "config", "experiment", "mermin", "noise", "transpile"},
    "config": {"experiment", "noise", "transpile"},
    "experiment": {"circuits", "mermin", "noise", "statevector", "transpile"},
    "mermin": {"circuits", "statevector"},
    "noise": {"circuits", "experiment", "statevector"},
    "statevector": set(),
    "transpile": {"circuits"},
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


def test_internal_import_graph_is_pinned():
    graph = {}
    for path in sorted((ROOT / "src" / "merminsim").glob("*.py")):
        graph[path.stem] = {
            node.module for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    assert graph == IMPORT_GRAPH


def test_no_module_imports_a_private_name_from_a_sibling():
    """An underscore name stays inside its module: a sibling that needs it
    is its caller, and the name belongs next to that caller."""
    private = []
    for path in sorted((ROOT / "src" / "merminsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [f"{path.stem} imports {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_noise_parameters_have_one_source():
    """NoiseModel's fields, the [noise] keys parse_config accepts and checks,
    the degrade --param choices and the scan script's PARAMS are all
    NOISE_PARAMS, in order."""
    assert NOISE_PARAMS == ("depol_1q", "depol_2q", "readout_flip")
    assert tuple(f.name for f in dataclasses.fields(NoiseModel)) == NOISE_PARAMS
    for key in NOISE_PARAMS:
        noise = parse_config(f"n = 3\n[noise]\n{key} = 0.5\n").noise
        assert noise == NoiseModel(**{key: 0.5})
    with pytest.raises(ConfigError, match="unknown key depol_3q"):
        parse_config("n = 3\n[noise]\ndepol_3q = 0.5\n")
    # Bad values listed last to first: the one reported is the first key
    # that parse_config checks among those left.
    checked = []
    left = list(NOISE_PARAMS)
    while left:
        text = "n = 3\n[noise]\n" + "".join(f"{key} = 2\n" for key in reversed(left))
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        checked.append(exc.value.what.split()[0])
        left.remove(checked[-1])
    assert tuple(checked) == NOISE_PARAMS
    degrade = cli._build_parser()._subparsers._group_actions[0].choices["degrade"]
    param = next(a for a in degrade._actions if a.dest == "param")
    assert tuple(param.choices) == NOISE_PARAMS
    assert runpy.run_path(str(ROOT / "scripts" / "degradation_scan.py"))["PARAMS"] == NOISE_PARAMS
