import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from merminsim.config import ConfigError, RunConfig, parse_config
from merminsim.noise import NoiseModel
from merminsim.transpile import DeviceModel


def test_minimal_config_defaults():
    cfg = parse_config("n = 3\n")
    assert cfg.n == 3
    assert cfg.shots == 1024
    assert cfg.seed == 0
    assert cfg.mode == "exact"
    assert cfg.reduction == "classes"
    assert cfg.output == "table"
    assert cfg.prep_phase == "max"
    assert cfg.noise == NoiseModel()
    assert cfg.device == DeviceModel(3, cnot_target=2)


def test_shots_default_tracks_n():
    assert parse_config("n = 4\n").shots == 8192
    assert parse_config("n = 5\n").shots == 8192
    assert parse_config("n = 4\nshots = 100\n").shots == 100


def test_full_config():
    text = """
# experiment setup
n = 4
shots = 2048
seed = 17
mode = sampled
reduction = full-terms
output = json
prep_phase = alt

[noise]
depol_1q = 0.001
depol_2q = 0.02
readout_flip = 0.015

[device]
cnot_target = 1
robustness_rank = 3 1 0 2
"""
    cfg = parse_config(text)
    assert cfg.n == 4
    assert cfg.shots == 2048
    assert cfg.seed == 17
    assert cfg.mode == "sampled"
    assert cfg.reduction == "full-terms"
    assert cfg.output == "json"
    assert cfg.prep_phase == "alt"
    assert cfg.noise == NoiseModel(0.001, 0.02, 0.015)
    assert cfg.device == DeviceModel(4, cnot_target=1, robustness_rank=(3, 1, 0, 2))


def test_prep_phase_quarter_turns():
    cfg = parse_config("n = 3\nprep_phase = 2\n")
    assert cfg.prep_phase == 2


@pytest.mark.parametrize(
    "text,what,line",
    [
        ("shots = 10\n", "missing required key n", 1),
        ("n = 6\n", "n must be 3, 4 or 5", 1),
        ("n = x\n", "bad value for n", 1),
        ("n = 3\nn = 4\n", "duplicate key n", 2),
        ("n = 3\nwhat = 1\n", "unknown key what", 2),
        ("n = 3\n[weird]\n", "unknown section [weird]", 2),
        ("n = 3\nshots 10\n", "expected key = value", 2),
        ("n = 3\nshots = 0\n", "shots must be >= 1", 2),
        ("n = 3\n\nshots = 1073741825\n", "shots must be <= 1073741824", 3),
        ("n = 3\nshots = 10\nseed = -8\n", "seed must be >= 0", 3),
        ("n = 3\nmode = fast\n", "mode must be exact or sampled", 2),
        ("n = 3\nreduction = none\n", "reduction must be classes or full-terms", 2),
        ("n = 3\noutput = yaml\n", "output must be json, table or csv", 2),
        ("n = 3\nprep_phase = 9\n", "prep_phase steps must be in 0..7", 2),
        ("n = 3\nprep_phase = biggest\n", "bad value for prep_phase", 2),
        ("n = 3\n[noise]\ndepol_2q = 1.5\n", "depol_2q must be in [0, 1]", 3),
        ("n = 3\n[noise]\ndepol_2q = hot\n", "bad value for depol_2q", 3),
        ("n = 3\n[noise]\nshots = 7\n", "unknown key shots", 3),
        ("n = 3\n[device]\ncnot_target = 5\n", "cnot_target out of range", 3),
        ("n = 3\n[device]\nrobustness_rank = 0 0 1\n", "robustness_rank must be a permutation", 3),
        ("n = 3\n[device]\nrobustness_rank = 0 1\n", "robustness_rank must be a permutation", 3),
        ("n = 3\noutput = csv\n", "output csv requires mode sampled", 2),
    ],
)
def test_config_errors(text, what, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"{what}, line {line}"


def test_csv_with_sampled_is_fine():
    cfg = parse_config("n = 3\nmode = sampled\noutput = csv\n")
    assert cfg.output == "csv"


def test_device_rank_roundtrip_through_plan():
    from merminsim.experiment import build_plan, run_plan

    cfg = parse_config("n = 3\n[device]\ncnot_target = 1\nrobustness_rank = 1 2 0\n")
    plan = build_plan(
        cfg.n,
        prep_phase=cfg.prep_phase,
        shots=cfg.shots,
        seed=cfg.seed,
        device=cfg.device,
        noise=cfg.noise,
    )
    est = run_plan(plan, mode="exact")
    assert est.value == pytest.approx(4.0, abs=1e-8)


_CONFIG_KEYS = ["n", "shots", "seed", "mode", "reduction", "output", "prep_phase", "depol_1q",
                "depol_2q", "readout_flip", "cnot_target", "robustness_rank", "bogus", ""]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["3", "4", "5", "exact", "sampled", "classes", "full-terms", "json",
                     "table", "csv", "max", "alt", "0.05", "nan", "inf", "-1", "1e999",
                     "0 1 2", "2 1 0 3", "1_0", "", "= 1"]),
    st.integers(-10, 10 ** 20).map(str),
    st.text(max_size=6),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from([" = ", "=", " : "]),
              _CONFIG_VALUES).map("".join),
    st.sampled_from(["[noise]", "[device]", "[ noise ]", "[other]", "[", "", "# note",
                     "n = 3 # note"]),
    st.text(max_size=12),
)
_CONFIG_TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(_CONFIG_LINES, max_size=10).map("\n".join),
    st.lists(_CONFIG_LINES, max_size=10).map(lambda lines: "\n".join(["n = 3", *lines])),
)


@given(_CONFIG_TEXTS)
@settings(max_examples=300)
def test_parse_config_fuzz(text):
    """Any text gives a RunConfig or a ConfigError naming one of its lines;
    anything else fails."""
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        # Text with no n reports its last line, or line 1 when it has none.
        assert 1 <= err.line <= max(1, len(text.splitlines()))
        assert str(err).endswith(f", line {err.line}")
        return
    assert isinstance(cfg, RunConfig)
    assert cfg.n in (3, 4, 5)


def test_first_bad_noise_value_does_not_depend_on_the_hash_seed():
    """With every [noise] value out of range, the error names the first one
    in NoiseModel's field order, whatever PYTHONHASHSEED orders sets by."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from merminsim.config import ConfigError, parse_config\n"
            "try:\n"
            "    parse_config('n = 3\\n[noise]\\ndepol_1q = 2\\ndepol_2q = 3\\n'\n"
            "                 'readout_flip = 4\\n')\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n")
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath))
        for seed in range(1, 9)
    ]
    for proc in procs:
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert out == "depol_1q must be in [0, 1], line 3\n"
