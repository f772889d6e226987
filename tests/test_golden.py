"""Byte-for-byte goldens for the command line: `run` stdout and CSV files,
`degrade` stdout, and `transpile` stdout plus its `--report` JSON.

The run grid covers n = 3, 4, 5, both modes, both reductions and every
output, each at zero and at mixed noise (the mixed point has single-qubit
depolarizing, where the two reductions give different values). The prep
phase (max, alt, 3 eighth-turns) and the device (default hub, or hub 0 with
a reversed robustness ranking) rotate across the grid so every value meets
every n.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`, and only when
an output change is intended.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest

from merminsim.cli import main

from conftest import FIXTURES, FIXTURE_DEVICES

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

PREPS = ("max", "alt", "3")
NOISES = {
    "zero": "",
    "mixed": "[noise]\ndepol_1q = 0.01\ndepol_2q = 0.03\nreadout_flip = 0.02\n",
}


def _run_cases() -> dict:
    combos = [
        (n, mode, reduction, output)
        for n in (3, 4, 5)
        for mode in ("exact", "sampled")
        for reduction in ("classes", "full-terms")
        for output in ("json", "table", "csv")
        if not (output == "csv" and mode == "exact")
    ]
    cases = {}
    for i, (n, mode, reduction, output) in enumerate(combos):
        for noise, noise_text in NOISES.items():
            config = (
                f"n = {n}\nseed = {i}\nmode = {mode}\nreduction = {reduction}\n"
                f"output = {output}\nprep_phase = {PREPS[i % 3]}\n{noise_text}"
            )
            hub = "default"
            if i % 2:
                hub = "hub0"
                rank = " ".join(str(q) for q in reversed(range(n)))
                config += f"[device]\ncnot_target = 0\nrobustness_rank = {rank}\n"
            name = f"run/n{n}-{mode}-{reduction}-{output}-{noise}-{hub}"
            cases[name] = (["run", "CFG", "--out-dir", "OUT"], config)
    return cases


def _degrade_cases() -> dict:
    return {
        "degrade/n3-depol_2q": (["degrade", "3"], None),
        "degrade/n4-depol_1q": (["degrade", "4", "--param", "depol_1q",
                                 "--values", "0,0.02,0.05"], None),
        "degrade/n5-readout_flip": (["degrade", "5", "--param", "readout_flip",
                                     "--values", "0,0.01,0.1"], None),
    }


def _transpile_cases() -> dict:
    cases = {}
    for stem, device in sorted(FIXTURE_DEVICES.items()):
        path = str(FIXTURES / "valid" / f"{stem}.qc")
        ranks = {
            "identity": range(device.n_qubits),
            "reversed": reversed(range(device.n_qubits)),
        }
        for label, rank in ranks.items():
            argv = ["transpile", path, "--cnot-target", str(device.cnot_target),
                    "--rank", ",".join(str(q) for q in rank), "--report", "REPORT"]
            cases[f"transpile/{stem}-{label}"] = (argv, None)
    return cases


CASES = {**_run_cases(), **_degrade_cases(), **_transpile_cases()}


def invoke(argv, config, workdir) -> dict:
    """Run one CLI case in workdir; return its exit code, stdout and the
    files it wrote."""
    workdir = Path(workdir)
    paths = {"CFG": workdir / "run.cfg", "OUT": workdir / "out",
             "REPORT": workdir / "report.json"}
    if config is not None:
        paths["CFG"].write_text(config)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(paths.get(arg, arg)) for arg in argv])
    files = {}
    if paths["OUT"].exists():
        files = {p.name: p.read_text() for p in sorted(paths["OUT"].iterdir())}
    if paths["REPORT"].exists():
        files["report.json"] = paths["REPORT"].read_text()
    return {"code": code, "stdout": buf.getvalue(), "files": files}


@functools.lru_cache(maxsize=None)
def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert invoke(*CASES[name], tmp_path) == _load_golden()[name]


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


if __name__ == "__main__":
    golden = {}
    for name, (argv, config) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            golden[name] = invoke(argv, config, workdir)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
