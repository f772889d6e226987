"""Run the scripts under scripts/ in process and check their output shape."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_mermin_table(capsys, monkeypatch):
    run_script("run_mermin_table.py", monkeypatch=monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "LR", "QM", "exact", "sampled", "stderr"]
    assert [line.split()[0] for line in lines[1:]] == ["3", "4", "5"]


def test_degradation_scan_two_points(capsys, monkeypatch):
    run_script("degradation_scan.py", "--points", "2", monkeypatch=monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,param,rate,mermin_value"
    # 3 sizes x 3 noise knobs x 2 grid points
    assert len(lines) == 1 + 18
    assert {line.split(",")[2] for line in lines[1:]} == {"0", "0.2"}


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_degradation_scan_rejects_fewer_than_two_points(points, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_script("degradation_scan.py", "--points", points, monkeypatch=monkeypatch)
    assert exc.value.code == 2
    assert "--points must be at least 2" in capsys.readouterr().err


def test_calibrate_consistency(capsys, monkeypatch):
    run_script("calibrate_consistency.py", monkeypatch=monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fitted depol_2q = ")
    assert [line.split(":")[0] for line in lines[1:]] == ["n=3", "n=4", "n=5"]
