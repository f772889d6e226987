"""Run the scripts under scripts/ in process and check their output shape;
run them as programs on a pipe their reader closes early."""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


@pytest.mark.parametrize("name,args,message", [
    ("run_mermin_table.py", ["--shots", "0"], "--shots must be at least 1"),
    ("run_mermin_table.py", ["--depol-2q", "1.5"], "depol_2q must be a probability in [0, 1]"),
    ("run_mermin_table.py", ["--seed", "-1"], "--seed must be at least 0"),
    ("degradation_scan.py", ["--max", "2"], "--max must be a probability in [0, 1]"),
    ("calibrate_consistency.py", ["--target", "5"],
     "--target 5: target outside the reachable range"),
])
def test_script_rejects_bad_argument(name, args, message, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_script(name, *args, monkeypatch=monkeypatch)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("name", ["calibrate_consistency.py", "degradation_scan.py",
                                  "run_mermin_table.py"])
def test_script_exits_quietly_when_reader_closes(name):
    # The read end is closed before the script starts, so its first write
    # meets the closed pipe whatever the timing. Unbuffered, so that write
    # happens at the first print and not in the flush at exit.
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, str(SCRIPTS / name)], env=env,
                                stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    try:
        err = proc.communicate(timeout=120)[1]
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err
    assert proc.returncode == 1


def golden_case(value: float, label: str = "ok") -> dict:
    stdout = json.dumps({"value": value, "label": label}) + "\n"
    return {"code": 0, "files": {"class_0.csv": "outcome,count\n00,3\n"}, "stdout": stdout}


@pytest.mark.parametrize("new,code,lines", [
    ({"a": golden_case(1.5), "b": golden_case(-2.0)}, 0, ["0 of 2 cases changed"]),
    ({"a": golden_case(1.5 + 3e-14), "b": golden_case(-2.0)}, 0,
     ["a: largest change 3e-14", "1 of 2 cases changed"]),
    ({"a": golden_case(1.5), "b": golden_case(-2.0 + 2e-12)}, 1,
     ["b: largest change 2e-12", "1 of 2 cases changed"]),
    ({"a": golden_case(1.5, "no"), "b": golden_case(-2.0)}, 1,
     [r'a: non-numeric change: `, \"label\": \"ok\"}\n"}` -> `, \"label\": \"no\"}\n"}`',
      "1 of 2 cases changed"]),
    ({"a": golden_case(1.5)}, 1, ["b: only in OLD", "0 of 2 cases changed"]),
    ({"a": golden_case(1.5), "b": golden_case(-2.0, "ok, then" + " more" * 12)}, 1,
     [r'b: non-numeric change: `, \"label\": \"ok\"}\n"}` -> '
      r'`, \"label\": \"ok, then more more more more more more more m...`',
      "1 of 2 cases changed"]),
])
def test_golden_drift(new, code, lines, tmp_path, capsys, monkeypatch):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps({"a": golden_case(1.5), "b": golden_case(-2.0)}))
    new_path.write_text(json.dumps(new))
    with pytest.raises(SystemExit) as exc:
        run_script("golden_drift.py", str(old_path), str(new_path), monkeypatch=monkeypatch)
    assert exc.value.code == code
    assert capsys.readouterr().out.splitlines() == lines


def test_golden_drift_needs_two_files(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_script("golden_drift.py", "only-one.json", monkeypatch=monkeypatch)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_noise_drift_same_tree(capsys, monkeypatch):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exc:
        run_script("noise_drift.py", src, src, monkeypatch=monkeypatch)
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 144 cases changed"]


def test_noise_drift_needs_two_trees(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_script("noise_drift.py", "only-one", monkeypatch=monkeypatch)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def bench_record(tmp_path, side: str, seed: int, ops: float, p50: float, *, digests=(),
                 failed: int = 0, trace: int = 0, revision: str = "abc") -> str:
    """A perfbench record with only the fields bench_summary.py reads."""
    metrics = {"setup_s": 0.3, "ops_per_s": ops, "op_ms_p50": p50, "op_ms_p90": 2 * p50,
               "peak_rss_mb": 40.0}
    rec = {
        "workload": "sampled-shots", "trace": trace, "attempted": 100, "failed": failed,
        "environment": {"git_revision": revision, "python": "3.x", "seed": seed},
        "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()},
        "digests": [list(d) for d in digests],
    }
    path = tmp_path / f"{side}-{seed}-{revision}-{trace}.json"
    path.write_text(json.dumps(rec))
    return str(path)


def test_bench_summary(tmp_path, capsys, monkeypatch):
    parent = [bench_record(tmp_path, "p", 1, 10.0, 5.0, digests=[(0, "json", 1, "aa")]),
              bench_record(tmp_path, "p", 2, 20.0, 4.0, digests=[(0, "json", 1, "bb")]),
              bench_record(tmp_path, "p", 3, 30.0, 3.0)]
    change = [bench_record(tmp_path, "c", 1, 15.0, 5.0, digests=[(0, "json", 1, "aa")],
                           revision="def"),
              bench_record(tmp_path, "c", 2, 10.0, 2.0, digests=[(0, "json", 1, "cc")],
                           failed=2, revision="def")]
    with pytest.raises(SystemExit) as exc:
        run_script("bench_summary.py", *parent, "--", *change, monkeypatch=monkeypatch)
    assert exc.value.code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parent"] == {"records": 3, "attempted": 300, "failed": 0,
                             "environment": {"git_revision": "abc", "python": "3.x"}}
    assert doc["change"]["failed"] == 2
    assert doc["change"]["environment"]["git_revision"] == "def"
    entry = doc["workloads"]["sampled-shots"]
    assert entry["paired_seeds"] == [1, 2]
    ops = entry["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 20.0, "q1": 15.0, "q3": 25.0, "runs": 3}
    assert ops["change"] == {"median": 12.5, "q1": 11.25, "q3": 13.75, "runs": 2}
    # Higher is better: seed 1 wins, seed 2 loses.
    assert (ops["change_wins"], ops["pairs"]) == (1, 2)
    # Lower is better: seed 1 ties, seed 2 wins.
    assert entry["metrics"]["op_ms_p50"]["change_wins"] == 1
    assert entry["metrics"]["setup_s"]["change_wins"] == 0
    assert entry["digests_match"] == {"1": True, "2": False}


def traced_record(tmp_path, side: str, seed: int, cli_ms: float, failed: int = 0) -> str:
    """A traced perfbench record: every self time of BENCHMARK.json is 1 ms but
    cli.main's."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = {name: {"value": 1.0, "unit": "ms"} for name in names}
    metrics["cli.main.self_ms"]["value"] = cli_ms
    rec = {"workload": "transpile-long", "trace": 1, "attempted": 100, "failed": failed,
           "environment": {"git_revision": side, "python": "3.x", "seed": seed},
           "metrics": metrics, "digests": []}
    path = tmp_path / f"{side}-{seed}-traced.json"
    path.write_text(json.dumps(rec))
    return str(path)


def test_bench_summary_per_layer(tmp_path, capsys, monkeypatch):
    parent = [bench_record(tmp_path, "p", 1, 10.0, 5.0, revision="abc"),
              traced_record(tmp_path, "abc", 5, 400.0), traced_record(tmp_path, "abc", 6, 500.0)]
    change = [bench_record(tmp_path, "c", 1, 20.0, 2.0, revision="def"),
              traced_record(tmp_path, "def", 5, 40.0, failed=1)]
    with pytest.raises(SystemExit) as exc:
        run_script("bench_summary.py", *parent, "--", *change, monkeypatch=monkeypatch)
    assert exc.value.code == 0
    doc = json.loads(capsys.readouterr().out)
    # End-to-end figures and totals come from untraced records only.
    assert doc["parent"]["records"] == 1 and doc["parent"]["attempted"] == 100
    assert doc["workloads"]["sampled-shots"]["metrics"]["ops_per_s"]["change_wins"] == 1
    assert doc["workloads"]["sampled-shots"]["per_layer"]["parent_seeds"] == []
    traced = doc["workloads"]["transpile-long"]
    assert traced["paired_seeds"] == [] and traced["metrics"]["ops_per_s"]["parent"] is None
    layers = traced["per_layer"]
    assert (layers["parent_seeds"], layers["change_seeds"]) == ([5, 6], [5])
    assert layers["failed"] == {"parent": 0, "change": 1}
    assert layers["metrics"]["cli.main.self_ms"] == {"unit": "ms", "parent": 450.0,
                                                     "change": 40.0}
    assert layers["metrics"]["transpile.transpile.self_ms"]["change"] == 1.0
    assert all(name.endswith(".self_ms") for name in layers["metrics"])


@pytest.mark.parametrize("shape,message", [
    ("no-cut", "missing --"),
    ("empty-change", "no CHANGE records"),
    ("traced", "traced record"),
    ("mixed-env", "environment differs"),
    ("repeat", "second PARENT record"),
])
def test_bench_summary_usage_errors(shape, message, tmp_path, capsys, monkeypatch):
    one = bench_record(tmp_path, "p", 1, 10.0, 5.0)
    other = bench_record(tmp_path, "c", 1, 10.0, 5.0)
    args = {
        "no-cut": [one, other],
        "empty-change": [one, "--"],
        "traced": [bench_record(tmp_path, "p", 1, 10.0, 5.0, trace=1), "--", other],
        "mixed-env": [one, bench_record(tmp_path, "p", 2, 10.0, 5.0, revision="zzz"), "--",
                      other],
        "repeat": [one, bench_record(tmp_path, "q", 1, 10.0, 5.0), "--", other],
    }[shape]
    with pytest.raises(SystemExit) as exc:
        run_script("bench_summary.py", *args, monkeypatch=monkeypatch)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
