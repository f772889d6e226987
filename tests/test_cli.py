import argparse
import ast
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from merminsim import cli
from merminsim.circuits import parse_circuit
from merminsim.cli import main
from merminsim.config import ConfigError, parse_config
from merminsim.experiment import SIZES, build_plan
from merminsim.transpile import DeviceModel, constraint_violations

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_text(capsys):
    code, out, err = run_cli(capsys, "bounds", "3")
    assert code == 0
    assert out == "n 3\nLR 2\nQM 4.000000\n"
    assert err == ""


def test_bounds_table_values(capsys):
    _, out4, _ = run_cli(capsys, "bounds", "4")
    assert "LR 4" in out4 and "QM 11.313708" in out4
    _, out5, _ = run_cli(capsys, "bounds", "5")
    assert "LR 4" in out5 and "QM 16.000000" in out5


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["lr_bound"] == 4
    # eigvalsh gives the correctly rounded 8 * sqrt(2), bit for bit.
    assert doc["qm_bound"] == 8 * math.sqrt(2)


def test_bounds_rejects_other_n(capsys):
    code, out, err = run_cli(capsys, "bounds", "6")
    assert code == 1
    assert out == ""
    assert err == "error: argument n: invalid choice: 6 (choose from 3, 4, 5)\n"


def test_entry_points_accept_exactly_the_size_table(capsys):
    # The CLI, the config parser and the planner all take their party counts
    # from one table; none may accept a size another refuses.
    accepted = {"bounds": set(), "degrade": set(), "config": set(), "plan": set()}
    for n in range(1, 12):
        for command, argv in (
            ("bounds", ["bounds", str(n)]),
            ("degrade", ["degrade", str(n), "--values", "0"]),
        ):
            code, out, err = run_cli(capsys, *argv)
            if code == 0:
                accepted[command].add(n)
            else:
                assert code == 1, (command, n)
                assert out == ""
                assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        try:
            parse_config(f"n = {n}\n")
            accepted["config"].add(n)
        except ConfigError:
            pass
        try:
            build_plan(n)
            accepted["plan"].add(n)
        except ValueError:
            pass
    assert accepted == {name: set(SIZES) for name in accepted}


def test_transpile_stdout(capsys):
    path = FIXTURES / "valid" / "ghz3_plain.qc"
    code, out, _ = run_cli(capsys, "transpile", str(path), "--cnot-target", "0")
    assert code == 0
    assert out.startswith("qubits 3\n")
    assert "cnot 1 0" in out
    assert "cnot 2 0" in out


def test_transpile_files_and_report(capsys, tmp_path):
    src = FIXTURES / "valid" / "fig1_xxy.qc"
    out_file = tmp_path / "lowered.qc"
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "transpile", str(src),
        "--cnot-target", "1",
        "--out", str(out_file),
        "--report", str(report_file),
    )
    assert code == 0
    assert out == ""
    # the golden is already lowered for this device, so it passes through;
    # nothing is movable on re-entry, hence host -1
    assert out_file.read_text() == src.read_text().split("\n", 1)[1]
    report = json.loads(report_file.read_text())
    assert report == {
        "gate_count_before": 10,
        "gate_count_after": 10,
        "added_h_count": 0,
        "phase_host_qubit": -1,
    }


def test_transpile_lowers_xy_measurement(capsys, tmp_path):
    src = tmp_path / "tagged.qc"
    src.write_text("qubits 3\nh 0\ncnot 0 1\ncnot 0 2\nmeasure x y z\n")
    code, out, _ = run_cli(capsys, "transpile", str(src), "--cnot-target", "0")
    assert code == 0
    lowered = parse_circuit(out)
    assert lowered.measure_basis == ("z", "z", "z")
    assert constraint_violations(lowered, DeviceModel(3, cnot_target=0)) == []


def test_transpile_rank_flag(capsys):
    path = FIXTURES / "valid" / "ghz3_imag.qc"
    code, out, _ = run_cli(
        capsys, "transpile", str(path), "--cnot-target", "0", "--rank", "1,0,2"
    )
    assert code == 0
    assert "s 1" in out
    assert "s 0" not in out


@pytest.mark.parametrize("rank", ["a,b", "0,,1", ""])
def test_transpile_bad_rank_names_the_option(capsys, rank):
    path = FIXTURES / "valid" / "ghz3_imag.qc"
    code, out, err = run_cli(capsys, "transpile", str(path), "--rank", rank)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --rank ")
    assert len(err.splitlines()) == 1


def test_transpile_star_violation_exits_2(capsys, tmp_path):
    path = FIXTURES / "valid" / "star_illegal.qc"
    out_file = tmp_path / "never.qc"
    code, out, err = run_cli(
        capsys, "transpile", str(path), "--cnot-target", "1", "--out", str(out_file)
    )
    assert code == 2
    assert "error:" in err
    assert "does not involve target qubit 1" in err
    assert not out_file.exists()


def test_transpile_empty_circuit(capsys, tmp_path):
    src = tmp_path / "empty.qc"
    src.write_text("qubits 2\nmeasure z z\n")
    code, out, _ = run_cli(capsys, "transpile", str(src))
    assert code == 0
    assert out == "qubits 2\nmeasure z z\n"


def test_transpile_bad_circuit_exits_1(capsys):
    path = FIXTURES / "bad" / "err_dup_qubit.qc"
    code, _, err = run_cli(capsys, "transpile", str(path))
    assert code == 1
    assert "duplicate qubit, line 2" in err


def test_run_table(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\n")
    code, out, _ = run_cli(capsys, "run", str(cfg))
    assert code == 0
    assert "LR | QM | EXP" in out
    assert "2 | 4.0000 | 4.0000" in out
    assert "violates local realism: yes" in out


def test_run_json_deterministic(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 3\nmode = sampled\noutput = json\nseed = 4\n\n[noise]\ndepol_2q = 0.05\n"
    )
    code, first, _ = run_cli(capsys, "run", str(cfg))
    assert code == 0
    code, second, _ = run_cli(capsys, "run", str(cfg))
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["mode"] == "sampled"
    assert doc["seed"] == 4
    assert doc["value"] < 4.0


def test_run_csv_outputs(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = sampled\noutput = csv\nshots = 128\n")
    out_dir = tmp_path / "counts"
    code, _, _ = run_cli(capsys, "run", str(cfg), "--out-dir", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("*.csv"))
    assert names == ["counts_class1.csv", "counts_class3.csv"]
    body = (out_dir / "counts_class1.csv").read_text()
    lines = body.strip().splitlines()
    assert lines[0] == "outcome,count"
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 128


def test_run_config_error_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = warp\n")
    code, _, err = run_cli(capsys, "run", str(cfg))
    assert code == 1
    assert "line 2" in err


def test_run_negative_seed_exits_1_with_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = sampled\nseed = -8\n")
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 1
    assert out == ""
    assert "seed must be >= 0, line 3" in err


def test_run_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.cfg"))
    assert code == 1
    assert "error:" in err


def test_degrade_csv(capsys):
    code, out, _ = run_cli(capsys, "degrade", "3", "--values", "0,0.05,0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depol_2q,mermin_value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 3
    assert values[0] == pytest.approx(4.0, abs=1e-8)
    assert values == sorted(values, reverse=True)


def test_degrade_other_param(capsys):
    code, out, _ = run_cli(capsys, "degrade", "3", "--param", "readout_flip", "--values", "0,0.1")
    assert code == 0
    assert out.splitlines()[0] == "readout_flip,mermin_value"


@pytest.mark.parametrize("values", ["", ",", " , ", "0,x"])
def test_degrade_rejects_bad_values(capsys, values):
    code, out, err = run_cli(capsys, "degrade", "3", "--values", values)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --values ")
    assert len(err.splitlines()) == 1


def test_parse_normalizes(capsys, tmp_path):
    src = tmp_path / "messy.qc"
    src.write_text("# note\nQUBITS 2\nH 0\nCNOT 0 1\n")
    code, out, _ = run_cli(capsys, "parse", str(src))
    assert code == 0
    assert out == "qubits 2\nh 0\ncnot 0 1\nmeasure z z\n"


@pytest.mark.parametrize(
    "name,message",
    [
        ("err_dup_qubit", "duplicate qubit, line 2"),
        ("err_unknown", "unknown mnemonic, line 2"),
        ("err_badindex", "bad index, line 2"),
        ("err_range", "bad index, line 2"),
        ("err_noheader", "missing qubits header, line 1"),
        ("err_measure_len", "qubit count mismatch, line 3"),
    ],
)
def test_parse_bad_fixtures_exit_1(capsys, name, message):
    code, _, err = run_cli(capsys, "parse", str(FIXTURES / "bad" / f"{name}.qc"))
    assert code == 1
    assert message in err


# Text with a byte that is not UTF-8, and the line str.splitlines puts it on:
# \v and \r\n break lines as well, and a bad byte after a break starts a line.
_NOT_UTF8 = [
    (b"qubits 3\nh 1\n\xff\n", 3),
    (b"qubits 3\r\nh 1 \xe9\r\n", 2),
    (b"qubits 3\vh 1\n\n# caf\xc3", 4),
    (b"\xfe", 1),
    # A bad byte after a byte-order mark keeps its line.
    (b"\xef\xbb\xbfqubits 3\n\n\n\xff", 4),
]


@pytest.mark.parametrize("command", ["parse", "transpile"])
@pytest.mark.parametrize("data,line", _NOT_UTF8)
def test_circuit_not_utf8_exits_1_with_line(capsys, tmp_path, command, data, line):
    src = tmp_path / "bad.qc"
    src.write_bytes(data)
    code, out, err = run_cli(capsys, command, str(src))
    assert code == 1
    assert out == ""
    assert err == f"error: not UTF-8 text, line {line}\n"


@pytest.mark.parametrize("data,line", [
    (b"n = 3\nseed = 4 # \xff\n", 2),
    (b"n = 3\r\n[noise]\r\n\x80", 3),
    (b"\xef\xbb\xbfn = 3\n\xc3\xa9\n\n\xff", 4),
])
def test_run_config_not_utf8_exits_1_with_line(capsys, tmp_path, data, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(data)
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"error: not UTF-8 text, line {line}\n"


@pytest.mark.parametrize("command,text", [
    ("parse", "qubits 3\nh 0\n"),
    ("transpile", "qubits 3\nh 0\ncnot 0 2\n"),
    ("run", "n = 3\n"),
])
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, command, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected = run_cli(capsys, command, str(plain))
    assert expected[0] == 0 and expected[2] == ""
    assert run_cli(capsys, command, str(marked)) == expected


def test_files_read_as_utf8_whatever_the_locale(tmp_path):
    """A UTF-8 comment parses under the C locale, whose encoding is ASCII
    once UTF-8 mode and locale coercion are off."""
    src = tmp_path / "accent.qc"
    src.write_bytes("qubits 2 # café\nh 0\n".encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent), LC_ALL="C",
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-m", "merminsim", "parse", str(src)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "qubits 2\nh 0\nmeasure z z\n", "")


def test_unknown_subcommand_exits_1(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert out == ""
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    (["transpile", "F", "--rank", "-1,0,1"], "argument --rank: expected one argument"),
    (["bounds", "3", "--bogus"], "unrecognized arguments: --bogus"),
    (["bounds", "3", "a\nb"], "unrecognized arguments: a b"),
    ([], "the following arguments are required: command"),
    (["degrade", "3", "--param", "depol_3q"], "argument --param: invalid choice: 'depol_3q'"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["--help"], ["transpile", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: merminsim")
    assert err == ""


def test_module_help_exits_0():
    """As a program, --help still exits 0 with the usage on stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "merminsim", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: merminsim")
    assert proc.stderr == ""


def test_parser_is_built_once(capsys, monkeypatch):
    cli._build_parser.cache_clear()
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    path = str(FIXTURES / "valid" / "ghz3_plain.qc")
    assert run_cli(capsys, "parse", path)[0] == 0
    first = len(added)
    assert first > 0
    for argv in (["parse", path], ["bounds", "3"], ["bounds", "9"], ["transpile", path]):
        run_cli(capsys, *argv)
    assert len(added) == first


def test_back_to_back_calls_leak_no_state(capsys, tmp_path):
    path = str(FIXTURES / "valid" / "ghz3_imag.qc")
    report = tmp_path / "report.json"
    code, first, _ = run_cli(capsys, "transpile", path, "--cnot-target", "0",
                             "--report", str(report))
    assert code == 0 and report.exists()
    report.write_text("untouched\n")
    code, second, _ = run_cli(capsys, "transpile", path, "--cnot-target", "0")
    assert code == 0 and second == first
    assert report.read_text() == "untouched\n"

    code, out, _ = run_cli(capsys, "degrade", "3", "--param", "depol_1q", "--values", "0")
    assert code == 0 and out.startswith("depol_1q,")
    assert run_cli(capsys, "bounds", "7")[0] == 1
    code, out, _ = run_cli(capsys, "degrade", "3", "--values", "0")
    assert code == 0 and out.startswith("depol_2q,")


# Output files are rewritten in place: opened without truncation, overwritten
# and cut to length, so what the user's path names stays the same file.

_LOWERABLE = FIXTURES / "valid" / "fig1_xxy.qc"


def _transpile_report(capsys, report):
    """Runs transpile with --report at report; returns (code, err)."""
    code, _, err = run_cli(capsys, "transpile", str(_LOWERABLE), "--cnot-target", "1",
                           "--report", str(report))
    return code, err


@pytest.fixture
def report_text(capsys, tmp_path):
    fresh = tmp_path / "fresh.json"
    assert _transpile_report(capsys, fresh) == (0, "")
    return fresh.read_text()


def test_transpile_out_over_its_longer_input_leaves_no_tail(capsys, tmp_path):
    circuit = tmp_path / "c.qc"
    circuit.write_text("# " + "padding " * 200 + "\n" + _LOWERABLE.read_text())
    code, expected, _ = run_cli(capsys, "transpile", str(circuit), "--cnot-target", "1")
    assert code == 0 and len(expected) < circuit.stat().st_size
    code, out, err = run_cli(capsys, "transpile", str(circuit), "--cnot-target", "1",
                             "--out", str(circuit))
    assert (code, out, err) == (0, "", "")
    assert circuit.read_text() == expected


def test_report_over_a_longer_file_leaves_no_tail(capsys, tmp_path, report_text):
    report = tmp_path / "report.json"
    report.write_text("x" * 10_000)
    assert _transpile_report(capsys, report) == (0, "")
    assert report.read_text() == report_text


def test_csv_over_longer_files_leaves_no_tail(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = sampled\noutput = csv\nshots = 128\n")
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    for name in ("counts_class1.csv", "counts_class3.csv"):
        (reused / name).write_text("9" * 10_000)
    for out_dir in (fresh, reused):
        assert run_cli(capsys, "run", str(cfg), "--out-dir", str(out_dir)) == (0, "", "")
    for name in ("counts_class1.csv", "counts_class3.csv"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_report_through_a_symlink_rewrites_the_target(capsys, tmp_path, report_text):
    target = tmp_path / "target.json"
    target.write_text("old " * 1000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert _transpile_report(capsys, link) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == report_text


def test_report_keeps_hard_links(capsys, tmp_path, report_text):
    first = tmp_path / "first.json"
    first.write_text("old " * 1000)
    second = tmp_path / "second.json"
    os.link(first, second)
    inode = first.stat().st_ino
    assert _transpile_report(capsys, first) == (0, "")
    assert first.stat().st_ino == second.stat().st_ino == inode
    assert first.stat().st_nlink == 2
    assert second.read_text() == report_text


def test_report_keeps_the_file_mode(capsys, tmp_path, report_text):
    report = tmp_path / "report.json"
    report.write_text("old\n")
    report.chmod(0o640)
    assert _transpile_report(capsys, report) == (0, "")
    assert report.stat().st_mode & 0o7777 == 0o640
    assert report.read_text() == report_text


@pytest.mark.parametrize("umask", [0o002, 0o077])
def test_new_report_gets_0o666_less_the_umask(capsys, tmp_path, umask):
    report = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        code, err = _transpile_report(capsys, report)
    finally:
        os.umask(old)
    assert (code, err) == (0, "")
    assert report.stat().st_mode & 0o7777 == 0o666 & ~umask


def test_report_to_devnull_exits_0(capsys):
    # ftruncate on a character device fails with EINVAL.
    assert _transpile_report(capsys, os.devnull) == (0, "")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_report_exits_1_with_the_os_message(capsys, tmp_path, where):
    report = tmp_path if where == "directory" else tmp_path / "absent" / "report.json"
    with pytest.raises(OSError) as exc:
        Path(report).write_text("")
    code, err = _transpile_report(capsys, report)
    assert code == 1
    assert err == f"error: {exc.value}\n"
    assert str(report) in err


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os":
        return True
    # The mode is open's second argument and Path.open's first.
    modes = call.args[isinstance(func, ast.Name):][:1]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return not all(isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                   and set(mode.value) <= set("rbt") for mode in modes)


def test_no_output_file_is_written_outside_the_in_place_writer():
    """Every file the package writes goes through cli._write_text: no
    write_text, write_bytes, os.open or open(...) in a write mode anywhere
    else in src/merminsim."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_write_text"
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in helper
                  and _writes_a_file(node)]
    assert found == []


def test_outputs_are_never_opened_with_o_trunc(capsys, monkeypatch, tmp_path):
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy)
    out, report = tmp_path / "out.qc", tmp_path / "report.json"
    argv = ["transpile", str(_LOWERABLE), "--cnot-target", "1",
            "--out", str(out), "--report", str(report)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = sampled\noutput = csv\nshots = 128\n")
    for _ in range(2):  # the second time over the files of the first
        assert run_cli(capsys, *argv) == (0, "", "")
        assert run_cli(capsys, "run", str(cfg), "--out-dir", str(tmp_path)) == (0, "", "")
    wanted = [str(out), str(report), str(tmp_path / "counts_class1.csv"),
              str(tmp_path / "counts_class3.csv")]
    assert sorted(path for path, _ in opened) == sorted(wanted * 2)
    assert all(not flags & os.O_TRUNC for _, flags in opened)


# A command writes its files, then stdout. A path that cannot be opened
# leaves every output as it was: the files the command created are removed.

def _listing(directory):
    return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
            for p in directory.iterdir()}


@pytest.mark.parametrize("out", [None, "new", "old", "dangling symlink"])
def test_failed_report_leaves_every_output_as_it_was(capsys, tmp_path, out):
    """A directory as --report: the new --out file is removed again, an old
    one keeps its bytes, the target made through a dangling symlink is
    removed and the link stays, and nothing reaches stdout."""
    with pytest.raises(OSError) as exc:
        tmp_path.write_text("")
    argv = ["transpile", str(_LOWERABLE), "--cnot-target", "1", "--report", str(tmp_path)]
    if out is not None:
        path = tmp_path / "out.qc"
        if out == "old":
            path.write_bytes(b"old bytes\n")
        elif out == "dangling symlink":
            path.symlink_to(tmp_path / "target.qc")
        argv += ["--out", str(path)]
    before = _listing(tmp_path)
    assert run_cli(capsys, *argv) == (1, "", f"error: {exc.value}\n")
    assert _listing(tmp_path) == before


def test_failed_csv_file_writes_no_other(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = sampled\noutput = csv\nshots = 128\n")
    out_dir = tmp_path / "counts"
    (out_dir / "counts_class3.csv").mkdir(parents=True)
    code, stdout, err = run_cli(capsys, "run", str(cfg), "--out-dir", str(out_dir))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and "counts_class3.csv" in err
    assert [p.name for p in out_dir.iterdir()] == ["counts_class3.csv"]


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("argv", [
    ["bounds", "3"],
    ["bounds", "3", "--json"],
    ["parse", "GHZ"],
    ["transpile", "GHZ", "--cnot-target", "0"],
    ["run", "JSON"],
    ["run", "TABLE"],
    ["degrade", "3", "--values", "0,0.05"],
], ids="_".join)
def test_stdout_is_one_write_of_the_whole_output(capsys, monkeypatch, tmp_path, argv):
    """One write, so `merminsim bounds 3 --json | head -1` cannot have its
    reader close the pipe between two writes of one output."""
    configs = {"JSON": "n = 3\noutput = json\n", "TABLE": "n = 3\n"}
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    paths = {"GHZ": str(FIXTURES / "valid" / "ghz3_plain.qc"),
             **{name: str(tmp_path / name) for name in configs}}
    argv = [paths.get(arg, arg) for arg in argv]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0 and expected
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(argv) == 0
    assert recorder.writes == [expected]


def test_commands_run_with_stdout_closed(monkeypatch, tmp_path):
    """Started with stdout closed, Python sets sys.stdout to None; as print
    does, the output is dropped and the files are still written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nmode = sampled\noutput = csv\nshots = 64\n")
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["bounds", "3"]) == 0
    assert main(["parse", str(FIXTURES / "valid" / "ghz3_plain.qc")]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "counts_class3.csv").exists()


def _calls(node, name):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == name]


def test_commands_compute_and_main_writes():
    """No _cmd_* prints, touches sys.stdout or sys.stderr, or calls
    _write_text; main makes the one _write_text call and the one stdout
    write."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    commands = [fn for name, fn in functions.items() if name.startswith("_cmd_")]
    assert len(commands) == 5
    for fn in commands:
        streams = [node for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                   and node.attr in ("stdout", "stderr")]
        assert not (_calls(fn, "print") or streams or _calls(fn, "_write_text")), fn.name
    writes = [fn.name for fn in functions.values() for _ in _calls(fn, "_write_text")]
    assert writes == ["main"]
    stdout = [fn.name for fn in functions.values() for node in ast.walk(fn)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.stdout.write"]
    assert stdout == ["main"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A temporary directory holding copies of the fixtures and three small run
    configs: fuzzed --out, --report and --out-dir values may overwrite them."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    for kind in ("valid", "bad"):
        for src in sorted((FIXTURES / kind).glob("*.qc")):
            shutil.copy(src, root / src.name)
    (root / "exact.cfg").write_text("n = 3\n[noise]\ndepol_2q = 0.05\n")
    (root / "sampled.cfg").write_text("n = 3\nmode = sampled\noutput = json\nshots = 64\n")
    (root / "csv.cfg").write_text("n = 4\nmode = sampled\noutput = csv\nshots = 64\n")
    return root


_FIXTURE_NAMES = sorted(p.name for kind in ("valid", "bad")
                        for p in (FIXTURES / kind).glob("*.qc"))
_CONFIG_NAMES = ["exact.cfg", "sampled.cfg", "csv.cfg"]
_CLI_WORDS = ["bounds", "transpile", "run", "degrade", "parse", "--json", "--cnot-target",
              "--rank", "--out", "--report", "--out-dir", "--param", "--values", "--help",
              "-h", "--", "-", "depol_1q", "depol_2q", "readout_flip", "0,1,2", "1,0",
              "2,1,0,3,4", "0,0.05"]
# No "/" or ".": a fuzzed output path stays inside the temporary directory.
_JUNK = st.text(alphabet=st.characters(exclude_characters="/."), max_size=6)
_CLI_TOKENS = st.one_of(
    st.sampled_from(_CLI_WORDS),
    st.sampled_from(_FIXTURE_NAMES + _CONFIG_NAMES),
    st.integers(-3, 12).map(str),
    _JUNK,
)


_COMMANDS = {  # operand tokens and options of each subcommand
    "bounds": (st.integers(2, 6).map(str), ["--json"]),
    "transpile": (st.sampled_from(_FIXTURE_NAMES), ["--cnot-target", "--rank", "--out",
                                                    "--report"]),
    "run": (st.sampled_from(_CONFIG_NAMES), ["--out-dir"]),
    "degrade": (st.integers(2, 6).map(str), ["--param", "--values"]),
    "parse": (st.sampled_from(_FIXTURE_NAMES), []),
}
_ANY_OPTION = [o for _, options in _COMMANDS.values() for o in options]


def _command_argv(command):
    """The subcommand, its operand, then mostly its own options with a value
    each, so that most lists get past the parser into the subcommand."""
    operand, options = _COMMANDS[command]
    option = st.sampled_from(options or _ANY_OPTION)
    group = st.one_of(st.tuples(option, _CLI_TOKENS), st.tuples(option),
                      st.tuples(_CLI_TOKENS))
    return st.tuples(operand, st.lists(group, max_size=3)).map(
        lambda t: [command, t[0], *(tok for g in t[1] for tok in g)])


_CLI_ARGVS = st.one_of(
    st.lists(_CLI_TOKENS, max_size=7),
    st.sampled_from(sorted(_COMMANDS)).flatmap(_command_argv),
)


@given(argv=_CLI_ARGVS)
@settings(max_examples=300, deadline=None)
def test_cli_arguments_fuzz(fuzz_dir, argv):
    """Any argument list ends with exit 0, 1 or 2 from one process's main,
    and never with an exception. A nonzero exit writes one error line to
    stderr, and 2 is only a star-topology violation."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    if code == 2:
        assert " does not involve target qubit " in lines[0]
