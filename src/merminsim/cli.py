"""Command-line front end.

Subcommands: bounds, transpile, run, degrade, parse. Exit codes: 0 success
(also for --help), 1 malformed input (command-line usage, circuit or config),
2 device-constraint violation. ``main`` returns the code, also after --help,
and never raises SystemExit. Every error is one ``error: <message>`` line on
stderr.

Each ``_cmd_*`` command computes its outputs and returns them as
``(stdout_text, {path: text})``; it writes no file (``run`` only creates
``--out-dir``). ``main`` writes the files, all through ``_write_text``, then
the stdout text in one write, so a failed command leaves stdout empty.

The argument parser is built once per process, on the first ``main`` call;
later calls only parse.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from dataclasses import asdict
from pathlib import Path

from .circuits import CircuitFormatError, parse_circuit, serialize_circuit
from .config import ConfigError, parse_config
from .experiment import (
    SIZES,
    build_plan,
    counts_to_csv,
    estimate_table,
    estimate_to_json,
    run_plan,
    sampled_class_counts,
)
from .mermin import bounds_for
from .noise import NOISE_PARAMS, NoiseModel, degradation_curve
from .transpile import DeviceModel, StarTopologyError, transpile


class _Parser(argparse.ArgumentParser):
    """Raises a usage error where argparse would print the usage and exit 2,
    the code reserved for a device-constraint violation. Subparsers inherit
    the class."""

    def error(self, message):
        # argparse quotes some tokens raw ("unrecognized arguments: ..."),
        # so a token holding a line break must not break the one-line report.
        raise ValueError(" ".join(message.splitlines()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="merminsim",
        description="GHZ-circuit simulation and Mermin-inequality estimation "
        "on a star-constrained device model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the classical and quantum bounds")
    p.add_argument("n", type=int, choices=tuple(SIZES))
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("transpile", help="lower a circuit file onto the device")
    p.add_argument("circuit", help="input circuit file")
    p.add_argument("--cnot-target", type=int, default=None,
                   help="only legal CNOT target (default: qubit 2, clamped)")
    p.add_argument("--rank", default=None,
                   help="robustness ranking, comma-separated, most robust first "
                        "(default: identity)")
    p.add_argument("--out", default=None, help="write the lowered circuit here "
                                               "(default: stdout)")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_transpile)

    p = sub.add_parser("run", help="run the estimation pipeline from a config file")
    p.add_argument("config", help="run configuration file")
    p.add_argument("--out-dir", default=".",
                   help="directory for csv output (default: current directory)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("degrade", help="scan one noise parameter, csv to stdout")
    p.add_argument("n", type=int, choices=tuple(SIZES))
    p.add_argument("--param", default="depol_2q", choices=NOISE_PARAMS)
    p.add_argument("--values", default="0,0.025,0.05,0.075,0.1",
                   help="comma-separated parameter values")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("parse", help="check a circuit file and print its "
                                     "normalized form")
    p.add_argument("circuit", help="input circuit file")
    p.set_defaults(func=_cmd_parse)
    return parser


def _read_text(path: str, error: type[ValueError]) -> str:
    """The file's text, decoded as UTF-8 whatever the locale, less one leading
    byte-order mark. A file that is not UTF-8 raises error (CircuitFormatError
    or ConfigError) on the line of its first bad byte, counted the way
    str.splitlines counts lines, as both parsers do."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from after the mark, in exc.object.
        before = exc.object[: exc.start].decode("utf-8")
        raise error("not UTF-8 text", len((before + "x").splitlines())) from None


def _write_text(files: dict) -> None:
    """Writes each path's text as UTF-8, in place: a file is opened without
    truncation, overwritten from its start, and cut to the written length
    only if it is a regular file that was longer. Rewriting a file of the same
    length then only dirties its cached pages, where truncating to zero first
    makes the filesystem free the blocks and wait for their write-back. As
    with Path.write_text, a symlink is followed, a hard link, the owner and
    the mode are kept, a new file gets 0o666 less the umask, and nothing is
    synced.

    Every path is opened before any is written. If one cannot be opened, the
    files this call created are removed, the others are left untouched, and
    the error is raised."""
    fds, created = [], []
    try:
        for path in files:
            new = not os.path.exists(path)
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            if new:
                # Through a dangling symlink the file made is its target.
                created.append(os.path.realpath(path))
        created = []  # all opened: keep every file from here on
        for fd, text in zip(fds, files.values()):
            data = text.encode("utf-8")
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
            info = os.fstat(fd)
            # ftruncate fails with EINVAL on a device such as os.devnull.
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                os.ftruncate(fd, len(data))
    finally:
        for fd in fds:
            os.close(fd)
        for path in created:
            os.unlink(path)


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _cmd_bounds(args) -> tuple[str, dict]:
    rec = bounds_for(args.n)
    if args.json:
        return _json({"n": args.n, **asdict(rec)}), {}
    return f"n {args.n}\nLR {int(rec.lr_bound)}\nQM {rec.qm_bound:.6f}\n", {}


def _cmd_transpile(args) -> tuple[str, dict]:
    circ = parse_circuit(_read_text(args.circuit, CircuitFormatError))
    rank = None
    if args.rank is not None:
        try:
            rank = tuple(int(tok) for tok in args.rank.split(","))
        except ValueError:
            raise ValueError(f"--rank must list qubit indices, got {args.rank!r}") from None
    device = DeviceModel(circ.n_qubits, cnot_target=args.cnot_target, robustness_rank=rank)
    lowered, report = transpile(circ, device)
    rendered = serialize_circuit(lowered)
    files = {} if args.out is None else {args.out: rendered}
    if args.report is not None:
        files[args.report] = _json(asdict(report))
    return (rendered if args.out is None else ""), files


def _cmd_run(args) -> tuple[str, dict]:
    cfg = parse_config(_read_text(args.config, ConfigError))
    csv = cfg.output == "csv"
    plan = build_plan(
        cfg.n,
        prep_phase=cfg.prep_phase,
        shots=cfg.shots,
        seed=cfg.seed,
        device=cfg.device,
        noise=cfg.noise,
        # CSV export writes one file per symmetry class whatever the reduction.
        reduction="classes" if csv else cfg.reduction,
    )
    if csv:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return "", {out_dir / f"counts_class{cls.prime_count}.csv": counts_to_csv(counts)
                    for cls, counts in sampled_class_counts(plan)}
    est = run_plan(plan, mode=cfg.mode)
    if cfg.output == "json":
        return _json(estimate_to_json(est)), {}
    return estimate_table(est), {}


def _cmd_degrade(args) -> tuple[str, dict]:
    try:
        points = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        points = []
    if not points:
        raise ValueError(f"--values must list one or more numbers, got {args.values!r}")
    grid = [NoiseModel(**{args.param: p}) for p in points]
    curve = degradation_curve(args.n, grid)
    rows = [f"{getattr(model, args.param):.6g},{value:.10f}\n" for model, value in curve]
    return "".join([f"{args.param},mermin_value\n", *rows]), {}


def _cmd_parse(args) -> tuple[str, dict]:
    circ = parse_circuit(_read_text(args.circuit, CircuitFormatError))
    return serialize_circuit(circ), {}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out, files = args.func(args)
        _write_text(files)
        if out and sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.write(out)
        return 0
    except SystemExit as exc:
        # With error() overridden, only --help exits, after printing the usage.
        return exc.code
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, StarTopologyError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
