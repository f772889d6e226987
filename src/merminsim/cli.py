"""Command-line front end.

Subcommands: bounds, transpile, run, degrade, parse. Exit codes: 0 success
(also for --help), 1 malformed input (command-line usage, circuit or config),
2 device-constraint violation. ``main`` returns the code, also after --help,
and never raises SystemExit. Every error is one ``error: <message>`` line on
stderr.

The argument parser is built once per process, on the first ``main`` call;
later calls only parse.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
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

    p = sub.add_parser("run", help="run the estimation pipeline from a config file")
    p.add_argument("config", help="run configuration file")
    p.add_argument("--out-dir", default=".",
                   help="directory for csv output (default: current directory)")

    p = sub.add_parser("degrade", help="scan one noise parameter, csv to stdout")
    p.add_argument("n", type=int, choices=tuple(SIZES))
    p.add_argument("--param", default="depol_2q", choices=NOISE_PARAMS)
    p.add_argument("--values", default="0,0.025,0.05,0.075,0.1",
                   help="comma-separated parameter values")

    p = sub.add_parser("parse", help="check a circuit file and print its "
                                     "normalized form")
    p.add_argument("circuit", help="input circuit file")
    return parser


def _read_text(path: str, error: type[ValueError]) -> str:
    """The file's text, decoded as UTF-8 whatever the locale. A file that is
    not UTF-8 raises error (CircuitFormatError or ConfigError) on the line of
    its first bad byte, counted the way str.splitlines counts lines, as both
    parsers do."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        raise error("not UTF-8 text", len((before + "x").splitlines())) from None


def _cmd_bounds(args) -> int:
    rec = bounds_for(args.n)
    if args.json:
        payload = {"n": args.n, "lr_bound": rec.lr_bound, "qm_bound": rec.qm_bound}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"n {args.n}")
        print(f"LR {int(rec.lr_bound)}")
        print(f"QM {rec.qm_bound:.6f}")
    return 0


def _cmd_transpile(args) -> int:
    text = _read_text(args.circuit, CircuitFormatError)
    circ = parse_circuit(text)
    rank = None
    if args.rank is not None:
        try:
            rank = tuple(int(tok) for tok in args.rank.split(","))
        except ValueError:
            raise ValueError(f"--rank must list qubit indices, got {args.rank!r}") from None
    device = DeviceModel(circ.n_qubits, cnot_target=args.cnot_target, robustness_rank=rank)
    lowered, report = transpile(circ, device)
    rendered = serialize_circuit(lowered)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        Path(args.out).write_text(rendered)
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        )
    return 0


def _cmd_run(args) -> int:
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
        for cls, counts in sampled_class_counts(plan):
            path = out_dir / f"counts_class{cls.prime_count}.csv"
            path.write_text(counts_to_csv(counts))
        return 0
    est = run_plan(plan, mode=cfg.mode)
    if cfg.output == "json":
        print(json.dumps(estimate_to_json(est), sort_keys=True, indent=2))
    else:
        sys.stdout.write(estimate_table(est))
    return 0


def _cmd_degrade(args) -> int:
    try:
        points = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        points = []
    if not points:
        raise ValueError(f"--values must list one or more numbers, got {args.values!r}")
    grid = [NoiseModel(**{args.param: p}) for p in points]
    curve = degradation_curve(args.n, grid)
    print(f"{args.param},mermin_value")
    for model, value in curve:
        print(f"{getattr(model, args.param):.6g},{value:.10f}")
    return 0


def _cmd_parse(args) -> int:
    text = _read_text(args.circuit, CircuitFormatError)
    circ = parse_circuit(text)
    sys.stdout.write(serialize_circuit(circ))
    return 0


def main(argv=None) -> int:
    handlers = {
        "bounds": _cmd_bounds,
        "transpile": _cmd_transpile,
        "run": _cmd_run,
        "degrade": _cmd_degrade,
        "parse": _cmd_parse,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:
        # With error() overridden, only --help exits, after printing the usage.
        return exc.code
    except StarTopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CircuitFormatError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
