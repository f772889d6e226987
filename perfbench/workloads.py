"""Seeded input generators for the three benchmark workloads.

A workload's op list is a few cycles. A cycle is a fixed, stratified set of
operations (the same kinds and sizes in every cycle and for every seed); the
seed only picks the values inside each stratum (noise strengths, devices,
sampling seeds, circuit padding) and the order of the operations, so every
seed measures the same mix.

This module uses the standard library only: the worker imports it before the
timed interpreter start-up ends, and it must not add to that time.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("exact-noisy", "sampled-shots", "transpile-long")

# Which noise parameters are nonzero at an exact-noisy point:
# 1 = depol_1q, 2 = depol_2q, r = readout_flip.
NOISE_PATTERNS = ("", "2", "r", "2r", "12r", "1", "1r")

# (shots exponent, output, light noise) per n for sampled-shots: one
# 2^22-shot op per cycle, the rest mostly 2^18, so that a pass over the
# op list stays near ten seconds.
SAMPLED_STRATA = {
    3: ((22, "json", True), (19, "json", False), (18, "csv", True), (18, "json", False),
        (18, "json", True), (18, "json", False), (18, "json", True), (18, "json", False)),
    4: ((19, "json", True), (18, "csv", False), (18, "json", True)),
    5: ((20, "json", False), (18, "csv", True), (19, "json", True), (18, "json", False),
        (18, "json", True), (18, "csv", False)),
}

TRANSPILE_QUBITS = range(3, 11)
MIN_GATES, MAX_GATES = 24, 600


@dataclass
class Op:
    """One user-level operation: a CLI argv (or a library call for
    calibrate), the exit code it must return, and what the checks need."""

    kind: str
    argv: list[str] | None
    expect_rc: int
    spec: dict = field(default_factory=dict)
    out_dir: Path | None = None


def _rank(rng: random.Random, n: int) -> list[int]:
    rank = list(range(n))
    rng.shuffle(rank)
    return rank


def _config_text(spec: dict) -> str:
    lines = [
        f"n = {spec['n']}",
        f"mode = {spec['mode']}",
        f"reduction = {spec['reduction']}",
        f"output = {spec['output']}",
        f"prep_phase = {spec['prep']}",
    ]
    if spec["mode"] == "sampled":
        lines += [f"shots = {spec['shots']}", f"seed = {spec['seed']}"]
    lines.append("[noise]")
    lines += [f"{k} = {v!r}" for k, v in spec["noise"].items()]
    lines.append("[device]")
    lines.append(f"cnot_target = {spec['hub']}")
    lines.append("robustness_rank = " + " ".join(map(str, spec["rank"])))
    return "\n".join(lines) + "\n"


def _run_op(workdir: Path, name: str, spec: dict) -> Op:
    path = workdir / f"{name}.cfg"
    path.write_text(_config_text(spec))
    argv = ["run", str(path)]
    out_dir = None
    if spec["output"] == "csv":
        out_dir = workdir / name
        argv += ["--out-dir", str(out_dir)]
    return Op("run", argv, 0, spec, out_dir)


def exact_noisy_cycle(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n in (3, 4, 5):
        for pattern in NOISE_PATTERNS:
            noise = {
                "depol_1q": round(rng.uniform(0.002, 0.03), 6) if "1" in pattern else 0.0,
                "depol_2q": round(rng.uniform(0.005, 0.1), 6) if "2" in pattern else 0.0,
                "readout_flip": round(rng.uniform(0.002, 0.05), 6) if "r" in pattern else 0.0,
            }
            base = {
                "n": n, "mode": "exact", "prep": rng.choice(("max", "alt")),
                "noise": noise, "hub": rng.randrange(n), "rank": _rank(rng, n),
                "pair": f"{workdir.name}/{n}{pattern}",
            }
            for reduction in ("classes", "full-terms"):
                spec = dict(base, reduction=reduction, output=rng.choice(("json", "table")))
                ops.append(_run_op(workdir, f"x{n}{pattern}-{reduction}", spec))
        for param in ("depol_1q", "depol_2q", "readout_flip"):
            values = [0.0] + sorted(round(rng.uniform(0.005, 0.12), 4) for _ in range(3))
            argv = ["degrade", str(n), "--param", param,
                    "--values", ",".join(repr(v) for v in values)]
            ops.append(Op("degrade", argv, 0, {"n": n, "param": param, "values": values}))
    ops.append(Op("calibrate", None, 0, {"target": round(rng.uniform(1.0, 3.9), 6)}))
    rng.shuffle(ops)
    return ops


def sampled_shots_cycle(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n, strata in SAMPLED_STRATA.items():
        for k, (exponent, output, light) in enumerate(strata):
            noise = {"depol_1q": 0.0, "depol_2q": 0.0, "readout_flip": 0.0}
            if light:
                noise = {
                    "depol_1q": round(rng.uniform(0.0005, 0.005), 6),
                    "depol_2q": round(rng.uniform(0.002, 0.02), 6),
                    "readout_flip": round(rng.uniform(0.001, 0.01), 6),
                }
            spec = {
                "n": n, "mode": "sampled", "reduction": "classes", "output": output,
                "prep": rng.choice(("max", "alt")), "noise": noise,
                "hub": rng.randrange(n), "rank": _rank(rng, n),
                "shots": (1 << exponent) + rng.randrange(1 << (exponent - 4)),
                # Per-class seeds are seed XOR class index, so spacing seeds
                # by 8 (more than the 5 classes of n = 4) keeps every class
                # stream distinct.
                "seed": 8 * rng.randrange(1, 1 << 24),
            }
            ops.append(_run_op(workdir, f"s{n}-{k}", spec))
    rng.shuffle(ops)
    return ops


# ---- transpile-long -------------------------------------------------------

_PHASES = ("s", "sdg", "t", "tdg")
_INVERSE = {"h": "h", "x": "x", "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


def _pad_pairs(rng: random.Random, n: int, hub: int, budget: int,
               phases: bool) -> list[tuple]:
    """Inverse pairs that the peephole pass must cancel: adjacent, or split
    by a gate on disjoint qubits, including wrong-direction CNOT pairs that
    only cancel after reversal."""
    out: list[tuple] = []
    kinds = ("h", "x") + (_PHASES if phases else ())
    while len(out) + 2 <= budget:
        q = rng.randrange(n)
        roll = rng.random()
        if q != hub and roll < 0.3:
            g = ("cnot", hub, q) if roll < 0.15 else ("cnot", q, hub)
            out += [g, g]
            continue
        kind = rng.choice(kinds)
        first, second = (kind, q), (_INVERSE[kind], q)
        others = [p for p in range(n) if p != q]
        if len(out) + 4 <= budget and rng.random() < 0.3:
            between = (rng.choice(("h", "x")), rng.choice(others))
            out += [first, between, second, between]
        else:
            out += [first, second]
    return out


def _valid_circuit(rng: random.Random, n: int, hub: int, length: int) -> list[tuple]:
    """GHZ preparation fanned out from the hub (every CNOT wrong-direction),
    movable phase gates while the state is GHZ-diagonal, a measurement
    setting, and cancellable padding, close to the given length."""
    prep = [("h", hub)] + [("cnot", hub, q) for q in range(n) if q != hub]
    steps = rng.randrange(8)
    prep += [("s", hub)] * (steps // 2) + [("t", hub)] * (steps % 2)
    setting = []
    for q in range(n):
        if rng.random() < 0.5:
            setting.append(("sdg", q))
        setting.append(("h", q))
    spare = max(length - len(prep) - len(setting), 0)
    movable = [(rng.choice(_PHASES), rng.randrange(n)) for _ in range(spare // 6)]
    extra = []
    for _ in range(spare // 12):
        q = rng.choice([p for p in range(n) if p != hub])
        extra.append(("cnot", hub, q) if rng.random() < 0.5 else (rng.choice(_PHASES), q))
    rest = spare - len(movable) - len(extra)
    head = _pad_pairs(rng, n, hub, rest // 3, phases=True)
    middle = _pad_pairs(rng, n, hub, rest // 3, phases=False)
    tail = _pad_pairs(rng, n, hub, rest - len(head) - len(middle), phases=True)
    return head + prep + movable + middle + setting + tail + extra


def _gate_line(g: tuple) -> str:
    return " ".join([g[0]] + [str(q) for q in g[1:]])


def canonical_text(n: int, gates: list[tuple]) -> str:
    """The normalized form the parse subcommand must print."""
    lines = [f"qubits {n}"] + [_gate_line(g) for g in gates] + ["measure " + " ".join("z" * n)]
    return "\n".join(lines) + "\n"


def _file_lines(rng: random.Random, n: int, gates: list[tuple]) -> list[str]:
    """Circuit text with comments, blank lines, upper-case mnemonics and
    extra spaces that the parser must normalize."""
    lines = [f"# generated circuit, {n} qubits", f"qubits {n}"]
    for g in gates:
        text = _gate_line(g)
        roll = rng.random()
        if roll < 0.05:
            lines.append("")
        elif roll < 0.1:
            text = text.upper()
        elif roll < 0.15:
            text = "  " + text.replace(" ", "   ") + "  # pad"
        lines.append(text)
    if rng.random() < 0.7:
        lines.append("measure " + " ".join("z" * n))
    return lines


_BAD_KINDS = ("unknown", "index", "dup", "after-measure", "header", "measure-len", "star")


def _bad_file(rng: random.Random, n: int, hub: int, gates: list[tuple]) -> tuple[list[str], dict]:
    """A valid circuit with one seeded defect; the spec says which exit code
    and which line number the CLI must report."""
    kind = rng.choice(_BAD_KINDS)
    lines = [f"qubits {n}"] + [_gate_line(g) for g in gates]
    at = rng.randrange(2, len(lines) + 1)
    if kind == "header":
        lines = lines[1:]
        return lines, {"bad": kind, "rc": 1, "line": 1}
    if kind == "after-measure":
        lines.insert(at, "measure " + " ".join("z" * n))
        lines.insert(at + 1, _gate_line(gates[0]))
        return lines, {"bad": kind, "rc": 1, "line": at + 2}
    if kind == "measure-len":
        lines.append("measure " + " ".join("z" * (n - 1)))
        return lines, {"bad": kind, "rc": 1, "line": len(lines)}
    if kind == "star":
        a, b = [q for q in range(n) if q != hub][:2]
        lines.insert(at, f"cnot {a} {b}")
        return lines, {"bad": kind, "rc": 2, "line": None}
    bad_line = {"unknown": f"cz 0 {n - 1}", "index": f"h {n}", "dup": f"cnot {hub} {hub}"}[kind]
    lines.insert(at, bad_line)
    return lines, {"bad": kind, "rc": 1, "line": at + 1}


def transpile_long_cycle(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n in TRANSPILE_QUBITS:
        ratio = (MAX_GATES / MIN_GATES) ** (1 / (n - 1))
        lengths = [round(MIN_GATES * ratio ** i * rng.uniform(0.9, 1.1)) for i in range(n)]
        rng.shuffle(lengths)
        for hub, length in enumerate(lengths):
            gates = _valid_circuit(rng, n, hub, length)
            rank = _rank(rng, n)
            path = workdir / f"t{n}-{hub}.qc"
            path.write_text("\n".join(_file_lines(rng, n, gates)) + "\n")
            spec = {"n": n, "hub": hub, "rank": rank, "gates": gates}
            report = workdir / f"t{n}-{hub}.json"
            argv = ["transpile", str(path), "--cnot-target", str(hub),
                    "--rank", ",".join(map(str, rank)), "--report", str(report)]
            ops.append(Op("transpile", argv, 0, dict(spec, report=report)))
            ops.append(Op("parse", ["parse", str(path)], 0, spec))
        hub = rng.randrange(n)
        gates = _valid_circuit(rng, n, hub, rng.randrange(MIN_GATES, 4 * MIN_GATES))
        lines, bad = _bad_file(rng, n, hub, gates)
        path = workdir / f"t{n}-bad.qc"
        path.write_text("\n".join(lines) + "\n")
        if bad["rc"] == 2 or rng.random() < 0.5:
            argv = ["transpile", str(path), "--cnot-target", str(hub)]
        else:
            argv = ["parse", str(path)]
        ops.append(Op("reject", argv, bad["rc"], dict(bad, n=n, hub=hub)))
    rng.shuffle(ops)
    return ops


# Cycles per op list, so that every list holds at least 100 operations.
BLOCKS = {"exact-noisy": 2, "sampled-shots": 6, "transpile-long": 3}

CYCLES = {
    "exact-noisy": exact_noisy_cycle,
    "sampled-shots": sampled_shots_cycle,
    "transpile-long": transpile_long_cycle,
}


def op_list(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations for one seed: BLOCKS cycles, each with its
    input files in a subdirectory of workdir."""
    ops = []
    for index in range(BLOCKS[workload]):
        rng = random.Random(f"{workload}/{seed}/{index}")
        sub = workdir / f"c{index}"
        sub.mkdir(parents=True, exist_ok=True)
        ops += CYCLES[workload](rng, sub)
    return ops


def warmup_op(workload: str, workdir: Path) -> Op:
    """A fixed small operation of the workload's kind, run once after import
    to finish the timed interpreter set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "transpile-long":
        path = workdir / "warmup.qc"
        path.write_text(canonical_text(3, [("h", 2), ("cnot", 2, 0), ("cnot", 2, 1)]))
        return Op("warmup", ["transpile", str(path)], 0)
    spec = {
        "n": 3, "mode": "exact", "reduction": "classes", "output": "json",
        "prep": "max", "noise": {}, "hub": 2, "rank": [0, 1, 2],
    }
    if workload == "sampled-shots":
        spec.update(mode="sampled", shots=1 << 18, seed=8)
    return _run_op(workdir, "warmup", spec)

