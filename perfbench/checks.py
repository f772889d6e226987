"""Output checks, run after each cycle outside the timed region.

Every reference is independent of the code path under test: the closed
forms in oracle.py wherever single-qubit depolarizing is off, the
density-matrix evaluator in oracle.py elsewhere (applied to the circuits
merminsim's planner lowers, which transpile-long checks on their own), the
statevector evaluator in oracle.py for transpiled circuits, and the
generator's own record of each circuit file.
"""
from __future__ import annotations

import hashlib
import json
import math
import re

import oracle
from workloads import canonical_text
from merminsim.circuits import MeasurementSetting, ghz_circuit, parse_circuit, with_setting
from merminsim.experiment import build_plan
from merminsim.mermin import canonical_polynomial
from merminsim.noise import NoiseModel
from merminsim.transpile import DeviceModel, constraint_violations, transpile

EXACT_TOL = 1e-12
TABLE_TOL = 0.5e-4 + EXACT_TOL
DEGRADE_TOL = 0.5e-10 + EXACT_TOL
CALIBRATE_TOL = 1e-4 + EXACT_TOL
SAMPLED_SIGMAS = 5.0
DIST_TOL = 1e-10

_EXP = re.compile(r"^  LR \| QM \| EXP : (\S+) \| (\S+) \| (\S+) \(exact\)$", re.M)


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _device(spec: dict) -> DeviceModel:
    return DeviceModel(spec["n"], cnot_target=spec["hub"], robustness_rank=tuple(spec["rank"]))


def _noise_args(noise: dict) -> tuple[float, float, float]:
    return (noise.get("depol_1q", 0.0), noise.get("depol_2q", 0.0),
            noise.get("readout_flip", 0.0))


def unit_parities(spec: dict, reduction: str) -> list[tuple[int, int, float]]:
    """(prime count, weight, exact parity) for every measured circuit of the
    run: one per symmetry class, or one per polynomial term. Closed form
    without single-qubit depolarizing; otherwise the density-matrix
    evaluator on the circuits merminsim lowers."""
    n, (d1, d2, r) = spec["n"], _noise_args(spec["noise"])
    if d1 == 0.0:
        return oracle.closed_form_units(n, spec["prep"], reduction, d2, r)
    device = _device(spec)
    plan = build_plan(n, prep_phase=spec["prep"], device=device, noise=NoiseModel(d1, d2, r))
    if reduction == "classes":
        units = [(cls.prime_count, cls.signed_weight, circ) for cls, circ in plan.classes]
    else:
        prep = ghz_circuit(n, plan.prep_phase, control=device.cnot_target)
        units = [
            (mask.bit_count(), coeff,
             transpile(with_setting(prep, MeasurementSetting(n, mask)), device)[0])
            for coeff, mask in canonical_polynomial(n).terms
        ]
    return [(k, w, oracle.noisy_parity(n, oracle.gates_of(c), d1, d2, r)) for k, w, c in units]


def exact_reference(spec: dict) -> tuple[float, list]:
    """Exact Mermin value of a run config and its per-unit parities."""
    units = unit_parities(spec, spec["reduction"])
    return sum(w * e for _, w, e in units), units


def _printed_value(op, out: str) -> tuple[float, bool]:
    """The Mermin value a run printed, and whether it is full precision."""
    if op.spec["output"] == "json":
        data = json.loads(out)
        _require(data["n"] == op.spec["n"] and data["mode"] == op.spec["mode"]
                 and data["reduction"] == op.spec["reduction"], "json header mismatch")
        return data["value"], True
    match = _EXP.search(out)
    _require(match is not None, "table has no exact LR | QM | EXP line")
    qm = oracle.mermin_closed_form(op.spec["n"], "max", 0.0, 0.0)
    _require(match.group(2) == f"{qm:.4f}", "table QM bound")
    return float(match.group(3)), False


def check_exact_run(op, out: str) -> float:
    value, full = _printed_value(op, out)
    ref, units = exact_reference(op.spec)
    tol = EXACT_TOL if full else TABLE_TOL
    _require(abs(value - ref) <= tol, f"value {value!r} vs reference {ref!r}")
    if full:
        per_unit = [(c["prime_count"], c["weight"], c["expectation"])
                    for c in json.loads(out)["per_class"]]
        _require(len(per_unit) == len(units), "per-class entry count")
        for (k, w, e), (rk, rw, re_) in zip(per_unit, units):
            _require((k, w) == (rk, rw) and abs(e - re_) <= EXACT_TOL,
                     f"per-class entry {k} {w} {e!r} vs {rk} {rw} {re_!r}")
    return value


def check_exact_pair(a, va: float, b, vb: float, stats: dict) -> None:
    """Class-reduced and full-term values agree wherever the exchange
    symmetry the reduction relies on holds, that is without single-qubit
    depolarizing. With it, each is checked against its own reference and
    the gap is recorded, not failed."""
    full = a.spec["output"] == "json" and b.spec["output"] == "json"
    gap = abs(va - vb)
    if a.spec["noise"]["depol_1q"] > 0.0:
        stats["class_term_gap_max"] = max(stats.get("class_term_gap_max", 0.0), gap)
        return
    _require(gap <= (EXACT_TOL if full else 2 * TABLE_TOL),
             f"classes {va!r} vs full-terms {vb!r}")


def check_degrade(op, out: str) -> None:
    n, param, values = op.spec["n"], op.spec["param"], op.spec["values"]
    lines = out.splitlines()
    _require(lines[0] == f"{param},mermin_value", "degrade header")
    _require(len(lines) == len(values) + 1, "degrade row count")
    for line, p in zip(lines[1:], values):
        p_text, v_text = line.split(",")
        _require(float(p_text) == p, f"degrade point {p_text} vs {p!r}")
        spec = {"n": n, "prep": "max", "hub": min(2, n - 1), "rank": list(range(n)),
                "noise": {param: p}, "reduction": "classes"}
        ref, _ = exact_reference(spec)
        _require(abs(float(v_text) - ref) <= DEGRADE_TOL, f"degrade {line} vs {ref!r}")


def check_calibrate(op, p: float) -> None:
    target = op.spec["target"]
    _require(0.0 <= p <= 1.0, f"calibrated rate {p!r} outside [0, 1]")
    got = oracle.mermin_closed_form(3, "max", p, 0.0)
    _require(abs(got - target) <= CALIBRATE_TOL, f"calibrated {p!r} gives {got!r}, target {target!r}")


def _within(est: float, se: float, ref: float) -> bool:
    return abs(est - ref) <= SAMPLED_SIGMAS * se + 1e-9


def check_sampled_run(op, out: str, digests: list) -> None:
    spec = op.spec
    units = unit_parities(spec, "classes")
    ref = sum(w * e for _, w, e in units)
    if spec["output"] == "json":
        data = json.loads(out)
        _require(data["mode"] == "sampled" and data["shots_per_class"] == spec["shots"]
                 and data["seed"] == spec["seed"], "sampled json header")
        for c, (k, w, e) in zip(data["per_class"], units):
            _require(c["prime_count"] == k and _within(c["expectation"], c["stderr"], e),
                     f"class {k} estimate {c['expectation']!r} +- {c['stderr']!r} vs {e!r}")
        _require(_within(data["value"], data["stderr"], ref),
                 f"estimate {data['value']!r} +- {data['stderr']!r} vs {ref!r}")
        digests.append(("json", spec["seed"], sha256(out)))
        return
    _require(out == "", "csv run wrote to stdout")
    n, shots = spec["n"], spec["shots"]
    signs = oracle.parity_signs(n)
    value, var = 0.0, 0.0
    for k, w, e in units:
        text = (op.out_dir / f"counts_class{k}.csv").read_text()
        rows = text.splitlines()
        _require(rows[0] == "outcome,count" and len(rows) == (1 << n) + 1, "csv shape")
        counts = []
        for i, row in enumerate(rows[1:]):
            key, cnt = row.split(",")
            _require(key == format(i, f"0{n}b"), "csv outcome order")
            counts.append(int(cnt))
        _require(sum(counts) == shots, "csv counts do not sum to shots")
        est = float(sum(s * c for s, c in zip(signs, counts))) / shots
        se = math.sqrt(max(1.0 - est * est, 0.0) / shots)
        _require(_within(est, se, e), f"csv class {k} estimate {est!r} +- {se!r} vs {e!r}")
        value += w * est
        var += (w * se) ** 2
        digests.append((f"csv{k}", spec["seed"], sha256(text)))
    _require(_within(value, math.sqrt(var), ref), f"csv estimate {value!r} vs {ref!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_transpile(op, out: str) -> None:
    spec = op.spec
    n, hub, gates = spec["n"], spec["hub"], spec["gates"]
    n_out, lowered, basis = oracle.parse_text(out)
    _require(n_out == n and basis == ["z"] * n, "lowered header or measure line")
    device = _device(spec)
    violations = constraint_violations(parse_circuit(out), device)
    _require(not violations, f"constraint violations {violations}")
    want = oracle.statevector_probs(n, gates)
    got = oracle.statevector_probs(n, lowered)
    diff = float(abs(want - got).max())
    _require(diff <= DIST_TOL, f"outcome distribution moved by {diff:.3e}")
    report = json.loads(spec["report"].read_text())
    reversed_cnots = sum(1 for g in gates if g[0] == "cnot" and g[2] != hub)
    _require(report["gate_count_before"] == len(gates), "report gate_count_before")
    _require(report["gate_count_after"] == len(lowered), "report gate_count_after")
    _require(report["added_h_count"] == 4 * reversed_cnots, "report added_h_count")
    _require(report["phase_host_qubit"] in (-1, spec["rank"][0]), "report phase_host_qubit")


def check_parse(op, out: str) -> None:
    canonical = canonical_text(op.spec["n"], op.spec["gates"])
    _require(out == canonical, "parse output differs from the normalized text")


def check_reject(op, err: str) -> None:
    lines = err.splitlines()
    _require(len(lines) == 1 and lines[0].startswith("error: "), f"rejection message {err!r}")
    line = op.spec["line"]
    if op.expect_rc == 2:
        _require(lines[0].endswith(f"does not involve target qubit {op.spec['hub']}"),
                 f"star rejection message {err!r}")
    elif line is not None:
        _require(lines[0].endswith(f", line {line}"), f"rejection line number {err!r}")


def _check_one(op, o, digests: list):
    """Check one outcome; returns the printed exact value for run pairs."""
    _require(o.error is None, f"raised: {o.error}")
    _require(o.rc == op.expect_rc, f"exit {o.rc}, expected {op.expect_rc}: {o.err.strip()!r}")
    if op.kind == "reject":
        _require(o.out == "", "rejection wrote to stdout")
        check_reject(op, o.err)
        return None
    _require(o.err == "", f"stderr {o.err.strip()!r}")
    if op.kind == "run" and op.spec["mode"] == "exact":
        return check_exact_run(op, o.out)
    if op.kind == "run":
        check_sampled_run(op, o.out, digests)
    elif op.kind == "degrade":
        check_degrade(op, o.out)
    elif op.kind == "calibrate":
        check_calibrate(op, o.value)
    elif op.kind == "transpile":
        check_transpile(op, o.out)
    elif op.kind == "parse":
        check_parse(op, o.out)
    return None


def check_cycle(ops, outcomes, digests: list, stats: dict) -> list[str | None]:
    """One verdict per operation: None when every check passed, else the
    reason. Output that breaks a check's own parsing is a failure too."""
    verdicts: list[str | None] = []
    pairs: dict[str, list] = {}
    for index, (op, o) in enumerate(zip(ops, outcomes)):
        verdict = None
        op_digests: list = []
        try:
            value = _check_one(op, o, op_digests)
            if value is not None:
                pairs.setdefault(op.spec["pair"], []).append((len(verdicts), op, value))
        except CheckFailed as exc:
            verdict = str(exc)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            verdict = f"unreadable output: {exc!r}"
        digests += [(index,) + d for d in op_digests]
        verdicts.append(verdict)
    for members in pairs.values():
        if len(members) != 2:  # one of the two already failed
            continue
        stats["pairs_checked"] = stats.get("pairs_checked", 0) + 1
        (_, a, va), (j, b, vb) = members
        try:
            check_exact_pair(a, va, b, vb, stats)
        except CheckFailed as exc:
            verdicts[j] = str(exc)
    return verdicts
