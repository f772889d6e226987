"""End-to-end acceptance checks, one test per criterion.

Each test records a PASS/FAIL summary line (printed in the terminal summary)
before asserting, so a red criterion still reports its measured numbers.
"""

import math
import time

import numpy as np

from merminsim.circuits import (
    CircuitFormatError,
    MeasurementSetting,
    ghz_circuit,
    parse_circuit,
    serialize_circuit,
    with_setting,
)
from merminsim.experiment import (
    build_plan,
    full_term_run,
    parity_expectation_probs,
    run_plan,
)
from merminsim.mermin import (
    bounds_for,
    canonical_polynomial,
    symmetry_classes,
)
from merminsim.noise import NoiseModel, ZERO_NOISE, calibrate_depol_2q, degradation_curve
from merminsim.transpile import (
    cancel_adjacent_pass,
    constraint_violations,
    reverse_cnot_pass,
    transpile,
)

from conftest import (
    FIXTURE_DEVICES,
    FIXTURES,
    oracle_cnot,
    oracle_equivalent,
    oracle_state,
    record_acceptance,
    table_polynomial,
)

SQRT2 = math.sqrt(2.0)


def _load(name):
    return parse_circuit((FIXTURES / "valid" / f"{name}.qc").read_text())


def _fidelity(a, b) -> float:
    va = oracle_state(a)
    vb = oracle_state(b)
    return abs(np.vdot(va, vb)) ** 2


def test_01_bounds_table():
    start = time.monotonic()
    records = {n: bounds_for(n) for n in (3, 4, 5)}
    elapsed = time.monotonic() - start
    lr_ok = [records[3].lr_bound == 2, records[4].lr_bound == 4, records[5].lr_bound == 4]
    qm_ok = [
        abs(records[3].qm_bound - 4.0) < 1e-8,
        abs(records[4].qm_bound - 8 * SQRT2) < 1e-8,
        abs(records[5].qm_bound - 16.0) < 1e-8,
    ]
    ok = all(lr_ok) and all(qm_ok) and elapsed < 1.0
    detail = (
        f"LR=(2,4,4) QM=({records[3].qm_bound:.6f},{records[4].qm_bound:.6f},"
        f"{records[5].qm_bound:.6f}) in {elapsed:.3f}s"
    )
    record_acceptance(1, "bounds table", ok, detail)
    assert all(lr_ok), detail
    assert all(qm_ok), detail
    assert elapsed < 1.0, detail


def test_02_ideal_violation():
    start = time.monotonic()
    targets = {3: 4.0, 4: 8 * SQRT2, 5: 16.0}
    primary = {n: run_plan(build_plan(n), mode="exact").value for n in (3, 4, 5)}
    alternate = {
        n: run_plan(build_plan(n, prep_phase="alt"), mode="exact").value
        for n in (3, 4, 5)
    }
    elapsed = time.monotonic() - start
    primary_ok = all(abs(primary[n] - targets[n]) < 1e-8 for n in targets)
    alt_ok = all(abs(abs(alternate[n]) - targets[n]) < 1e-8 for n in targets)
    ok = primary_ok and alt_ok and elapsed < 5.0
    detail = (
        f"default phases -> ({primary[3]:.6f},{primary[4]:.6f},{primary[5]:.6f}); "
        f"stated-state phases -> ({alternate[3]:+.6f},{alternate[4]:+.6f},"
        f"{alternate[5]:+.6f}) in {elapsed:.2f}s"
    )
    record_acceptance(2, "ideal violation through lowered circuits", ok, detail)
    assert primary_ok, detail
    assert alt_ok, detail
    assert elapsed < 5.0, detail


def test_03_published_row_replay():
    xxy = [0.229, 0.042, 0.024, 0.194, 0.043, 0.203, 0.231, 0.033]
    yyy = [0.050, 0.188, 0.188, 0.028, 0.258, 0.026, 0.041, 0.221]
    e_xxy = parity_expectation_probs(xxy)
    e_yyy = parity_expectation_probs(yyy)
    classes = symmetry_classes(canonical_polynomial(3))
    value = classes[0].signed_weight * e_xxy + classes[1].signed_weight * e_yyy
    ok = (
        abs(e_xxy - 0.715) < 1e-12
        and abs(e_yyy + 0.710) < 1e-12
        and abs(value - 2.855) < 1e-12
    )
    detail = f"XXY={e_xxy:.3f} YYY={e_yyy:.3f} combined={value:.3f}"
    record_acceptance(3, "published probability-row replay", ok, detail)
    assert ok, detail


def test_04_transpiler_soundness():
    names = sorted(FIXTURE_DEVICES)
    pass_failures = []
    for name in names:
        circ = _load(name)
        device = FIXTURE_DEVICES[name]
        reversed_ = reverse_cnot_pass(circ, device)
        if not oracle_equivalent(circ, reversed_, 1e-10):
            pass_failures.append(f"{name}: reversal broke the unitary")
        cancelled = cancel_adjacent_pass(reversed_)
        if not oracle_equivalent(reversed_, cancelled, 1e-10):
            pass_failures.append(f"{name}: cancellation broke the unitary")
        lowered, _ = transpile(circ, device)
        if _fidelity(circ, lowered) < 1 - 1e-10:
            pass_failures.append(f"{name}: lowering changed the prepared state")
        if constraint_violations(lowered, device):
            pass_failures.append(f"{name}: constraints violated after lowering")

    hh = np.kron(
        np.array([[1, 1], [1, -1]]) / SQRT2, np.array([[1, 1], [1, -1]]) / SQRT2
    )
    identity_dev = float(np.abs(oracle_cnot(0, 1, 2) - hh @ oracle_cnot(1, 0, 2) @ hh).max())

    ok = not pass_failures and identity_dev < 1e-12 and len(names) >= 12
    detail = (
        f"{len(names)} fixtures; reversal+cancellation unitary-preserving, "
        f"full lowering state-preserving (phase relocation retargets the free "
        f"phase, so the composite is checked on the prepared state); "
        f"reversal identity max dev {identity_dev:.1e}"
    )
    if pass_failures:
        detail += "; failures: " + "; ".join(pass_failures)
    record_acceptance(4, "transpiler soundness", ok, detail)
    assert len(names) >= 12, detail
    assert not pass_failures, detail
    assert identity_dev < 1e-12, detail


def test_05_recursion_consistency():
    matches = {n: canonical_polynomial(n) == table_polynomial(n) for n in (3, 4, 5)}
    ok = all(matches.values())
    detail = "recursive terms equal the literal sign table for n=3,4,5 (exact)"
    if not ok:
        detail = f"mismatch at {[n for n, m in matches.items() if not m]}"
    record_acceptance(5, "recursion consistency", ok, detail)
    assert ok, detail


def test_06_class_term_equivalence():
    points = [ZERO_NOISE, NoiseModel(depol_2q=0.06), NoiseModel(depol_2q=0.03, readout_flip=0.02)]
    worst = 0.0
    for n in (3, 4, 5):
        for model in points:
            plan = build_plan(n, noise=model)
            a = run_plan(plan, mode="exact").value
            b = full_term_run(plan, mode="exact").value
            worst = max(worst, abs(a - b))
    ok = worst < 1e-10
    detail = f"max |class-reduced - full-term| = {worst:.2e} over 3 sizes x 3 noise points"
    record_acceptance(6, "class/term equivalence", ok, detail)
    assert ok, detail


def test_07_sampling_statistics():
    start = time.monotonic()
    values, stderrs = [], []
    for seed in range(200):
        est = run_plan(build_plan(3, shots=8192, seed=seed), mode="sampled")
        values.append(est.value)
        stderrs.append(est.stderr)
    elapsed = time.monotonic() - start
    mean = float(np.mean(values))
    reported = float(np.mean(stderrs))
    empirical = float(np.std(values, ddof=1))
    mean_ok = abs(mean - 4.0) <= 3 * reported / math.sqrt(200)
    spread_ok = abs(empirical - reported) <= 0.25 * reported
    ok = mean_ok and spread_ok and elapsed < 60.0
    detail = (
        f"mean={mean:.6f} reported stderr={reported:.2e} empirical={empirical:.2e} "
        f"in {elapsed:.1f}s (zero-noise distributions are parity-pure, both spreads 0)"
    )
    record_acceptance(7, "sampling statistics over 200 seeds", ok, detail)
    assert mean_ok, detail
    assert spread_ok, detail
    assert elapsed < 60.0, detail


def test_08_noise_consistency_probe():
    p2 = calibrate_depol_2q()
    model = NoiseModel(depol_2q=p2)
    values = {n: degradation_curve(n, [model])[0][1] for n in (3, 4, 5)}

    grid = [0.0, 0.025, 0.05, 0.075, 0.1]
    monotone = True
    for n in (3, 4, 5):
        for param in ("depol_1q", "depol_2q", "readout_flip"):
            scan = [v for _, v in degradation_curve(n, [NoiseModel(**{param: g}) for g in grid])]
            if any(lo > hi + 1e-9 for lo, hi in zip(scan[1:], scan)):
                monotone = False

    normalized = [values[n] / bounds_for(n).qm_bound for n in (3, 4, 5)]
    ranked = normalized[0] >= normalized[1] - 1e-9 >= normalized[2] - 2e-9

    cal_ok = abs(values[3] - 2.85) <= 0.01
    band4_ok = 4.0 < values[4] < 8.0
    band5_ok = 2.5 < values[5] < 6.5
    ok = cal_ok and band4_ok and band5_ok and monotone and ranked
    band4_note = "ok" if band4_ok else "violated"
    band5_note = "ok" if band5_ok else "violated (a single calibrated per-CNOT rate cannot reach it)"
    detail = (
        f"depol_2q={p2:.6f} -> values ({values[3]:.3f},{values[4]:.3f},{values[5]:.3f}); "
        f"4-qubit band (4,8) {band4_note}; 5-qubit band (2.5,6.5) {band5_note}; "
        f"monotone={monotone} ranking={ranked}"
    )
    record_acceptance(8, "calibrated noise consistency probe", ok, detail)
    assert cal_ok, detail
    assert monotone, detail
    assert ranked, detail
    assert band4_ok, detail
    assert band5_ok, detail


def test_09_format_round_trip(capsys):
    from merminsim.cli import main

    object_ok = True
    text_ok = True
    for path in sorted((FIXTURES / "valid").glob("*.qc")):
        circ = parse_circuit(path.read_text())
        if parse_circuit(serialize_circuit(circ)) != circ:
            object_ok = False
        rendered = serialize_circuit(circ)
        if serialize_circuit(parse_circuit(rendered)) != rendered:
            text_ok = False

    diagnostics_ok = True
    for path in sorted((FIXTURES / "bad").glob("*.qc")):
        try:
            parse_circuit(path.read_text())
            diagnostics_ok = False
        except CircuitFormatError as exc:
            if ", line " not in str(exc):
                diagnostics_ok = False
        code = main(["parse", str(path)])
        err = capsys.readouterr().err
        if code == 0 or "line" not in err:
            diagnostics_ok = False

    ok = object_ok and text_ok and diagnostics_ok
    detail = (
        "parse/serialize identity on all valid fixtures; every malformed "
        "fixture yields a line-numbered diagnostic and exit code 1"
    )
    record_acceptance(9, "format round-trip and diagnostics", ok, detail)
    assert object_ok, "object round trip failed"
    assert text_ok, "textual round trip failed"
    assert diagnostics_ok, "diagnostics contract failed"
