import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.circuits import (
    PHASE_KINDS,
    Circuit,
    Gate,
    MeasurementSetting,
    cnot,
    gate,
    ghz_circuit,
    h,
    parse_circuit,
    s,
    sdg,
    t,
    with_setting,
)
from merminsim.transpile import (
    DeviceModel,
    StarTopologyError,
    TranspileReport,
    _movable_phase_positions,
    cancel_adjacent_pass,
    constraint_violations,
    default_device,
    place_phase_pass,
    reverse_cnot_pass,
    transpile,
)

from conftest import (
    FIXTURE_DEVICES,
    FIXTURES,
    kron_chain,
    oracle_cnot,
    oracle_equivalent,
    oracle_state,
    oracle_unitary,
    oracle_walk,
    reference_cancel_adjacent_pass,
    reference_movable_phase_positions,
    reference_scan_applied_gates,
)
from test_circuits import circuits


def load_fixture(name: str) -> Circuit:
    return parse_circuit((FIXTURES / "valid" / f"{name}.qc").read_text())


def gate_list(c: Circuit):
    return [(g.kind,) + g.qubits for g in c.gates]


def state_fidelity(a: Circuit, b: Circuit) -> float:
    va = oracle_state(a)
    vb = oracle_state(b)
    return abs(np.vdot(va, vb)) ** 2


def test_device_model_validation():
    with pytest.raises(ValueError):
        DeviceModel(3, cnot_target=3)
    with pytest.raises(ValueError):
        DeviceModel(3, cnot_target=0, robustness_rank=(0, 0, 1))
    with pytest.raises(ValueError):
        DeviceModel(3, cnot_target=0, robustness_rank=(0, 1))
    d = DeviceModel(3, cnot_target=1)
    assert d.robustness_rank == (0, 1, 2)


def test_default_device():
    assert default_device(2) == DeviceModel(2, cnot_target=1)
    assert default_device(5) == DeviceModel(5, cnot_target=2)
    # DeviceModel's own defaults are the documented device at every size.
    for n in range(1, 11):
        assert DeviceModel(n) == default_device(n)
        assert DeviceModel(n).cnot_target == min(2, n - 1)
        assert DeviceModel(n).robustness_rank == tuple(range(n))


def test_reversal_matrix_identity():
    """CNOT with control and target swapped equals the H-conjugated form."""
    hh = np.kron(
        np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    )
    lhs = oracle_cnot(0, 1, 2)
    rhs = hh @ oracle_cnot(1, 0, 2) @ hh
    assert np.abs(lhs - rhs).max() < 1e-12


def test_reverse_cnot_pass_rewrites():
    c = Circuit(2, (cnot(0, 1),))
    out = reverse_cnot_pass(c, DeviceModel(2, cnot_target=0))
    assert gate_list(out) == [("h", 0), ("h", 1), ("cnot", 1, 0), ("h", 0), ("h", 1)]
    assert oracle_equivalent(c, out)


def test_reverse_cnot_pass_keeps_legal_gates():
    c = Circuit(2, (cnot(0, 1),))
    assert reverse_cnot_pass(c, DeviceModel(2, cnot_target=1)) == c


def test_reverse_cnot_pass_rejects_off_hub():
    c = Circuit(3, (cnot(0, 1),))
    with pytest.raises(StarTopologyError, match="does not involve target qubit 2"):
        reverse_cnot_pass(c, DeviceModel(3, cnot_target=2))


def test_cancel_pass_basic_pairs():
    assert cancel_adjacent_pass(Circuit(1, (h(0), h(0)))).gates == ()
    assert cancel_adjacent_pass(Circuit(1, (s(0), sdg(0)))).gates == ()
    kept = cancel_adjacent_pass(Circuit(2, (h(0), h(1))))
    assert gate_list(kept) == [("h", 0), ("h", 1)]
    assert cancel_adjacent_pass(Circuit(2, (cnot(0, 1), cnot(0, 1)))).gates == ()


def test_cancel_pass_commutes_past_disjoint_gates():
    c = Circuit(2, (h(1), h(0), h(1)))
    assert gate_list(cancel_adjacent_pass(c)) == [("h", 0)]
    # a touching gate in between blocks the pair
    blocked = Circuit(2, (h(0), cnot(0, 1), h(0)))
    assert cancel_adjacent_pass(blocked) == blocked


def test_cancel_pass_does_not_pair_equal_phases():
    c = Circuit(1, (s(0), s(0)))
    assert cancel_adjacent_pass(c) == c


def test_cancel_pass_runs_to_fixpoint():
    c = Circuit(1, (h(0), h(0), h(0), h(0)))
    assert cancel_adjacent_pass(c).gates == ()
    nested = Circuit(1, (s(0), h(0), h(0), sdg(0)))
    assert cancel_adjacent_pass(nested).gates == ()


@given(circuits(max_qubits=4))
@settings(max_examples=60)
def test_cancel_pass_preserves_unitary_and_shrinks(c):
    out = cancel_adjacent_pass(c)
    assert len(out.gates) <= len(c.gates)
    assert oracle_equivalent(c, out)


def recording_kernel(mp, applied: list) -> None:
    """Wrap the scan's gate kernel so that it also records each (kind,
    qubits) it is handed."""
    module = sys.modules[transpile.__module__]
    kernel = module._apply_gate_inplace

    def recording(amps, kind, qubits, n):
        applied.append((kind, qubits))
        kernel(amps, kind, qubits, n)

    mp.setattr(module, "_apply_gate_inplace", recording)


def test_scan_elides_wire_adjacent_inverse_pairs(monkeypatch):
    """The scan never simulates an inverse pair adjacent on its wires, and
    applies held gates before each run start reads the state: t 0 and tdg 0
    are inverses split only by h 2, but tdg 0 starts a run. A gate on one
    wire of a held CNOT keeps it from cancelling, a gate on neither wire does
    not, and a CNOT never cancels its reverse. Each case ends in a phase
    gate, so every held gate is applied."""
    cases = [
        ("h 0\nh 0\ncnot 1 0\ncnot 1 0\nx 2\nx 2\ns 1\nh 2\nt 0\nh 2\ntdg 0",
         [s(1), h(2), t(0), h(2)], [6, 10]),
        ("cnot 0 2\nh 2\ncnot 0 2\ns 0", [cnot(0, 2), h(2), cnot(0, 2)], []),
        ("cnot 0 2\nh 1\ncnot 0 2\ns 0", [h(1)], []),
        ("cnot 0 2\ncnot 2 0\ns 0", [cnot(0, 2), cnot(2, 0)], [2]),
    ]
    recorded = []
    recording_kernel(monkeypatch, recorded)
    for text, applied, positions in cases:
        c = parse_circuit(f"qubits 3\n{text}\n")
        recorded.clear()
        assert _movable_phase_positions(c) == reference_movable_phase_positions(c) == positions
        assert recorded == [(g.kind, g.qubits) for g in applied] == reference_scan_applied_gates(c)


def test_passes_emit_interned_gates():
    c = with_setting(ghz_circuit(5, 3 * math.pi / 4, control=2), MeasurementSetting(5, 0b01101))
    d = DeviceModel(5, cnot_target=2, robustness_rank=(3, 0, 1, 2, 4))
    reversed_ = reverse_cnot_pass(c, d)
    placed = place_phase_pass(reversed_, d)
    assert placed is not reversed_
    for out in (reversed_, placed):
        assert all(g is gate(g.kind, g.qubits) for g in out.gates)


def test_place_pass_moves_branch_phase():
    c = ghz_circuit(3, math.pi / 2)  # S on control qubit 0
    out = place_phase_pass(c, DeviceModel(3, cnot_target=0, robustness_rank=(2, 0, 1)))
    assert ("s", 2) in gate_list(out)
    assert ("s", 0) not in gate_list(out)
    assert state_fidelity(c, out) >= 1 - 1e-10


def test_place_pass_identity_cases():
    c = ghz_circuit(3, math.pi / 2)
    assert place_phase_pass(c, default_device(3)) == c  # rank starts at 0, S already there
    bare = ghz_circuit(3)
    assert place_phase_pass(bare, DeviceModel(3, 0, (2, 1, 0))) == bare


def test_place_pass_returns_its_input_only_when_nothing_is_movable():
    """transpile reports a phase host exactly when this pass returns a new
    circuit, also when the movable gate already sits on the host."""
    device = DeviceModel(3, cnot_target=0)
    bare = ghz_circuit(3)
    assert place_phase_pass(bare, device) is bare
    assert transpile(bare, device)[1].phase_host_qubit == -1
    c = ghz_circuit(3, math.pi / 2)  # S already on the host, qubit 0
    out = place_phase_pass(c, device)
    assert out == c and out is not c
    assert transpile(c, device)[1].phase_host_qubit == 0


def test_place_pass_leaves_measurement_rotations_alone():
    """Basis-change phases sit behind an H, so the state there is not
    branch-diagonal and they must not move."""
    c = with_setting(ghz_circuit(3, math.pi / 2), MeasurementSetting(3, 0b001))
    out = place_phase_pass(c, DeviceModel(3, 0, (1, 0, 2)))
    assert ("sdg", 2) in gate_list(out)


def test_place_pass_preserves_distribution_not_unitary():
    """Relocating a branch phase keeps the prepared state while changing
    the circuit unitary; both facts are intended."""
    c = ghz_circuit(3, math.pi / 2)
    moved = place_phase_pass(c, DeviceModel(3, 0, (1, 0, 2)))
    assert gate_list(moved) != gate_list(c)
    assert state_fidelity(c, moved) >= 1 - 1e-12
    overlap = np.trace(oracle_unitary(c).conj().T @ oracle_unitary(moved))
    assert abs(overlap) / 8 < 0.99


FROZEN_REPORTS = {
    "fig1_xxy": TranspileReport(8, 10, 8, 0),
    "fig1_yyy": TranspileReport(10, 10, 8, 0),
    "fig2_yyxx": TranspileReport(14, 16, 12, 0),
    "fig2_xyxxy": TranspileReport(12, 14, 16, -1),
}

FIG_BUILDS = {
    "fig1_xxy": (3, math.pi / 2, 0b001),
    "fig1_yyy": (3, math.pi / 2, 0b111),
    "fig2_yyxx": (4, 7 * math.pi / 4, 0b1100),
    "fig2_xyxxy": (5, 0.0, 0b01001),
}


@pytest.mark.parametrize("name", sorted(FIG_BUILDS))
def test_transpile_figure_circuits(name):
    n, phase, mask = FIG_BUILDS[name]
    device = FIXTURE_DEVICES[name]
    raw = with_setting(
        ghz_circuit(n, phase, control=device.cnot_target),
        MeasurementSetting(n, mask),
    )
    out, report = transpile(raw, device)
    assert out == load_fixture(name)
    assert report == FROZEN_REPORTS[name]
    assert constraint_violations(out, device) == []
    assert state_fidelity(raw, out) >= 1 - 1e-10


def test_transpile_golden_gate_lists():
    assert gate_list(load_fixture("fig1_xxy")) == [
        ("h", 0), ("cnot", 0, 1), ("h", 0), ("h", 2), ("cnot", 2, 1),
        ("h", 2), ("s", 0), ("h", 0), ("sdg", 2), ("h", 2),
    ]
    assert gate_list(load_fixture("fig2_xyxxy")) == [
        ("h", 0), ("cnot", 0, 2), ("h", 1), ("cnot", 1, 2), ("h", 1),
        ("h", 3), ("cnot", 3, 2), ("h", 4), ("cnot", 4, 2), ("h", 4),
        ("sdg", 1), ("h", 1), ("sdg", 4), ("h", 4),
    ]


def test_transpile_peephole_fixture():
    out, report = transpile(load_fixture("peephole_pairs"), FIXTURE_DEVICES["peephole_pairs"])
    assert gate_list(out) == [("h", 0), ("s", 0)]
    assert report == TranspileReport(12, 2, 0, 0)


def test_transpile_reversed_single_fixture():
    out, report = transpile(load_fixture("reversed_single"), FIXTURE_DEVICES["reversed_single"])
    assert gate_list(out) == [("h", 0), ("h", 1), ("cnot", 1, 0), ("h", 0), ("h", 1)]
    assert report.added_h_count == 4
    assert report.phase_host_qubit == -1


def test_transpile_star_illegal_fixture():
    with pytest.raises(StarTopologyError):
        transpile(load_fixture("star_illegal"), DeviceModel(4, cnot_target=1))


def test_transpile_already_legal_is_identity():
    c = Circuit(2, (h(1), cnot(0, 1)))
    out, report = transpile(c, DeviceModel(2, cnot_target=1))
    assert out == c
    assert report == TranspileReport(2, 2, 0, -1)


def test_transpile_empty_circuit():
    c = Circuit(3, ())
    out, report = transpile(c, default_device(3))
    assert out == c
    assert report.gate_count_before == 0
    assert report.gate_count_after == 0


def test_transpile_ghz5_targets_hub():
    raw = ghz_circuit(5, control=2)
    out, _ = transpile(raw, DeviceModel(5, cnot_target=2))
    cnots = [g for g in out.gates if g.kind == "cnot"]
    assert len(cnots) == 4
    assert all(g.qubits[1] == 2 for g in cnots)


def transpilable_fixture_names():
    return sorted(FIXTURE_DEVICES)


@pytest.mark.parametrize("name", transpilable_fixture_names())
def test_transpile_fixture_soundness(name):
    """Pass-level unitary preservation, whole-pipeline state preservation,
    constraint cleanliness, and idempotence on every lowerable fixture."""
    circ = load_fixture(name)
    device = FIXTURE_DEVICES[name]

    reversed_ = reverse_cnot_pass(circ, device)
    assert oracle_equivalent(circ, reversed_, 1e-10)
    cancelled = cancel_adjacent_pass(reversed_)
    assert oracle_equivalent(reversed_, cancelled, 1e-10)

    out, _ = transpile(circ, device)
    assert state_fidelity(circ, out) >= 1 - 1e-10
    assert constraint_violations(out, device) == []

    again, _ = transpile(out, device)
    assert again == out


def test_constraint_violations_reports_problems():
    c = Circuit(3, (cnot(0, 1),), measure_basis=("x", "z", "z"))
    problems = constraint_violations(c, DeviceModel(3, cnot_target=2))
    assert len(problems) == 2
    assert any("cnot" in p for p in problems)
    assert any("basis" in p for p in problems)


def test_transpile_distribution_matches_oracle():
    """End to end: the lowered XXY circuit must give the same outcome
    distribution as a dense-matrix simulation of the original."""
    n, phase, mask = FIG_BUILDS["fig1_xxy"]
    device = FIXTURE_DEVICES["fig1_xxy"]
    raw = with_setting(
        ghz_circuit(n, phase, control=device.cnot_target),
        MeasurementSetting(n, mask),
    )
    out, _ = transpile(raw, device)
    dense = oracle_unitary(raw)
    start = np.zeros(8, dtype=complex)
    start[0] = 1.0
    want = np.abs(dense @ start) ** 2
    got = np.abs(oracle_state(out)) ** 2
    assert np.allclose(got, want, atol=1e-12)


# Rows are the conjugated eigenvectors of each basis, outcome bit 0 first
# (the +1 eigenvector), so row b of the product is <b| in that basis.
_BASIS_ROWS = {
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "y": np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2),
    "z": np.eye(2, dtype=complex),
}


@pytest.mark.parametrize("seed", range(6))
def test_transpile_lowers_measurement_tags(seed):
    """A circuit tagged x/y comes out tagged z only, legal for the device,
    and with the outcome distribution of the input measured in its tags."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    hub = int(rng.integers(n))
    prep = ghz_circuit(n, int(rng.integers(8)) * math.pi / 4, control=hub)
    tags = tuple(str(b) for b in rng.choice(["x", "y", "z"], size=n))
    c = Circuit(n, prep.gates + (h(int(rng.integers(n))),), tags)
    device = DeviceModel(n, cnot_target=hub,
                         robustness_rank=tuple(int(q) for q in rng.permutation(n)))
    out, report = transpile(c, device)
    assert out.measure_basis == ("z",) * n
    assert constraint_violations(out, device) == []
    assert report.gate_count_before == len(c.gates)
    assert report.added_h_count == 4 * (n - 1)  # every fan-out CNOT is reversed
    want = np.abs(kron_chain([_BASIS_ROWS[b] for b in tags]) @ oracle_state(c)) ** 2
    got = np.abs(oracle_state(out)) ** 2
    assert np.allclose(got, want, atol=1e-12)


_PHASES = ("s", "sdg", "t", "tdg")
_INVERSE = {"h": "h", "x": "x", "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


@st.composite
def star_circuits(draw):
    """A star-legal circuit of 3-10 qubits and a device with a random hub
    and ranking, built from the padding shapes of the transpile-long
    workload: inverse pairs, adjacent, split by a gate on other qubits, or
    split by a phase gate that may start a run of the phase scan;
    CNOT pairs in either direction, the wrong one cancelling only after
    reversal; GHZ fan-outs from the hub, every CNOT wrong-direction; and
    runs of phase gates split by an H, an X or a CNOT."""
    n = draw(st.integers(3, 10))
    hub = draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != hub]
    qubit = st.integers(0, n - 1)

    def phase_run():
        kinds = draw(st.lists(st.sampled_from(_PHASES), max_size=4))
        return [Gate(kind, (draw(qubit),)) for kind in kinds]

    gates = []
    shapes = draw(st.lists(st.sampled_from(["pair", "split", "straddle", "cnots", "ghz",
                                            "phases"]), max_size=12))
    splitters = st.one_of(st.sampled_from(["h", "x"]).flatmap(
        lambda kind: qubit.map(lambda q: Gate(kind, (q,)))),
        st.sampled_from(others).flatmap(lambda q: st.sampled_from([cnot(hub, q), cnot(q, hub)])))
    for shape in shapes:
        if shape in ("pair", "split", "straddle"):
            kind, q = draw(st.sampled_from(sorted(_INVERSE))), draw(qubit)
            first, second = Gate(kind, (q,)), Gate(_INVERSE[kind], (q,))
            if shape == "pair":
                gates += [first, second]
            elif shape == "straddle":
                gates += [first, Gate(draw(st.sampled_from(_PHASES)), (draw(qubit),)), second]
            else:
                other = draw(st.sampled_from([p for p in range(n) if p != q]))
                between = Gate(draw(st.sampled_from(["h", "x"])), (other,))
                gates += [first, between, second, between]
        elif shape == "cnots":
            q = draw(st.sampled_from(others))
            g = draw(st.sampled_from([cnot(hub, q), cnot(q, hub)]))
            gates += [g, g]
        elif shape == "ghz":
            gates += [h(hub)] + [cnot(hub, q) for q in others]
        else:
            gates += phase_run() + [draw(splitters)] + phase_run()
    rank = tuple(draw(st.permutations(range(n))))
    return Circuit(n, tuple(gates)), DeviceModel(n, cnot_target=hub, robustness_rank=rank)


@given(star_circuits())
@settings(max_examples=150, deadline=None)
def test_passes_match_reference_implementations(case):
    """The stop-early, once-per-run phase scan and the bitmask peephole give
    the same positions and gate lists as their first forms in conftest, on
    the circuit as written and after CNOT reversal."""
    c, device = case
    assert _movable_phase_positions(c) == reference_movable_phase_positions(c)
    reversed_ = reverse_cnot_pass(c, device)
    positions = reference_movable_phase_positions(reversed_)
    assert _movable_phase_positions(reversed_) == positions
    placed = place_phase_pass(reversed_, device)
    want = list(reversed_.gates)
    for i in positions:
        want[i] = Gate(want[i].kind, (device.robustness_rank[0],))
    assert list(placed.gates) == want
    for circuit in (c, reversed_, placed):
        assert cancel_adjacent_pass(circuit).gates == reference_cancel_adjacent_pass(circuit).gates


@given(star_circuits())
@settings(max_examples=150, deadline=None)
def test_scan_applies_the_per_wire_stack_sequence(case):
    """The scan's mask look-back hands the kernel exactly the gates the
    per-wire-stack rule in conftest holds, in the same order, and returns
    the positions of the full scan, on the circuit as written and after
    CNOT reversal."""
    c, device = case
    for circuit in (c, reverse_cnot_pass(c, device)):
        recorded = []
        with pytest.MonkeyPatch.context() as mp:
            recording_kernel(mp, recorded)
            positions = _movable_phase_positions(circuit)
        assert recorded == reference_scan_applied_gates(circuit)
        assert positions == reference_movable_phase_positions(circuit)


@given(star_circuits())
@settings(max_examples=150, deadline=None)
def test_transpile_preserves_the_dense_state(case):
    """By the dense oracle, the lowered circuit prepares the input's state,
    global phase included. At every phase gate of the input the off-support
    mass is at rounding level or far above the scan's 1e-9 cut, so the cut
    sits in a wide gap, and the scan moves exactly the gates below it."""
    c, device = case
    states = oracle_walk(c)
    if c.n_qubits <= 6:
        assert np.abs(states[-1] - oracle_state(c)).max() <= 1e-12
    lowered, _ = transpile(c, device)
    assert np.abs(oracle_walk(lowered)[-1] - states[-1]).max() <= 1e-12
    below_cut = []
    for i, g in enumerate(c.gates):
        if g.kind in PHASE_KINDS:
            off = float(np.sum(np.abs(states[i][1:-1]) ** 2))
            assert off <= 1e-13 or off >= 1e-6
            if off <= 1e-9:
                below_cut.append(i)
    assert _movable_phase_positions(c) == below_cut


def reversal_first_transpile(c: Circuit, d: DeviceModel):
    """transpile with CNOT reversal run before phase placement."""
    reversed_ = reverse_cnot_pass(c, d)
    placed = place_phase_pass(reversed_, d)
    out = cancel_adjacent_pass(placed)
    added = len(reversed_.gates) - len(c.gates)
    host = d.robustness_rank[0] if placed is not reversed_ else -1
    return out, TranspileReport(len(c.gates), len(out.gates), added, host)


@given(star_circuits())
@settings(max_examples=150, deadline=None)
def test_transpile_order_matches_reversal_first(case):
    """Placing phases before reversing CNOTs gives the same gates and report
    as the reverse order: reversal keeps the unitary and never touches a
    phase gate, so every phase gate sees the same state."""
    c, device = case
    assert transpile(c, device) == reversal_first_transpile(c, device)


def test_transpile_order_matches_reversal_first_on_plan_circuits():
    """Every class circuit a plan can build for n = 3..5: each hub, each
    measurement mask and each eighth-turn prep phase, with a random
    ranking."""
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        for hub in range(n):
            device = DeviceModel(n, cnot_target=hub,
                                 robustness_rank=tuple(int(q) for q in rng.permutation(n)))
            for k in range(8):
                prep = ghz_circuit(n, k * math.pi / 4, control=hub)
                for mask in range(1 << n):
                    c = with_setting(prep, MeasurementSetting(n, mask))
                    assert transpile(c, device) == reversal_first_transpile(c, device)


def test_transpile_rejects_star_violation_before_the_scan(monkeypatch):
    """A star-illegal circuit raises reverse_cnot_pass's message and never
    pays for the phase scan."""
    c = Circuit(4, (h(0), s(0), cnot(0, 1), t(3)))
    device = DeviceModel(4, cnot_target=2)
    with pytest.raises(StarTopologyError) as want:
        reverse_cnot_pass(c, device)

    def fail(_):
        raise AssertionError("phase scan ran on a star-illegal circuit")

    # The package exports the function transpile over the module's name.
    monkeypatch.setattr(sys.modules[transpile.__module__], "_movable_phase_positions", fail)
    with pytest.raises(StarTopologyError) as got:
        transpile(c, device)
    assert str(got.value) == str(want.value) == "cnot 0 1 does not involve target qubit 2"
