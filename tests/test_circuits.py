import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.circuits import (
    Circuit,
    CircuitFormatError,
    Gate,
    MeasurementSetting,
    cnot,
    gate,
    ghz_circuit,
    h,
    mask_bit,
    parse_circuit,
    phase_gates,
    phase_step_count,
    s,
    serialize_circuit,
    with_setting,
)
from merminsim.statevector import simulate_circuit

from conftest import FIXTURES, oracle_state


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        Gate("h", (0, 1))
    with pytest.raises(ValueError):
        Gate("cnot", (0,))
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError):
        h(-1)


def test_gates_are_interned():
    assert h(1) is h(1) is parse_circuit("qubits 2\nh 1\n").gates[0]
    assert gate("cnot", (0, 2)) is cnot(0, 2) is ghz_circuit(3).gates[2]
    assert s(0) is with_setting(ghz_circuit(2, math.pi / 2), MeasurementSetting(2, 0)).gates[2]


def test_rejected_gate_raises_every_time():
    size = gate.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="duplicate qubit"):
            gate("cnot", (1, 1))
        with pytest.raises(ValueError, match="duplicate qubit"):
            cnot(1, 1)
        with pytest.raises(ValueError, match="unknown gate kind"):
            gate("rz", (0,))
    assert gate.cache_info().currsize == size


def test_gate_qubits_are_plain_ints():
    """Equal keys share one interned gate, so whichever built it must
    serialize the same: qubits are stored as ints."""
    assert type(Gate("h", (np.int64(3),)).qubits[0]) is int
    assert type(gate("x", (True,)).qubits[0]) is int
    assert serialize_circuit(Circuit(2, (gate("x", (1,)),))) == "qubits 2\nx 1\nmeasure z z\n"
    with pytest.raises(TypeError):
        Gate("h", (1.5,))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (h(3),))
    with pytest.raises(ValueError):
        Circuit(2, (), measure_basis=("x",))
    with pytest.raises(ValueError):
        Circuit(11, ())
    c = Circuit(2, (h(0),))
    assert c.measure_basis == ("z", "z")


@pytest.mark.parametrize(
    "angle,k",
    [
        (0.0, 0),
        (math.pi / 4, 1),
        (math.pi / 2, 2),
        (3 * math.pi / 4, 3),
        (math.pi, 4),
        (7 * math.pi / 4, 7),
        (2 * math.pi, 0),
        (-math.pi / 4, 7),
    ],
)
def test_phase_step_count(angle, k):
    assert phase_step_count(angle) == k


def test_phase_step_count_rejects_off_grid():
    with pytest.raises(ValueError, match="multiple of pi/4"):
        phase_step_count(math.pi / 3)


def test_phase_gates_decomposition():
    assert phase_gates(0, 0) == []
    assert [g.kind for g in phase_gates(1, 0)] == ["t"]
    assert [g.kind for g in phase_gates(2, 0)] == ["s"]
    assert [g.kind for g in phase_gates(5, 1)] == ["s", "s", "t"]
    assert [g.kind for g in phase_gates(7, 2)] == ["s", "s", "s", "t"]
    assert all(g.qubits == (2,) for g in phase_gates(7, 2))


def test_ghz_circuit_structure():
    c = ghz_circuit(3)
    assert [(g.kind, g.qubits) for g in c.gates] == [
        ("h", (0,)),
        ("cnot", (0, 1)),
        ("cnot", (0, 2)),
    ]
    c2 = ghz_circuit(3, control=2)
    assert [(g.kind, g.qubits) for g in c2.gates] == [
        ("h", (2,)),
        ("cnot", (2, 0)),
        ("cnot", (2, 1)),
    ]
    c3 = ghz_circuit(3, math.pi / 2)
    assert c3.gates[-1].kind == "s"


def test_ghz_circuit_rejects_bad_input():
    with pytest.raises(ValueError):
        ghz_circuit(1)
    with pytest.raises(ValueError):
        ghz_circuit(3, math.pi / 5)
    with pytest.raises(ValueError):
        ghz_circuit(3, control=3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("k", range(8))
def test_ghz_circuit_reaches_target_state(n, k):
    state = simulate_circuit(ghz_circuit(n, k * math.pi / 4))
    target = np.zeros(1 << n, dtype=complex)
    target[0] = 1 / math.sqrt(2)
    target[-1] = np.exp(1j * k * math.pi / 4) / math.sqrt(2)
    fid = abs(np.vdot(target, state.amplitudes)) ** 2
    assert fid >= 1 - 1e-10


def test_mask_bit_is_msb_first():
    # party 0 is the leftmost character, so mask bit n-1-party
    assert mask_bit(0b001, 2, 3) == 1
    assert mask_bit(0b001, 0, 3) == 0
    assert mask_bit(0b100, 0, 3) == 1


def test_measurement_setting_label():
    assert MeasurementSetting(3, 0b001).label() == "XXY"
    assert MeasurementSetting(3, 0b111).label() == "YYY"
    assert MeasurementSetting(5, 0b01001).label() == "XYXXY"
    with pytest.raises(ValueError):
        MeasurementSetting(3, 0b1000)


def test_with_setting_gate_counts():
    base = ghz_circuit(4, 7 * math.pi / 4)
    for mask in (0b0000, 0b1100, 0b1111):
        c = with_setting(base, MeasurementSetting(4, mask))
        added = c.gates[len(base.gates):]
        assert sum(1 for g in added if g.kind == "sdg") == bin(mask).count("1")
        assert sum(1 for g in added if g.kind == "h") == 4
        assert c.measure_basis == ("z",) * 4


def test_with_setting_order():
    c = with_setting(ghz_circuit(3, math.pi / 2), MeasurementSetting(3, 0b001))
    tail = [(g.kind, g.qubits[0]) for g in c.gates[-4:]]
    assert tail == [("h", 0), ("h", 1), ("sdg", 2), ("h", 2)]


def test_parse_minimal():
    c = parse_circuit("qubits 2\nh 0\ncnot 0 1\n")
    assert c.n_qubits == 2
    assert [(g.kind, g.qubits) for g in c.gates] == [("h", (0,)), ("cnot", (0, 1))]
    assert c.measure_basis == ("z", "z")


def test_parse_comments_case_and_blank_lines():
    text = "# leading note\nQUBITS 3\n\nH 0\n  # indented comment\nCNOT 0 2\nMEASURE X Z Y\n"
    c = parse_circuit(text)
    assert c.n_qubits == 3
    assert c.measure_basis == ("x", "z", "y")


@pytest.mark.parametrize(
    "text,what,line",
    [
        ("h 0\n", "missing qubits header", 1),
        ("", "missing qubits header", 1),
        ("qubits x\n", "bad qubit count", 1),
        ("qubits 0\n", "bad qubit count", 1),
        ("qubits 99\n", "bad qubit count", 1),
        ("qubits 2\nqubits 2\n", "duplicate qubits header", 2),
        ("qubits 2\nmeasure z z\nh 0\n", "gate after measure", 3),
        ("qubits 2\nmeasure z\n", "qubit count mismatch", 2),
        ("qubits 2\nmeasure z q\n", "bad basis", 2),
        ("qubits 2\nfoo 0\n", "unknown mnemonic", 2),
        ("qubits 2\nh zero\n", "bad index", 2),
        ("qubits 2\nh 0 1\n", "bad index", 2),
        ("qubits 2\nh 5\n", "bad index", 2),
        ("qubits 2\ncnot 1 1\n", "duplicate qubit", 2),
        # The first h 0 is stored; its repeat after measure must still fail.
        ("qubits 2\nh 0\nmeasure z z\nh 0\n", "gate after measure", 4),
    ],
)
def test_parse_errors(text, what, line):
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit(text)
    assert err.value.what == what
    assert err.value.line == line
    assert str(err.value) == f"{what}, line {line}"


@pytest.mark.parametrize(
    "name,what,line",
    [
        ("err_dup_qubit", "duplicate qubit", 2),
        ("err_unknown", "unknown mnemonic", 2),
        ("err_badindex", "bad index", 2),
        ("err_range", "bad index", 2),
        ("err_noheader", "missing qubits header", 1),
        ("err_measure_len", "qubit count mismatch", 3),
    ],
)
def test_bad_fixture_files(name, what, line):
    text = (FIXTURES / "bad" / f"{name}.qc").read_text()
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit(text)
    assert str(err.value) == f"{what}, line {line}"


def test_serialize_emits_measure_line():
    out = serialize_circuit(Circuit(2, (h(0),)))
    assert out == "qubits 2\nh 0\nmeasure z z\n"


# Indices are taken mod n, so circuits of up to 6 qubits can touch every qubit.
_GATE_STRATEGY = st.one_of(
    st.tuples(st.sampled_from(["h", "x", "s", "sdg", "t", "tdg"]), st.integers(0, 5)),
    st.tuples(st.just("cnot"), st.integers(0, 5), st.integers(0, 5)),
)


@st.composite
def circuits(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    raw = draw(st.lists(_GATE_STRATEGY, max_size=12))
    gates = []
    for item in raw:
        if item[0] == "cnot":
            ctrl, tgt = item[1] % n, item[2] % n
            if ctrl == tgt:
                continue
            gates.append(cnot(ctrl, tgt))
        else:
            gates.append(Gate(item[0], (item[1] % n,)))
    basis = draw(
        st.one_of(st.none(), st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    )
    return Circuit(n, tuple(gates), tuple(basis) if basis else None)


@given(circuits())
def test_round_trip_parse_of_serialize(c):
    assert parse_circuit(serialize_circuit(c)) == c


@given(circuits())
def test_serialize_of_parse_is_textually_stable(c):
    text = serialize_circuit(c)
    assert serialize_circuit(parse_circuit(text)) == text


def test_round_trip_on_all_valid_fixtures():
    for path in sorted((FIXTURES / "valid").glob("*.qc")):
        c = parse_circuit(path.read_text())
        assert parse_circuit(serialize_circuit(c)) == c


def test_fixture_goldens_match_builders():
    """The lowered figure circuits are regenerable from the builders."""
    from merminsim.transpile import transpile
    from conftest import FIXTURE_DEVICES

    cases = {
        "fig1_xxy": (3, math.pi / 2, 0b001),
        "fig1_yyy": (3, math.pi / 2, 0b111),
        "fig2_yyxx": (4, 7 * math.pi / 4, 0b1100),
        "fig2_xyxxy": (5, 0.0, 0b01001),
    }
    for name, (n, phase, mask) in cases.items():
        device = FIXTURE_DEVICES[name]
        raw = with_setting(
            ghz_circuit(n, phase, control=device.cnot_target),
            MeasurementSetting(n, mask),
        )
        rebuilt, _ = transpile(raw, device)
        stored = parse_circuit((FIXTURES / "valid" / f"{name}.qc").read_text())
        assert rebuilt == stored


def test_ghz_state_matches_oracle():
    c = ghz_circuit(3, math.pi / 2)
    vec = oracle_state(c)
    amp = 1 / math.sqrt(2)
    assert abs(vec[0] - amp) < 1e-12
    assert abs(vec[7] - 1j * amp) < 1e-12
    assert np.allclose(vec, simulate_circuit(c).amplitudes, atol=1e-12)


_FUZZ_TOKENS = ["qubits", "QUBITS", "measure", "h", "H", "x", "s", "sdg", "t", "tdg", "cnot",
                "CNOT", "cz", "0", "1", "2", "3", "01", "10", "11", "-1", "y", "z", "q", "#", "#c"]

# Gate lines that parse under "qubits 3", some written twice in other forms.
_FUZZ_GATE_LINES = ["h 0", "H 0", "  h   0  # c", "x 2", "s 1", "sdg 1", "t 0", "tdg 2",
                    "cnot 0 1", "CNOT 0 1", "cnot 1 0", "cnot 2 0", "measure z x y"]

_FUZZ_LINES = st.one_of(
    st.sampled_from(_FUZZ_GATE_LINES),
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=4).map(" ".join),
    st.text(max_size=8),
)

_FUZZ_TEXTS = st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(["", "qubits 1\n", "qubits 3\n", "qubits 10\n"]),
              st.lists(_FUZZ_LINES, max_size=12).map("\n".join)).map("".join),
    st.lists(st.sampled_from(_FUZZ_GATE_LINES + ["", "# c"]), max_size=12).map(
        lambda lines: "\n".join(["qubits 3", *lines])),
)


@given(_FUZZ_TEXTS)
@settings(max_examples=400)
def test_parse_circuit_fuzz(text):
    """Any text parses to a circuit whose serialized form is stable, or fails
    with a CircuitFormatError on one of its lines; anything else fails."""
    try:
        c = parse_circuit(text)
    except CircuitFormatError as err:
        # Text with no header reports line 1, also when it has no lines.
        assert 1 <= err.line <= max(1, len(text.splitlines()))
        return
    once = serialize_circuit(c)
    assert serialize_circuit(parse_circuit(once)) == once
    assert all(g == Gate(g.kind, g.qubits) for g in c.gates)
    # One Gate object per distinct (kind, qubits).
    assert len({id(g) for g in c.gates}) == len({(g.kind, g.qubits) for g in c.gates})
