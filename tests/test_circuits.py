import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.circuits import (
    Circuit,
    CircuitFormatError,
    Gate,
    MeasurementSetting,
    _PINNED,
    cnot,
    gate,
    ghz_circuit,
    h,
    parse_circuit,
    phase_gates,
    phase_step_count,
    s,
    serialize_circuit,
    with_setting,
)

from conftest import FIXTURES, oracle_state, reference_parse_circuit


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


def test_pinned_gates_survive_a_full_cache():
    """Gates on qubits below 12 stay shared, however many larger-index gates
    are built, and the parser hands out the same objects."""
    first = h(0)
    for q in range(12, 12 + 1100):
        gate("x", (q,))
    assert h(0) is first is parse_circuit("qubits 1\nh 0\n").gates[0]
    assert cnot(11, 10) is gate("cnot", (11, 10)) is _PINNED["cnot", (11, 10)]
    assert len(_PINNED) == 204


def test_rejected_gate_raises_every_time():
    size = len(_PINNED)
    for _ in range(3):
        with pytest.raises(ValueError, match="duplicate qubit"):
            gate("cnot", (1, 1))
        with pytest.raises(ValueError, match="duplicate qubit"):
            cnot(1, 1)
        with pytest.raises(ValueError, match="unknown gate kind"):
            gate("rz", (0,))
        with pytest.raises(ValueError, match="duplicate qubit"):
            gate("cnot", (20, 20))
    assert len(_PINNED) == size


def test_gate_qubits_are_plain_ints():
    """Equal keys share one interned gate, so whichever built it must
    serialize the same: qubits are stored as ints."""
    assert type(Gate("h", (np.int64(3),)).qubits[0]) is int
    assert type(gate("x", (True,)).qubits[0]) is int
    assert serialize_circuit(Circuit(2, (gate("x", (1,)),))) == "qubits 2\nx 1\nmeasure z z\n"
    with pytest.raises(TypeError):
        Gate("h", (1.5,))


def test_gate_derived_fields():
    """line, top and mask are derived from kind and qubits, recomputed by
    dataclasses.replace, and take no part in repr, equality or hashing."""
    for g in (h(1), cnot(3, 0), gate("sdg", (9,))):
        assert serialize_circuit(Circuit(10, (g,))).splitlines()[1] == g.line
    assert cnot(3, 0).line == "cnot 3 0"
    assert (cnot(3, 0).top, cnot(3, 0).mask) == (3, 0b1001)
    assert (h(1).top, h(1).mask) == (1, 0b10)
    assert repr(h(1)) == "Gate(kind='h', qubits=(1,))"
    moved = dataclasses.replace(h(1), qubits=(2,))
    assert (moved.line, moved.top, moved.mask) == ("h 2", 2, 0b100)
    assert Gate("h", (1,)) == h(1) and hash(Gate("h", (1,))) == hash(h(1))


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
    for angle in (math.pi / 3, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="multiple of pi/4"):
            phase_step_count(angle)


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
    state = oracle_state(ghz_circuit(n, k * math.pi / 4))
    target = np.zeros(1 << n, dtype=complex)
    target[0] = 1 / math.sqrt(2)
    target[-1] = np.exp(1j * k * math.pi / 4) / math.sqrt(2)
    fid = abs(np.vdot(target, state)) ** 2
    assert fid >= 1 - 1e-10


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
    # MSB-first: mask bit n-1-party, so 0b001 primes party 2 only
    assert tail == [("h", 0), ("h", 1), ("sdg", 2), ("h", 2)]
    with pytest.raises(ValueError):
        MeasurementSetting(3, 0b1000)


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
        ("qubits 2\nmeasure z z\nqubits 2\n", "duplicate qubits header", 3),
        ("qubits 2\nmeasure z z\nmeasure z z\n", "gate after measure", 3),
        ("qubits 2\nH 1\nh 1\n\n  # c\ncz 0 1\nh 9\n", "unknown mnemonic", 6),
        ("\n# c\n  qubits 2 2\n", "bad qubit count", 3),
        # A comment between "\r" and "\n" leaves two line breaks.
        ("qubits 2\nh 0\r# c\nh 9\n", "bad index", 4),
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


# Every line break str.splitlines knows.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_comment_ends_at_any_line_break(brk):
    text = brk.join(["qubits 2 # header", "h 0 # a note", "CNOT 0 1#x", "h 5 # not a gate"])
    with pytest.raises(CircuitFormatError) as err:
        parse_circuit(text)
    assert (err.value.what, err.value.line) == ("bad index", 4)
    c = parse_circuit(brk.join(["qubits 2 # header", "h 0 # a note", "CNOT 0 1#x", ""]))
    assert c.gates == (h(0), cnot(0, 1))


@pytest.mark.parametrize("line", ["h 01", "h +1", "H   1", "h 1 ", "\th\t1"])
def test_index_spellings_give_the_interned_gate(line):
    c = parse_circuit(f"qubits 2\n{line}\n")
    assert c.gates[0] is h(1)
    assert serialize_circuit(c) == "qubits 2\nh 1\nmeasure z z\n"


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
    assert np.allclose(np.delete(vec, [0, 7]), 0, atol=1e-12)


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


_DEFECTS = ["cz 0 1", "h 10", "h -1", "h x", "cnot 0 0", "cnot 1", "qubits 3", "measure z",
            "measure z q", "measure " + " ".join("z" * 10), "measure Z X", "MEASURE z z z"]


@st.composite
def workload_texts(draw):
    """Circuit text as the benchmark writes it: a comment, the header, gate
    lines in upper case, with padded spaces, comments or other index
    spellings, blank lines, an optional final measure line, and at most one
    defect at a drawn position; lines end with any line break."""
    n = draw(st.integers(1, 10))
    lines = ["# generated", f"qubits {n}"]
    for _ in range(draw(st.integers(0, 30))):
        if n > 1 and draw(st.booleans()):
            control, target = draw(st.permutations(range(n)))[:2]
            line = f"cnot {control} {target}"
        else:
            kind = draw(st.sampled_from(["h", "x", "s", "sdg", "t", "tdg"]))
            line = f"{kind} {draw(st.integers(0, n - 1))}"
        style = draw(st.sampled_from(["plain", "plain", "upper", "pad", "comment", "blank",
                                      "index"]))
        if style == "upper":
            line = line.upper()
        elif style == "pad":
            line = "  " + line.replace(" ", "   ") + "  # pad"
        elif style == "comment":
            line += " #" + draw(st.text(max_size=4))
        elif style == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "# note"])))
        elif style == "index":
            line = line.replace(" ", " 0", 1) if draw(st.booleans()) else line.replace(" ", " +")
        lines.append(line)
    if draw(st.booleans()):
        lines.append("measure " + " ".join(draw(st.lists(st.sampled_from("xyzXYZ"),
                                                          min_size=n, max_size=n))))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_DEFECTS)))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(map("".join, zip(lines, breaks)))


def _parse_outcome(parse, text):
    try:
        c = parse(text)
    except CircuitFormatError as err:
        return err.what, err.line
    return c.n_qubits, c.measure_basis, [id(g) for g in c.gates]


@given(st.one_of(_FUZZ_TEXTS, workload_texts()))
@settings(max_examples=600)
def test_parse_circuit_matches_reference(text):
    """The table-driven parser gives the line-by-line reference's circuit,
    with the same Gate objects, or its error on the same line."""
    assert _parse_outcome(parse_circuit, text) == _parse_outcome(reference_parse_circuit, text)
