"""Circuit data model, line-oriented text format, and GHZ-preparation builders.

Conventions used across the package:

* Qubit 0 is the leftmost character of an outcome string and the most
  significant bit of an array index.
* Measurement-basis tags are lowercase ``x``/``y``/``z``. Lowering a circuit
  for hardware appends basis-change gates and resets every tag to ``z``.
* A Y-basis measurement lowers to S-dagger followed by H; outcome bit 0 then
  corresponds to eigenvalue +1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, index

GATE_KINDS = {
    "h": 1,
    "x": 1,
    "s": 1,
    "sdg": 1,
    "t": 1,
    "tdg": 1,
    "cnot": 2,
}

PHASE_KINDS = frozenset({"s", "sdg", "t", "tdg"})

BASIS_TAGS = ("x", "y", "z")

MAX_QUBITS = 10

QUARTER_TURN = math.pi / 4


class CircuitFormatError(ValueError):
    """Raised on malformed circuit text; carries the 1-based line number."""

    def __init__(self, what: str, line: int):
        super().__init__(f"{what}, line {line}")
        self.what = what
        self.line = line


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        # Plain ints: equal keys such as 1 and True share one interned gate.
        object.__setattr__(self, "qubits", tuple(map(index, self.qubits)))
        arity = GATE_KINDS[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {len(self.qubits)}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("duplicate qubit in gate")


@lru_cache(maxsize=1024)
def gate(kind: str, qubits: tuple[int, ...]) -> Gate:
    """The process-wide Gate for (kind, qubits), built and validated on first
    use. A gate that fails validation raises on every call and is never
    stored. The 204 gates on qubits below 12 (the doubled density-matrix
    vector) are never evicted; the bound caps what other callers can add."""
    return Gate(kind, qubits)


def h(q: int) -> Gate:
    return gate("h", (q,))


def x(q: int) -> Gate:
    return gate("x", (q,))


def s(q: int) -> Gate:
    return gate("s", (q,))


def sdg(q: int) -> Gate:
    return gate("sdg", (q,))


def t(q: int) -> Gate:
    return gate("t", (q,))


def tdg(q: int) -> Gate:
    return gate("tdg", (q,))


def cnot(control: int, target: int) -> Gate:
    return gate("cnot", (control, target))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n_qubits, with a per-qubit measurement-basis tag.

    measure_basis defaults to all-``z`` when passed as None.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    measure_basis: tuple[str, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        object.__setattr__(self, "gates", tuple(self.gates))
        basis = self.measure_basis
        if basis is None:
            basis = ("z",) * self.n_qubits
        basis = tuple(basis)
        if len(basis) != self.n_qubits:
            raise ValueError("measure_basis length must equal n_qubits")
        if any(b not in BASIS_TAGS for b in basis):
            raise ValueError("measure_basis entries must be x, y or z")
        object.__setattr__(self, "measure_basis", basis)
        # The largest index over all gates, found in C; the loop only names
        # the first gate out of range.
        if self.gates and max(map(max, map(attrgetter("qubits"), self.gates))) >= self.n_qubits:
            g = next(g for g in self.gates if max(g.qubits) >= self.n_qubits)
            raise ValueError(f"gate {g.kind} index out of range for {self.n_qubits} qubits")

    def with_gates(self, gates) -> "Circuit":
        return Circuit(self.n_qubits, tuple(gates), self.measure_basis)


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-party setting choice: bit i of prime_mask set means party i uses the
    primed observable (Y); unset means the unprimed one (X).

    Bit i is read MSB-first: party 0 is the most significant bit.
    """

    n_qubits: int
    prime_mask: int

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if not 0 <= self.prime_mask < (1 << self.n_qubits):
            raise ValueError("prime_mask out of range")

    def primed(self, party: int) -> bool:
        return bool((self.prime_mask >> (self.n_qubits - 1 - party)) & 1)

    def label(self) -> str:
        return "".join("Y" if self.primed(i) else "X" for i in range(self.n_qubits))


def mask_bit(mask: int, party: int, n: int) -> int:
    """MSB-first bit of ``mask`` for the given party (party 0 = leftmost)."""
    return (mask >> (n - 1 - party)) & 1


def phase_step_count(angle: float) -> int:
    """Reduce an angle to the number of quarter turns k in 0..7; the angle must
    be a multiple of pi/4 within 1e-9."""
    k = round(angle / QUARTER_TURN)
    if abs(angle - k * QUARTER_TURN) > 1e-9:
        raise ValueError("phase not a multiple of pi/4")
    return k % 8


def phase_gates(k: int, qubit: int) -> list[Gate]:
    """Gates putting a phase of k*pi/4 on the |1> branch of one qubit:
    floor(k/2) S gates plus (k mod 2) T gates."""
    if not 0 <= k <= 7:
        raise ValueError("k must be in 0..7")
    out = [s(qubit) for _ in range(k // 2)]
    if k % 2:
        out.append(t(qubit))
    return out


def ghz_circuit(n: int, target_phase: float = 0.0, control: int = 0) -> Circuit:
    """Prepare (|0...0> + e^{i*target_phase}|1...1>)/sqrt(2) from |0...0>.

    H on the control qubit, CNOT fan-out from the control to every other
    qubit in ascending order, then the phase realized with S/T gates on the
    control. target_phase must be a multiple of pi/4.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 2..{MAX_QUBITS}")
    if not 0 <= control < n:
        raise ValueError("control out of range")
    k = phase_step_count(target_phase)
    gates = [h(control)]
    gates += [cnot(control, q) for q in range(n) if q != control]
    gates += phase_gates(k, control)
    return Circuit(n, tuple(gates))


def with_setting(c: Circuit, setting: MeasurementSetting) -> Circuit:
    """Append basis-change gates for the setting and reset tags to z.

    Unprimed (X) parties get H; primed (Y) parties get S-dagger then H,
    in ascending qubit order.
    """
    if setting.n_qubits != c.n_qubits:
        raise ValueError("setting and circuit qubit counts differ")
    gates = list(c.gates)
    for q in range(c.n_qubits):
        if setting.primed(q):
            gates.append(sdg(q))
        gates.append(h(q))
    return Circuit(c.n_qubits, tuple(gates), ("z",) * c.n_qubits)


def serialize_circuit(c: Circuit) -> str:
    """Render the text form; the measure line is always emitted."""
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        lines.append(" ".join([g.kind] + [str(q) for q in g.qubits]))
    lines.append("measure " + " ".join(c.measure_basis))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented format.

    First significant line must be ``qubits N``; then one gate per line
    (lowercase mnemonic, space-separated indices); ``#`` starts a comment;
    an optional final ``measure x y z ...`` line sets the basis tags.
    """
    n_qubits = None
    gates: list[Gate] = []
    basis: tuple[str, ...] | None = None
    # The Gate of each distinct gate line. A line that fails is never stored,
    # and only a measure line above can make a stored one fail.
    by_line: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        g = by_line.get(line)
        if g is not None and basis is None:
            gates.append(g)
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if n_qubits is None:
            if head != "qubits":
                raise CircuitFormatError("missing qubits header", lineno)
            if len(tokens) != 2 or not _is_int(tokens[1]):
                raise CircuitFormatError("bad qubit count", lineno)
            n_qubits = int(tokens[1])
            if not 1 <= n_qubits <= MAX_QUBITS:
                raise CircuitFormatError("bad qubit count", lineno)
            continue
        if head == "qubits":
            raise CircuitFormatError("duplicate qubits header", lineno)
        if basis is not None:
            raise CircuitFormatError("gate after measure", lineno)
        if head == "measure":
            tags = tuple(tok.lower() for tok in tokens[1:])
            if len(tags) != n_qubits:
                raise CircuitFormatError("qubit count mismatch", lineno)
            if any(tag not in BASIS_TAGS for tag in tags):
                raise CircuitFormatError("bad basis", lineno)
            basis = tags
            continue
        if head not in GATE_KINDS:
            raise CircuitFormatError("unknown mnemonic", lineno)
        if len(tokens) - 1 != GATE_KINDS[head]:
            raise CircuitFormatError("bad index", lineno)
        idx = []
        for tok in tokens[1:]:
            if not _is_int(tok):
                raise CircuitFormatError("bad index", lineno)
            q = int(tok)
            if not 0 <= q < n_qubits:
                raise CircuitFormatError("bad index", lineno)
            idx.append(q)
        if head == "cnot" and idx[0] == idx[1]:
            raise CircuitFormatError("duplicate qubit", lineno)
        g = by_line[line] = gate(head, tuple(idx))
        gates.append(g)
    if n_qubits is None:
        raise CircuitFormatError("missing qubits header", 1)
    return Circuit(n_qubits, tuple(gates), basis)


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True
