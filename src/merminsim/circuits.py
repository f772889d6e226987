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
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
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

# The kind that undoes each kind on the same qubits, in the same order. Each
# matrix in the set is symmetric, so its inverse conj(U)^T is also conj(U):
# the same table gives the column-qubit gates of the density-matrix loop.
INVERSE = {"h": "h", "x": "x", "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "cnot": "cnot"}

PHASE_KINDS = frozenset({"s", "sdg", "t", "tdg"})

BASIS_TAGS = ("x", "y", "z")

MAX_QUBITS = 10

EIGHTH_TURN = math.pi / 4


class CircuitFormatError(ValueError):
    """Raised on malformed circuit text; carries the 1-based line number."""

    def __init__(self, what: str, line: int):
        super().__init__(f"{what}, line {line}")
        self.what = what
        self.line = line


@dataclass(frozen=True)
class Gate:
    """One gate. ``line`` (its text form), ``top`` (its largest qubit index)
    and ``mask`` (its wire bitmask) are derived once, at construction, so
    callers handling many copies of an interned gate read them for free."""

    kind: str
    qubits: tuple[int, ...]
    line: str = field(init=False, repr=False, compare=False)
    top: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "line", " ".join([self.kind, *map(str, self.qubits)]))
        object.__setattr__(self, "top", max(self.qubits))
        object.__setattr__(self, "mask", sum(1 << q for q in self.qubits))


# Gates on qubits below this are built at import and kept for the life of
# the process: they cover every circuit (MAX_QUBITS) and the doubled
# density-matrix vector (2 * noise.MAX_DM_QUBITS): raise it with either.
PINNED_QUBITS = 12

_PINNED = {
    (g.kind, g.qubits): g
    for g in [Gate(kind, (q,)) for kind, arity in GATE_KINDS.items() if arity == 1
              for q in range(PINNED_QUBITS)]
    + [Gate("cnot", pair) for pair in permutations(range(PINNED_QUBITS), 2)]
}


def gate(kind: str, qubits: tuple[int, ...]) -> Gate:
    """The process-wide Gate for (kind, qubits): the 204 gates on qubits
    below PINNED_QUBITS are built at import and shared. Any other gate is
    built and validated on each call and not shared; one that fails
    validation raises."""
    return _PINNED.get((kind, qubits)) or Gate(kind, qubits)


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


_TOP = attrgetter("top")
_LINE = attrgetter("line")


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
        if self.gates and max(map(_TOP, self.gates)) >= self.n_qubits:
            g = next(g for g in self.gates if g.top >= self.n_qubits)
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


def phase_step_count(angle: float) -> int:
    """Reduce an angle to the number of eighth turns k in 0..7; the angle must
    be a multiple of pi/4 within 1e-9."""
    k = round(angle / EIGHTH_TURN) if math.isfinite(angle) else None
    if k is None or abs(angle - k * EIGHTH_TURN) > 1e-9:
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


def measured_in(c: Circuit, basis: tuple[str, ...]) -> Circuit:
    """c measured in the given per-qubit bases, lowered onto Z measurement:
    H for x, S-dagger then H for y, nothing for z, appended in ascending
    qubit order; every tag of the result is z. c's own tags are ignored."""
    gates = list(c.gates)
    for q, b in enumerate(basis):
        if b == "y":
            gates.append(sdg(q))
        if b != "z":
            gates.append(h(q))
    return Circuit(c.n_qubits, tuple(gates), ("z",) * c.n_qubits)


def with_setting(c: Circuit, setting: MeasurementSetting) -> Circuit:
    """Append basis-change gates for the setting and reset tags to z.

    Unprimed (X) parties get H; primed (Y) parties get S-dagger then H,
    in ascending qubit order.
    """
    if setting.n_qubits != c.n_qubits:
        raise ValueError("setting and circuit qubit counts differ")
    return measured_in(c, tuple("y" if setting.primed(q) else "x" for q in range(c.n_qubits)))


def serialize_circuit(c: Circuit) -> str:
    """Render the text form; the measure line is always emitted."""
    return "\n".join([f"qubits {c.n_qubits}", *map(_LINE, c.gates),
                      "measure " + " ".join(c.measure_basis), ""])


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented format.

    ``#`` starts a comment, which ends at any line break ``str.splitlines``
    knows; blank lines are skipped. The first significant line must be
    ``qubits N``; then one gate per line (mnemonic, whitespace-separated
    indices read with ``int()``); an optional final ``measure x y z ...``
    line sets the basis tags. Mnemonics, ``qubits``, ``measure`` and basis
    tags are case-insensitive. A malformed line raises CircuitFormatError
    with its 1-based line number.

    A line spelt exactly as ``Gate.line`` resolves with one lookup in the
    table of its qubit count. Each other distinct line is resolved once; if
    lower-casing its mnemonic and joining its tokens with single spaces
    gives a table line, that is its gate, and otherwise the per-line checks
    run. Line numbers are worked out only when raising.
    """
    lines = list(filter(None, _stripped_lines(text)))
    if not lines:
        raise CircuitFormatError("missing qubits header", 1)
    tokens = lines[0].split()
    if tokens[0].lower() != "qubits":
        raise CircuitFormatError("missing qubits header", _line_number(text, 0))
    if len(tokens) != 2 or not _is_int(tokens[1]) or not 1 <= int(tokens[1]) <= MAX_QUBITS:
        raise CircuitFormatError("bad qubit count", _line_number(text, 0))
    n_qubits = int(tokens[1])
    table = _gate_lines(n_qubits)
    body = lines[1:]
    # Each distinct other line maps to its Gate, or to None if what it means
    # depends on where it stands: a header, a measure line or a bad line.
    other = {}
    for line in set(body).difference(table):
        tokens = line.split()
        head = tokens[0].lower()
        g = table.get(" ".join([head, *tokens[1:]]))
        if g is None and head != "measure" and _line_error(head, tokens, n_qubits) is None:
            g = gate(head, tuple(map(int, tokens[1:])))
        other[line] = g
    gates = list(map({**table, **other}.__getitem__, body))
    basis = None
    if None in other.values():
        # Every line before the first None is a gate.
        i = next(i for i, g in enumerate(gates) if g is None)
        tokens = body[i].split()
        what = _line_error(tokens[0].lower(), tokens, n_qubits)
        if what is not None:
            raise CircuitFormatError(what, _line_number(text, i + 1))
        # A good measure line, which must be the last one.
        if i + 1 < len(body):
            after = body[i + 1].split()[0].lower()
            raise CircuitFormatError("duplicate qubits header" if after == "qubits"
                                     else "gate after measure", _line_number(text, i + 2))
        basis = tuple(tok.lower() for tok in tokens[1:])
        del gates[i]
    return Circuit(n_qubits, tuple(gates), basis)


# From a "#" to the end of its line: the class holds every line break that
# str.splitlines knows. A match becomes one space, not nothing, so that a
# comment between "\r" and "\n" cannot join them into one line break.
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def _stripped_lines(text: str):
    """Every line of the text without its comment and surrounding space."""
    return map(str.strip, _COMMENT.sub(" ", text).splitlines())


def _line_number(text: str, k: int) -> int:
    """The 1-based line number of the k-th (from 0) significant line."""
    return [i for i, line in enumerate(_stripped_lines(text), start=1) if line][k]


@lru_cache(maxsize=None)
def _gate_lines(n_qubits: int) -> dict[str, Gate]:
    """{Gate.line: Gate} for every gate on qubits below n_qubits."""
    return {g.line: g for g in _PINNED.values() if g.top < n_qubits}


def _line_error(head: str, tokens: list[str], n_qubits: int) -> str | None:
    """Why a line after the header, with this lower-cased head and these
    tokens, is malformed in an n_qubits circuit wherever it stands, or None.
    A measure line is checked as one, any other line as a gate."""
    if head == "qubits":
        return "duplicate qubits header"
    if head == "measure":
        if len(tokens) - 1 != n_qubits:
            return "qubit count mismatch"
        if any(tok.lower() not in BASIS_TAGS for tok in tokens[1:]):
            return "bad basis"
        return None
    if head not in GATE_KINDS:
        return "unknown mnemonic"
    if len(tokens) - 1 != GATE_KINDS[head] or not all(map(_is_int, tokens[1:])):
        return "bad index"
    idx = list(map(int, tokens[1:]))
    if not all(0 <= q < n_qubits for q in idx):
        return "bad index"
    if head == "cnot" and idx[0] == idx[1]:
        return "duplicate qubit"
    return None


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True
