"""Shared fixtures and an independent dense-matrix oracle.

The oracle builds every unitary from literal 2x2 matrices and explicit
Kronecker products, with no code shared with the package kernels, so
agreement between the two is meaningful; oracle_walk contracts the same
literal matrices into a state, for circuits too wide for a dense unitary.
Noise channels are given by Kraus operators and applied as sums of tensor
contractions, the reference for the package's per-term Pauli-basis
depolarizing. The gate kernel, two transpiler passes,
the phase scan's per-wire cancellation rule, the circuit parser, the numpy
Walsh-Hadamard butterfly and the Mermin recursion are kept here in their
first form as references for the package's current ones, and the 3-, 4- and
5-party polynomials as a literal sign table.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from merminsim.circuits import (
    BASIS_TAGS,
    GATE_KINDS,
    MAX_QUBITS,
    PHASE_KINDS,
    Circuit,
    CircuitFormatError,
    Gate,
    _is_int,
    gate,
)
from merminsim.mermin import MerminPolynomial
from merminsim.transpile import DeviceModel, _apply_gate_inplace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Device each valid fixture is meant to be lowered for.  star_illegal is
# absent on purpose; it has no legal hub.
FIXTURE_DEVICES = {
    "fig1_xxy": DeviceModel(3, cnot_target=1),
    "fig1_yyy": DeviceModel(3, cnot_target=1),
    "fig2_yyxx": DeviceModel(4, cnot_target=2),
    "fig2_xyxxy": DeviceModel(5, cnot_target=2),
    "ghz2_bell": DeviceModel(2, cnot_target=0),
    "ghz3_plain": DeviceModel(3, cnot_target=0),
    "ghz3_imag": DeviceModel(3, cnot_target=0),
    "ghz4_alt_phase": DeviceModel(4, cnot_target=0),
    "ghz5_plain": DeviceModel(5, cnot_target=0),
    "ghz5_max_phase": DeviceModel(5, cnot_target=0),
    "ghz3_xxy_ideal": DeviceModel(3, cnot_target=0),
    "ghz3_yyy_ideal": DeviceModel(3, cnot_target=0),
    "ghz4_yyxx_ideal": DeviceModel(4, cnot_target=0),
    "ghz5_xyxxy_ideal": DeviceModel(5, cnot_target=0),
    "peephole_pairs": DeviceModel(3, cnot_target=1),
    "reversed_single": DeviceModel(2, cnot_target=0),
}

_SQ = 1.0 / math.sqrt(2.0)

ORACLE_1Q = {
    "h": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, (1 + 1j) * _SQ]], dtype=complex),
    "tdg": np.array([[1, 0], [0, (1 - 1j) * _SQ]], dtype=complex),
}

ORACLE_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

ORACLE_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(mats) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def embed_1q(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # qubit 0 is the leftmost Kronecker factor (most significant bit)
    factors = [np.eye(2, dtype=complex)] * n
    factors[qubit] = mat
    return kron_chain(factors)


def oracle_cnot(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if (i >> (n - 1 - control)) & 1:
            u[i ^ (1 << (n - 1 - target)), i] = 1.0
        else:
            u[i, i] = 1.0
    return u


def oracle_unitary(circuit) -> np.ndarray:
    n = circuit.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        if gate.kind == "cnot":
            g = oracle_cnot(gate.qubits[0], gate.qubits[1], n)
        else:
            g = embed_1q(ORACLE_1Q[gate.kind], gate.qubits[0], n)
        u = g @ u
    return u


def oracle_state(circuit) -> np.ndarray:
    e0 = np.zeros(1 << circuit.n_qubits, dtype=complex)
    e0[0] = 1.0
    return oracle_unitary(circuit) @ e0


def oracle_walk(circuit) -> list[np.ndarray]:
    """The state from |0...0> before each gate and after the last one. Each
    gate's literal matrix (ORACLE_1Q, or ORACLE_CNOT on control and target)
    is contracted into the state tensor, the Kronecker product with
    identities applied without being built: 2^n work per gate instead of
    oracle_state's 8^n, so circuits of up to 10 qubits stay cheap."""
    n = circuit.n_qubits
    tens = np.zeros((2,) * n, dtype=complex)
    tens[(0,) * n] = 1.0
    states = []
    for gate in circuit.gates:
        states.append(tens.reshape(-1))
        mat = ORACLE_CNOT if gate.kind == "cnot" else ORACLE_1Q[gate.kind]
        tens = _contract(tens, mat, list(gate.qubits))
    states.append(tens.reshape(-1))
    return states


def oracle_equivalent(a, b, tol: float = 1e-10) -> bool:
    """True iff |Tr(Ua^dag Ub)| / 2^n >= 1 - tol: the oracle unitaries agree
    up to a global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    overlap = abs(np.trace(oracle_unitary(a).conj().T @ oracle_unitary(b))) / (1 << a.n_qubits)
    return bool(overlap >= 1.0 - tol)


def oracle_pauli_matrix(label: str) -> np.ndarray:
    return kron_chain([ORACLE_PAULI[ch] for ch in label.lower()])


def oracle_expectation(vec: np.ndarray, label: str) -> float:
    val = np.vdot(vec, oracle_pauli_matrix(label) @ vec)
    return float(val.real)


@dataclass(eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators on
    1 or 2 qubits."""

    n_qubits: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n_qubits not in (1, 2):
            raise ValueError("channels act on 1 or 2 qubits")
        dim = 1 << self.n_qubits
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("Kraus operator has wrong shape")
        total = sum(op.conj().T @ op for op in ops)
        if not np.allclose(total, np.eye(dim), atol=1e-10):
            raise ValueError("Kraus operators are not trace preserving")
        self.operators = ops


def depolarizing_channel(p: float, k: int) -> KrausChannel:
    """k-qubit depolarizing map: with probability p the state is replaced by
    the maximally mixed state on those qubits. Kraus weights: 1 - p + p/4^k
    on the identity, p/4^k on each other Pauli product."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability in [0, 1]")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    paulis = [ORACLE_PAULI[ch] for ch in "ixyz"]
    if k == 1:
        products = paulis
    else:
        products = [np.kron(a, b) for a, b in itertools.product(paulis, paulis)]
    d4 = 4 ** k
    ops = []
    for idx, mat in enumerate(products):
        w = 1.0 - p + p / d4 if idx == 0 else p / d4
        if w > 0.0:
            ops.append(math.sqrt(w) * mat)
    return KrausChannel(k, tuple(ops))


def _contract(tens: np.ndarray, op: np.ndarray, positions: list[int]) -> np.ndarray:
    """Contract op's input axes with the given tensor axes and put its output
    axes back in their place."""
    k = len(positions)
    opt = op.reshape((2,) * (2 * k))
    tens = np.tensordot(opt, tens, axes=(list(range(k, 2 * k)), positions))
    return np.moveaxis(tens, list(range(k)), positions)


def apply_channel(rho: np.ndarray, channel: KrausChannel, qubits) -> np.ndarray:
    """sum_K K rho K^dag with each K acting on the given qubits of the
    2^n x 2^n density matrix rho."""
    qubits = tuple(qubits)
    if len(qubits) != channel.n_qubits:
        raise ValueError("channel arity does not match qubit count")
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit")
    n = rho.shape[0].bit_length() - 1
    if any(q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    tens = rho.reshape((2,) * (2 * n))
    acc = np.zeros_like(tens)
    for op in channel.operators:
        term = _contract(tens, op, list(qubits))
        acc += _contract(term, op.conj(), [n + q for q in qubits])
    return acc.reshape(rho.shape)


# The 2x2 matrices of the kernel's first form, entry for entry; T is
# exp(i pi/4), not ORACLE_1Q's (1 + i)/sqrt(2), which can differ in the
# last bit, so that the first-form comparison below stays bitwise.
_FIRST_FORM_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ,
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def reference_apply_gate(amps: np.ndarray, gate, n: int) -> None:
    """The package's gate kernel in its first form, in place: every pair of
    amplitudes whose indices differ in the gate qubit's bit gets the 2x2
    matrix-vector product with the matrix of _FIRST_FORM_1Q, and CNOT swaps
    the pairs whose control bit is set. The package kernel must give the
    same numbers."""
    idx = np.arange(1 << n)
    if gate.kind == "cnot":
        pc, pt = n - 1 - gate.qubits[0], n - 1 - gate.qubits[1]
        sel = idx[((idx >> pc) & 1 == 1) & ((idx >> pt) & 1 == 0)]
        swapped = sel | (1 << pt)
        amps[sel], amps[swapped] = amps[swapped].copy(), amps[sel].copy()
        return
    pos = n - 1 - gate.qubits[0]
    low = idx[(idx >> pos) & 1 == 0]
    high = low | (1 << pos)
    mat = _FIRST_FORM_1Q[gate.kind]
    a0, a1 = amps[low], amps[high]
    amps[low] = mat[0, 0] * a0 + mat[0, 1] * a1
    amps[high] = mat[1, 0] * a0 + mat[1, 1] * a1


def reference_walsh_hadamard(values) -> np.ndarray:
    """The numpy butterfly noisy_distribution ran before it called
    statevector.walsh_hadamard: level by level, each block of 2 * half
    entries becomes (first + second, first - second) of its two halves."""
    vec = np.array(values, dtype=float)
    half = 1
    while half < vec.size:
        pairs = vec.reshape(-1, 2, half)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
        half *= 2
    return vec


def reference_movable_phase_positions(circuit) -> list[int]:
    """The transpiler's phase scan in its first form: it runs the whole gate
    list and sums the off-support mass from |amps|^2. It evolves the state
    with the package kernel, which test_statevector checks against the dense
    oracle above."""
    n = circuit.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    last = (1 << n) - 1
    out = []
    for i, g in enumerate(circuit.gates):
        if g.kind in PHASE_KINDS:
            mass = np.abs(amps) ** 2
            off = float(mass.sum() - mass[0] - mass[last])
            if off <= 1e-9:
                out.append(i)
        _apply_gate_inplace(amps, g.kind, g.qubits, n)
    return out


_REFERENCE_INVERSE_PAIRS = frozenset(
    {("h", "h"), ("x", "x"), ("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}
)


def _reference_inverse_pair(a, b) -> bool:
    if a.qubits != b.qubits:
        return False
    if a.kind == "cnot":
        return b.kind == "cnot"
    return (a.kind, b.kind) in _REFERENCE_INVERSE_PAIRS


def _reference_next_touching(gates, i: int):
    touched = set(gates[i].qubits)
    for j in range(i + 1, len(gates)):
        if touched & set(gates[j].qubits):
            return j
    return None


def reference_cancel_adjacent_pass(circuit):
    """The peephole pass in its first form, comparing qubit sets: the same
    left-to-right scan, step back after a removal, and fixpoint loop."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            j = _reference_next_touching(gates, i)
            if j is not None and _reference_inverse_pair(gates[i], gates[j]):
                del gates[j]
                del gates[i]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return circuit.with_gates(gates)


def reference_scan_applied_gates(circuit) -> list[tuple[str, tuple[int, ...]]]:
    """The (kind, qubits) sequence the lazy phase scan hands the gate kernel,
    by the scan's first rule: gates up to the last phase gate are held, with
    a stack of held indices per wire, and all held gates are applied in
    order at each run start (a phase gate not preceded by one). A gate that
    is the inverse of the held gate on top of each of its wires, on the same
    qubits, removes that gate instead of being held."""
    gates = circuit.gates
    phases = [i for i, g in enumerate(gates) if g.kind in PHASE_KINDS]
    if not phases:
        return []
    applied = []
    held: list = []
    stacks: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    for i, g in enumerate(gates[: phases[-1] + 1]):
        if g.kind in PHASE_KINDS and (i == 0 or gates[i - 1].kind not in PHASE_KINDS):
            applied += [(p.kind, p.qubits) for p in held if p is not None]
            held = []
            stacks = [[] for _ in range(circuit.n_qubits)]
        tops = {stacks[q][-1] if stacks[q] else None for q in g.qubits}
        if len(tops) == 1 and None not in tops:
            j = tops.pop()
            if _reference_inverse_pair(held[j], g):
                held[j] = None
                for q in g.qubits:
                    stacks[q].pop()
                continue
        for q in g.qubits:
            stacks[q].append(len(held))
        held.append(g)
    return applied


def reference_parse_circuit(text: str) -> Circuit:
    """The circuit parser in its line-by-line form: every line is stripped,
    tokenised and checked in file order, with a per-call cache of the Gate
    of each distinct gate line. The package parser must give the same
    circuit, with the same Gate objects, or raise the same error on the
    same line."""
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


# Signs per prime count of the 3-, 4- and 5-party polynomials, from the forms
# with all-unit coefficients: n=3 has the four terms with 1 or 3 primes, n=4
# all sixteen, n=5 the sixteen terms with 0, 2 or 4 primes.
CANONICAL_SIGNS = {
    3: {1: 1, 3: -1},
    4: {0: -1, 1: 1, 2: 1, 3: -1, 4: -1},
    5: {0: -1, 2: 1, 4: -1},
}


def table_polynomial(n: int) -> MerminPolynomial:
    """The n-party polynomial (n = 3, 4, 5) spelled out from CANONICAL_SIGNS."""
    signs = CANONICAL_SIGNS[n]
    terms = [(signs[m.bit_count()], m) for m in range(1 << n) if m.bit_count() in signs]
    return MerminPolynomial(n, tuple(terms))


def reference_recursive_polynomial(n: int) -> MerminPolynomial:
    """The standard recursion in exact fractions: each step combines the
    previous polynomial and its prime-swapped form with half the sum and half
    the difference of the new party's settings (new party at the least
    significant bit), then the result is rescaled to integers with gcd 1,
    keeping its natural global sign."""
    if n < 2:
        raise ValueError("n must be >= 2")
    terms: dict[int, Fraction] = {0: Fraction(1)}
    for m in range(2, n + 1):
        all_prev = (1 << (m - 1)) - 1
        swapped = {mask ^ all_prev: coeff for mask, coeff in terms.items()}
        nxt: dict[int, Fraction] = defaultdict(Fraction)
        for mask, coeff in terms.items():
            nxt[mask << 1] += coeff / 2
            nxt[(mask << 1) | 1] += coeff / 2
        for mask, coeff in swapped.items():
            nxt[mask << 1] += coeff / 2
            nxt[(mask << 1) | 1] -= coeff / 2
        terms = {mask: coeff for mask, coeff in nxt.items() if coeff != 0}
    scale = 1
    for coeff in terms.values():
        scale = scale * coeff.denominator // math.gcd(scale, coeff.denominator)
    ints = {mask: int(coeff * scale) for mask, coeff in terms.items()}
    g = 0
    for value in ints.values():
        g = math.gcd(g, abs(value))
    return MerminPolynomial(n, tuple((value // g, mask) for mask, value in ints.items()))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def valid_fixture_names() -> list[str]:
    return sorted(p.stem for p in (FIXTURES / "valid").glob("*.qc"))


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
