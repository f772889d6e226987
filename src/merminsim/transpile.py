"""Compiler passes lowering circuits onto the device constraints: one legal
CNOT target (star topology), Z-basis-only measurement, and phase gates
relocated to the most robust qubit.

Pass order is fixed: CNOT reversal, then phase placement, then peephole
cancellation. Reversal and cancellation preserve the full unitary. Phase
placement preserves the prepared state (the action on |0...0>): relocating a
diagonal gate across qubits is only an identity on the two-dimensional
GHZ-diagonal subspace, so a relocated circuit is not unitary-equal to its
input, but produces the same state and hence the same outcome distribution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import PHASE_KINDS, Circuit, Gate, cnot, gate, h
from .statevector import _apply_gate_inplace


class StarTopologyError(ValueError):
    """A CNOT does not involve the device's designated target qubit."""


@dataclass(frozen=True)
class DeviceModel:
    """n_qubits, the only legal CNOT target, and the robustness ranking
    (most robust qubit first)."""

    n_qubits: int
    cnot_target: int = 2
    robustness_rank: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not 0 <= self.cnot_target < self.n_qubits:
            raise ValueError("cnot_target out of range")
        rank = self.robustness_rank
        if rank is None:
            rank = tuple(range(self.n_qubits))
        rank = tuple(rank)
        if sorted(rank) != list(range(self.n_qubits)):
            raise ValueError("robustness_rank must be a permutation of qubit indices")
        object.__setattr__(self, "robustness_rank", rank)


def default_device(n: int) -> DeviceModel:
    """Documented defaults: target qubit 2 (clamped for tiny devices),
    identity robustness ranking."""
    return DeviceModel(n, cnot_target=min(2, n - 1), robustness_rank=tuple(range(n)))


@dataclass(frozen=True)
class TranspileReport:
    gate_count_before: int
    gate_count_after: int
    added_h_count: int
    phase_host_qubit: int

    def to_json(self) -> dict:
        return {
            "gate_count_before": self.gate_count_before,
            "gate_count_after": self.gate_count_after,
            "added_h_count": self.added_h_count,
            "phase_host_qubit": self.phase_host_qubit,
        }


def reverse_cnot_pass(c: Circuit, d: DeviceModel) -> Circuit:
    """Make every CNOT target the device's designated qubit. A wrong-direction
    CNOT becomes the H-conjugated reversed form (5 gates)."""
    if d.n_qubits != c.n_qubits:
        raise ValueError("device and circuit qubit counts differ")
    out: list[Gate] = []
    for g in c.gates:
        if g.kind != "cnot":
            out.append(g)
            continue
        ctrl, tgt = g.qubits
        if d.cnot_target not in g.qubits:
            raise StarTopologyError(
                f"cnot {ctrl} {tgt} does not involve target qubit {d.cnot_target}"
            )
        if tgt == d.cnot_target:
            out.append(g)
            continue
        around = (h(ctrl), h(tgt))
        out += (*around, cnot(tgt, ctrl), *around)
    return c.with_gates(out)


_INVERSE_PAIRS = frozenset(
    {("h", "h"), ("x", "x"), ("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}
)


def _inverse_pair(a: Gate, b: Gate) -> bool:
    if a.qubits != b.qubits:
        return False
    if a.kind == "cnot":
        return b.kind == "cnot"
    return (a.kind, b.kind) in _INVERSE_PAIRS


def _next_touching(masks: list[int], i: int) -> int | None:
    mask = masks[i]
    for j in range(i + 1, len(masks)):
        if masks[j] & mask:
            return j
    return None


def cancel_adjacent_pass(c: Circuit) -> Circuit:
    """Remove inverse pairs that are adjacent after commuting each gate past
    gates on disjoint qubits. Runs to a fixpoint; deterministic left-to-right
    scan order."""
    gates = list(c.gates)
    # Qubit bitmask of each gate (one or two qubits), kept in step with gates.
    masks = [(1 << g.qubits[0]) | (1 << g.qubits[-1]) for g in gates]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            j = _next_touching(masks, i)
            if j is not None and _inverse_pair(gates[i], gates[j]):
                del gates[j], masks[j]
                del gates[i], masks[i]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return c.with_gates(gates)


def _movable_phase_positions(c: Circuit) -> list[int]:
    """Indices of S/T-family gates at points where the running state from
    |0...0> is supported on the all-zeros and all-ones indices only. A
    diagonal phase gate there acts identically on every qubit. The scan
    stops at the last phase gate."""
    phases = [i for i, g in enumerate(c.gates) if g.kind in PHASE_KINDS]
    if not phases:
        return []
    n = c.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    last = (1 << n) - 1
    out = []
    for i, g in enumerate(c.gates[: phases[-1] + 1]):
        if g.kind in PHASE_KINDS:
            off = float(np.vdot(amps, amps).real - abs(amps[0]) ** 2 - abs(amps[last]) ** 2)
            if off <= 1e-9:
                out.append(i)
        _apply_gate_inplace(amps, g, n)
    return out


def place_phase_pass(c: Circuit, d: DeviceModel) -> Circuit:
    """Reassign every movable phase gate to the most robust qubit, keeping
    list positions. Returns c itself exactly when no phase gate is movable,
    and a new circuit otherwise."""
    if d.n_qubits != c.n_qubits:
        raise ValueError("device and circuit qubit counts differ")
    positions = _movable_phase_positions(c)
    if not positions:
        return c
    host = (d.robustness_rank[0],)
    gates = list(c.gates)
    for i in positions:
        gates[i] = gate(gates[i].kind, host)
    return c.with_gates(gates)


def constraint_violations(c: Circuit, d: DeviceModel) -> list[str]:
    """Device-constraint scan; empty list means the circuit is legal."""
    out = []
    for g in c.gates:
        if g.kind == "cnot" and g.qubits[1] != d.cnot_target:
            out.append(f"cnot {g.qubits[0]} {g.qubits[1]} does not target qubit {d.cnot_target}")
    for q, basis in enumerate(c.measure_basis):
        if basis != "z":
            out.append(f"qubit {q} measured in {basis} basis, device measures z only")
    return out


def transpile(c: Circuit, d: DeviceModel) -> tuple[Circuit, TranspileReport]:
    reversed_count = sum(
        1 for g in c.gates if g.kind == "cnot" and g.qubits[1] != d.cnot_target
    )
    c1 = reverse_cnot_pass(c, d)
    c2 = place_phase_pass(c1, d)
    c3 = cancel_adjacent_pass(c2)
    report = TranspileReport(
        gate_count_before=len(c.gates),
        gate_count_after=len(c3.gates),
        added_h_count=4 * reversed_count,
        phase_host_qubit=d.robustness_rank[0] if c2 is not c1 else -1,
    )
    return c3, report
