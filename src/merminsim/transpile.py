"""Compiler passes lowering circuits onto the device constraints: one legal
CNOT target (star topology), Z-basis-only measurement, and phase gates
relocated to the most robust qubit.

transpile first lowers x/y measurement tags to basis-change gates, then
runs the passes in a fixed order: phase placement, then CNOT reversal, then
peephole cancellation. Reversal and cancellation preserve the full unitary.
Phase placement preserves the prepared state (the action on |0...0>): relocating a
diagonal gate across qubits is only an identity on the two-dimensional
GHZ-diagonal subspace, so a relocated circuit is not unitary-equal to its
input, but produces the same state and hence the same outcome distribution.
Placement and reversal commute: reversal rewrites only CNOTs, each into the
same unitary, and placement rewrites only the qubit of a phase gate, so the
state at every phase gate is the same in either order. Placing first spares
the placement scan the four H gates of every reversed CNOT, and the scan
also skips inverse pairs that are adjacent on their wires.

The scan's in-place amplitude kernel, _apply_gate_inplace, is defined beside
it, its only caller; index bit (n-1-q) belongs to qubit q, as in outcomes.
Every gate kind is a cached index permutation (X, CNOT), a cached diagonal
(S, S-dagger, T, T-dagger), or both (H).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .circuits import INVERSE, PHASE_KINDS, Circuit, Gate, cnot, gate, h, measured_in


class StarTopologyError(ValueError):
    """A CNOT does not involve the device's designated target qubit."""


@dataclass(frozen=True)
class DeviceModel:
    """n_qubits, the only legal CNOT target (default qubit 2, or n - 1 on
    fewer qubits), and the robustness ranking (most robust qubit first;
    default the identity)."""

    n_qubits: int
    cnot_target: int | None = None
    robustness_rank: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.cnot_target is None:
            object.__setattr__(self, "cnot_target", min(2, self.n_qubits - 1))
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
    """The documented device on n qubits."""
    return DeviceModel(n)


@dataclass(frozen=True)
class TranspileReport:
    gate_count_before: int
    gate_count_after: int
    added_h_count: int
    phase_host_qubit: int


def _check_sizes(c: Circuit, d: DeviceModel) -> None:
    if d.n_qubits != c.n_qubits:
        raise ValueError("device and circuit qubit counts differ")


def _needs_reversal(g: Gate, d: DeviceModel) -> bool:
    """Whether CNOT g targets a qubit other than the device's target; raises
    StarTopologyError when g does not involve that qubit at all."""
    if d.cnot_target not in g.qubits:
        raise StarTopologyError(
            f"cnot {g.qubits[0]} {g.qubits[1]} does not involve target qubit {d.cnot_target}"
        )
    return g.qubits[1] != d.cnot_target


def reverse_cnot_pass(c: Circuit, d: DeviceModel) -> Circuit:
    """Make every CNOT target the device's designated qubit. A wrong-direction
    CNOT becomes the H-conjugated reversed form (5 gates)."""
    _check_sizes(c, d)
    out: list[Gate] = []
    for g in c.gates:
        if g.kind != "cnot" or not _needs_reversal(g, d):
            out.append(g)
            continue
        ctrl, tgt = g.qubits
        around = (h(ctrl), h(tgt))
        out += (*around, cnot(tgt, ctrl), *around)
    return c.with_gates(out)


def _inverse_pair(a: Gate, b: Gate) -> bool:
    return a.qubits == b.qubits and INVERSE[a.kind] == b.kind


def _next_touching(masks: list[int], i: int) -> int | None:
    mask = masks[i]
    for j in range(i + 1, len(masks)):
        if masks[j] & mask:
            return j
    return None


_MASK = attrgetter("mask")


def cancel_adjacent_pass(c: Circuit) -> Circuit:
    """Remove inverse pairs that are adjacent after commuting each gate past
    gates on disjoint qubits. Runs to a fixpoint; deterministic left-to-right
    scan order."""
    gates = list(c.gates)
    # Qubit bitmask of each gate, kept in step with gates.
    masks = list(map(_MASK, gates))
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


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The diagonal of each non-permutation kind: its entries where the qubit's
# bit is 0 and where it is 1. H's off-diagonal part is the flip times 1/sqrt(2).
_DIAG = {"h": (_INV_SQRT2, -_INV_SQRT2), "s": (1, 1j), "sdg": (1, -1j),
         "t": (1, np.exp(1j * math.pi / 4)), "tdg": (1, np.exp(-1j * math.pi / 4))}


@lru_cache(maxsize=None)
def _perm(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Index permutation that flips the bit of qubits[-1], and for two qubits
    (a CNOT) only where the bit of qubits[0] is 1."""
    idx = np.arange(1 << n)
    flip = 1 if len(qubits) == 1 else (idx >> (n - 1 - qubits[0])) & 1
    return idx ^ (flip << (n - 1 - qubits[-1]))


@lru_cache(maxsize=None)
def _diag(n: int, kind: str, q: int) -> np.ndarray:
    """The diagonal of kind on qubit q as a full-length vector. Stored complex:
    a real vector is cast in buffered chunks on every product, which costs
    more than the product itself."""
    bit = (np.arange(1 << n) >> (n - 1 - q)) & 1
    return np.array(_DIAG[kind], dtype=complex)[bit]


def _apply_gate_inplace(amps: np.ndarray, kind: str, qubits: tuple[int, ...], n: int) -> None:
    """Applies the gate of this kind (a circuits.GATE_KINDS key) on these
    qubit indices to amps, a C-contiguous 1-D state of n qubits, in place.
    The caller validates both: the indices need not be those of a circuit.

    X and CNOT permute the amplitudes; every other kind multiplies them by
    its diagonal, and H then adds the flipped amplitudes times 1/sqrt(2).
    The numbers equal those of the 2x2 matrix-vector product on each pair
    of amplitudes, bit for bit and on one qubit too: H forms the same
    products and sums, and the terms the other kinds leave out are products
    with 0 and 1.
    """
    if kind in ("x", "cnot"):
        amps[...] = amps[_perm(n, qubits)]
        return
    if kind == "h":
        moved = amps[_perm(n, qubits)]
        moved *= _INV_SQRT2
    # Diagonal first: numpy's complex product rounds differently with the
    # operands swapped, and this order is the matrix product's.
    np.multiply(_diag(n, kind, qubits[0]), amps, out=amps)
    if kind == "h":
        amps += moved


def _movable_phase_positions(c: Circuit) -> list[int]:
    """Indices of S/T-family gates at points where the running state from
    |0...0> is supported on the all-zeros and all-ones indices only. A
    diagonal phase gate there acts identically on every qubit. A phase gate
    moves no probability mass, so the gates of a run of consecutive phase
    gates share the verdict of the run's first gate, and the mass is checked
    once per run. The scan stops at the last phase gate.

    Gates are applied lazily: they wait in a pending list until the next
    run start, the only point where the state is read. A gate that is the
    inverse of the last pending gate touching any of its wires (the
    peephole's mask rule) cancels it, and neither is simulated. Such a pair
    is adjacent on all its wires with no read between its gates, so every
    state read is unchanged up to rounding."""
    phases = [i for i, g in enumerate(c.gates) if g.kind in PHASE_KINDS]
    if not phases:
        return []
    n = c.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    last = (1 << n) - 1
    out = []
    movable = None  # verdict of the current run of phase gates
    pending: list[Gate] = []
    for i, g in enumerate(c.gates[: phases[-1] + 1]):
        if g.kind not in PHASE_KINDS:
            movable = None
        elif movable is None:
            for p in pending:
                _apply_gate_inplace(amps, p.kind, p.qubits, n)
            pending.clear()
            off = float(np.vdot(amps, amps).real - abs(amps[0]) ** 2 - abs(amps[last]) ** 2)
            movable = off <= 1e-9
        if movable:
            out.append(i)
        mask = g.mask
        j = len(pending) - 1
        while j >= 0 and not pending[j].mask & mask:
            j -= 1
        if j >= 0 and _inverse_pair(pending[j], g):
            del pending[j]
        else:
            pending.append(g)
    return out


def place_phase_pass(c: Circuit, d: DeviceModel) -> Circuit:
    """Reassign every movable phase gate to the most robust qubit, keeping
    list positions. Returns c itself exactly when no phase gate is movable,
    and a new circuit otherwise."""
    _check_sizes(c, d)
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
    """Lower c onto d: x/y measurement tags become basis-change gates (see
    measured_in) and z tags, then the passes run in the order above. The
    report's gate_count_before is c's own gate count."""
    _check_sizes(c, d)
    # Also rejects a star-illegal circuit before the placement scan runs.
    reversed_count = sum(1 for g in c.gates if g.kind == "cnot" and _needs_reversal(g, d))
    c0 = c if set(c.measure_basis) == {"z"} else measured_in(c, c.measure_basis)
    c1 = place_phase_pass(c0, d)
    c2 = reverse_cnot_pass(c1, d)
    c3 = cancel_adjacent_pass(c2)
    report = TranspileReport(
        gate_count_before=len(c.gates),
        gate_count_after=len(c3.gates),
        added_h_count=4 * reversed_count,
        phase_host_qubit=d.robustness_rank[0] if c1 is not c0 else -1,
    )
    return c3, report
