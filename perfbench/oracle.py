"""Reference evaluators the output checks compare against. They share no code
with merminsim: gate matrices, state updates, the depolarizing channel and
readout confusion are written out here from their definitions.

Gates are tuples (kind, qubit, ...); qubit 0 is tensor axis 0, the most
significant bit of an outcome index.
"""
from __future__ import annotations

import math

import numpy as np

_R = 1.0 / math.sqrt(2.0)
_W = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
GATES_1Q = {
    "h": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, _W]),
    "tdg": np.diag([1, _W.conjugate()]),
}

# Signs of the canonical Mermin polynomials by prime count.
CANONICAL_SIGNS = {3: {1: 1, 3: -1}, 4: {0: -1, 1: 1, 2: 1, 3: -1, 4: -1},
                   5: {0: -1, 2: 1, 4: -1}}

# GHZ preparation phases of the "max" and "alt" selectors.
PREP_PHASES = {"max": {3: math.pi / 2, 4: 3 * math.pi / 4, 5: math.pi},
               "alt": {3: math.pi / 2, 4: 7 * math.pi / 4, 5: 0.0}}


def class_closed_form(n: int, prep: str, k: int, depol_2q: float, readout_flip: float) -> float:
    """Exact parity of the GHZ state (|0..0> + e^{i phi}|1..1>)/sqrt(2)
    measured with k parties in Y and the rest in X, cos(phi - k pi/2), with
    no single-qubit noise: each of the n - 1 fan-out CNOTs scales the GHZ
    coherence by (1 - depol_2q) and each readout flip scales the parity by
    (1 - 2 readout_flip)."""
    ideal = math.cos(PREP_PHASES[prep][n] - k * math.pi / 2)
    return ideal * (1 - depol_2q) ** (n - 1) * (1 - 2 * readout_flip) ** n


def closed_form_units(n: int, prep: str, reduction: str, depol_2q: float,
                      readout_flip: float) -> list[tuple[int, int, float]]:
    """(prime count, weight, parity) per symmetry class, or per polynomial
    term in the package's term order (by prime count, then mask)."""
    signs = CANONICAL_SIGNS[n]
    if reduction == "classes":
        units = [(k, sign * math.comb(n, k)) for k, sign in sorted(signs.items())]
    else:
        masks = sorted((m for m in range(1 << n) if m.bit_count() in signs),
                       key=lambda m: (m.bit_count(), m))
        units = [(m.bit_count(), signs[m.bit_count()]) for m in masks]
    return [(k, w, class_closed_form(n, prep, k, depol_2q, readout_flip)) for k, w in units]


def mermin_closed_form(n: int, prep: str, depol_2q: float, readout_flip: float) -> float:
    return sum(w * e for _, w, e in closed_form_units(n, prep, "classes", depol_2q, readout_flip))


def _apply(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, tensor, axes=([1], [axis])), 0, axis)


def _flip_where(tensor: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT as a permutation: on the control = 1 slice, swap target 0 and 1."""
    out = tensor.copy()
    sel = [slice(None)] * tensor.ndim
    sel[control] = 1
    sub = out[tuple(sel)]
    out[tuple(sel)] = np.flip(sub, axis=target - (target > control))
    return out


def statevector_probs(n: int, gates) -> np.ndarray:
    """Z-basis outcome probabilities of the gate list run from |0...0>."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in gates:
        if g[0] == "cnot":
            psi = _flip_where(psi, g[1], g[2])
        else:
            psi = _apply(psi, GATES_1Q[g[0]], g[1])
    return (np.abs(psi) ** 2).reshape(-1)


def _depolarize(rho: np.ndarray, n: int, qubits, p: float) -> np.ndarray:
    """rho -> (1 - p) rho + p Tr_Q(rho) (x) I / 2^k on the qubits Q."""
    k = len(qubits)
    axes = list(qubits) + [n + q for q in qubits]
    moved = np.moveaxis(rho, axes, range(2 * n - 2 * k, 2 * n))
    rest = moved.shape[: 2 * n - 2 * k]
    block = moved.reshape(rest + (1 << k, 1 << k))
    traced = np.trace(block, axis1=-2, axis2=-1)
    mixed = traced[..., None, None] * (np.eye(1 << k) / (1 << k))
    mixed = np.moveaxis(mixed.reshape(rest + (2,) * (2 * k)), range(2 * n - 2 * k, 2 * n), axes)
    return (1.0 - p) * rho + p * mixed


def noisy_parity(n: int, gates, depol_1q: float, depol_2q: float, readout_flip: float) -> float:
    """Exact parity expectation <Z...Z> of the circuit under the package's
    noise model: depolarizing on the touched qubits after every gate, then an
    independent readout flip on every qubit."""
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for g in gates:
        qubits = g[1:]
        if g[0] == "cnot":
            rho = _flip_where(rho, g[1], g[2])
            rho = _flip_where(rho, n + g[1], n + g[2])
            p = depol_2q
        else:
            mat = GATES_1Q[g[0]]
            rho = _apply(_apply(rho, mat, g[1]), mat.conj(), n + g[1])
            p = depol_1q
        if p > 0.0:
            rho = _depolarize(rho, n, qubits, p)
    probs = np.real(np.diagonal(rho.reshape(1 << n, 1 << n)))
    return float(np.dot(parity_signs(n), probs)) * (1.0 - 2.0 * readout_flip) ** n


def parity_signs(n: int) -> np.ndarray:
    return np.array([-1.0 if bin(i).count("1") % 2 else 1.0 for i in range(1 << n)])


def gates_of(circuit) -> list[tuple]:
    """Tuple form of a merminsim Circuit's gate list."""
    return [(g.kind,) + tuple(g.qubits) for g in circuit.gates]


def parse_text(text: str) -> tuple[int, list[tuple], list[str]]:
    """Read the normalized circuit text the CLI prints: header, one gate per
    line, measure line."""
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "qubits":
        raise ValueError("no qubits header")
    n = int(head[1])
    gates, basis = [], []
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "measure":
            basis = tokens[1:]
        else:
            gates.append((tokens[0],) + tuple(int(t) for t in tokens[1:]))
    return n, gates, basis
