"""Error channels: depolarizing noise after each gate on the touched qubits
and a per-qubit readout bit flip at measurement.

The noise acts on an exact density matrix, held in one complex 4^n array
and updated in place. Read row-major, its entries are a 2n-qubit vector
whose qubit q is row qubit q and whose qubit n + q is column qubit q, so
the statevector gate kernel applies each gate's U to the row qubits and
conj(U) to the column qubits. Depolarizing with rate p on the gate's k
qubits is the closed form rho -> (1 - p) rho + p Tr_Q(rho) (x) I / 2^k, with
no Kraus sum. Readout flips act on the final Z-basis probabilities, so every
measurement tag must be z: lower x/y tags first (transpile or measured_in).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .circuits import INVERSE, Circuit, gate
from .statevector import OutcomeDistribution, _apply_gate_inplace

MAX_DM_QUBITS = 6

# calibrate_depol_2q stops once the value is this close to the target, or
# after this many bisection steps.
CALIBRATE_TOL = 1e-4
CALIBRATE_MAX_ITER = 60


@dataclass(frozen=True)
class NoiseModel:
    depol_1q: float = 0.0
    depol_2q: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("depol_1q", "depol_2q", "readout_flip"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")


ZERO_NOISE = NoiseModel()


@lru_cache(maxsize=None)
def _diagonal_blocks(n: int, qubits: tuple[int, ...]):
    """Indices into the (2,) * 2n tensor of a density matrix that select each
    block whose row and column bits agree on the given qubits."""
    blocks = []
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        idx = [slice(None)] * (2 * n)
        for q, b in zip(qubits, bits):
            idx[q] = idx[n + q] = b
        # With the Ellipsis a full index (k = n) is a 0-d view, not a scalar copy.
        blocks.append((*idx, Ellipsis))
    return tuple(blocks)


def _readout_confusion(probs: np.ndarray, n: int, r: float) -> np.ndarray:
    if r == 0.0:
        return probs
    tens = probs.reshape((2,) * n)
    for axis in range(n):
        tens = (1.0 - r) * tens + r * np.flip(tens, axis=axis)
    return tens.reshape(-1)


def noisy_distribution(c: Circuit, m: NoiseModel) -> OutcomeDistribution:
    """Exact density-matrix propagation: each gate's unitary, then
    depolarizing on the touched qubits at the gate's rate; per-qubit readout
    confusion on the final Z-basis probabilities, so every tag must be z.
    The 4^n entries are allocated once and every step updates them in place."""
    n = c.n_qubits
    if not 1 <= n <= MAX_DM_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_DM_QUBITS} for density matrices")
    if any(b != "z" for b in c.measure_basis):
        raise ValueError("noisy_distribution measures in z only: lower x/y measurement "
                         "tags first (transpile or measured_in)")
    dim = 1 << n
    vec = np.zeros(dim * dim, dtype=complex)
    vec[0] = 1.0
    tens = vec.reshape((2,) * (2 * n))
    for g in c.gates:
        _apply_gate_inplace(vec, g, 2 * n)
        _apply_gate_inplace(vec, gate(INVERSE[g.kind], tuple(n + q for q in g.qubits)), 2 * n)
        p = m.depol_2q if g.kind == "cnot" else m.depol_1q
        if p > 0:
            # Tr_Q(rho) is the sum of the 2^k diagonal blocks; each of those
            # blocks then receives p / 2^k times it.
            blocks = _diagonal_blocks(n, g.qubits)
            traced = sum(tens[idx] for idx in blocks) * (p / len(blocks))
            tens *= 1.0 - p
            for idx in blocks:
                tens[idx] += traced
    probs = _readout_confusion(vec[:: dim + 1].real, n, m.readout_flip)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("probability mass drifted beyond tolerance")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return OutcomeDistribution(n, probs)


def degradation_curve(n: int, m_grid) -> list[tuple[NoiseModel, float]]:
    """Exact (non-sampled) Mermin value at each noise point, through the full
    transpiled pipeline."""
    from .experiment import build_plan, run_plan

    plan = build_plan(n)
    return [(m, run_plan(replace(plan, noise=m), mode="exact").value) for m in m_grid]


def calibrate_depol_2q(target: float = 2.85) -> float:
    """Bisection on depol_2q so the exact 3-qubit value hits the target
    within CALIBRATE_TOL.
    The exact value is monotone decreasing in depol_2q from the ideal 4.0."""
    from .experiment import build_plan, run_plan

    plan = build_plan(3)

    def value(p: float) -> float:
        return run_plan(replace(plan, noise=NoiseModel(depol_2q=p)), mode="exact").value

    lo, hi = 0.0, 1.0
    if not value(lo) >= target >= value(hi):
        raise ValueError("target outside the reachable range")
    for _ in range(CALIBRATE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        v = value(mid)
        if abs(v - target) <= CALIBRATE_TOL:
            return mid
        if v > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
