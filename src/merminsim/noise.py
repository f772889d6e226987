"""Error channels: depolarizing noise after each gate on the touched qubits
and a per-qubit readout bit flip at measurement.

The noise acts on an exact density matrix. Each gate is applied with the
statevector gate kernel to the entries viewed as a 2n-qubit vector (U on
the row qubits, conj(U) on the column qubits). Depolarizing with rate p on
the gate's k qubits is the closed form rho -> (1 - p) rho + p Tr_Q(rho) (x)
I / 2^k, with no Kraus sum. Readout flips act on the final Z-basis
probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit
from .statevector import (
    DensityMatrix,
    OutcomeDistribution,
    apply_gate_dm,
    depolarize_dm,
    dm_diagonal_probabilities,
)


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

    def is_zero(self) -> bool:
        return self.depol_1q == 0.0 and self.depol_2q == 0.0 and self.readout_flip == 0.0


ZERO_NOISE = NoiseModel()


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
    confusion on the final Z-basis probabilities."""
    n = c.n_qubits
    rho = DensityMatrix.zero(n)
    for g in c.gates:
        rho = apply_gate_dm(rho, g)
        p = m.depol_2q if g.kind == "cnot" else m.depol_1q
        if p > 0:
            rho = depolarize_dm(rho, p, g.qubits)
    probs = _readout_confusion(dm_diagonal_probabilities(rho), n, m.readout_flip)
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


def calibrate_depol_2q(target: float = 2.85, tol: float = 1e-4,
                       max_iter: int = 60) -> float:
    """Bisection on depol_2q so the exact 3-qubit value hits the target.
    The exact value is monotone decreasing in depol_2q from the ideal 4.0."""
    from .experiment import build_plan, run_plan

    plan = build_plan(3)

    def value(p: float) -> float:
        return run_plan(replace(plan, noise=NoiseModel(depol_2q=p)), mode="exact").value

    lo, hi = 0.0, 1.0
    if not value(lo) >= target >= value(hi):
        raise ValueError("target outside the reachable range")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        v = value(mid)
        if abs(v - target) <= tol:
            return mid
        if v > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
