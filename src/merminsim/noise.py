"""Error channels: depolarizing noise after each gate on the touched qubits
and a per-qubit readout bit flip at measurement."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit
from .statevector import (
    MAX_DM_QUBITS,
    CNOT_MATRIX,
    GATE_1Q,
    PAULI,
    DensityMatrix,
    KrausChannel,
    OutcomeDistribution,
    _apply_kraus,
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


def depolarizing_channel(p: float, k: int) -> KrausChannel:
    """k-qubit depolarizing map: with probability p the state is replaced by
    the maximally mixed state on those qubits. Kraus weights: 1 - p + p/4^k
    on the identity, p/4^k on each other Pauli product."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability in [0, 1]")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    paulis = [PAULI["i"], PAULI["x"], PAULI["y"], PAULI["z"]]
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


def _readout_confusion(probs: np.ndarray, n: int, r: float) -> np.ndarray:
    if r == 0.0:
        return probs
    tens = probs.reshape((2,) * n)
    for axis in range(n):
        tens = (1.0 - r) * tens + r * np.flip(tens, axis=axis)
    return tens.reshape(-1)


def noisy_distribution(c: Circuit, m: NoiseModel) -> OutcomeDistribution:
    """Exact density-matrix propagation: each gate's unitary, then the
    matching depolarizing channel on the touched qubits; per-qubit readout
    confusion on the final Z-basis probabilities."""
    n = c.n_qubits
    if n > MAX_DM_QUBITS:
        raise ValueError(f"density-matrix propagation limited to {MAX_DM_QUBITS} qubits")
    dim = 1 << n
    entries = np.zeros((dim, dim), dtype=complex)
    entries[0, 0] = 1.0
    chan_1q = depolarizing_channel(m.depol_1q, 1) if m.depol_1q > 0 else None
    chan_2q = depolarizing_channel(m.depol_2q, 2) if m.depol_2q > 0 else None
    for g in c.gates:
        mat = CNOT_MATRIX if g.kind == "cnot" else GATE_1Q[g.kind]
        entries = _apply_kraus(entries, (mat,), g.qubits, n)
        chan = chan_2q if g.kind == "cnot" else chan_1q
        if chan is not None:
            entries = _apply_kraus(entries, chan.operators, g.qubits, n)
    rho = DensityMatrix(n, entries)
    probs = np.real(np.diag(rho.entries)).copy()
    probs = _readout_confusion(probs, n, m.readout_flip)
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
