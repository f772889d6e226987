"""Error channels: depolarizing noise after each gate on the touched qubits
and a per-qubit readout bit flip at measurement.

The state is held in the Pauli basis, as {(x_mask, z_mask): Tr(rho P)} over
the Hermitian Paulis P = i^(x.z) X^x Z^z, with bit n-1-q for qubit q as in
outcome indices. Both channels are Pauli channels, so each scales terms.
The Z-basis probabilities are statevector.walsh_hadamard of the Z-string
coefficients, the transform the Mermin bounds use, over 2^n.
Readout flips act on Z-basis outcomes, so every measurement tag must be z:
lower x/y tags first (transpile or measured_in).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .circuits import Circuit
from .statevector import OutcomeDistribution, walsh_hadamard

# The most Pauli terms noisy_distribution holds after a gate: as many as a
# 6-qubit state has. Plan circuits need about 1.5 * 2^n.
MAX_TERMS = 4 ** 6

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
        for name in NOISE_PARAMS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")


# The noise parameter names, in field order: config's [noise] keys and the
# degrade scans read them from here.
NOISE_PARAMS = tuple(f.name for f in fields(NoiseModel))

ZERO_NOISE = NoiseModel()

_I, _X, _Y, _Z = (0, 0), (1, 0), (1, 1), (0, 1)
_R = 1.0 / math.sqrt(2.0)

# U P U^dag for each one-qubit kind and one-qubit Pauli (x, z), as
# (Pauli, weight) pairs.
CONJUGATION = {
    kind: {_I: ((_I, 1.0),), **images}
    for kind, images in {
        "h": {_X: ((_Z, 1.0),), _Y: ((_Y, -1.0),), _Z: ((_X, 1.0),)},
        "x": {_X: ((_X, 1.0),), _Y: ((_Y, -1.0),), _Z: ((_Z, -1.0),)},
        "s": {_X: ((_Y, 1.0),), _Y: ((_X, -1.0),), _Z: ((_Z, 1.0),)},
        "sdg": {_X: ((_Y, -1.0),), _Y: ((_X, 1.0),), _Z: ((_Z, 1.0),)},
        "t": {_X: ((_X, _R), (_Y, _R)), _Y: ((_X, -_R), (_Y, _R)), _Z: ((_Z, 1.0),)},
        "tdg": {_X: ((_X, _R), (_Y, -_R)), _Y: ((_X, _R), (_Y, _R)), _Z: ((_Z, 1.0),)},
    }.items()
}


def _conjugate(terms: dict, kind: str, qubits: tuple[int, ...], n: int) -> dict:
    """The terms of U rho U^dag for the gate of this kind on these qubits."""
    out: dict = {}
    if kind == "cnot":
        a, b = (n - 1 - q for q in qubits)
        for (x, z), v in terms.items():
            xa, za, xb, zb = x >> a & 1, z >> a & 1, x >> b & 1, z >> b & 1
            # Aaronson & Gottesman: X_a -> X_a X_b, Z_b -> Z_a Z_b, and the
            # sign flips where x_a z_b (x_b ^ z_a ^ 1) is 1, as X_a Z_b -> -Y_a Y_b.
            out[x ^ xa << b, z ^ zb << a] = -v if xa & zb & (xb ^ za ^ 1) else v
        return out
    s = n - 1 - qubits[0]
    rest = ~(1 << s)
    images = CONJUGATION[kind]
    for (x, z), v in terms.items():
        for (px, pz), w in images[x >> s & 1, z >> s & 1]:
            key = (x & rest | px << s, z & rest | pz << s)
            out[key] = out.get(key, 0.0) + w * v
    return out


def noisy_distribution(c: Circuit, m: NoiseModel) -> OutcomeDistribution:
    """Exact propagation in the Pauli basis from |0...0>, whose terms are the
    2^n Z-strings: each gate conjugates every term, then depolarizing scales
    the terms on the touched qubits; readout flips scale the Z-strings, and
    the Z-basis probabilities are their Walsh-Hadamard transform over 2^n.
    Raises ValueError once a gate leaves more than MAX_TERMS terms."""
    n = c.n_qubits
    if any(b != "z" for b in c.measure_basis):
        raise ValueError("noisy_distribution measures in z only: lower x/y measurement "
                         "tags first (transpile or measured_in)")
    terms = {(0, z): 1.0 for z in range(1 << n)}
    for g in c.gates:
        terms = _conjugate(terms, g.kind, g.qubits, n)
        if len(terms) > MAX_TERMS:
            raise ValueError(f"more than MAX_TERMS = {MAX_TERMS} Pauli terms")
        p = m.depol_2q if g.kind == "cnot" else m.depol_1q
        if p > 0:
            wires = sum(1 << (n - 1 - q) for q in g.qubits)
            terms = {k: v * (1.0 - p) if (k[0] | k[1]) & wires else v for k, v in terms.items()}
    f = 1.0 - 2.0 * m.readout_flip
    zs = [0.0] * (1 << n)
    for (x, z), v in terms.items():
        if not x:
            zs[z] = v * f ** z.bit_count()
    return OutcomeDistribution(n, [v / (1 << n) for v in walsh_hadamard(zs)])


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
