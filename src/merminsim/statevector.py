"""Dense pure-state and density-matrix simulation of few-qubit circuits.

Statevector kernels use stride-based index pairing on a contiguous amplitude
array. Index bit (n-1-q) belongs to qubit q, so qubit 0 is the most
significant bit and the leftmost character of an outcome string.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, MAX_QUBITS

MAX_DM_QUBITS = 6

# Identifier for the sampling scheme stored in every CountsTable: raw PCG64
# doubles mapped through the inverse CDF. Kept independent of numpy's
# Generator.multinomial so that counts stay stable across numpy versions.
RNG_ID = "pcg64-invcdf"

# Chunk size and guide-table size of sample_counts. The bucket count must be
# a power of two, so that bucketing a double is exact.
_CHUNK = 1 << 16
_GUIDE_BUCKETS = 1 << 12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Basis order |control target>.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(eq=False)
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude array length must be 2**n_qubits")

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def fidelity(self, other: "Statevector") -> float:
        """|<self|other>|^2; insensitive to global phase."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit counts differ")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass(frozen=True)
class PauliString:
    n_qubits: int
    ops: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(op.lower() for op in self.ops))
        if len(self.ops) != self.n_qubits:
            raise ValueError("ops length must equal n_qubits")
        if any(op not in PAULI for op in self.ops):
            raise ValueError("ops must be i, x, y or z")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        return cls(len(label), tuple(label.lower()))

    @classmethod
    def from_prime_mask(cls, n: int, prime_mask: int) -> "PauliString":
        """X for unprimed parties, Y for primed ones (MSB-first mask)."""
        ops = tuple("y" if (prime_mask >> (n - 1 - q)) & 1 else "x" for q in range(n))
        return cls(n, ops)

    def label(self) -> str:
        return "".join(self.ops).upper()


@dataclass(eq=False)
class OutcomeDistribution:
    """Z-basis probabilities indexed by bitstring read MSB-first."""

    n_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.shape != (1 << self.n_qubits,):
            raise ValueError("probability array length must be 2**n_qubits")
        if np.any(self.probabilities < -1e-12) or np.any(self.probabilities > 1 + 1e-12):
            raise ValueError("probabilities out of [0, 1]")
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities do not sum to 1")

    def probability(self, bitstring: str) -> float:
        if len(bitstring) != self.n_qubits:
            raise ValueError("bitstring length must equal n_qubits")
        return float(self.probabilities[int(bitstring, 2)])


@dataclass(frozen=True)
class CountsTable:
    """Sampled outcome counts; keys are n-bit strings, qubit 0 leftmost."""

    n_qubits: int
    counts: dict[str, int]
    shots: int
    seed: int
    rng_id: str = RNG_ID

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")
        for key in self.counts:
            if len(key) != self.n_qubits or set(key) - {"0", "1"}:
                raise ValueError(f"bad outcome key {key!r}")


@dataclass(eq=False)
class DensityMatrix:
    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_DM_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_DM_QUBITS} for density matrices")
        self.entries = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.n_qubits
        if self.entries.shape != (dim, dim):
            raise ValueError("entries must be a 2**n x 2**n matrix")

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.entries.copy())


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


@lru_cache(maxsize=None)
def _pair_indices(n: int, q: int):
    pos = n - 1 - q
    idx = np.arange(1 << n)
    low = idx[(idx >> pos) & 1 == 0]
    return low, low | (1 << pos)


@lru_cache(maxsize=None)
def _cnot_indices(n: int, control: int, target: int):
    pc = n - 1 - control
    pt = n - 1 - target
    idx = np.arange(1 << n)
    sel = idx[((idx >> pc) & 1 == 1) & ((idx >> pt) & 1 == 0)]
    return sel, sel | (1 << pt)


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Mutates amps; works on a 1-D state or a 2-D array of column states."""
    if gate.kind == "cnot":
        sel, swapped = _cnot_indices(n, gate.qubits[0], gate.qubits[1])
        tmp = amps[sel].copy()
        amps[sel] = amps[swapped]
        amps[swapped] = tmp
        return
    mat = GATE_1Q[gate.kind]
    low, high = _pair_indices(n, gate.qubits[0])
    a0 = amps[low]
    a1 = amps[high]
    amps[low] = mat[0, 0] * a0 + mat[0, 1] * a1
    amps[high] = mat[1, 0] * a0 + mat[1, 1] * a1


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    if any(q >= state.n_qubits for q in gate.qubits):
        raise ValueError("gate index out of range")
    out = state.amplitudes.copy()
    _apply_gate_inplace(out, gate, state.n_qubits)
    return Statevector(state.n_qubits, out)


def simulate_circuit(c: Circuit, initial: Statevector | None = None) -> Statevector:
    """Run the gate list from |0...0> (or the given state). Measurement-basis
    tags are not applied; lowering realizes them as gates."""
    if initial is None:
        amps = np.zeros(1 << c.n_qubits, dtype=complex)
        amps[0] = 1.0
    else:
        if initial.n_qubits != c.n_qubits:
            raise ValueError("initial state qubit count differs")
        amps = initial.amplitudes.copy()
    for g in c.gates:
        _apply_gate_inplace(amps, g, c.n_qubits)
    return Statevector(c.n_qubits, amps)


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of the Pauli string; MSB-first, so qubit 0 is the first
    kron factor. Limited to 6 qubits."""
    if p.n_qubits > MAX_DM_QUBITS:
        raise ValueError("too many qubits for a dense Pauli matrix")
    mat = np.array([[1.0 + 0j]])
    for op in p.ops:
        mat = np.kron(mat, PAULI[op])
    return mat


def pauli_expectation(state: Statevector, p: PauliString) -> float:
    """<psi|P|psi>; applies each single-qubit factor with the stride kernel."""
    if p.n_qubits != state.n_qubits:
        raise ValueError("dimension mismatch")
    work = state.amplitudes.copy()
    n = state.n_qubits
    for q, op in enumerate(p.ops):
        if op == "i":
            continue
        mat = PAULI[op]
        low, high = _pair_indices(n, q)
        a0 = work[low]
        a1 = work[high]
        work[low] = mat[0, 0] * a0 + mat[0, 1] * a1
        work[high] = mat[1, 0] * a0 + mat[1, 1] * a1
    return float(np.vdot(state.amplitudes, work).real)


def outcome_distribution(state: Statevector) -> OutcomeDistribution:
    probs = np.abs(state.amplitudes) ** 2
    return OutcomeDistribution(state.n_qubits, probs)


def _format_outcome(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountsTable:
    """Multinomial sample via inverse-CDF lookup on raw PCG64 doubles.

    Shot i lands on the first outcome whose cumulative probability exceeds
    the i-th double u. The lookup goes through a guide table (Chen & Asau,
    1974) over _GUIDE_BUCKETS equal buckets of [0, 1): a bucket that holds no
    cdf entry maps every u in it to one outcome, and only shots in the few
    buckets that do are binary-searched. The doubles are drawn and counted
    in chunks of _CHUNK, so memory does not grow with shots. For
    nonnegative probabilities the counts are exactly those of a binary
    search over all shots at once: the bucket size is a power of two, so
    floor(u * buckets) is exact, and PCG64 yields the same doubles in
    chunks as in one draw.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n_out = 1 << dist.n_qubits
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    edges = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side="right")
    # A straddling bucket holds a cdf entry; its shots take the sentinel n_out.
    table = np.where(edges[:-1] == edges[1:], edges[:-1], n_out)
    rng = np.random.Generator(np.random.PCG64(seed))
    size = min(shots, _CHUNK)
    u_buf = np.empty(size)
    bucket_buf = np.empty(size, dtype=np.intp)
    idx_buf = np.empty(size, dtype=np.intp)
    raw = np.zeros(n_out, dtype=np.int64)
    for start in range(0, shots, _CHUNK):
        m = min(_CHUNK, shots - start)
        u = rng.random(out=u_buf[:m])
        bucket, idx = bucket_buf[:m], idx_buf[:m]
        np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")
        # Buckets lie in range, so "clip" never clips; it only skips the
        # bounds-checked copy that the default mode makes with out=.
        np.take(table, bucket, out=idx, mode="clip")
        straddling = np.flatnonzero(idx == n_out)
        idx[straddling] = np.searchsorted(cdf, u[straddling], side="right")
        raw += np.bincount(idx, minlength=n_out)
    counts = {
        _format_outcome(i, dist.n_qubits): int(cnt)
        for i, cnt in enumerate(raw)
        if cnt > 0
    }
    return CountsTable(dist.n_qubits, counts, shots, seed)


def density_from_state(state: Statevector) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(amps, amps.conj()))


def _contract(tens: np.ndarray, op: np.ndarray, positions: list[int]) -> np.ndarray:
    """Contract op's input axes with the given tensor axes and put its output
    axes back in their place."""
    k = len(positions)
    opt = op.reshape((2,) * (2 * k))
    tens = np.tensordot(opt, tens, axes=(list(range(k, 2 * k)), positions))
    return np.moveaxis(tens, list(range(k)), positions)


def _apply_kraus(entries: np.ndarray, ops, qubits: tuple[int, ...], n: int) -> np.ndarray:
    tens = entries.reshape((2,) * (2 * n))
    row_axes = [q for q in qubits]
    col_axes = [n + q for q in qubits]
    acc = np.zeros_like(tens)
    for op in ops:
        term = _contract(tens, op, row_axes)
        term = _contract(term, op.conj(), col_axes)
        acc += term
    return acc.reshape(entries.shape)


def apply_channel(rho: DensityMatrix, channel: KrausChannel, qubits) -> DensityMatrix:
    qubits = tuple(qubits)
    if len(qubits) != channel.n_qubits:
        raise ValueError("channel arity does not match qubit count")
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit")
    if any(q >= rho.n_qubits for q in qubits):
        raise ValueError("qubit index out of range")
    out = _apply_kraus(rho.entries, channel.operators, qubits, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, out)


def apply_gate_dm(rho: DensityMatrix, gate: Gate) -> DensityMatrix:
    if any(q >= rho.n_qubits for q in gate.qubits):
        raise ValueError("gate index out of range")
    mat = CNOT_MATRIX if gate.kind == "cnot" else GATE_1Q[gate.kind]
    out = _apply_kraus(rho.entries, (mat,), gate.qubits, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, out)


def dm_pauli_expectation(rho: DensityMatrix, p: PauliString) -> float:
    if p.n_qubits != rho.n_qubits:
        raise ValueError("dimension mismatch")
    return float(np.trace(rho.entries @ pauli_matrix(p)).real)


def dm_diagonal_probabilities(rho: DensityMatrix) -> np.ndarray:
    return np.real(np.diag(rho.entries)).copy()


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full unitary of the gate list; columns evolve in parallel through the
    stride kernels. Limited to 6 qubits."""
    if c.n_qubits > MAX_DM_QUBITS:
        raise ValueError("too many qubits for a dense unitary")
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        _apply_gate_inplace(u, g, c.n_qubits)
    return u


def unitary_equivalent(a: Circuit, b: Circuit, tol: float = 1e-10) -> bool:
    """True iff |Tr(Ua^dag Ub)| / 2^n >= 1 - tol (equal up to global phase)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    ua = circuit_unitary(a)
    ub = circuit_unitary(b)
    dim = 1 << a.n_qubits
    overlap = abs(np.trace(ua.conj().T @ ub)) / dim
    return bool(overlap >= 1.0 - tol)
