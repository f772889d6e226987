"""Dense pure-state and density-matrix simulation of few-qubit circuits.

One in-place gate kernel serves statevectors, unitaries (columns evolve in
parallel) and density matrices (the entries read as a 2n-qubit vector): a
phase gate scales the |1> half of a reshaped view, X and H gather through a
cached bit-flip permutation, and CNOT swaps cached index pairs. Index bit
(n-1-q) belongs to qubit q, so qubit 0 is the most significant bit and the
leftmost character of an outcome string.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, MAX_QUBITS, gate as interned_gate

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

# The gate whose matrix is the entrywise complex conjugate of each kind's
# matrix; apply_gate_dm applies it to the column index of a density matrix.
GATE_CONJ = {"h": "h", "x": "x", "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "cnot": "cnot"}

def _check_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")


@dataclass(eq=False)
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubits(self.n_qubits)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude array length must be 2**n_qubits")

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        """|0...0>; the qubit count is checked before the 2^n array is
        allocated."""
        _check_qubits(n_qubits)
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)


@dataclass(eq=False)
class OutcomeDistribution:
    """Z-basis probabilities indexed by bitstring read MSB-first."""

    n_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.shape != (1 << self.n_qubits,):
            raise ValueError("probability array length must be 2**n_qubits")
        # Negated comparisons, so that NaN fails both checks and inf the first.
        if not (np.all(self.probabilities >= -1e-12) and np.all(self.probabilities <= 1 + 1e-12)):
            raise ValueError("probabilities out of [0, 1]")
        if not abs(float(self.probabilities.sum()) - 1.0) <= 1e-9:
            raise ValueError("probabilities do not sum to 1")


@dataclass(frozen=True, eq=False)
class CountsTable:
    """Sampled outcome counts, indexed like OutcomeDistribution.probabilities."""

    n_qubits: int
    counts: np.ndarray
    shots: int
    seed: int
    rng_id: str = RNG_ID

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("empty counts table: shots must be >= 1")
        counts = np.asarray(self.counts).astype(np.int64, casting="safe", copy=False)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (1 << self.n_qubits,):
            raise ValueError("counts array length must be 2**n_qubits")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.shots:
            raise ValueError("counts must sum to shots")


def _check_dm_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_DM_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_DM_QUBITS} for density matrices")


@dataclass(eq=False)
class DensityMatrix:
    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        _check_dm_qubits(self.n_qubits)
        self.entries = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.n_qubits
        if self.entries.shape != (dim, dim):
            raise ValueError("entries must be a 2**n x 2**n matrix")

    @classmethod
    def zero(cls, n_qubits: int) -> "DensityMatrix":
        """|0...0><0...0|; the qubit count is checked before the 4^n array
        is allocated."""
        _check_dm_qubits(n_qubits)
        dim = 1 << n_qubits
        entries = np.zeros((dim, dim), dtype=complex)
        entries[0, 0] = 1.0
        return cls(n_qubits, entries)


@lru_cache(maxsize=None)
def _flip_perm(n: int, q: int) -> np.ndarray:
    """Index permutation that flips qubit q's bit."""
    return np.arange(1 << n) ^ (1 << (n - 1 - q))


@lru_cache(maxsize=None)
def _h_diag(n: int, q: int) -> np.ndarray:
    """1/sqrt(2) where qubit q's bit is 0 and -1/sqrt(2) where it is 1: the
    diagonal of H on qubit q, whose off-diagonal part is the flip times
    1/sqrt(2). Stored complex: a real vector is cast in buffered chunks on
    every product, which costs more than the product itself."""
    bit = (np.arange(1 << n) >> (n - 1 - q)) & 1
    return np.where(bit == 1, -_INV_SQRT2, _INV_SQRT2).astype(complex)


@lru_cache(maxsize=None)
def _cnot_indices(n: int, control: int, target: int):
    pc = n - 1 - control
    pt = n - 1 - target
    idx = np.arange(1 << n)
    sel = idx[((idx >> pc) & 1 == 1) & ((idx >> pt) & 1 == 0)]
    return sel, sel | (1 << pt)


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


def _one_half(amps: np.ndarray, q: int) -> np.ndarray:
    """View of the amplitudes whose qubit-q bit is 1. The row bits lead the
    C-contiguous array, so this also holds for 2-D column states."""
    return amps.reshape(1 << q, 2, -1)[:, 1]


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Mutates amps, a C-contiguous 1-D state or 2-D array of column states.

    A phase gate scales the |1> half of its qubit, X permutes by the bit
    flip, and H adds the flipped amplitudes times 1/sqrt(2) to the amplitudes
    times its +-1/sqrt(2) diagonal; CNOT swaps the control-set pairs. The
    numbers equal those of the 2x2 matrix-vector product on each pair of
    amplitudes: H forms the same products and sums, and the terms the other
    kinds leave out are products with 0 and 1.
    """
    kind = gate.kind
    if kind == "cnot":
        sel, swapped = _cnot_indices(n, gate.qubits[0], gate.qubits[1])
        tmp = amps[sel]
        amps[sel] = amps[swapped]
        amps[swapped] = tmp
        return
    q = gate.qubits[0]
    if kind == "h":
        moved = amps[_flip_perm(n, q)]
        moved *= _INV_SQRT2
        diag = _h_diag(n, q)
        amps *= diag if amps.ndim == 1 else diag[:, None]
        amps += moved
    elif kind == "x":
        amps[...] = amps[_flip_perm(n, q)]
    else:
        half = _one_half(amps, q)
        # Phase first: numpy's complex product rounds differently with the
        # operands swapped, and this order is the matrix product's.
        np.multiply(GATE_1Q[kind][1, 1], half, out=half)


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
    return CountsTable(dist.n_qubits, raw, shots, seed)


def apply_gate_dm(rho: DensityMatrix, gate: Gate) -> DensityMatrix:
    """rho -> U rho U^dag. Row-major, the entries are a 2n-qubit vector whose
    qubit q is row qubit q and whose qubit n + q is column qubit q, so the
    statevector kernel applies U to the rows and conj(U) to the columns."""
    n = rho.n_qubits
    if any(q >= n for q in gate.qubits):
        raise ValueError("gate index out of range")
    out = rho.entries.copy()
    vec = out.reshape(-1)
    _apply_gate_inplace(vec, gate, 2 * n)
    conj = interned_gate(GATE_CONJ[gate.kind], tuple(n + q for q in gate.qubits))
    _apply_gate_inplace(vec, conj, 2 * n)
    return DensityMatrix(n, out)


def depolarize_dm(rho: DensityMatrix, p: float, qubits) -> DensityMatrix:
    """k-qubit depolarizing on the given qubits in closed form:
    rho -> (1 - p) rho + p Tr_Q(rho) (x) I / 2^k. Tr_Q(rho) is the sum of the
    2^k diagonal blocks (row and column bits of Q equal); each of those
    blocks then receives p / 2^k times it."""
    qubits = tuple(qubits)
    n = rho.n_qubits
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability in [0, 1]")
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit")
    if any(not 0 <= q < n for q in qubits):
        raise ValueError("qubit index out of range")
    out = rho.entries.copy()
    tens = out.reshape((2,) * (2 * n))
    blocks = _diagonal_blocks(n, qubits)
    traced = sum(tens[idx] for idx in blocks) * (p / len(blocks))
    tens *= 1.0 - p
    for idx in blocks:
        tens[idx] += traced
    return DensityMatrix(n, out)


def dm_diagonal_probabilities(rho: DensityMatrix) -> np.ndarray:
    return np.real(np.diag(rho.entries)).copy()


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full unitary of the gate list; its columns evolve in parallel through
    the gate kernel. Limited to 6 qubits."""
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
