"""The gate kernel and the outcome sampler of few-qubit simulation.

One in-place gate kernel on 1-D states serves the transpiler's phase scan and
the density-matrix loop of noise.py, which reads the 4^n entries as a
2n-qubit vector: a phase gate scales the |1> half of a reshaped view, X and
H gather through a cached bit-flip permutation, and CNOT swaps cached index
pairs. Index bit (n-1-q) belongs to qubit q, so qubit 0 is the most
significant bit and the leftmost character of an outcome string.
sample_counts draws seeded shot counts from a Z-basis outcome distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Gate

# Identifier for the sampling scheme stored in every CountsTable: raw PCG64
# doubles mapped through the inverse CDF. Kept independent of numpy's
# Generator.multinomial so that counts stay stable across numpy versions.
RNG_ID = "pcg64-invcdf"

# Chunk size and guide-table size of sample_counts. The bucket count must be
# a power of two, so that bucketing a double is exact.
_CHUNK = 1 << 16
_GUIDE_BUCKETS = 1 << 12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The phase each phase kind puts on the |1> amplitude of its qubit.
_PHASE = {"s": 1j, "sdg": -1j, "t": np.exp(1j * math.pi / 4), "tdg": np.exp(-1j * math.pi / 4)}


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


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Mutates amps, a C-contiguous 1-D state of n qubits.

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
        amps *= _h_diag(n, q)
        amps += moved
    elif kind == "x":
        amps[...] = amps[_flip_perm(n, q)]
    else:
        half = amps.reshape(1 << q, 2, -1)[:, 1]  # the amplitudes with qubit q at 1
        # Phase first: numpy's complex product rounds differently with the
        # operands swapped, and this order is the matrix product's.
        np.multiply(_PHASE[kind], half, out=half)


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
