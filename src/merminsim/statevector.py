"""Z-basis outcome arithmetic: probability and count tables indexed by
outcome, one Walsh-Hadamard transform, and the seeded shot sampler.

Index bit (n-1-q) belongs to qubit q, so qubit 0 is the most significant bit
and the leftmost character of an outcome string. walsh_hadamard serves the
Mermin bounds, exactly on Gaussian integers, and noisy_distribution, which
maps Z-string coefficients to probabilities with it. sample_counts draws
seeded shot counts from a Z-basis outcome distribution.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

# Identifier for the sampling scheme stored in every CountsTable: raw PCG64
# doubles mapped through the inverse CDF. Kept independent of numpy's
# Generator.multinomial so that counts stay stable across numpy versions.
RNG_ID = "pcg64-invcdf"

# Chunk size and guide-table size of sample_counts. The bucket count must be
# a power of two, so that bucketing a double is exact.
_CHUNK = 1 << 15
_GUIDE_BUCKETS = 1 << 12

# sample_counts splits its shots into one span per CPU this process may run
# on, but into at most _MAX_SPANS, so that its buffers (three of _CHUNK
# entries, 768 KiB, per span) take at most 3 MiB on any host.
_MAX_SPANS = 4
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    _WORKERS = os.cpu_count() or 1

_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The process-wide thread pool the spans of sample_counts run on,
    created on first use: importing the module starts no thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_MAX_SPANS, thread_name_prefix="sample_counts")
        return _pool


def _drop_executor():
    """A pool inherited through fork has no live threads, and a submit to it
    would wait forever: the child starts its own on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


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


def walsh_hadamard(values) -> list:
    """The unnormalised Walsh-Hadamard transform of values, whose length is
    a power of two: W(b) = sum_m values[m] (-1)^|m & b|, as a new list. The
    butterfly only adds and subtracts entries, so ints and Gaussian ints stay
    exact, and floats round the same way on every platform."""
    vec = list(values)
    half = 1
    while half < len(vec):
        for start in range(0, len(vec), 2 * half):
            for i in range(start, start + half):
                a, b = vec[i], vec[i + half]
                vec[i], vec[i + half] = a + b, a - b
        half *= 2
    return vec


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountsTable:
    """Multinomial sample via inverse-CDF lookup on raw PCG64 doubles.

    Shot i lands on the first outcome whose cumulative probability exceeds
    the i-th double u. The lookup goes through a guide table (Chen & Asau,
    1974) over _GUIDE_BUCKETS equal buckets of [0, 1): a bucket that holds no
    cdf entry maps every u in it to one outcome, and only shots in the few
    buckets that do are binary-searched. For nonnegative probabilities the
    counts are exactly those of a binary search over all shots at once: the
    bucket size is a power of two, so floor(u * buckets) is exact.

    The shots are cut into contiguous spans of whole _CHUNKs, one per CPU
    the process may run on at import (its affinity, so taskset limits the
    threads) and at most _MAX_SPANS, and the spans are counted on a thread
    pool; numpy releases the GIL in the draw and the lookup. A span jumps
    its own PCG64(seed) ahead to its first shot (PCG64.advance, one 64-bit
    output per double), so it draws exactly the doubles of the single
    stream: the counts depend on neither the CPU count nor the affinity. A
    run of at most _CHUNK shots is one span, counted in the calling thread.
    Each span draws and counts in chunks of _CHUNK with 768 KiB of buffers,
    so memory does not grow with shots.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n_out = 1 << dist.n_qubits
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    edges = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side="right")
    # A straddling bucket holds a cdf entry; its shots take the sentinel n_out.
    table = np.where(edges[:-1] == edges[1:], edges[:-1], n_out)
    n_chunks = -(-shots // _CHUNK)
    spans = min(_WORKERS, _MAX_SPANS, n_chunks)
    if spans == 1:
        raw = _count_span(cdf, table, seed, 0, shots)
    else:
        bounds = [min(shots, k * n_chunks // spans * _CHUNK) for k in range(spans + 1)]
        pool = _executor()
        futures = [pool.submit(_count_span, cdf, table, seed, start, stop)
                   for start, stop in zip(bounds, bounds[1:])]
        raw = sum(f.result() for f in futures)
    return CountsTable(dist.n_qubits, raw, shots, seed)


def _count_span(cdf: np.ndarray, table: np.ndarray, seed: int, start: int,
                stop: int) -> np.ndarray:
    """The counts of shots start..stop-1 of sample_counts: the guide-table
    lookup of the doubles PCG64(seed) draws at those positions."""
    n_out = len(cdf)
    bitgen = np.random.PCG64(seed)
    bitgen.advance(start)
    rng = np.random.Generator(bitgen)
    size = min(stop - start, _CHUNK)
    u_buf = np.empty(size)
    bucket_buf = np.empty(size, dtype=np.intp)
    idx_buf = np.empty(size, dtype=np.intp)
    raw = np.zeros(n_out, dtype=np.int64)
    for lo in range(start, stop, _CHUNK):
        m = min(_CHUNK, stop - lo)
        u = rng.random(out=u_buf[:m])
        bucket, idx = bucket_buf[:m], idx_buf[:m]
        np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")
        # Buckets lie in range, so "clip" never clips; it only skips the
        # bounds-checked copy that the default mode makes with out=.
        np.take(table, bucket, out=idx, mode="clip")
        straddling = np.flatnonzero(idx == n_out)
        idx[straddling] = np.searchsorted(cdf, u[straddling], side="right")
        raw += np.bincount(idx, minlength=n_out)
    return raw
