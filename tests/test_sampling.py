"""Tests of `sample_counts`: pinned counts, a differential test against a
one-shot reference sampler, counts that do not depend on how many spans the
shots are split into, sampling in a forked child, and bounded sampling
memory.

The golden file stores, for each case, the outcome probabilities, the shot
count, the seed and the exact counts the sampler returned when the file was
recorded. The distributions are the class distributions of n = 3, 4, 5 from
`noisy_distribution` at zero and at light noise, a uniform 32-outcome
distribution (its cdf entries are exact multiples of 1/32) and a point mass on
the last outcome. Shot counts span several sampling chunks.

Regenerate with `PYTHONPATH=src python tests/test_sampling.py`, and only when
a change of counts is intended: a fixed (distribution, shots, seed) must keep
its counts across versions.
"""
from __future__ import annotations

import functools
import json
import multiprocessing
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.experiment import build_plan, class_distributions
from merminsim.noise import NoiseModel
from merminsim import statevector
from merminsim.statevector import _CHUNK, _MAX_SPANS, OutcomeDistribution, sample_counts

GOLDEN = Path(__file__).resolve().parent / "golden" / "sample_counts.json"

SHOTS = (1, 65_535, 65_536, 65_537, (1 << 20) + 12_345)
NOISES = {
    "zero": NoiseModel(),
    "light": NoiseModel(depol_1q=0.01, depol_2q=0.03, readout_flip=0.02),
}


def _distributions() -> dict[str, list[float]]:
    dists = {}
    for n in (3, 4, 5):
        for label, noise in NOISES.items():
            plan = build_plan(n, noise=noise)
            for cls, dist in class_distributions(plan):
                dists[f"n{n}-{label}-class{cls.prime_count}"] = dist.probabilities.tolist()
    dists["uniform32"] = [1 / 32] * 32
    dists["point-mass-last"] = [0.0] * 31 + [1.0]
    return dists


def _record() -> dict:
    cases = {}
    for d, (name, probs) in enumerate(sorted(_distributions().items())):
        n = len(probs).bit_length() - 1
        for s, shots in enumerate(SHOTS):
            seed = 1000 * d + s
            table = sample_counts(OutcomeDistribution(n, np.array(probs)), shots, seed)
            cases[f"{name}/{shots}"] = {
                "probabilities": probs, "shots": shots, "seed": seed,
                "counts": {
                    format(i, f"0{n}b"): int(c) for i, c in enumerate(table.counts) if c > 0
                },
            }
    return cases


CASE_NAMES = sorted(f"{name}/{shots}" for name in _distributions() for shots in SHOTS)


@functools.lru_cache(maxsize=None)
def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_sample_counts_match_pinned(name):
    case = _load_golden()[name]
    probs = np.array(case["probabilities"])
    dist = OutcomeDistribution(len(probs).bit_length() - 1, probs)
    table = sample_counts(dist, case["shots"], case["seed"])
    expected = np.zeros(len(probs), dtype=np.int64)
    for key, count in case["counts"].items():
        expected[int(key, 2)] = count
    assert np.array_equal(table.counts, expected)


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == CASE_NAMES



def reference_counts(dist: OutcomeDistribution, shots: int, seed: int) -> np.ndarray:
    """The sampler's definition computed the direct way: every shot's PCG64
    double drawn at once and binary-searched in the cdf."""
    u = np.random.Generator(np.random.PCG64(seed)).random(shots)
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, u, side="right")
    return np.bincount(idx, minlength=1 << dist.n_qubits)


@st.composite
def distributions(draw) -> OutcomeDistribution:
    """Nonnegative distributions on n = 1..6 qubits with zero entries, point
    masses and tiny masses next to ordinary ones."""
    n = draw(st.integers(1, 6))
    size = 1 << n
    if draw(st.booleans()):
        weights = [0.0] * size
        weights[draw(st.integers(0, size - 1))] = 1.0
    else:
        entry = st.one_of(
            st.just(0.0),
            st.floats(1e-300, 1e-9),
            st.floats(1e-3, 1.0),
        )
        weights = draw(st.lists(entry, min_size=size, max_size=size))
        if sum(weights) == 0.0:
            weights[-1] = 1.0
    probs = np.array(weights)
    return OutcomeDistribution(n, probs / probs.sum())


SHOT_COUNTS = st.one_of(
    st.integers(1, 300),
    st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK + 7]),
)


@settings(max_examples=150, deadline=None)
@given(distributions(), SHOT_COUNTS, st.integers(0, 2**64 - 1))
def test_sample_counts_match_reference(dist, shots, seed):
    """Identical counts hold for nonnegative probabilities, which every
    pipeline distribution has: |amp|^2, and noisy_distribution's, which
    test_noise_golden checks on every plan circuit."""
    table = sample_counts(dist, shots, seed)
    assert np.array_equal(table.counts, reference_counts(dist, shots, seed))


SPLIT_SHOTS = (1, _CHUNK - 1, _CHUNK + 1, 5 * _CHUNK // 2, 3 * _CHUNK + 7)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_counts_do_not_depend_on_the_span_split(monkeypatch, workers):
    """However many CPUs the process has, the spans tile the shots in whole
    chunks, one per CPU while there are chunks for them and at most
    _MAX_SPANS, and the counts are those of the single stream. Runs of at
    most _CHUNK shots stay in the calling thread."""
    monkeypatch.setattr(statevector, "_WORKERS", workers)
    spans = []
    count_span = statevector._count_span

    def recording_count_span(cdf, table, seed, start, stop):
        spans.append((start, stop, threading.current_thread() is threading.main_thread()))
        return count_span(cdf, table, seed, start, stop)

    monkeypatch.setattr(statevector, "_count_span", recording_count_span)
    plan = build_plan(5, noise=NOISES["light"])
    dists = [dist for _, dist in class_distributions(plan)[:2]]
    dists.append(OutcomeDistribution(5, np.full(32, 1 / 32)))
    for d, dist in enumerate(dists):
        for shots in SPLIT_SHOTS:
            spans.clear()
            table = sample_counts(dist, shots, seed=77 + d)
            assert np.array_equal(table.counts, reference_counts(dist, shots, 77 + d))
            n_chunks = -(-shots // _CHUNK)
            assert len(spans) == min(workers, _MAX_SPANS, n_chunks)
            starts, stops, in_main = zip(*sorted(spans))
            assert starts[0] == 0 and stops[-1] == shots
            assert starts[1:] == stops[:-1]
            assert all(start % _CHUNK == 0 for start in starts)
            assert all(in_main) == (len(spans) == 1)


def _sample_in_child(conn, dist, shots, seed):
    conn.send(sample_counts(dist, shots, seed).counts.tolist())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_sampling_in_a_forked_child_after_the_pool_ran(monkeypatch):
    """A forked child inherits the parent's pool without its threads; its
    own sample_counts must not wait on them."""
    monkeypatch.setattr(statevector, "_WORKERS", 2)
    dist = OutcomeDistribution(5, np.full(32, 1 / 32))
    shots = 3 * _CHUNK + 7
    expected = sample_counts(dist, shots, seed=9).counts.tolist()
    assert statevector._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_sample_in_child, args=(send, dist, shots, 9))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "sample_counts in the forked child did not return"
        assert recv.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def _sampling_peak_bytes(shots: int) -> int:
    dist = OutcomeDistribution(5, np.full(32, 1 / 32))
    tracemalloc.start()
    try:
        sample_counts(dist, shots, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sampling_memory_does_not_grow_with_shots():
    assert _sampling_peak_bytes(1 << 22) < 8 * 2**20


def test_sampling_memory_does_not_grow_with_cpus(monkeypatch):
    """At most _MAX_SPANS spans hold buffers at once, on any host. At 2^24
    shots the spans are long enough that, without the cap, all 16 would
    hold their buffers at once (about 12.8 MiB)."""
    monkeypatch.setattr(statevector, "_WORKERS", 16)
    assert _sampling_peak_bytes(1 << 24) < 8 * 2**20


if __name__ == "__main__":
    golden = _record()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
