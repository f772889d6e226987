"""Tests of `sample_counts`: pinned counts, a differential test against a
one-shot reference sampler, and bounded sampling memory.

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
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.experiment import build_plan, class_distributions
from merminsim.noise import NoiseModel
from merminsim.statevector import _CHUNK, OutcomeDistribution, sample_counts

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


def test_sampling_memory_does_not_grow_with_shots():
    dist = OutcomeDistribution(5, np.full(32, 1 / 32))
    tracemalloc.start()
    try:
        sample_counts(dist, 1 << 22, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


if __name__ == "__main__":
    golden = _record()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
