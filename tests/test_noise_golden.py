"""Bitwise pin of `noisy_distribution` on every plan circuit.

For each party count n = 3, 4, 5, both reductions, every prep phase k
eighth-turns (k = 0..7) and three noise models, the golden file holds the
SHA-256 of the concatenated `probabilities.tobytes()` of every unit of
`build_plan(n, k, reduction=...)`, in plan order. The models are a mixed
point, heavy one-qubit depolarizing alone, and the extremes (full
depolarizing on every gate and a readout flip of one half).

Regenerate with `PYTHONPATH=src python tests/test_noise_golden.py`, and only
when a change of the noisy probabilities is intended.
"""
from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from merminsim.experiment import build_plan
from merminsim.noise import NoiseModel, noisy_distribution

GOLDEN = Path(__file__).resolve().parent / "golden" / "noisy_probabilities.json"

MODELS = {
    "mixed": NoiseModel(depol_1q=0.01, depol_2q=0.05, readout_flip=0.02),
    "heavy1q": NoiseModel(depol_1q=0.2),
    "extremes": NoiseModel(depol_1q=1.0, depol_2q=1.0, readout_flip=0.5),
}

CASES = {
    f"n{n}-{reduction}-k{k}-{label}": (n, reduction, k, label)
    for n in (3, 4, 5)
    for reduction in ("classes", "full-terms")
    for k in range(8)
    for label in MODELS
}


@functools.lru_cache(maxsize=None)
def _circuits(n: int, reduction: str, k: int):
    return tuple(circ for _, circ in build_plan(n, k, reduction=reduction).classes)


def digest(n: int, reduction: str, k: int, label: str) -> str:
    h = hashlib.sha256()
    for circ in _circuits(n, reduction, k):
        h.update(noisy_distribution(circ, MODELS[label]).probabilities.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_noisy_probabilities_match_pinned(name):
    assert digest(*CASES[name]) == _load_golden()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_noisy_probabilities_are_exact_distributions(name):
    """No clip or renormalisation guards the result, and sample_counts needs
    nonnegative probabilities: every plan circuit gives them, summing to
    exactly 1.0."""
    n, reduction, k, label = CASES[name]
    for circ in _circuits(n, reduction, k):
        probs = noisy_distribution(circ, MODELS[label]).probabilities
        assert probs.min() >= 0
        assert probs.sum() == 1.0


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


if __name__ == "__main__":
    golden = {name: digest(*args) for name, args in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
