"""Mermin polynomials: recursive generation, prime-count symmetry classes,
and the classical and quantum bounds.

A polynomial over n parties is a signed sum of correlation terms. Each term
is stored as (integer coefficient, prime_mask): bit i of the mask set (read
MSB-first, party 0 leftmost) means party i uses its primed observable.

Both bounds are the peak magnitude of one Walsh-Hadamard transform of the
coefficients (Werner & Wolf, PRA 64, 032112 (2001); Zukowski & Brukner,
PRL 88, 210401 (2002)), computed exactly in pure Python by
statevector.walsh_hadamard, the transform that also gives the noisy outcome
probabilities.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .circuits import MAX_QUBITS
from .statevector import walsh_hadamard

@dataclass(frozen=True)
class MerminPolynomial:
    n_parties: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_parties < 1:
            raise ValueError("n_parties must be >= 1")
        terms = tuple((int(c), int(m)) for c, m in self.terms)
        masks = [m for _, m in terms]
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate prime_mask")
        if any(c == 0 for c, _ in terms):
            raise ValueError("zero coefficient")
        if any(not 0 <= m < (1 << self.n_parties) for m in masks):
            raise ValueError("prime_mask out of range")
        object.__setattr__(self, "terms", _sorted_terms(terms))


@dataclass(frozen=True)
class SymmetryClass:
    prime_count: int
    signed_weight: int
    representative_mask: int


@dataclass(frozen=True)
class BoundsRecord:
    lr_bound: float
    qm_bound: float

    def __post_init__(self):
        if not self.qm_bound >= self.lr_bound > 0:
            raise ValueError("bounds must satisfy qm >= lr > 0")


def _sorted_terms(terms) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(terms, key=lambda t: (t[1].bit_count(), t[1])))


def canonical_polynomial(n: int) -> MerminPolynomial:
    """The n-party polynomial, any n >= 2, by the standard recursion.

    Starting from the single-party seed (one unprimed term), each step
    combines the previous polynomial and its prime-swapped form with the sum
    and the difference of the new party's settings; the new party sits at
    the least significant bit. The result is rescaled to integer
    coefficients with gcd 1 and keeps its natural global sign: the 3-, 4-
    and 5-party forms have 4, 16 and 16 terms, all +-1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    terms = [1, 0]
    for step in range(1, n):
        all_prev = (1 << step) - 1
        nxt = [0] * (2 << step)
        for m in range(1 << step):
            c, s = terms[m], terms[m ^ all_prev]
            nxt[m << 1] = c + s
            nxt[m << 1 | 1] = c - s
        terms = nxt
    g = math.gcd(*terms)
    return MerminPolynomial(n, tuple((c // g, m) for m, c in enumerate(terms) if c))


def _peak_transform(p: MerminPolynomial, weights) -> int | float:
    """max over b of |W(b)|, with W(b) = sum_m c_m weights[|m| % 4] (-1)^|m & b|
    the Walsh-Hadamard transform of the weighted coefficients. The sums of
    small (Gaussian) integers are exact; only a complex abs rounds."""
    n = p.n_parties
    if n > MAX_QUBITS:
        raise ValueError(f"bounds limited to {MAX_QUBITS} parties")
    vec = [0] * (1 << n)
    for coeff, mask in p.terms:
        vec[mask] = coeff * weights[mask.bit_count() % 4]
    return max(abs(v) for v in walsh_hadamard(vec))


def lr_bound(p: MerminPolynomial) -> int:
    """Maximum over all deterministic +-1 assignments to every setting.
    Writing each primed value as a'_i = a_i s_i turns the polynomial into
    (prod a_i) * W(s) with W the transform of the coefficients, and the sign
    of prod a_i is free: the bound is max |W|. Exact integers."""
    return _peak_transform(p, (1, 1, 1, 1))


def qm_bound(p: MerminPolynomial) -> float:
    """Largest eigenvalue magnitude of the operator that substitutes X for
    every unprimed and Y for every primed setting (covers both signs of
    violation). As Y|b> = i(-1)^b |not b>, the operator maps |b> to
    W(b)|not b>, W the transform of c_m i^|m|; each 2x2 block {b, not b}
    has eigenvalues +-|W(b)|."""
    return float(_peak_transform(p, (1, 1j, -1, -1j)))


def symmetry_classes(p: MerminPolynomial) -> list[SymmetryClass]:
    """One class per represented prime count. Requires equal coefficients
    within each class and every mask of that prime count present (exchange
    symmetry), which makes one representative circuit per class valid."""
    n = p.n_parties
    groups: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for coeff, mask in p.terms:
        groups[mask.bit_count()].append((coeff, mask))
    out = []
    for prime_count in sorted(groups):
        members = groups[prime_count]
        coeffs = {c for c, _ in members}
        if len(coeffs) != 1:
            raise ValueError(f"mixed signs within prime-count class {prime_count}")
        if len(members) != math.comb(n, prime_count):
            raise ValueError(f"incomplete prime-count class {prime_count}")
        coeff = coeffs.pop()
        rep = min(mask for _, mask in members)
        out.append(SymmetryClass(prime_count, coeff * len(members), rep))
    return out


@lru_cache(maxsize=None)
def bounds_for(n: int) -> BoundsRecord:
    poly = canonical_polynomial(n)
    return BoundsRecord(float(lr_bound(poly)), qm_bound(poly))
