"""Mermin polynomials: recursive generation, prime-count symmetry classes,
and the classical and quantum bounds.

A polynomial over n parties is a signed sum of correlation terms. Each term
is stored as (integer coefficient, prime_mask): bit i of the mask set (read
MSB-first, party 0 leftmost) means party i uses its primed observable.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .statevector import MAX_DM_QUBITS

MAX_LR_PARTIES = 8

# Observables substituted for the unprimed (X) and primed (Y) settings.
SETTING_OBSERVABLES = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
)

# Signs per prime count for the three hard-coded polynomials, from the forms
# with all-unit coefficients: n=3 has the four terms with 1 or 3 primes, n=4
# all sixteen, n=5 the sixteen terms with 0, 2 or 4 primes.
CANONICAL_SIGNS = {
    3: {1: 1, 3: -1},
    4: {0: -1, 1: 1, 2: 1, 3: -1, 4: -1},
    5: {0: -1, 2: 1, 4: -1},
}


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
    """The hard-coded 3-, 4- and 5-party polynomials (term counts 4, 16, 16,
    coefficients all +-1)."""
    if n not in CANONICAL_SIGNS:
        raise ValueError("canonical polynomial defined for n in {3, 4, 5}")
    signs = CANONICAL_SIGNS[n]
    terms = [
        (signs[m.bit_count()], m)
        for m in range(1 << n)
        if m.bit_count() in signs
    ]
    return MerminPolynomial(n, tuple(terms))


def recursive_polynomial(n: int) -> MerminPolynomial:
    """Generate the n-party polynomial by the standard recursion.

    Starting from the single-party seed (one unprimed term), each step
    combines the previous polynomial and its prime-swapped form with half
    the sum and half the difference of the new party's settings. The result
    is rescaled to integer coefficients with gcd 1 and keeps its natural
    global sign.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    terms: dict[int, Fraction] = {0: Fraction(1)}
    for m in range(2, n + 1):
        prev_parties = m - 1
        all_prev = (1 << prev_parties) - 1
        swapped = {mask ^ all_prev: coeff for mask, coeff in terms.items()}
        nxt: dict[int, Fraction] = defaultdict(Fraction)
        # New party sits at the least significant bit; older parties shift up.
        for mask, coeff in terms.items():
            nxt[mask << 1] += coeff / 2
            nxt[(mask << 1) | 1] += coeff / 2
        for mask, coeff in swapped.items():
            nxt[mask << 1] += coeff / 2
            nxt[(mask << 1) | 1] -= coeff / 2
        terms = {mask: coeff for mask, coeff in nxt.items() if coeff != 0}
    scale = 1
    for coeff in terms.values():
        scale = scale * coeff.denominator // math.gcd(scale, coeff.denominator)
    ints = {mask: int(coeff * scale) for mask, coeff in terms.items()}
    g = 0
    for value in ints.values():
        g = math.gcd(g, abs(value))
    out = tuple((value // g, mask) for mask, value in ints.items())
    return MerminPolynomial(n, out)


def lr_bound(p: MerminPolynomial) -> int:
    """Maximum over all deterministic +-1 assignments to every setting,
    by exhaustive enumeration of 2^(2n) assignments. Exact integers."""
    n = p.n_parties
    if n > MAX_LR_PARTIES:
        raise ValueError(f"exhaustive enumeration limited to {MAX_LR_PARTIES} parties")
    assigns = np.arange(1 << (2 * n), dtype=np.int64)
    total = np.zeros(assigns.shape, dtype=np.int64)
    for coeff, mask in p.terms:
        prod = np.full(assigns.shape, coeff, dtype=np.int64)
        for party in range(n):
            primed = (mask >> (n - 1 - party)) & 1
            bit = (assigns >> (2 * party + primed)) & 1
            prod *= 1 - 2 * bit
        total += prod
    return int(total.max())


def mermin_operator(p: MerminPolynomial) -> np.ndarray:
    """Hermitian operator obtained by substituting X for every unprimed and
    Y for every primed setting. MSB-first kron order."""
    n = p.n_parties
    if n > MAX_DM_QUBITS:
        raise ValueError("dimension overflow")
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, mask in p.terms:
        factor = np.array([[1.0 + 0j]])
        for party in range(n):
            primed = (mask >> (n - 1 - party)) & 1
            factor = np.kron(factor, SETTING_OBSERVABLES[primed])
        total += coeff * factor
    return total


def qm_bound(p: MerminPolynomial) -> float:
    """Largest eigenvalue magnitude of the Mermin operator (covers both signs
    of violation)."""
    return float(np.abs(np.linalg.eigvalsh(mermin_operator(p))).max())


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
    poly = canonical_polynomial(n) if n in CANONICAL_SIGNS else recursive_polynomial(n)
    return BoundsRecord(float(lr_bound(poly)), qm_bound(poly))
