import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.mermin import (
    BoundsRecord,
    MerminPolynomial,
    SymmetryClass,
    bounds_for,
    canonical_polynomial,
    lr_bound,
    qm_bound,
    symmetry_classes,
)

from conftest import oracle_pauli_matrix, reference_recursive_polynomial, table_polynomial

SQRT2 = math.sqrt(2.0)


def brute_force_lr(p: MerminPolynomial) -> int:
    """Plain itertools enumeration, no bit tricks shared with the library."""
    best = None
    n = p.n_parties
    for plain in itertools.product((-1, 1), repeat=n):
        for primed in itertools.product((-1, 1), repeat=n):
            total = 0
            for coeff, mask in p.terms:
                prod = coeff
                for party in range(n):
                    if (mask >> (n - 1 - party)) & 1:
                        prod *= primed[party]
                    else:
                        prod *= plain[party]
                total += prod
            if best is None or total > best:
                best = total
    return best


def dense_operator(p: MerminPolynomial) -> np.ndarray:
    dim = 1 << p.n_parties
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, mask in p.terms:
        label = "".join(
            "Y" if (mask >> (p.n_parties - 1 - party)) & 1 else "X"
            for party in range(p.n_parties)
        )
        out += coeff * oracle_pauli_matrix(label)
    return out


@st.composite
def polynomials(draw, max_parties=5):
    """Arbitrary polynomials: any set of masks, nonzero coefficients in -3..3."""
    n = draw(st.integers(1, max_parties))
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                 st.integers(-3, 3).filter(bool)))
    return MerminPolynomial(n, tuple((coeff, mask) for mask, coeff in terms.items()))


def test_canonical_3():
    p = canonical_polynomial(3)
    assert p.terms == ((1, 0b001), (1, 0b010), (1, 0b100), (-1, 0b111))


def test_canonical_4_structure():
    p = canonical_polynomial(4)
    assert len(p.terms) == 16
    by_count = {}
    for coeff, mask in p.terms:
        by_count.setdefault(bin(mask).count("1"), set()).add(coeff)
    assert by_count == {0: {-1}, 1: {1}, 2: {1}, 3: {-1}, 4: {-1}}


def test_canonical_5_structure():
    p = canonical_polynomial(5)
    assert len(p.terms) == 16
    masks_by_count = {}
    for coeff, mask in p.terms:
        masks_by_count.setdefault(bin(mask).count("1"), []).append((coeff, mask))
    assert set(masks_by_count) == {0, 2, 4}
    assert masks_by_count[0] == [(-1, 0)]
    assert len(masks_by_count[2]) == 10
    assert all(c == 1 for c, _ in masks_by_count[2])
    assert len(masks_by_count[4]) == 5
    assert all(c == -1 for c, _ in masks_by_count[4])


def test_polynomial_validation():
    with pytest.raises(ValueError):
        MerminPolynomial(2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        MerminPolynomial(2, ((0, 1),))
    with pytest.raises(ValueError):
        MerminPolynomial(2, ((1, 4),))


def test_terms_are_sorted():
    p = MerminPolynomial(3, ((-1, 0b111), (1, 0b100), (1, 0b001), (1, 0b010)))
    assert p.terms == ((1, 0b001), (1, 0b010), (1, 0b100), (-1, 0b111))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_recursion_reproduces_canonical(n):
    # The literal sign table, sign included: not the recursion run twice.
    assert canonical_polynomial(n) == table_polynomial(n)


@pytest.mark.parametrize("n", range(2, 11))
def test_recursion_matches_fraction_reference(n):
    assert canonical_polynomial(n) == reference_recursive_polynomial(n)


def test_recursion_n2_is_chsh():
    p = canonical_polynomial(2)
    assert p.terms == ((1, 0b00), (1, 0b01), (1, 0b10), (-1, 0b11))
    assert lr_bound(p) == 2


def test_recursion_rejects_small_n():
    # Every n >= 2 has a polynomial (n = 2 is CHSH, n = 6 is exercised by the
    # bound tests); only fewer than two parties are refused.
    for n in (1, 0):
        with pytest.raises(ValueError, match="n must be >= 2"):
            canonical_polynomial(n)


@pytest.mark.parametrize("n,expected", [(3, 2), (4, 4), (5, 4)])
def test_lr_bounds_exact(n, expected):
    assert lr_bound(canonical_polynomial(n)) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lr_bound_matches_brute_force(n):
    p = canonical_polynomial(n)
    assert lr_bound(p) == brute_force_lr(p)


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_lr_bound_matches_brute_force_on_any_polynomial(p):
    assert lr_bound(p) == brute_force_lr(p)


def test_lr_bound_party_cap():
    # Both bounds cover the circuit layer's qubit range and refuse larger
    # polynomials before allocating the 2^n transform.
    for n in (11, 40):
        p = MerminPolynomial(n, ((1, 0),))
        for bound in (lr_bound, qm_bound):
            with pytest.raises(ValueError, match="limited to 10 parties"):
                bound(p)


def test_qm_bounds():
    assert qm_bound(canonical_polynomial(3)) == pytest.approx(4.0, abs=1e-8)
    assert qm_bound(canonical_polynomial(4)) == pytest.approx(8 * SQRT2, abs=1e-8)
    assert qm_bound(canonical_polynomial(5)) == pytest.approx(16.0, abs=1e-8)


def test_bounds_converge_without_warning():
    bounds_for.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (3, 4, 5):
            bounds_for(n)


def dense_qm_bound(p: MerminPolynomial) -> float:
    return float(np.abs(np.linalg.eigvalsh(dense_operator(p))).max())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qm_bound_matches_dense_eigenvalues(n):
    p = canonical_polynomial(n)
    assert qm_bound(p) == pytest.approx(dense_qm_bound(p), abs=1e-9)


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_qm_bound_matches_dense_eigenvalues_on_any_polynomial(p):
    # eigvalsh rounds, the transform does not: compare within a tolerance.
    assert qm_bound(p) == pytest.approx(dense_qm_bound(p), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_qm_at_least_lr_for_generated_polynomials(n):
    # Closed forms: Mermin, PRL 65, 1838 (1990); Belinskii & Klyshko,
    # Phys. Usp. 36, 653 (1993).
    p = canonical_polynomial(n)
    assert qm_bound(p) >= lr_bound(p)
    assert lr_bound(p) == 2 ** (n // 2)
    want = 2 ** (n - 1) if n % 2 else 2 ** (n - 0.5)
    assert qm_bound(p) == want


def test_operator_is_hermitian():
    op = dense_operator(canonical_polynomial(5))
    assert np.allclose(op, op.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_assembly_equals_term_assembly(n):
    # Each class spreads its signed weight evenly over every mask of its
    # prime count; that must rebuild the polynomial's operator exactly.
    p = canonical_polynomial(n)
    terms = [
        (cls.signed_weight // math.comb(n, cls.prime_count), mask)
        for cls in symmetry_classes(p)
        for mask in range(1 << n)
        if mask.bit_count() == cls.prime_count
    ]
    assembled = dense_operator(MerminPolynomial(n, tuple(terms)))
    assert np.array_equal(assembled, dense_operator(p))


def test_party_exchange_symmetry():
    for n in (3, 4, 5):
        p = canonical_polynomial(n)
        for perm in itertools.permutations(range(n)):
            permuted = []
            for coeff, mask in p.terms:
                new_mask = 0
                for party in range(n):
                    if (mask >> (n - 1 - party)) & 1:
                        new_mask |= 1 << (n - 1 - perm[party])
                permuted.append((coeff, new_mask))
            assert MerminPolynomial(n, tuple(permuted)) == p


def test_symmetry_classes_3():
    classes = symmetry_classes(canonical_polynomial(3))
    assert classes == [
        SymmetryClass(1, 3, 0b001),
        SymmetryClass(3, -1, 0b111),
    ]


def test_symmetry_classes_4_and_5():
    c4 = symmetry_classes(canonical_polynomial(4))
    assert [(c.prime_count, c.signed_weight) for c in c4] == [
        (0, -1), (1, 4), (2, 6), (3, -4), (4, -1),
    ]
    c5 = symmetry_classes(canonical_polynomial(5))
    assert [(c.prime_count, c.signed_weight) for c in c5] == [
        (0, -1), (2, 10), (4, -5),
    ]
    assert c5[1].representative_mask == 0b00011


@pytest.mark.parametrize("n,total", [(3, 4), (4, 16), (5, 16)])
def test_weight_bookkeeping(n, total):
    classes = symmetry_classes(canonical_polynomial(n))
    assert sum(abs(c.signed_weight) for c in classes) == total


def test_symmetry_classes_reject_mixed_signs():
    p = MerminPolynomial(2, ((1, 0b01), (-1, 0b10)))
    with pytest.raises(ValueError, match="mixed signs"):
        symmetry_classes(p)


def test_symmetry_classes_reject_incomplete_class():
    p = MerminPolynomial(3, ((1, 0b001), (1, 0b010)))
    with pytest.raises(ValueError, match="incomplete"):
        symmetry_classes(p)


def test_bounds_for():
    rec = bounds_for(3)
    assert rec.lr_bound == 2
    assert rec.qm_bound == pytest.approx(4.0, abs=1e-8)
    assert bounds_for(4).qm_bound == pytest.approx(8 * SQRT2, abs=1e-8)
    assert bounds_for(5).qm_bound == pytest.approx(16.0, abs=1e-8)
    # the recursion covers CHSH too
    chsh = bounds_for(2)
    assert chsh.lr_bound == 2
    assert chsh.qm_bound == pytest.approx(2 * SQRT2, abs=1e-8)


def test_bounds_record_validation():
    with pytest.raises(ValueError):
        BoundsRecord(4.0, 2.0)
    with pytest.raises(ValueError):
        BoundsRecord(0.0, 1.0)


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_recursion_terms_have_unique_masks(n):
    p = canonical_polynomial(n)
    masks = [m for _, m in p.terms]
    assert len(masks) == len(set(masks))
    assert all(0 <= m < (1 << n) for m in masks)
    coeffs = [abs(c) for c, _ in p.terms]
    assert math.gcd(*coeffs) == 1
