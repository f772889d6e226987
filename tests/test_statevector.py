import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from merminsim.circuits import GATE_KINDS, Circuit, Gate, cnot, ghz_circuit, h, parse_circuit, s, sdg
from merminsim.statevector import (
    GATE_1Q,
    GATE_CONJ,
    RNG_ID,
    CountsTable,
    DensityMatrix,
    OutcomeDistribution,
    PauliString,
    Statevector,
    _apply_gate_inplace,
    apply_gate,
    apply_gate_dm,
    circuit_unitary,
    density_from_state,
    depolarize_dm,
    dm_diagonal_probabilities,
    dm_pauli_expectation,
    outcome_distribution,
    pauli_expectation,
    pauli_matrix,
    sample_counts,
    simulate_circuit,
    unitary_equivalent,
)

from conftest import (
    FIXTURES,
    ORACLE_1Q,
    KrausChannel,
    apply_channel,
    depolarizing_channel,
    embed_1q,
    oracle_cnot,
    oracle_expectation,
    oracle_state,
    oracle_unitary,
    reference_apply_gate,
)
from test_circuits import circuits

INV_SQRT2 = 1 / math.sqrt(2)


def test_zero_state():
    st0 = Statevector.zero(3)
    assert st0.amplitudes[0] == 1.0
    assert abs(st0.norm() - 1.0) < 1e-15


def test_hadamard_on_zero():
    out = apply_gate(Statevector.zero(1), h(0))
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_phase_gate_on_plus():
    plus = apply_gate(Statevector.zero(1), h(0))
    out = apply_gate(plus, s(0))
    assert np.allclose(out.amplitudes, [INV_SQRT2, 1j * INV_SQRT2])


def test_cnot_entangles():
    state = apply_gate(Statevector.zero(2), h(0))
    out = apply_gate(state, cnot(0, 1))
    assert np.allclose(out.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2])


def test_statevector_zero_checks_before_allocating():
    assert np.array_equal(Statevector.zero(2).amplitudes, [1, 0, 0, 0])
    # A 20-qubit state would take 16 MB.
    tracemalloc.start()
    try:
        for n in (20, 11, 0, -1):
            with pytest.raises(ValueError, match=r"n_qubits must be in 1\.\.10"):
                Statevector.zero(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(st.sampled_from(sorted(GATE_KINDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_gate_kernel_matches_dense_oracle(kind, data):
    """Each gate kind on a 1-D state of 1-10 qubits, or on a 2-D array of
    column states of up to 6 qubits, against the dense Kronecker oracle, and
    number for number against the kernel's first form."""
    arity = GATE_KINDS[kind]
    columns = data.draw(st.sampled_from([None, 1, 3, 8]))
    n = data.draw(st.integers(arity, 10 if columns is None else 6))
    qubits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity,
                                      unique=True)))
    if kind == "cnot":
        u = oracle_cnot(qubits[0], qubits[1], n)
    else:
        u = embed_1q(ORACLE_1Q[kind], qubits[0], n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (1 << n,) if columns is None else (1 << n, columns)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = u @ amps
    first_form = amps.copy()
    reference_apply_gate(first_form, Gate(kind, qubits), n)
    _apply_gate_inplace(amps, Gate(kind, qubits), n)
    assert np.allclose(amps, want, rtol=0, atol=1e-12)
    # numpy rounds a complex product of one-element arrays by another loop,
    # so on a one-qubit state T and Tdg can differ from the first form in
    # the last bit.
    if amps.size > 2:
        assert np.array_equal(amps, first_form)


def test_apply_gate_range_check():
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(Statevector.zero(2), h(2))


@given(circuits())
@settings(max_examples=60)
def test_norm_preserved(c):
    state = simulate_circuit(c)
    assert abs(state.norm() - 1.0) < 1e-12


@given(circuits(max_qubits=3), st.sampled_from(["h", "x", "s", "t"]), st.integers(0, 2))
@settings(max_examples=40)
def test_gate_involutions(c, kind, qubit):
    qubit %= c.n_qubits
    inverse = {"h": "h", "x": "x", "s": "sdg", "t": "tdg"}[kind]
    state = simulate_circuit(c)
    back = apply_gate(apply_gate(state, Gate(kind, (qubit,))), Gate(inverse, (qubit,)))
    assert abs(back.fidelity(state) - 1.0) < 1e-12


def test_pauli_string_constructors():
    p = PauliString.from_label("XXY")
    assert p.ops == ("x", "x", "y")
    q = PauliString.from_prime_mask(3, 0b001)
    assert q.ops == ("x", "x", "y")
    assert q.label() == "XXY"
    assert PauliString.from_prime_mask(3, 0b111).ops == ("y", "y", "y")
    with pytest.raises(ValueError):
        PauliString(2, ("x", "q"))


def test_pauli_expectation_known_values():
    ghz = simulate_circuit(ghz_circuit(3, math.pi / 2))
    assert abs(pauli_expectation(ghz, PauliString.from_label("XXY")) - 1.0) < 1e-12
    assert abs(pauli_expectation(ghz, PauliString.from_label("YYY")) + 1.0) < 1e-12
    z0 = Statevector.zero(1)
    assert pauli_expectation(z0, PauliString.from_label("Z")) == pytest.approx(1.0)


def test_pauli_expectation_dimension_check():
    with pytest.raises(ValueError):
        pauli_expectation(Statevector.zero(2), PauliString.from_label("XXX"))


@given(circuits(max_qubits=3), st.data())
@settings(max_examples=60)
def test_pauli_expectation_matches_oracle(c, data):
    label = data.draw(
        st.lists(st.sampled_from("IXYZ"), min_size=c.n_qubits, max_size=c.n_qubits)
    )
    label = "".join(label)
    state = simulate_circuit(c)
    got = pauli_expectation(state, PauliString.from_label(label))
    want = oracle_expectation(oracle_state(c), label)
    assert abs(got - want) < 1e-12
    assert abs(got) <= 1 + 1e-12


def test_pauli_matrix_matches_oracle():
    from conftest import oracle_pauli_matrix

    for label in ("XY", "ZI", "YYX"):
        assert np.allclose(
            pauli_matrix(PauliString.from_label(label)),
            oracle_pauli_matrix(label),
            atol=1e-14,
        )


def test_outcome_distribution_bell():
    dist = outcome_distribution(simulate_circuit(ghz_circuit(2)))
    assert dist.probability("00") == pytest.approx(0.5, abs=1e-12)
    assert dist.probability("11") == pytest.approx(0.5, abs=1e-12)
    assert dist.probability("01") == pytest.approx(0.0, abs=1e-12)


def test_outcome_distribution_basis_state():
    state = apply_gate(Statevector.zero(1), Gate("x", (0,)))
    dist = outcome_distribution(state)
    assert dist.probability("1") == pytest.approx(1.0)


def test_ideal_lowered_circuit_is_parity_pure():
    c = parse_circuit((FIXTURES / "valid" / "fig1_xxy.qc").read_text())
    dist = outcome_distribution(simulate_circuit(c))
    even = sum(
        p for i, p in enumerate(dist.probabilities) if bin(i).count("1") % 2 == 0
    )
    assert even == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array([-0.1, 1.1]))


@pytest.mark.parametrize("probs", [[math.nan, math.nan], [1.0, math.nan]])
def test_outcome_distribution_rejects_nan(probs):
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array(probs))


@pytest.mark.parametrize("probs", [[math.inf, 0.0], [1.0, -math.inf], [math.inf, -math.inf]])
def test_outcome_distribution_rejects_inf(probs):
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array(probs))


def test_sample_counts_degenerate():
    dist = OutcomeDistribution(1, np.array([1.0, 0.0]))
    table = sample_counts(dist, 100, seed=5)
    assert table.counts.tolist() == [100, 0]
    assert table.counts.dtype == np.int64
    assert table.shots == 100
    assert table.rng_id == RNG_ID


def test_sample_counts_deterministic():
    dist = outcome_distribution(simulate_circuit(ghz_circuit(2)))
    a = sample_counts(dist, 8192, seed=42)
    b = sample_counts(dist, 8192, seed=42)
    c = sample_counts(dist, 8192, seed=43)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_sample_counts_bell_within_4_sigma():
    dist = outcome_distribution(simulate_circuit(ghz_circuit(2)))
    table = sample_counts(dist, 8192, seed=11)
    sigma = math.sqrt(8192 * 0.25)
    assert abs(table.counts[0b00] - 4096) <= 4 * sigma
    assert table.counts[0b01] == 0
    assert table.counts[0b10] == 0


def test_sample_counts_rejects_zero_shots():
    dist = OutcomeDistribution(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sample_counts(dist, 0, seed=0)


def test_sampling_chi_square_over_seeds():
    """Pooled counts over 100 seeded runs stay consistent with the exact
    distribution."""
    c = ghz_circuit(3, math.pi / 2)
    dist = outcome_distribution(simulate_circuit(c))
    pooled = np.zeros(8)
    for seed in range(100):
        table = sample_counts(dist, 8192, seed=seed)
        pooled += table.counts
    expected = dist.probabilities * 8192 * 100
    keep = expected > 0
    _, p_value = stats.chisquare(pooled[keep], expected[keep])
    assert p_value > 1e-6


def test_counts_table_validation():
    with pytest.raises(ValueError, match="sum to shots"):
        CountsTable(1, np.array([3, 0]), shots=4, seed=0)
    with pytest.raises(ValueError, match="length"):
        CountsTable(1, np.array([0, 0, 4]), shots=4, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        CountsTable(1, np.array([5, -1]), shots=4, seed=0)
    with pytest.raises(ValueError, match="empty"):
        CountsTable(1, np.array([0, 0]), shots=0, seed=0)
    with pytest.raises(TypeError):
        CountsTable(1, np.array([1.5, 2.5]), shots=3, seed=0)
    table = CountsTable(1, [1, 3], shots=4, seed=0)
    assert table.counts.dtype == np.int64
    assert table.counts.tolist() == [1, 3]


def test_density_from_state():
    rho = density_from_state(Statevector.zero(1))
    assert np.allclose(rho.entries, np.diag([1.0, 0.0]))


def test_fully_depolarizing_fixed_point():
    chan = depolarizing_channel(1.0, 1)
    state = apply_gate(Statevector.zero(1), Gate("t", (0,)))
    rho = apply_channel(density_from_state(apply_gate(state, h(0))), chan, (0,))
    assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_dm_expectation_consistent_with_pure():
    ghz = simulate_circuit(ghz_circuit(3, math.pi / 2))
    rho = density_from_state(ghz)
    for label in ("XXY", "YYY", "ZZI"):
        p = PauliString.from_label(label)
        assert dm_pauli_expectation(rho, p) == pytest.approx(
            pauli_expectation(ghz, p), abs=1e-12
        )


def test_apply_gate_dm_matches_pure_path():
    c = ghz_circuit(3, math.pi / 4)
    rho = density_from_state(Statevector.zero(3))
    for gate in c.gates:
        rho = apply_gate_dm(rho, gate)
    assert np.allclose(
        dm_diagonal_probabilities(rho),
        outcome_distribution(simulate_circuit(c)).probabilities,
        atol=1e-12,
    )


def test_density_matrix_invariants_after_channel():
    rho = density_from_state(simulate_circuit(ghz_circuit(3)))
    rho = apply_channel(rho, depolarizing_channel(0.3, 2), (0, 2))
    assert np.allclose(rho.entries, rho.entries.conj().T, atol=1e-10)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9


def test_kraus_channel_validation():
    bad = (np.array([[1.0, 0.0], [0.0, 0.5]]),)
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel(1, bad)
    with pytest.raises(ValueError):
        KrausChannel(3, (np.eye(8),))


def test_density_matrix_size_cap():
    with pytest.raises(ValueError):
        DensityMatrix(7, np.eye(128))


def test_density_matrix_zero():
    assert np.array_equal(DensityMatrix.zero(2).entries, np.diag([1.0, 0, 0, 0]))
    for n in (0, 7, 30):
        with pytest.raises(ValueError, match=r"n_qubits must be in 1\.\.6 for density matrices"):
            DensityMatrix.zero(n)


def test_gate_conj_is_entrywise_conjugate():
    assert GATE_CONJ.keys() == GATE_KINDS.keys()
    assert GATE_CONJ["cnot"] == "cnot"
    for kind, mat in GATE_1Q.items():
        assert np.array_equal(mat.conj(), GATE_1Q[GATE_CONJ[kind]])


def random_density_matrix(n: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


@given(circuits(max_qubits=6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_apply_gate_dm_matches_dense_oracle(c, seed):
    rho = random_density_matrix(c.n_qubits, seed)
    for gate in c.gates:
        before = rho.entries.copy()
        u = oracle_unitary(Circuit(c.n_qubits, (gate,)))
        out = apply_gate_dm(rho, gate)
        assert np.array_equal(rho.entries, before)
        assert np.allclose(out.entries, u @ before @ u.conj().T, rtol=0, atol=1e-12)
        rho = out


@given(st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_depolarize_dm_matches_kraus_oracle(n, data):
    k = data.draw(st.integers(1, min(n, 2)))
    qubits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    p = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                            st.just(1.0)))
    rho = random_density_matrix(n, data.draw(st.integers(0, 2**32 - 1)))
    before = rho.entries.copy()
    got = depolarize_dm(rho, p, qubits)
    want = apply_channel(rho, depolarizing_channel(p, k), qubits)
    assert np.array_equal(rho.entries, before)
    assert np.allclose(got.entries, want.entries, rtol=0, atol=1e-12)


def test_depolarize_dm_validation():
    rho = DensityMatrix.zero(2)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="probability"):
            depolarize_dm(rho, p, (0,))
    with pytest.raises(ValueError, match="duplicate"):
        depolarize_dm(rho, 0.1, (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        depolarize_dm(rho, 0.1, (0, 2))


@given(circuits(max_qubits=6))
@settings(max_examples=60, deadline=None)
def test_circuit_unitary_matches_oracle(c):
    assert np.allclose(circuit_unitary(c), oracle_unitary(c), atol=1e-12)


def test_unitary_equivalent_reflexive():
    c = ghz_circuit(3, math.pi / 2)
    assert unitary_equivalent(c, c)


def test_unitary_equivalent_cnot_reversal():
    direct = Circuit(2, (cnot(0, 1),))
    conjugated = Circuit(2, (h(0), h(1), cnot(1, 0), h(0), h(1)))
    assert unitary_equivalent(direct, conjugated)
    assert not unitary_equivalent(direct, Circuit(2, (cnot(1, 0),)))


def test_unitary_equivalent_ignores_global_phase():
    # S.S = Z while X.S.S.X = -Z; equal only up to a global sign
    zz = Circuit(1, (s(0), s(0)))
    flipped = Circuit(1, (Gate("x", (0,)), s(0), s(0), Gate("x", (0,))))
    assert not np.allclose(circuit_unitary(zz), circuit_unitary(flipped))
    assert unitary_equivalent(zz, flipped)


def test_unitary_equivalent_qubit_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        unitary_equivalent(ghz_circuit(2), ghz_circuit(3))
