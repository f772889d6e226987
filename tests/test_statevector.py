import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from merminsim.circuits import (
    GATE_KINDS,
    INVERSE,
    Circuit,
    Gate,
    cnot,
    ghz_circuit,
    h,
    parse_circuit,
    s,
)
from merminsim.noise import ZERO_NOISE, noisy_distribution
from merminsim.statevector import (
    RNG_ID,
    CountsTable,
    OutcomeDistribution,
    _apply_gate_inplace,
    sample_counts,
)

from conftest import (
    FIXTURES,
    ORACLE_1Q,
    KrausChannel,
    apply_channel,
    depolarizing_channel,
    embed_1q,
    oracle_cnot,
    oracle_equivalent,
    oracle_expectation,
    oracle_state,
    oracle_unitary,
    reference_apply_gate,
)
from test_circuits import circuits

INV_SQRT2 = 1 / math.sqrt(2)


def run_kernel(c: Circuit, amps: np.ndarray | None = None) -> np.ndarray:
    """The circuit's gates through the package kernel, in place on the
    state amps, which defaults to |0...0>."""
    if amps is None:
        amps = np.zeros(1 << c.n_qubits, dtype=complex)
        amps[0] = 1.0
    for g in c.gates:
        _apply_gate_inplace(amps, g, c.n_qubits)
    return amps


def ideal_distribution(c: Circuit) -> OutcomeDistribution:
    return OutcomeDistribution(c.n_qubits, np.abs(oracle_state(c)) ** 2)


def test_hadamard_on_zero():
    out = run_kernel(Circuit(1, (h(0),)))
    assert np.allclose(out, [INV_SQRT2, INV_SQRT2])


def test_phase_gate_on_plus():
    out = run_kernel(Circuit(1, (h(0), s(0))))
    assert np.allclose(out, [INV_SQRT2, 1j * INV_SQRT2])


def test_cnot_entangles():
    out = run_kernel(Circuit(2, (h(0), cnot(0, 1))))
    assert np.allclose(out, [INV_SQRT2, 0, 0, INV_SQRT2])


@given(st.sampled_from(sorted(GATE_KINDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_gate_kernel_matches_dense_oracle(kind, data):
    """Each gate kind on a state of 1-10 qubits, or on each of a few column
    states of up to 6 qubits, against the dense Kronecker oracle, and
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
    # The kernel takes one 1-D state at a time: run it down each column.
    states = [amps] if columns is None else [np.ascontiguousarray(col) for col in amps.T]
    for state in states:
        first_form = state.copy()
        reference_apply_gate(first_form, Gate(kind, qubits), n)
        _apply_gate_inplace(state, Gate(kind, qubits), n)
        # numpy rounds a complex product of one-element arrays by another
        # loop, so on a one-qubit state T and Tdg can differ from the first
        # form in the last bit.
        if state.size > 2:
            assert np.array_equal(state, first_form)
    got = amps if columns is None else np.stack(states, axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@given(circuits())
@settings(max_examples=60)
def test_norm_preserved(c):
    state = run_kernel(c)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


@given(circuits(max_qubits=3), st.sampled_from(["h", "x", "s", "t"]), st.integers(0, 2))
@settings(max_examples=40)
def test_gate_involutions(c, kind, qubit):
    qubit %= c.n_qubits
    inverse = {"h": "h", "x": "x", "s": "sdg", "t": "tdg"}[kind]
    state = run_kernel(c)
    pair = Circuit(c.n_qubits, (Gate(kind, (qubit,)), Gate(inverse, (qubit,))))
    back = run_kernel(pair, state.copy())
    assert abs(abs(np.vdot(back, state)) ** 2 - 1.0) < 1e-12


def test_pauli_expectation_known_values():
    ghz = run_kernel(ghz_circuit(3, math.pi / 2))
    assert abs(oracle_expectation(ghz, "XXY") - 1.0) < 1e-12
    assert abs(oracle_expectation(ghz, "YYY") + 1.0) < 1e-12
    z0 = run_kernel(Circuit(1, ()))
    assert oracle_expectation(z0, "Z") == pytest.approx(1.0)


@given(circuits(max_qubits=3), st.data())
@settings(max_examples=60)
def test_pauli_expectation_matches_oracle(c, data):
    label = data.draw(
        st.lists(st.sampled_from("IXYZ"), min_size=c.n_qubits, max_size=c.n_qubits)
    )
    label = "".join(label)
    got = oracle_expectation(run_kernel(c), label)
    want = oracle_expectation(oracle_state(c), label)
    assert abs(got - want) < 1e-12
    assert abs(got) <= 1 + 1e-12


def test_outcome_distribution_bell():
    dist = ideal_distribution(ghz_circuit(2))
    assert dist.probabilities[0b00] == pytest.approx(0.5, abs=1e-12)
    assert dist.probabilities[0b11] == pytest.approx(0.5, abs=1e-12)
    assert dist.probabilities[0b01] == pytest.approx(0.0, abs=1e-12)


def test_outcome_distribution_basis_state():
    dist = ideal_distribution(Circuit(1, (Gate("x", (0,)),)))
    assert dist.probabilities[0b1] == pytest.approx(1.0)


def test_ideal_lowered_circuit_is_parity_pure():
    c = parse_circuit((FIXTURES / "valid" / "fig1_xxy.qc").read_text())
    dist = ideal_distribution(c)
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
    dist = ideal_distribution(ghz_circuit(2))
    a = sample_counts(dist, 8192, seed=42)
    b = sample_counts(dist, 8192, seed=42)
    c = sample_counts(dist, 8192, seed=43)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_sample_counts_bell_within_4_sigma():
    dist = ideal_distribution(ghz_circuit(2))
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
    dist = ideal_distribution(c)
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


def test_fully_depolarizing_fixed_point():
    chan = depolarizing_channel(1.0, 1)
    amps = oracle_state(Circuit(1, (Gate("t", (0,)), h(0))))
    rho = apply_channel(np.outer(amps, amps.conj()), chan, (0,))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_density_matrix_invariants_after_channel():
    amps = oracle_state(ghz_circuit(3))
    rho = apply_channel(np.outer(amps, amps.conj()), depolarizing_channel(0.3, 2), (0, 2))
    assert np.allclose(rho, rho.conj().T, atol=1e-10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() >= -1e-9


def test_kraus_channel_validation():
    bad = (np.array([[1.0, 0.0], [0.0, 0.5]]),)
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel(1, bad)
    with pytest.raises(ValueError):
        KrausChannel(3, (np.eye(8),))


def test_density_matrix_zero():
    """noisy_distribution starts every size up to its cap from
    |0...0><0...0|."""
    for n in range(1, 7):
        want = np.zeros(1 << n)
        want[0] = 1.0
        assert np.array_equal(noisy_distribution(Circuit(n, ()), ZERO_NOISE).probabilities, want)


def test_gate_conj_is_entrywise_conjugate():
    """One table gives both the inverse kind, for the peephole pass, and the
    entrywise-conjugate kind, for the density matrix's column qubits:
    checked against the oracle's literal matrices."""
    assert INVERSE.keys() == GATE_KINDS.keys()
    for kind, mat in ORACLE_1Q.items():
        other = ORACLE_1Q[INVERSE[kind]]
        assert np.array_equal(other, mat.conj())
        assert np.allclose(other @ mat, np.eye(2), rtol=0, atol=1e-15)
    assert INVERSE["cnot"] == "cnot"
    for control, target in ((0, 1), (1, 0)):
        u = oracle_cnot(control, target, 2)
        assert np.array_equal(u.conj(), u)
        assert np.array_equal(u @ u, np.eye(4))


@given(circuits(max_qubits=6))
@settings(max_examples=60, deadline=None)
def test_circuit_unitary_matches_oracle(c):
    """The kernel on each column of the identity builds the circuit
    unitary."""
    eye = np.eye(1 << c.n_qubits, dtype=complex)
    u = np.stack([run_kernel(c, e.copy()) for e in eye], axis=1)
    assert np.allclose(u, oracle_unitary(c), atol=1e-12)


def test_unitary_equivalent_reflexive():
    c = ghz_circuit(3, math.pi / 2)
    assert oracle_equivalent(c, c)


def test_unitary_equivalent_cnot_reversal():
    direct = Circuit(2, (cnot(0, 1),))
    conjugated = Circuit(2, (h(0), h(1), cnot(1, 0), h(0), h(1)))
    assert oracle_equivalent(direct, conjugated)
    assert not oracle_equivalent(direct, Circuit(2, (cnot(1, 0),)))


def test_unitary_equivalent_ignores_global_phase():
    # S.S = Z while X.S.S.X = -Z; equal only up to a global sign
    zz = Circuit(1, (s(0), s(0)))
    flipped = Circuit(1, (Gate("x", (0,)), s(0), s(0), Gate("x", (0,))))
    assert not np.allclose(oracle_unitary(zz), oracle_unitary(flipped))
    assert oracle_equivalent(zz, flipped)


def test_unitary_equivalent_qubit_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        oracle_equivalent(ghz_circuit(2), ghz_circuit(3))
