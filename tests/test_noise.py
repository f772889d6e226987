import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.circuits import (
    GATE_KINDS,
    Circuit,
    Gate,
    MeasurementSetting,
    cnot,
    ghz_circuit,
    h,
    measured_in,
    parse_circuit,
    t,
    with_setting,
)
from merminsim.experiment import build_plan, run_plan
from merminsim.mermin import bounds_for
from merminsim.noise import (
    CONJUGATION,
    MAX_TERMS,
    NoiseModel,
    ZERO_NOISE,
    _conjugate,
    calibrate_depol_2q,
    degradation_curve,
    noisy_distribution,
)

from conftest import (
    FIXTURES,
    ORACLE_1Q,
    ORACLE_PAULI,
    apply_channel,
    depolarizing_channel,
    kron_chain,
    oracle_cnot,
    oracle_state,
    oracle_unitary,
)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(depol_1q=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(depol_2q=1.5)


def test_depolarizing_channel_structure():
    chan = depolarizing_channel(0.0, 1)
    assert len(chan.operators) == 1
    full = depolarizing_channel(0.5, 2)
    assert full.n_qubits == 2
    assert len(full.operators) == 16
    with pytest.raises(ValueError):
        depolarizing_channel(0.1, 3)
    with pytest.raises(ValueError):
        depolarizing_channel(1.2, 1)


def dense_depolarize(rho: np.ndarray, p: float, dim: int) -> np.ndarray:
    # replacement form: keep with 1-p, swap in the maximally mixed state with p
    return (1 - p) * rho + p * np.eye(dim) / dim


def test_noisy_distribution_matches_dense_oracle():
    """Bell preparation under two-qubit depolarizing plus readout flips,
    rebuilt with plain numpy."""
    p2, r = 0.3, 0.1
    c = Circuit(2, (h(0), cnot(0, 1)))
    model = NoiseModel(depol_2q=p2, readout_flip=r)

    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    u_h = oracle_unitary(Circuit(2, (h(0),)))
    u_cx = oracle_unitary(Circuit(2, (cnot(0, 1),)))
    rho = np.outer(u_h @ e0, (u_h @ e0).conj())
    rho = u_cx @ rho @ u_cx.conj().T
    rho = dense_depolarize(rho, p2, 4)
    probs = np.real(np.diag(rho)).copy()
    flip = np.array([[1 - r, r], [r, 1 - r]])
    confusion = np.kron(flip, flip)
    probs = confusion @ probs

    got = noisy_distribution(c, model)
    assert np.allclose(got.probabilities, probs, atol=1e-12)


def test_noisy_distribution_single_qubit_oracle():
    c = Circuit(1, (h(0),))
    p1 = 0.25
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = dense_depolarize(rho, p1, 2)
    got = noisy_distribution(c, NoiseModel(depol_1q=p1))
    assert np.allclose(got.probabilities, np.real(np.diag(rho)), atol=1e-12)


def test_zero_noise_equals_ideal_on_fixtures():
    for path in sorted((FIXTURES / "valid").glob("*.qc")):
        c = parse_circuit(path.read_text())
        ideal = np.abs(oracle_state(c)) ** 2
        noisy = noisy_distribution(c, ZERO_NOISE).probabilities
        assert np.allclose(noisy, ideal, atol=1e-10)


def test_readout_flip_symmetrizes_hadamard():
    c = Circuit(1, (h(0),))
    dist = noisy_distribution(c, NoiseModel(readout_flip=0.1))
    assert dist.probabilities == pytest.approx([0.5, 0.5], abs=1e-12)


def test_full_depolarizing_gives_even_odd_balance():
    c = with_setting(ghz_circuit(3, math.pi / 2), MeasurementSetting(3, 0b001))
    dist = noisy_distribution(c, NoiseModel(depol_2q=1.0))
    even = sum(p for i, p in enumerate(dist.probabilities) if bin(i).count("1") % 2 == 0)
    assert even == pytest.approx(0.5, abs=1e-10)


def test_noisy_distribution_rejects_unlowered_tags():
    """Only the Z basis is measured: read in X, H|0> gives [1, 0], not the
    Z-basis [0.5, 0.5], so an x or y tag is an error, not a silent z."""
    for basis in (("x",), ("y",)):
        with pytest.raises(ValueError, match="transpile or measured_in"):
            noisy_distribution(Circuit(1, (h(0),), basis), ZERO_NOISE)
    with pytest.raises(ValueError, match="z only"):
        noisy_distribution(Circuit(2, (), ("z", "x")), ZERO_NOISE)
    lowered = measured_in(Circuit(1, (h(0),)), ("x",))
    assert noisy_distribution(lowered, ZERO_NOISE).probabilities == pytest.approx([1, 0])


def test_noisy_distribution_builds_no_gate_after_warm_up(monkeypatch):
    """The propagation reads each gate's kind and qubit indices and builds
    no Gate at all: a repeated call constructs none."""
    c = parse_circuit((FIXTURES / "valid" / "ghz5_xyxxy_ideal.qc").read_text())
    c = c.with_gates(c.gates + (Gate("t", (1,)), Gate("x", (3,))))
    m = NoiseModel(depol_1q=0.01, depol_2q=0.05, readout_flip=0.02)
    first = noisy_distribution(c, m).probabilities
    built = []
    check = Gate.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    second = noisy_distribution(c, m).probabilities
    assert built == []
    assert np.array_equal(first, second)


def test_noisy_distribution_term_cap():
    """H then T on each of 8 qubits spreads |0...0> over 3^8 > MAX_TERMS
    terms; the dict stops at the cap, well before the 4^8 terms of the
    whole state."""
    c = Circuit(8, tuple(h(q) for q in range(8)) + tuple(t(q) for q in range(8)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than MAX_TERMS = {MAX_TERMS} Pauli terms"):
            noisy_distribution(c, ZERO_NOISE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def oracle_noisy_probabilities(c: Circuit, m: NoiseModel) -> np.ndarray:
    """Dense reference for noisy_distribution: each gate's oracle unitary,
    the Kraus depolarizing channel on its qubits, then the Kronecker product
    of per-qubit confusion matrices."""
    n = c.n_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for g in c.gates:
        u = oracle_unitary(Circuit(n, (g,)))
        p = m.depol_2q if g.kind == "cnot" else m.depol_1q
        chan = depolarizing_channel(p, len(g.qubits))
        rho = apply_channel(u @ rho @ u.conj().T, chan, g.qubits)
    r = m.readout_flip
    confusion = kron_chain([np.array([[1 - r, r], [r, 1 - r]])] * n)
    return confusion @ np.real(np.diag(rho))


@st.composite
def noisy_circuits(draw):
    n = draw(st.integers(1, 6))
    kinds = sorted(GATE_KINDS) if n > 1 else sorted(k for k in GATE_KINDS if k != "cnot")
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=GATE_KINDS[kind],
                               max_size=GATE_KINDS[kind], unique=True))
        gates.append(Gate(kind, tuple(qubits)))
    return Circuit(n, tuple(gates))


RATES = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(1.0))


@given(noisy_circuits(), RATES, RATES, RATES)
@settings(max_examples=80, deadline=None)
def test_noisy_distribution_matches_kraus_oracle(c, p1, p2, r):
    model = NoiseModel(depol_1q=p1, depol_2q=p2, readout_flip=r)
    got = noisy_distribution(c, model).probabilities
    assert np.allclose(got, oracle_noisy_probabilities(c, model), rtol=0, atol=1e-12)


MIXED = NoiseModel(depol_1q=0.01, depol_2q=0.05, readout_flip=0.02)


@pytest.mark.parametrize("n", [7, 8])
def test_noisy_distribution_beyond_six_qubits(n):
    """GHZ-shaped circuits past the old 6-qubit cap stay small in the Pauli
    basis: exact against the oracle state, and, for n = 7, against the
    Kraus oracle under mixed noise."""
    c = with_setting(ghz_circuit(n, math.pi / 4), MeasurementSetting(n, 0b1011001))
    ideal = np.abs(oracle_state(c)) ** 2
    assert np.allclose(noisy_distribution(c, ZERO_NOISE).probabilities, ideal, rtol=0, atol=1e-12)
    if n == 7:
        got = noisy_distribution(c, MIXED).probabilities
        assert np.allclose(got, oracle_noisy_probabilities(c, MIXED), rtol=0, atol=1e-12)


def pauli_matrix(x: int, z: int, n: int) -> np.ndarray:
    """The Hermitian Pauli i^(x.z) X^x Z^z, bit n-1-q of each mask for qubit q."""
    factors = []
    for q in range(n):
        xq, zq = x >> (n - 1 - q) & 1, z >> (n - 1 - q) & 1
        mat = ORACLE_PAULI["x"] if xq else ORACLE_PAULI["i"]
        mat = mat @ (ORACLE_PAULI["z"] if zq else ORACLE_PAULI["i"])
        factors.append(mat * 1j ** (xq * zq))
    return kron_chain(factors)


@pytest.mark.parametrize("kind", sorted(ORACLE_1Q))
def test_one_qubit_conjugation_table_matches_oracle(kind):
    u = ORACLE_1Q[kind]
    for (x, z), images in CONJUGATION[kind].items():
        want = u @ pauli_matrix(x, z, 1) @ u.conj().T
        got = sum(w * pauli_matrix(px, pz, 1) for (px, pz), w in images)
        assert np.allclose(got, want, rtol=0, atol=1e-15), (kind, x, z)
    assert set(CONJUGATION[kind]) == {(0, 0), (1, 0), (1, 1), (0, 1)}


@pytest.mark.parametrize("control,target", [(0, 1), (1, 0)])
def test_cnot_sign_rule_matches_oracle(control, target):
    u = oracle_cnot(control, target, 2)
    for x in range(4):
        for z in range(4):
            want = u @ pauli_matrix(x, z, 2) @ u.conj().T
            ((px, pz), w), = _conjugate({(x, z): 1.0}, "cnot", (control, target), 2).items()
            assert np.array_equal(w * pauli_matrix(px, pz, 2), want), (x, z)


def test_degradation_curve_zero_point():
    curve = degradation_curve(3, [ZERO_NOISE])
    assert curve[0][1] == pytest.approx(4.0, abs=1e-8)


CALIBRATED_P2 = 0.155914306640625


def test_calibration_hits_target():
    p2 = calibrate_depol_2q()
    assert p2 == pytest.approx(CALIBRATED_P2, abs=1e-9)
    value = degradation_curve(3, [NoiseModel(depol_2q=p2)])[0][1]
    assert abs(value - 2.85) < 1e-4


def test_calibration_rejects_unreachable_target():
    with pytest.raises(ValueError, match="reachable"):
        calibrate_depol_2q(target=5.0)


def test_calibrated_value_in_band():
    value = degradation_curve(3, [NoiseModel(depol_2q=CALIBRATED_P2)])[0][1]
    assert 2.5 <= value <= 3.2


GRID = [0.0, 0.025, 0.05, 0.075, 0.1]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("param", ["depol_1q", "depol_2q", "readout_flip"])
def test_monotone_degradation(n, param):
    models = [NoiseModel(**{param: g}) for g in GRID]
    values = [v for _, v in degradation_curve(n, models)]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-9


@pytest.mark.parametrize(
    "model",
    [NoiseModel(depol_2q=CALIBRATED_P2), NoiseModel(depol_1q=0.02, depol_2q=0.05, readout_flip=0.01)],
)
def test_normalized_violation_ranking(model):
    normalized = []
    for n in (3, 4, 5):
        value = run_plan(build_plan(n, noise=model), mode="exact").value
        normalized.append(value / bounds_for(n).qm_bound)
    assert normalized[0] >= normalized[1] - 1e-9
    assert normalized[1] >= normalized[2] - 1e-9
