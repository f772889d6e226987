import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.circuits import MeasurementSetting, ghz_circuit, with_setting
from merminsim.experiment import (
    SIZES,
    build_plan,
    class_distributions,
    combine,
    counts_to_csv,
    estimate_table,
    estimate_to_json,
    full_term_run,
    parity_expectation,
    parity_expectation_probs,
    resolve_prep_phase,
    run_plan,
    sampled_class_counts,
)
from merminsim.mermin import bounds_for, canonical_polynomial, symmetry_classes
from merminsim.noise import NoiseModel, ZERO_NOISE
from merminsim.statevector import CountsTable, sample_counts
from merminsim.transpile import DeviceModel, constraint_violations

from conftest import oracle_state
from test_mermin import dense_operator

SQRT2 = math.sqrt(2.0)

# published three-qubit rows: probabilities for outcomes 000..111
XXY_ROW = [0.229, 0.042, 0.024, 0.194, 0.043, 0.203, 0.231, 0.033]
YYY_ROW = [0.050, 0.188, 0.188, 0.028, 0.258, 0.026, 0.041, 0.221]


def test_parity_expectation_probs_published_rows():
    assert abs(parity_expectation_probs(XXY_ROW) - 0.715) < 1e-12
    assert abs(parity_expectation_probs(YYY_ROW) - (-0.710)) < 1e-12


def test_published_rows_combine():
    classes = symmetry_classes(canonical_polynomial(3))
    value = (
        classes[0].signed_weight * parity_expectation_probs(XXY_ROW)
        + classes[1].signed_weight * parity_expectation_probs(YYY_ROW)
    )
    assert abs(value - 2.855) < 1e-12
    assert f"{value:.2f}" == "2.85"


def test_parity_expectation_probs_no_renormalization():
    # the published rows sum to 0.999; the estimator must not rescale them
    assert sum(XXY_ROW) == pytest.approx(0.999, abs=1e-12)
    shifted = [p * 2 for p in XXY_ROW]
    assert parity_expectation_probs(shifted) == pytest.approx(2 * 0.715, abs=1e-12)


def test_parity_expectation_counts():
    t = CountsTable(2, np.array([3, 1, 0, 0]), shots=4, seed=0)
    e, se = parity_expectation(t)
    assert e == pytest.approx(0.5)
    assert se == pytest.approx(math.sqrt((1 - 0.25) / 4))
    certain = CountsTable(3, np.array([10, 0, 0, 0, 0, 0, 0, 0]), shots=10, seed=0)
    assert parity_expectation(certain) == (1.0, 0.0)


@pytest.mark.parametrize("table", [[], [1, 0, 0], [[0.5, 0.0], [0.0, 0.5]]],
                         ids=["empty", "length-3", "2x2"])
def test_parity_expectation_probs_rejects_bad_shape(table):
    with pytest.raises(ValueError, match="1-D with a power-of-two length"):
        parity_expectation_probs(table)


def test_parity_expectation_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        parity_expectation(CountsTable(1, np.array([0, 0]), shots=0, seed=0))


def test_resolve_prep_phase():
    # "max" is (n - 1) pi/4, bit for bit the literals it replaced
    assert resolve_prep_phase(3, "max") == math.pi / 2
    assert resolve_prep_phase(4, "max") == 3 * math.pi / 4
    assert resolve_prep_phase(5, "max") == math.pi
    assert resolve_prep_phase(3, "alt") == math.pi / 2
    assert resolve_prep_phase(4, "alt") == 7 * math.pi / 4
    assert resolve_prep_phase(5, "alt") == 0.0
    assert resolve_prep_phase(3, 2) == pytest.approx(math.pi / 2)
    assert resolve_prep_phase(3, 9) == pytest.approx(math.pi / 4)
    assert resolve_prep_phase(3, math.pi) == pytest.approx(math.pi)
    # Every integer type counts eighth turns, numpy's too; a bool does not.
    for steps in (np.int64(2), np.uint8(2), np.int32(10)):
        assert resolve_prep_phase(3, steps) == resolve_prep_phase(3, 2)
    assert build_plan(3, np.int64(2)) == build_plan(3, 2)
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="unknown prep phase"):
            resolve_prep_phase(3, flag)
    with pytest.raises(ValueError, match="unknown prep phase True"):
        build_plan(3, True)
    with pytest.raises(ValueError):
        resolve_prep_phase(3, "other")


@pytest.mark.parametrize("n,n_classes,shots", [(3, 2, 1024), (4, 5, 8192), (5, 3, 8192)])
def test_build_plan_shape(n, n_classes, shots):
    plan = build_plan(n)
    terms = build_plan(n, reduction="full-terms")
    assert (plan.reduction, terms.reduction) == ("classes", "full-terms")
    assert len(plan.classes) == n_classes
    assert len(terms.classes) == {3: 4, 4: 16, 5: 16}[n]
    assert plan.shots_per_class == shots
    assert SIZES[n].shots == shots
    for cls, circ in plan.classes + terms.classes:
        assert constraint_violations(circ, plan.device) == []
        assert circ.measure_basis == ("z",) * n
    # a term is a one-member class: its weight is the term's coefficient
    assert [(cls.signed_weight, cls.representative_mask) for cls, _ in terms.classes] == list(
        canonical_polynomial(n).terms
    )


def test_build_plan_rejects_other_sizes():
    with pytest.raises(ValueError):
        build_plan(2)
    with pytest.raises(ValueError, match="reduction must be classes or full-terms"):
        build_plan(3, reduction="terms")


def test_class_distributions_are_parity_pure_at_zero_noise():
    plan = build_plan(3)
    for cls, dist in class_distributions(plan):
        parity = parity_expectation_probs(dist)
        want = 1.0 if cls.signed_weight > 0 else -1.0
        assert parity == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "n,target",
    [(3, 4.0), (4, 8 * SQRT2), (5, 16.0)],
)
def test_exact_pipeline_attains_bound(n, target):
    est = run_plan(build_plan(n), mode="exact")
    assert est.value == pytest.approx(target, abs=1e-8)
    assert est.stderr == 0.0
    assert est.violates_lr
    assert est.sigma_distance is None


def test_exact_pipeline_alternate_phases():
    for n, target in ((3, 4.0), (4, -8 * SQRT2), (5, -16.0)):
        value = run_plan(build_plan(n, prep_phase="alt")).value
        assert value == pytest.approx(target, abs=1e-8)


def test_genuine_threshold_flag():
    """exceeds_genuine_threshold is a bool for every n, judged against
    qm_bound / sqrt(2): 2 sqrt(2), 8 and 8 sqrt(2) for n = 3, 4, 5. The
    table prints each n's own threshold."""
    assert bounds_for(4).qm_bound / SQRT2 == 8.0
    for n, threshold in ((3, "2.82843"), (4, "8"), (5, "11.3137")):
        ideal = run_plan(build_plan(n), mode="exact")
        assert ideal.exceeds_genuine_threshold is True
        assert f"threshold (>{threshold}): yes" in estimate_table(ideal)
        # qm (1 - p)^(n - 1): 2.56, 5.79 and 6.55, past LR but not the threshold
        degraded = run_plan(build_plan(n, noise=NoiseModel(depol_2q=0.2)), mode="exact")
        assert degraded.violates_lr is True
        assert degraded.exceeds_genuine_threshold is False
        assert f"threshold (>{threshold}): no" in estimate_table(degraded)
    # the published three-qubit rows combine to 2.855, just past 2 sqrt(2)
    published = combine([(1, 0.715, 0.02), (3, -0.710, 0.02)], build_plan(3), "sampled")
    assert published.exceeds_genuine_threshold is True


def zero_noise_grid():
    """The exact estimate of every eighth-turn prep phase, both reductions,
    on the default device and on hub 0 with a reversed ranking."""
    for n in SIZES:
        hub0 = DeviceModel(n, cnot_target=0, robustness_rank=tuple(reversed(range(n))))
        for k, reduction, device in itertools.product(range(8), ("classes", "full-terms"),
                                                      (None, hub0)):
            yield run_plan(build_plan(n, k, device=device, reduction=reduction))


def test_equal_magnitudes_give_equal_verdicts():
    """At zero noise the odd eighth turns put n = 3 and 5, and the even ones
    n = 4, exactly on qm / sqrt(2), with the sign and the last bit varying
    (n = 3 gives 2.82842712474619 at k = 1 and -2.8284271247461903 at
    k = 5). A value on the bound reads False whatever its last bit, and
    values of equal magnitude get equal verdicts."""
    on_threshold = set()
    verdicts = {}
    for est in zero_noise_grid():
        magnitude = abs(est.value)
        if abs(magnitude - est.qm_bound / SQRT2) <= 1e-9:
            on_threshold.add(est.n_parties)
            assert est.exceeds_genuine_threshold is False
        key = (est.n_parties, round(magnitude, 9))
        verdicts.setdefault(key, set()).add((est.violates_lr, est.exceeds_genuine_threshold))
    assert on_threshold == set(SIZES)
    assert all(len(v) == 1 for v in verdicts.values())


def top_eigenpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    values, vectors = np.linalg.eigh(h)
    return float(values[-1]), vectors[:, -1]


def biseparable_maximum(op: np.ndarray, n: int, rng, restarts: int = 4) -> float:
    """The largest <a b| op |a b> found over every split of the qubits into
    parts A and B, with pure states a of A and b of B, by alternating
    largest-eigenvector steps: for fixed b the best a is the top eigenvector
    of <b| op |b>, and the other way round, so the value never falls. Every
    biseparable state mixes such products, so none reaches more."""
    best = -math.inf
    for size in range(1, n // 2 + 1):
        for part in itertools.combinations(range(n), size):
            order = list(part) + [q for q in range(n) if q not in part]
            da, db = 1 << size, 1 << (n - size)
            blocks = op.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
            blocks = blocks.reshape(da, db, da, db)
            for _ in range(restarts):
                b = rng.normal(size=db) + 1j * rng.normal(size=db)
                b /= np.linalg.norm(b)
                value = -math.inf
                for _ in range(200):
                    _, a = top_eigenpair(np.einsum("ibjc,b,c->ij", blocks, b.conj(), b))
                    step, b = top_eigenpair(np.einsum("ibjc,i,j->bc", blocks, a.conj(), a))
                    if step - value <= 1e-13:
                        break
                    value = step
                best = max(best, step)
    return best


@pytest.mark.parametrize("n", [3, 4, 5])
def test_biseparable_maximum_stays_below_genuine_threshold(n):
    """With the package's observables (X unprimed, Y primed) the biseparable
    maximum of |<M>| is qm / 2, below the genuine threshold qm / sqrt(2),
    which holds for any observables."""
    op = dense_operator(canonical_polynomial(n))
    rng = np.random.default_rng(n)
    best = max(biseparable_maximum(sign * op, n, rng) for sign in (1, -1))
    qm = bounds_for(n).qm_bound
    assert best == pytest.approx(qm / 2, abs=1e-9)
    assert best < qm / SQRT2


@st.composite
def plan_choices(draw):
    n = draw(st.sampled_from(sorted(SIZES)))
    device = DeviceModel(n, cnot_target=draw(st.integers(0, n - 1)),
                         robustness_rank=tuple(draw(st.permutations(range(n)))))
    return n, draw(st.integers(0, 7)), device, draw(st.sampled_from(["classes", "full-terms"]))


@given(plan_choices())
@settings(max_examples=300, deadline=None)
def test_exact_pipeline_matches_dense_mermin_expectation(case):
    """At zero noise every exact plan value, for any prep phase, hub,
    ranking and reduction, is the Mermin expectation of the untranspiled
    GHZ state, computed with dense matrices."""
    n, k, device, reduction = case
    est = run_plan(build_plan(n, k, device=device, reduction=reduction))
    state = oracle_state(ghz_circuit(n, k * math.pi / 4, control=device.cnot_target))
    want = np.vdot(state, dense_operator(canonical_polynomial(n)) @ state).real
    assert abs(est.value - want) <= 1e-12


def test_combine_verdicts():
    plan = build_plan(3, shots=1024)
    est = combine([(1, 0.715, 0.02), (3, -0.710, 0.02)], plan, "sampled")
    assert est.value == pytest.approx(2.855)
    assert est.stderr == pytest.approx(math.sqrt((3 * 0.02) ** 2 + 0.02**2))
    assert est.violates_lr
    assert est.sigma_distance == pytest.approx((2.855 - 2) / est.stderr)
    below = combine([(1, 0.4, 0.1), (3, -0.4, 0.1)], plan, "sampled")
    assert below.value == pytest.approx(1.6)
    assert not below.violates_lr


def test_verdicts_judge_the_magnitude():
    """The alternate phases reach minus the bound for n = 4 and 5; the
    verdicts judge |value| and value keeps its sign."""
    for n in (4, 5):
        est = run_plan(build_plan(n, prep_phase="alt"))
        assert est.value < -est.lr_bound
        assert est.violates_lr
    assert run_plan(build_plan(4, prep_phase="alt")).exceeds_genuine_threshold is True
    noisy = build_plan(5, prep_phase="alt", seed=3, noise=NoiseModel(depol_2q=0.03))
    sampled = run_plan(noisy, mode="sampled")
    assert sampled.value < 0 < sampled.stderr
    assert sampled.violates_lr
    assert sampled.sigma_distance == (abs(sampled.value) - 4) / sampled.stderr > 0
    below = combine([(1, -0.4, 0.1), (3, 0.4, 0.1)], build_plan(3, shots=1024), "sampled")
    assert below.value == pytest.approx(-1.6)
    assert not below.violates_lr
    assert below.sigma_distance == pytest.approx((1.6 - 2) / below.stderr)


def test_combine_rejects_misaligned_classes():
    plan = build_plan(3, shots=1024)
    with pytest.raises(ValueError, match="class mismatch"):
        combine([(1, 0.5, 0.01)], plan, "sampled")
    with pytest.raises(ValueError, match="class mismatch"):
        combine([(0, 0.5, 0.01), (3, 0.5, 0.01)], plan, "sampled")


def test_sampled_determinism():
    plan = build_plan(3, seed=9)
    a = run_plan(plan, mode="sampled")
    b = run_plan(plan, mode="sampled")
    assert estimate_to_json(a) == estimate_to_json(b)
    # zero-noise distributions are parity-pure, so use a noisy plan to see
    # the seed actually matter
    noisy_a = run_plan(build_plan(3, seed=9, noise=NoiseModel(depol_2q=0.1)), mode="sampled")
    noisy_c = run_plan(build_plan(3, seed=10, noise=NoiseModel(depol_2q=0.1)), mode="sampled")
    assert noisy_a.value != noisy_c.value


def test_sampled_zero_noise_hits_edge():
    est = run_plan(build_plan(3, seed=0), mode="sampled")
    assert est.value == pytest.approx(4.0, abs=1e-12)
    assert est.stderr == 0.0


def test_per_class_seeds_differ():
    # unit i draws with seed XOR i, under either reduction
    for reduction, n_units in (("classes", 2), ("full-terms", 4)):
        plan = build_plan(3, shots=256, seed=3, noise=NoiseModel(depol_2q=0.2),
                          reduction=reduction)
        tables = sampled_class_counts(plan)
        assert [t.seed for _, t in tables] == [3 ^ i for i in range(n_units)]
        assert all(t.shots == 256 for _, t in tables)


NOISE_POINTS = [
    ZERO_NOISE,
    NoiseModel(depol_2q=0.06),
    NoiseModel(depol_2q=0.03, readout_flip=0.02),
]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("model", NOISE_POINTS)
def test_class_and_term_pipelines_agree(n, model):
    # holds only without single-qubit depolarizing, see the test below
    plan = build_plan(n, noise=model)
    by_class = run_plan(plan, mode="exact")
    by_term = full_term_run(plan, mode="exact")
    assert by_term.value == pytest.approx(by_class.value, abs=1e-10)
    assert by_term.reduction == "full-terms"
    assert by_class.reduction == "classes"


def test_class_and_term_pipelines_differ_under_single_qubit_depolarizing():
    """Term circuits of one class carry different numbers of one-qubit
    gates. For n = 3 term 100 lowers to four gates whose only one-qubit
    gates precede the CNOTs into qubit 2, so Z0Z1Z2 stays +1 on every
    branch, while the class representative 001 carries eight."""
    model = NoiseModel(depol_1q=0.03)
    terms = build_plan(3, noise=model, reduction="full-terms")
    by_term = run_plan(terms, mode="exact")
    by_class = run_plan(build_plan(3, noise=model), mode="exact")
    index = [cls.representative_mask for cls, _ in terms.classes].index(0b100)
    gates = [(g.kind, g.qubits) for g in terms.classes[index][1].gates]
    assert gates == [("h", (0,)), ("cnot", (0, 2)), ("h", (1,)), ("cnot", (1, 2))]
    assert by_term.per_class[index].expectation == pytest.approx(1.0, abs=1e-12)
    assert by_class.per_class[0].prime_count == 1
    assert by_class.per_class[0].expectation < 0.9
    assert by_term.value - by_class.value == pytest.approx(0.1678, abs=1e-4)
    assert full_term_run(build_plan(3, noise=model), mode="exact") == by_term


def test_full_term_run_circuit_count():
    plan = build_plan(4)
    est = full_term_run(plan, mode="exact")
    assert len(est.per_class) == 16
    assert est.value == pytest.approx(8 * SQRT2, abs=1e-8)


def test_full_term_sampled_consistent_with_class_sampled():
    model = NoiseModel(depol_2q=0.1)
    plan = build_plan(3, shots=4096, seed=21, noise=model)
    by_class = run_plan(plan, mode="sampled")
    by_term = full_term_run(plan, mode="sampled")
    spread = math.hypot(by_class.stderr, by_term.stderr)
    assert abs(by_class.value - by_term.value) <= 4 * spread


def test_estimator_unbiased_over_seeds():
    """Mean over 200 seeded samplings tracks the exact parity of a fixed
    noisy distribution."""
    plan = build_plan(3, shots=8192, noise=NoiseModel(depol_2q=0.1559))
    (_, dist) = class_distributions(plan)[0]
    exact = parity_expectation_probs(dist)
    draws = []
    for seed in range(200):
        table = sample_counts(dist, 8192, seed=seed)
        draws.append(parity_expectation(table)[0])
    mean = float(np.mean(draws))
    stderr = parity_expectation(sample_counts(dist, 8192, seed=0))[1]
    assert abs(mean - exact) < 3 * stderr / math.sqrt(200)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sampled_stderr_calibrated_under_noise(n):
    """Over 400 seeds (16 apart, so no two share a unit stream) the z-scores
    of the sampled value against the exact one have unit spread and about
    68% of them lie within one reported stderr."""
    plan = build_plan(n, shots=1024, noise=NoiseModel(depol_2q=0.1, readout_flip=0.02))
    exact = run_plan(plan, mode="exact").value
    z = []
    for i in range(400):
        est = run_plan(replace(plan, seed=16 * i), mode="sampled")
        z.append((est.value - exact) / est.stderr)
    z = np.array(z)
    assert 0.85 <= float(np.std(z)) <= 1.15
    assert 0.60 <= float(np.mean(np.abs(z) <= 1.0)) <= 0.76


def test_estimate_to_json_schema():
    est = run_plan(build_plan(3, seed=1), mode="sampled")
    doc = estimate_to_json(est)
    assert set(doc) >= {
        "n", "mode", "reduction", "value", "stderr", "lr_bound", "qm_bound",
        "violates_lr", "per_class", "seed", "shots_per_class",
    }
    assert doc["n"] == 3
    assert isinstance(doc["per_class"], list)
    json.dumps(doc)  # must be serializable as given


def test_estimate_table_rendering():
    est = run_plan(build_plan(4), mode="exact")
    text = estimate_table(est)
    assert "LR | QM | EXP" in text
    assert "4 | 11.3137" in text
    assert "violates local realism: yes" in text
    assert "genuine" in text
    sampled = run_plan(build_plan(3, seed=2, noise=NoiseModel(depol_2q=0.1)), mode="sampled")
    line = estimate_table(sampled)
    assert "sigma distance" in line


def test_counts_to_csv():
    plan = build_plan(3, shots=64, seed=5)
    _, table = sampled_class_counts(plan)[0]
    text = counts_to_csv(table)
    lines = text.strip().splitlines()
    assert lines[0] == "outcome,count"
    assert len(lines) == 9
    total = sum(int(row.split(",")[1]) for row in lines[1:])
    assert total == 64


def test_build_plan_honors_device_override():
    device = DeviceModel(3, cnot_target=1, robustness_rank=(2, 1, 0))
    plan = build_plan(3, device=device)
    assert plan.device == device
    est = run_plan(plan, mode="exact")
    assert est.value == pytest.approx(4.0, abs=1e-8)


def test_plan_prep_phase_recorded():
    plan = build_plan(4, prep_phase="alt")
    assert plan.prep_phase == pytest.approx(7 * math.pi / 4)
    est = run_plan(plan, mode="exact")
    assert est.prep_phase == pytest.approx(7 * math.pi / 4)


def test_lowered_class_circuit_matches_direct_build():
    plan = build_plan(3)
    rep_masks = [cls.representative_mask for cls, _ in plan.classes]
    assert rep_masks == [0b001, 0b111]
    raw = with_setting(
        ghz_circuit(3, plan.prep_phase, control=plan.device.cnot_target),
        MeasurementSetting(3, 0b001),
    )
    from merminsim.transpile import transpile

    lowered, _ = transpile(raw, plan.device)
    assert plan.classes[0][1] == lowered
