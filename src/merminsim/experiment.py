"""End-to-end pipeline: plan one circuit per measured unit (a symmetry class
or a polynomial term), collect exact or sampled counts, estimate unit
expectations by parity, combine with unit weights, and render verdicts
against the classical and quantum bounds."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .circuits import (
    EIGHTH_TURN,
    Circuit,
    MeasurementSetting,
    ghz_circuit,
    with_setting,
)
from .mermin import (
    SymmetryClass,
    bounds_for,
    canonical_polynomial,
    symmetry_classes,
)
from .noise import NoiseModel, ZERO_NOISE, noisy_distribution
from .statevector import CountsTable, OutcomeDistribution, sample_counts
from .transpile import DeviceModel, default_device, transpile


class SizeDefaults(NamedTuple):
    shots: int
    alt_phase: float


# The supported party counts, listed nowhere else, with their default shots
# and documented alternate preparation phase (radians). For n=4 and n=5 the
# alternate phase attains the bound with negative sign under this package's
# conventions, so combine judges the verdicts on |value|.
SIZES = {
    3: SizeDefaults(1024, math.pi / 2),
    4: SizeDefaults(8192, 7 * math.pi / 4),
    5: SizeDefaults(8192, 0.0),
}

GENUINE_THRESHOLD_4 = 8.0


def resolve_prep_phase(n: int, selector) -> float:
    """Accept "max", "alt", any non-bool integer (numpy's too) as eighth
    turns, or a raw angle in radians (must be a multiple of pi/4). A bool,
    Python's or numpy's, is rejected.

    "max" is (n - 1) pi/4, the preparation phase that attains the positive
    quantum bound with X as the unprimed and Y as the primed observable: the
    expectation over the phase family is sinusoidal and peaks there (checked
    against the tests' dense X/Y operator)."""
    if isinstance(selector, (str, bool, np.bool_)):
        if selector == "max":
            return (n - 1) * math.pi / 4
        if selector == "alt":
            return SIZES[n].alt_phase
        raise ValueError(f"unknown prep phase {selector!r}")
    if isinstance(selector, Integral):
        return (int(selector) % 8) * EIGHTH_TURN
    return float(selector)


@dataclass(frozen=True)
class ExperimentPlan:
    """The measured units of one run, each a class and its lowered circuit.
    Under reduction "full-terms" each unit is one polynomial term, held as a
    one-member class. The circuits do not depend on the noise model."""

    n: int
    prep_phase: float
    classes: tuple[tuple[SymmetryClass, Circuit], ...]
    shots_per_class: int
    seed: int
    device: DeviceModel
    noise: NoiseModel
    reduction: str = "classes"

    def __post_init__(self):
        if self.shots_per_class < 1:
            raise ValueError("shots_per_class must be >= 1")
        if not self.classes:
            raise ValueError("plan needs at least one class")


@dataclass(frozen=True)
class ClassEstimate:
    prime_count: int
    weight: int
    expectation: float
    stderr: float


@dataclass(frozen=True)
class MerminEstimate:
    n_parties: int
    mode: str
    reduction: str
    prep_phase: float
    shots_per_class: int
    seed: int
    per_class: tuple[ClassEstimate, ...]
    value: float
    stderr: float
    lr_bound: float
    qm_bound: float
    violates_lr: bool
    sigma_distance: float | None
    exceeds_genuine_threshold: bool | None


def build_plan(
    n: int,
    prep_phase="max",
    shots: int | None = None,
    seed: int = 0,
    device: DeviceModel | None = None,
    noise: NoiseModel = ZERO_NOISE,
    reduction: str = "classes",
) -> ExperimentPlan:
    """One lowered circuit per measured unit: per prime-count symmetry class
    for reduction "classes", per polynomial term for "full-terms" (the term
    (coeff, mask) becomes SymmetryClass(mask.bit_count(), coeff, mask)). The
    GHZ control qubit is the device's CNOT target, so the fan-out is
    star-legal."""
    if n not in SIZES:
        raise ValueError(f"plans are defined for n in {{{', '.join(map(str, SIZES))}}}")
    if device is None:
        device = default_device(n)
    if device.n_qubits != n:
        raise ValueError("device qubit count does not match n")
    phase = resolve_prep_phase(n, prep_phase)
    if shots is None:
        shots = SIZES[n].shots
    poly = canonical_polynomial(n)
    if reduction == "classes":
        units = symmetry_classes(poly)
    elif reduction == "full-terms":
        units = [SymmetryClass(mask.bit_count(), coeff, mask) for coeff, mask in poly.terms]
    else:
        raise ValueError("reduction must be classes or full-terms")
    prep = ghz_circuit(n, phase, control=device.cnot_target)
    lowered = []
    for cls in units:
        setting = MeasurementSetting(n, cls.representative_mask)
        circ, _ = transpile(with_setting(prep, setting), device)
        lowered.append((cls, circ))
    return ExperimentPlan(n, phase, tuple(lowered), shots, seed, device, noise, reduction)


@lru_cache(maxsize=None)
def _parity_signs(n: int) -> np.ndarray:
    """(-1)^(parity of outcome i) for every outcome i of n qubits."""
    return np.array([-1.0 if i.bit_count() & 1 else 1.0 for i in range(1 << n)])


def parity_expectation_probs(probs) -> float:
    """Signed parity sum over a table indexed by outcome: even-parity mass
    minus odd-parity mass. Accepts an OutcomeDistribution or an array of
    length 2^n, such as CountsTable.counts. No normalization is applied."""
    if isinstance(probs, OutcomeDistribution):
        probs = probs.probabilities
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or not arr.size or arr.size & (arr.size - 1):
        raise ValueError(f"parity table must be 1-D with a power-of-two length, "
                         f"got shape {arr.shape}")
    return float(np.dot(_parity_signs(arr.size.bit_length() - 1), arr))


def parity_expectation(t: CountsTable) -> tuple[float, float]:
    """Parity estimator and its standard error from sampled counts. The
    stderr follows the multinomial covariance of the signed sum,
    sqrt((1 - E^2) / shots)."""
    e = parity_expectation_probs(t.counts) / t.shots
    var = max(1.0 - e * e, 0.0)
    return e, math.sqrt(var / t.shots)


def combine(per_class, plan: ExperimentPlan, mode: str) -> MerminEstimate:
    """Weighted combination of the unit estimates of a plan run in mode.

    per_class is a sequence of (prime_count, expectation, stderr) aligned
    with plan.classes; value = sum of signed_weight * expectation and the
    stderr adds the independent unit errors in quadrature. The verdicts
    judge |value|.
    """
    per_class = list(per_class)
    if len(per_class) != len(plan.classes):
        raise ValueError("class mismatch")
    entries = []
    value = 0.0
    var = 0.0
    for (pc, e, se), (cls, _) in zip(per_class, plan.classes):
        if pc != cls.prime_count:
            raise ValueError("class mismatch")
        value += cls.signed_weight * e
        var += (cls.signed_weight * se) ** 2
        entries.append(ClassEstimate(pc, cls.signed_weight, float(e), float(se)))
    stderr = math.sqrt(var)
    bounds = bounds_for(plan.n)
    magnitude = abs(value)
    sigma = None
    if mode == "sampled" and stderr > 0.0:
        sigma = (magnitude - bounds.lr_bound) / stderr
    genuine = bool(magnitude > GENUINE_THRESHOLD_4) if plan.n == 4 else None
    return MerminEstimate(
        n_parties=plan.n,
        mode=mode,
        reduction=plan.reduction,
        prep_phase=plan.prep_phase,
        shots_per_class=plan.shots_per_class,
        seed=plan.seed,
        per_class=tuple(entries),
        value=float(value),
        stderr=float(stderr),
        lr_bound=bounds.lr_bound,
        qm_bound=bounds.qm_bound,
        violates_lr=bool(magnitude - bounds.lr_bound > 0),
        sigma_distance=sigma,
        exceeds_genuine_threshold=genuine,
    )


def class_distributions(plan: ExperimentPlan) -> list[tuple[SymmetryClass, OutcomeDistribution]]:
    """The noisy outcome distribution of every unit of the plan."""
    return [(cls, noisy_distribution(circ, plan.noise)) for cls, circ in plan.classes]


def sampled_class_counts(plan: ExperimentPlan) -> list[tuple[SymmetryClass, CountsTable]]:
    """The per-unit counts of a sampled run: unit i draws shots_per_class
    shots with seed plan.seed XOR i."""
    return [
        (cls, sample_counts(dist, plan.shots_per_class, plan.seed ^ index))
        for index, (cls, dist) in enumerate(class_distributions(plan))
    ]


def run_plan(plan: ExperimentPlan, mode: str = "exact") -> MerminEstimate:
    """Exact mode evaluates the noisy outcome probabilities directly
    (stderr 0); sampled mode estimates from sampled_class_counts."""
    if mode == "exact":
        per_class = [
            (cls.prime_count, parity_expectation_probs(dist), 0.0)
            for cls, dist in class_distributions(plan)
        ]
    elif mode == "sampled":
        per_class = [
            (cls.prime_count, *parity_expectation(counts))
            for cls, counts in sampled_class_counts(plan)
        ]
    else:
        raise ValueError("mode must be exact or sampled")
    return combine(per_class, plan, mode)


def full_term_run(plan: ExperimentPlan, mode: str = "exact") -> MerminEstimate:
    """run_plan on the full-terms form of plan: one circuit per polynomial
    term, so one per-class entry per term. Without single-qubit depolarizing
    the exact value equals the class-reduced one. With it they differ: term
    circuits carry different numbers of one-qubit gates, so a class
    representative no longer stands for every term of its class."""
    terms = build_plan(
        plan.n, plan.prep_phase, plan.shots_per_class, plan.seed, plan.device,
        plan.noise, reduction="full-terms",
    )
    return run_plan(terms, mode)


def estimate_to_json(est: MerminEstimate) -> dict:
    """The estimate's fields, with n_parties as n and per_class as a list."""
    doc = asdict(est)
    doc["n"] = doc.pop("n_parties")
    doc["per_class"] = list(doc["per_class"])
    return doc


def estimate_table(est: MerminEstimate) -> str:
    """Human-readable report mirroring the LR / QM / EXP result columns."""
    lines = [
        f"Mermin estimate, n={est.n_parties} "
        f"(mode={est.mode}, reduction={est.reduction})"
    ]
    for c in est.per_class:
        lines.append(
            f"  primes={c.prime_count}  weight={c.weight:+d}  "
            f"expectation={c.expectation:+.6f}  stderr={c.stderr:.6f}"
        )
    lr = est.lr_bound
    lr_text = f"{int(lr)}" if lr == int(lr) else f"{lr:.4f}"
    if est.mode == "sampled":
        exp_text = f"{est.value:.4f} +/- {est.stderr:.4f}"
    else:
        exp_text = f"{est.value:.4f} (exact)"
    lines.append(f"  LR | QM | EXP : {lr_text} | {est.qm_bound:.4f} | {exp_text}")
    verdict = "yes" if est.violates_lr else "no"
    if est.sigma_distance is not None:
        verdict += f", sigma distance {est.sigma_distance:.2f}"
    lines.append(f"  violates local realism: {verdict}")
    if est.exceeds_genuine_threshold is None:
        genuine = "n/a"
    else:
        genuine = "yes" if est.exceeds_genuine_threshold else "no"
    lines.append(f"  exceeds genuine multipartite threshold "
                 f"(>{GENUINE_THRESHOLD_4:g}): {genuine}")
    return "\n".join(lines) + "\n"


def counts_to_csv(t: CountsTable) -> str:
    """outcome,count rows over all 2^n outcomes, zeros included."""
    lines = ["outcome,count"]
    for i, count in enumerate(t.counts):
        lines.append(f"{i:0{t.n_qubits}b},{count}")
    return "\n".join(lines) + "\n"
