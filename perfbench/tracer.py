"""Span recorder for the traced run, built from outside the program.

Each traced function is replaced, in every merminsim module namespace that
holds it, by a wrapper that records a span (name, start, end, parent span,
op id) and the counters named below. Spans stay in memory until the run
ends. Uninstalling puts the original objects back, so untraced passes run
the program unchanged.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# Traced functions by layer; the layer is the defining module.
TRACED = {
    "cli": ("main",),
    "config": ("parse_config",),
    "circuits": ("parse_circuit", "serialize_circuit", "ghz_circuit", "with_setting"),
    "transpile": ("transpile", "reverse_cnot_pass", "place_phase_pass", "cancel_adjacent_pass"),
    "mermin": ("bounds_for", "lr_bound", "qm_bound", "canonical_polynomial", "symmetry_classes"),
    "noise": ("noisy_distribution", "degradation_curve", "calibrate_depol_2q"),
    "statevector": ("sample_counts",),
    "experiment": ("build_plan", "run_plan", "full_term_run", "parity_expectation",
                   "parity_expectation_probs", "combine", "sampled_class_counts",
                   "counts_to_csv", "estimate_to_json", "estimate_table"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_noise(rec, args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "c")
    rec.counts["noise.gates_propagated"] += len(circuit.gates)
    rec.op_distinct["noise"].add((circuit, _arg(args, kwargs, 1, "m")))


def _count_sampling(rec, args, kwargs, result):
    rec.counts["statevector.shots_drawn"] += _arg(args, kwargs, 1, "shots")


def _count_bounds(rec, args, kwargs, result):
    rec.op_distinct["bounds"].add(_arg(args, kwargs, 0, "n"))


def _count_transpile(rec, args, kwargs, result):
    circuit, device = _arg(args, kwargs, 0, "c"), _arg(args, kwargs, 1, "d")
    rec.counts["transpile.gates_in"] += len(circuit.gates)
    rec.counts["transpile.gates_out"] += len(result[0].gates)
    rec.counts["transpile.cnots_reversed"] += sum(
        1 for g in circuit.gates if g.kind == "cnot" and g.qubits[1] != device.cnot_target
    )


HOOKS = {
    "noise.noisy_distribution": _count_noise,
    "statevector.sample_counts": _count_sampling,
    "mermin.bounds_for": _count_bounds,
    "transpile.transpile": _count_transpile,
}


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, int] = defaultdict(int)
        self.op_distinct: dict[str, set] = defaultdict(set)
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_distinct.clear()

    def end_op(self) -> None:
        for key, seen in self.op_distinct.items():
            self.distinct[key] += len(seen)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "merminsim" or key.startswith("merminsim.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"merminsim.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def self_times_ns(self) -> dict[str, int]:
        """Per span name, total duration minus the time its direct children
        cover (children run inside their parent and never overlap)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def root_time_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
