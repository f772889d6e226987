"""One benchmark worker: a fresh interpreter that imports merminsim, runs one
warm-up operation, prints a ready line, and (unless --setup-only) runs the
workload as a closed loop with one client. The last stdout line is a JSON
record for run.py.

Only the standard library and merminsim load before the ready line, so the
parent's spawn-to-ready time is the CLI cold start.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

MIN_PASSES = 3
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    ms: float
    value: float | None = None
    error: str | None = None


def execute(op) -> Outcome:
    """Run one operation through the user entry point, stdout and stderr
    captured. Only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    rc, value, error = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.kind == "calibrate":
                value = merminsim.noise.calibrate_depol_2q(op.spec["target"])
                rc = 0
            else:
                rc = merminsim.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), elapsed * 1e3, value, error)


class Tally:
    """Attempts, failures and sampled-output digests across passes. The
    first pass is checked in full. A later pass must reproduce it byte for
    byte (exit code, stdout, stderr, CSV files, returned value) and then
    inherits its verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list = []
        self.stats: dict = {}
        self._first: list | None = None

    def add(self, ops, outcomes) -> None:
        prints = [fingerprint(op, o) for op, o in zip(ops, outcomes)]
        if self._first is None:
            verdicts = checks.check_cycle(ops, outcomes, self.digests, self.stats)
            self._first = list(zip(prints, verdicts))
        else:
            verdicts = [verdict if now == first else "output differs from the first pass"
                        for now, (first, verdict) in zip(prints, self._first)]
        self.attempted += len(ops)
        for op, verdict in zip(ops, verdicts):
            if verdict is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.kind} {op.argv}: {verdict}")

    def record(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "digests": self.digests, "stats": self.stats}


def fingerprint(op, o: Outcome) -> tuple:
    files = ()
    if op.out_dir is not None and op.out_dir.is_dir():
        files = tuple(checks.sha256((op.out_dir / name).read_text())
                      for name in sorted(p.name for p in op.out_dir.iterdir()))
    return (o.rc, o.out, o.err, o.error is None, repr(o.value), files)


def setup_sample(args) -> float:
    """Spawn-to-ready seconds of a fresh setup-only worker."""
    workdir = Path(args.workdir) / f"setup{time.monotonic_ns()}"
    argv = ["--root", args.root, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--workdir", str(workdir), "--setup-only"]
    try:
        return procs.run_worker(argv, Path(args.root), SETUP_TIMEOUT_S)[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(ops, order, rng) -> list[Outcome]:
    """One pass over the op list in a fresh seeded order, so that an op's
    samples do not fall at the same point of every pass. Outcomes come back
    in op-list order."""
    rng.shuffle(order)
    outcomes = [None] * len(ops)
    for i in order:
        outcomes[i] = execute(ops[i])
    return outcomes


def measure(args, ops) -> dict:
    """Untraced closed loop: passes over the op list, at least MIN_PASSES of
    them, until the next pass would end after --seconds. Each op's latency
    is its best pass: load from other tenants only ever adds time. Set-up
    samples are taken at evenly spread moments of the run."""
    tally, best, setups = Tally(), [math.inf] * len(ops), []
    order, rng = list(range(len(ops))), random.Random(f"order/{args.seed}")
    start, pass_s = time.perf_counter(), []
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(setup_sample(args))
        pass_start = time.perf_counter()
        outcomes = run_pass(ops, order, rng)
        best = [min(b, o.ms) for b, o in zip(best, outcomes)]
        tally.add(ops, outcomes)
        now = time.perf_counter()
        pass_s.append(now - pass_start)
        if len(pass_s) >= MIN_PASSES and 2 * now - pass_start - start >= args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    return {"latencies_ms": best, "passes": len(pass_s), "pass_s": pass_s,
            "setup_samples_s": setups,
            "measure_s": time.perf_counter() - start, "peak_rss_kb": peak_kb,
            **tally.record()}


def measure_traced(args, ops, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over the op list until the next
    pair of passes would end after --seconds. Counts come from one traced
    pass (they repeat exactly); times are means over the traced passes."""
    tally, recorders = Tally(), []
    plain_best, traced_best = [math.inf] * len(ops), [math.inf] * len(ops)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes = [execute(op) for op in ops]
        plain_best = [min(b, o.ms) for b, o in zip(plain_best, outcomes)]
        tally.add(ops, outcomes)
        rec = tracer.Recorder()
        rec.install()
        try:
            outcomes = []
            for i, op in enumerate(ops):
                rec.begin_op(i)
                outcomes.append(execute(op))
                rec.end_op()
        finally:
            rec.uninstall()
        recorders.append((rec, sum(o.ms for o in outcomes)))
        traced_best = [min(b, o.ms) for b, o in zip(traced_best, outcomes)]
        tally.add(ops, outcomes)
        if 2 * time.perf_counter() - round_start - start >= args.seconds:
            break
    with spans_path.open("w") as fh:
        for pass_index, (rec, _) in enumerate(recorders):
            for name, begin, end, parent, op_id in rec.spans:
                fh.write(json.dumps([pass_index, op_id, name, begin, end, parent]) + "\n")
    overhead = sum(traced_best) / sum(plain_best) - 1.0
    return {
        "layers": layer_metrics(recorders, len(ops), overhead, tally),
        "counts_repeat": all(r.counts == recorders[0][0].counts for r, _ in recorders),
        "passes": len(recorders),
        "measure_s": time.perf_counter() - start,
        **tally.record(),
    }


def layer_metrics(recorders, ops_per_pass, overhead, tally) -> dict:
    passes = len(recorders)
    first = recorders[0][0]
    out = {}
    self_ns: dict[str, int] = {}
    for rec, _ in recorders:
        for name, ns in rec.self_times_ns().items():
            self_ns[name] = self_ns.get(name, 0) + ns
    for layer, names in tracer.TRACED.items():
        for fn in names:
            name = f"{layer}.{fn}"
            out[f"{name}.self_ms"] = (self_ns.get(name, 0) / passes / 1e6, "ms")
    for name in ("cli.main", "noise.noisy_distribution", "statevector.sample_counts",
                 "mermin.bounds_for", "transpile.transpile"):
        out[f"{name}.calls"] = (first.counts.get(f"{name}.calls", 0), "count")
    for name in ("noise.gates_propagated", "statevector.shots_drawn", "transpile.gates_in",
                 "transpile.gates_out", "transpile.cnots_reversed"):
        out[name] = (first.counts.get(name, 0), "count")

    def useful(key, calls):
        n_calls = first.counts.get(calls, 0)
        return (first.distinct.get(key, 0) / n_calls if n_calls else 1.0, "ratio")

    out["noise.noisy_distribution.useful_ratio"] = useful("noise", "noise.noisy_distribution.calls")
    out["mermin.bounds_for.useful_ratio"] = useful("bounds", "mermin.bounds_for.calls")
    root_ns = sum(rec.root_time_ns() for rec, _ in recorders)
    out["trace.coverage"] = (root_ns / 1e6 / sum(ms for _, ms in recorders), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    out["trace.ops"] = (ops_per_pass, "count")
    out["error_rate"] = (tally.failed / tally.attempted, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Modules load here, not at the top: only merminsim and the standard
    # library may count towards the timed start-up.
    global merminsim, workloads, checks, tracer, procs
    sys.path.insert(0, str(Path(args.root) / "src"))
    import merminsim.cli
    import merminsim.noise
    import workloads

    workdir = Path(args.workdir)
    warm = workloads.warmup_op(args.workload, workdir / "warmup")
    outcome = execute(warm)
    if outcome.rc != 0 or outcome.error:
        print(f"warm-up failed: {outcome.rc} {outcome.err}{outcome.error}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import checks
    import procs
    import tracer

    ops = workloads.op_list(args.workload, args.seed, workdir / "ops")
    if args.trace:
        record = measure_traced(args, ops, Path(args.spans))
    else:
        record = measure(args, ops)
    record["numpy"] = numpy.__version__
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
