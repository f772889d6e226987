"""merminsim benchmark entry point.

    python3 perfbench/run.py --workload sampled-shots --seed 1 --seconds 60 --trace 0

Run from the repository root. With --trace 0 it times the workload in a
fresh worker process and prints the end-to-end metrics; with --trace 1 it
runs the traced worker and prints the per-layer metrics. Every metric is
printed with its unit, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record (environment,
latency sample count, failures, output digests) goes to perfbench/out/.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import procs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0


def environment(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "merminsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rec: dict) -> dict:
    lat = rec["latencies_ms"]
    return {
        "setup_s": (statistics.median(rec["setup_samples_s"]), "s"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (percentile(lat, 90), "ms"),
        "peak_rss_mb": (rec["peak_rss_kb"] / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "merminsim" / "__init__.py").is_file():
        print(f"error: no merminsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / ".work" / f"{tag}-{os.getpid()}"
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    argv = ["--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    if args.trace:
        argv += ["--spans", str(outdir / f"{tag}-spans.jsonl")]
    try:
        _, out = procs.run_worker(argv, ROOT, DEADLINE_S)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec = json.loads(out.decode().splitlines()[-1])
    metrics = rec.pop("layers") if args.trace else end_to_end(rec)
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(names) ^ set(metrics))}", file=sys.stderr)
        return 1

    lat = rec.pop("latencies_ms", [])
    env = environment(args.seed, rec.pop("numpy"))
    details = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **rec,
    }
    (outdir / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {rec['attempted']} ops attempted in "
          f"{rec['passes']} passes, {rec['failed']} failed; record in {outdir / (tag + '.json')}")
    print("  environment: " + json.dumps(env))
    if not args.trace:
        print(f"  latency samples: {len(lat)} ops, each its best of {rec['passes']} passes")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:48s} {value:14.6g} {unit}")
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
