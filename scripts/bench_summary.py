"""Summarise paired perfbench records of a parent commit and a change.

    python scripts/bench_summary.py PARENT_RECORDS... -- CHANGE_RECORDS...

Each record is a `perfbench/out/<workload>-seed<n>-trace<0|1>.json` file.
Untraced (trace0) runs of the two sides pair up by workload and seed. For
each workload and each end-to-end metric of BENCHMARK.json the summary holds
each side's median and quartiles, and how many pairs the change wins
(strictly better in the metric's direction; ties count for neither side).
It also holds each side's environment block without the seed, its attempted
and failed op counts, and for each paired seed with sampled-output digests
whether the two sides' digests are equal. These come from trace0 records
only. Traced (trace1) records give each workload's `per_layer` block: each
side's traced seeds, failed op count and median of every `*.self_ms` metric
under `per_layer` in BENCHMARK.json. The summary is one JSON document on
stdout. Exits 2 on a usage error: no `--`, an empty side, a side with only
traced records, or two records of one side that disagree on their
environment or repeat a workload, seed and trace flag.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class UsageError(Exception):
    pass


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_side(name: str, paths: list[str]) -> tuple[dict, dict, dict]:
    """The side's summary block, and its untraced and its traced records, each
    keyed by (workload, seed)."""
    if not paths:
        raise UsageError(f"no {name} records")
    by_trace: tuple[dict, dict] = ({}, {})
    environment = None
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        env = dict(rec["environment"])
        key = (rec["workload"], env.pop("seed"))
        if key in by_trace[rec["trace"]]:
            raise UsageError(f"{path}: a second {name} record of {key[0]} seed {key[1]} "
                             f"trace {rec['trace']}")
        if environment is not None and env != environment:
            raise UsageError(f"{path}: environment differs from the other {name} records")
        environment = env
        by_trace[rec["trace"]][key] = rec
    records, traced = by_trace
    if not records:
        raise UsageError(f"only traced records on the {name} side; give untraced (trace0) "
                         "records too")
    block = {
        "records": len(records),
        "attempted": sum(rec["attempted"] for rec in records.values()),
        "failed": sum(rec["failed"] for rec in records.values()),
        "environment": environment,
    }
    return block, records, traced


def spread(values: list[float]) -> dict:
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "runs": len(values)}


def per_layer(workload: str, layers: list[dict], parent: dict, change: dict) -> dict:
    """Each side's median self time per layer over its traced records of the
    workload."""
    sides = {"parent": [rec for (w, _), rec in sorted(parent.items()) if w == workload],
             "change": [rec for (w, _), rec in sorted(change.items()) if w == workload]}
    block = {f"{side}_seeds": [rec["environment"]["seed"] for rec in recs]
             for side, recs in sides.items()}
    block["failed"] = {side: sum(rec["failed"] for rec in recs) for side, recs in sides.items()}
    block["metrics"] = {}
    for m in layers:
        entry = block["metrics"][m["name"]] = {"unit": m["unit"]}
        for side, recs in sides.items():
            values = [rec["metrics"][m["name"]]["value"] for rec in recs]
            entry[side] = quantile(values, 0.5) if values else None
    return block


def summarise(parent_paths: list[str], change_paths: list[str]) -> dict:
    with open(BENCHMARK) as f:
        declared = json.load(f)
    metrics = declared["end_to_end"]
    layers = [m for m in declared["per_layer"] if m["name"].endswith(".self_ms")]
    parent, parent_recs, parent_traced = load_side("PARENT", parent_paths)
    change, change_recs, change_traced = load_side("CHANGE", change_paths)
    workloads = {}
    keys = (*parent_recs, *change_recs, *parent_traced, *change_traced)
    for workload in sorted({w for w, _ in keys}):
        p_seeds = sorted(s for w, s in parent_recs if w == workload)
        c_seeds = sorted(s for w, s in change_recs if w == workload)
        paired = sorted(set(p_seeds) & set(c_seeds))
        entry = {"parent_seeds": p_seeds, "change_seeds": c_seeds, "paired_seeds": paired,
                 "metrics": {}}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1

            def value(rec: dict) -> float:
                return rec["metrics"][name]["value"]

            p_vals = [value(parent_recs[workload, s]) for s in p_seeds]
            c_vals = [value(change_recs[workload, s]) for s in c_seeds]
            wins = sum(
                sign * (value(change_recs[workload, s]) - value(parent_recs[workload, s])) > 0
                for s in paired
            )
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": spread(p_vals) if p_vals else None,
                "change": spread(c_vals) if c_vals else None,
                "change_wins": wins, "pairs": len(paired),
            }
        entry["digests_match"] = {
            str(s): parent_recs[workload, s]["digests"] == change_recs[workload, s]["digests"]
            for s in paired
            if parent_recs[workload, s]["digests"] or change_recs[workload, s]["digests"]
        }
        entry["per_layer"] = per_layer(workload, layers, parent_traced, change_traced)
        workloads[workload] = entry
    return {"parent": parent, "change": change, "workloads": workloads}


def main(argv: list[str]) -> int:
    try:
        if "--" not in argv:
            raise UsageError("missing --")
        cut = argv.index("--")
        doc = summarise(argv[:cut], argv[cut + 1:])
    except UsageError as err:
        print(f"usage: bench_summary.py PARENT_RECORDS... -- CHANGE_RECORDS...\n{err}",
              file=sys.stderr)
        return 2
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
