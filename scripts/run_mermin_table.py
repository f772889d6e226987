"""Rebuild the headline results table: classical bound, quantum bound, and
the simulated estimate for 3, 4 and 5 qubits.

With --depol-2q 0 the exact column sits on the quantum bound; with a nonzero
rate the sampled column shows the shot-noise picture a device would give.
"""

from __future__ import annotations

import argparse
import os
import sys

from merminsim import NoiseModel, build_plan, run_plan
from merminsim.experiment import SIZES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depol-2q", type=float, default=0.0)
    ap.add_argument("--readout-flip", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--shots", type=int, default=None,
                    help="shots per class (default: per-size defaults)")
    args = ap.parse_args()
    if args.shots is not None and args.shots < 1:
        ap.error("--shots must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be at least 0")
    try:
        noise = NoiseModel(depol_2q=args.depol_2q, readout_flip=args.readout_flip)
    except ValueError as exc:
        ap.error(str(exc))
    print(f"{'n':>2} {'LR':>4} {'QM':>9} {'exact':>9} {'sampled':>9} {'stderr':>8}")
    for n in SIZES:
        plan = build_plan(n, shots=args.shots, seed=args.seed, noise=noise)
        exact = run_plan(plan, mode="exact")
        sampled = run_plan(plan, mode="sampled")
        print(
            f"{n:>2} {int(exact.lr_bound):>4} {exact.qm_bound:>9.4f} "
            f"{exact.value:>9.4f} {sampled.value:>9.4f} {sampled.stderr:>8.4f}"
        )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does). Point stdout at
        # devnull so that the flush at exit cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
