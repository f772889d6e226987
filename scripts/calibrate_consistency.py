"""Fit the two-qubit depolarizing rate so the 3-qubit value lands on 2.85,
then reuse that single rate to predict the 4- and 5-qubit values.

One knob, three sizes: a quick consistency probe of the uniform per-CNOT
error model. The 5-qubit prediction overshoots what hardware showed, which
is informative in itself; see the README.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from merminsim import NoiseModel, build_plan, run_plan
from merminsim.experiment import SIZES
from merminsim.noise import calibrate_depol_2q


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target", type=float, default=2.85, help="3-qubit value to fit")
    args = ap.parse_args()

    try:
        p2 = calibrate_depol_2q(target=args.target)
    except ValueError as exc:
        ap.error(f"--target {args.target:g}: {exc}")
    print(f"fitted depol_2q = {p2:.10f}")
    model = NoiseModel(depol_2q=p2)
    for n in SIZES:
        # the exact value degradation_curve(n, [model]) reports, with verdicts
        est = run_plan(replace(build_plan(n), noise=model))
        print(
            f"n={n}: value={est.value:.6f}  lr={est.lr_bound:g}  qm={est.qm_bound:.4f}  "
            f"normalized={est.value / est.qm_bound:.4f}  violates={est.violates_lr}  "
            f"genuine={est.exceeds_genuine_threshold}"
        )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does). Point stdout at
        # devnull so that the flush at exit cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
