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

from merminsim import NoiseModel, bounds_for
from merminsim.experiment import SIZES
from merminsim.noise import calibrate_depol_2q, degradation_curve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target", type=float, default=2.85, help="3-qubit value to fit")
    args = ap.parse_args()

    p2 = calibrate_depol_2q(target=args.target)
    print(f"fitted depol_2q = {p2:.10f}")
    model = NoiseModel(depol_2q=p2)
    for n in SIZES:
        value = degradation_curve(n, [model])[0][1]
        qm = bounds_for(n).qm_bound
        lr = bounds_for(n).lr_bound
        print(
            f"n={n}: value={value:.6f}  lr={lr:g}  qm={qm:.4f}  "
            f"normalized={value / qm:.4f}  violates={value > lr}"
        )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does). Point stdout at
        # devnull so that the flush at exit cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
