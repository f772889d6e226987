"""Scan the exact Mermin value against each noise knob separately and print
long-format CSV: n,param,value_of_param,mermin_value.

Useful for plotting how the violation decays with qubit count and error
rate; every row is an exact density-matrix evaluation, no sampling.
"""

from __future__ import annotations

import argparse
import os
import sys

from merminsim import NoiseModel
from merminsim.experiment import SIZES
from merminsim.noise import degradation_curve

PARAMS = ("depol_1q", "depol_2q", "readout_flip")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=9, help="grid points in [0, max]")
    ap.add_argument("--max", type=float, default=0.2, dest="top")
    ap.add_argument("--param", choices=PARAMS + ("all",), default="all")
    args = ap.parse_args()
    if args.points < 2:
        ap.error("--points must be at least 2")

    params = PARAMS if args.param == "all" else (args.param,)
    grid = [args.top * i / (args.points - 1) for i in range(args.points)]
    print("n,param,rate,mermin_value")
    for n in SIZES:
        for param in params:
            models = [NoiseModel(**{param: g}) for g in grid]
            for model, value in degradation_curve(n, models):
                rate = getattr(model, param)
                print(f"{n},{param},{rate:.6g},{value:.10f}")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does). Point stdout at
        # devnull so that the flush at exit cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
