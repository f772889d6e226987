"""Compare noisy_distribution between two source trees on every case of the
noisy-probability golden (tests/test_noise_golden.py) and report how far the
probabilities moved.

    python scripts/noise_drift.py OLD_SRC NEW_SRC

Each SRC is a directory holding the merminsim package, such as the src/ of
a second checkout. Every case is evaluated under each tree in its own
subprocess: the probabilities of every unit of the case's plan, in plan
order. For each changed case the largest absolute change of a probability
is printed. Exits 1 if a case's probability count differs or a probability
moved more than 1e-12, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOLERANCE = 1e-12
TESTS = Path(__file__).resolve().parent.parent / "tests"

# Run under one source tree: checks that merminsim comes from it, then
# prints {case: [probabilities]} as JSON, whose floats round-trip exactly.
CHILD = """
import json, sys
from pathlib import Path
import merminsim
from merminsim.noise import noisy_distribution
from test_noise_golden import CASES, MODELS, _circuits
if Path(merminsim.__file__).resolve().parent.parent != Path(sys.argv[1]).resolve():
    sys.exit(f"merminsim imported from {merminsim.__file__}, not from {sys.argv[1]}")
json.dump({name: [p for c in _circuits(n, reduction, k)
                  for p in noisy_distribution(c, MODELS[label]).probabilities.tolist()]
           for name, (n, reduction, k, label) in CASES.items()}, sys.stdout)
"""


def evaluate(src: str) -> dict[str, list[float]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", CHILD, src], env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"evaluating {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: noise_drift.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = evaluate(argv[0]), evaluate(argv[1])
    failed = False
    changed = 0
    for name in sorted(old):
        if old[name] == new[name]:
            continue
        changed += 1
        if len(old[name]) != len(new[name]):
            print(f"{name}: {len(old[name])} -> {len(new[name])} probabilities")
            failed = True
            continue
        drift = max(abs(a - b) for a, b in zip(old[name], new[name]))
        print(f"{name}: largest change {drift:.3g}")
        failed |= drift > TOLERANCE
    print(f"{changed} of {len(old)} cases changed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
