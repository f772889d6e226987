"""Compare two CLI golden files (tests/golden/cli_outputs.json layout) and
report how far their numbers moved.

    python scripts/golden_drift.py OLD NEW

Each case is rendered as canonical JSON and split into its numbers and the
text between them. A case whose text, or number count, differs is a
non-numeric change, printed with its first differing text fragment as
`OLD` -> `NEW`, each cut to WIDTH characters around the first differing
character; a case present in only one file is one too. For every other
changed case the largest absolute change of a number is printed. Exits 1 on
any non-numeric change or on a number that moved more than 1e-12, else 0.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import zip_longest

TOLERANCE = 1e-12
WIDTH = 60

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers, and the numbers."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def excerpt(fragment: str | None, start: int) -> str:
    """WIDTH characters of fragment from start in backquotes, with ... where
    it was cut; (none) for a fragment the other case lacks."""
    if fragment is None:
        return "(none)"
    piece = fragment[start:start + WIDTH]
    return f"`{'...' if start else ''}{piece}{'...' if start + WIDTH < len(fragment) else ''}`"


def case_drift(old, new) -> float | str:
    """Largest absolute change of a number between two cases or, when they
    differ in anything but numbers, their first differing text fragment as
    OLD -> NEW."""
    old_text, old_nums = split_numbers(json.dumps(old, sort_keys=True))
    new_text, new_nums = split_numbers(json.dumps(new, sort_keys=True))
    # Unequal number counts give unequal fragment counts.
    for a, b in zip_longest(old_text, new_text):
        if a != b:
            start = max(len(os.path.commonprefix([a or "", b or ""])) - WIDTH // 2, 0)
            return f"{excerpt(a, start)} -> {excerpt(b, start)}"
    return max((abs(a - b) for a, b in zip(old_nums, new_nums)), default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: golden_drift.py OLD NEW", file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        old = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    failed = False
    changed = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            print(f"{name}: only in {'OLD' if name in old else 'NEW'}")
            failed = True
            continue
        if old[name] == new[name]:
            continue
        changed += 1
        drift = case_drift(old[name], new[name])
        if isinstance(drift, str):
            print(f"{name}: non-numeric change: {drift}")
            failed = True
            continue
        print(f"{name}: largest change {drift:.3g}")
        failed |= drift > TOLERANCE
    print(f"{changed} of {len(old.keys() | new.keys())} cases changed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
