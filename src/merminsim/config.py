"""Run configuration: flat key = value text with [noise] and [device]
sections. Unknown keys, duplicates, and bad values are rejected with line
numbers."""
from __future__ import annotations

from dataclasses import dataclass

from .experiment import SIZES
from .noise import NOISE_PARAMS, NoiseModel
from .transpile import DeviceModel


# Sampling costs about 7.5 ns per shot on one CPU (best of 7 sample_counts
# calls of 2**22 shots, one span under taskset -c 0, 2.1 GHz Xeon), so 2**30
# shots take about 8 s per class; the cap turns a mistyped count (one with a
# few digits too many) into an error instead of hours of work.
MAX_SHOTS = 2**30


class ConfigError(ValueError):
    def __init__(self, what: str, line: int):
        super().__init__(f"{what}, line {line}")
        self.what = what
        self.line = line


@dataclass(frozen=True)
class RunConfig:
    n: int
    shots: int
    seed: int
    mode: str
    reduction: str
    output: str
    prep_phase: object
    noise: NoiseModel
    device: DeviceModel


# Each choice key's default and allowed values, in check order.
_CHOICES = {"mode": ("exact", ("exact", "sampled")),
            "reduction": ("classes", ("classes", "full-terms")),
            "output": ("table", ("json", "table", "csv"))}
# The keys each section accepts; "" is the part before any section header.
_KEYS = {"": {"n", "shots", "seed", *_CHOICES, "prep_phase"}, "noise": set(NOISE_PARAMS),
         "device": {"cnot_target", "robustness_rank"}}


def _one_of(options) -> str:
    *rest, last = map(str, options)
    return f"{', '.join(rest)} or {last}"


def _read(entries, section: str, key: str, default, convert):
    """(convert(value), line) of a key given, or (default, None) of one left out."""
    value, line = entries.get((section, key), (None, None))
    try:
        return (default, None) if line is None else (convert(value), line)
    except ValueError:
        raise ConfigError(f"bad value for {key}", line) from None


def _rank(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split())


def parse_config(text: str) -> RunConfig:
    section = ""
    # (section, key) -> (value, line) of each key given.
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section or section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError("expected key = value", lineno)
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key}", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key}", lineno)
        entries[section, key] = value.strip(), lineno

    # n first: the default shots and the cnot_target range depend on it.
    n, line = _read(entries, "", "n", None, int)
    if line is None:
        raise ConfigError("missing required key n", max(1, len(lines)))
    if n not in SIZES:
        raise ConfigError(f"n must be {_one_of(SIZES)}", line)
    shots, line = _read(entries, "", "shots", SIZES[n].shots, int)
    if not 1 <= shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be {'>= 1' if shots < 1 else f'<= {MAX_SHOTS}'}", line)
    seed, line = _read(entries, "", "seed", 0, int)
    if seed < 0:
        raise ConfigError("seed must be >= 0", line)
    choice = {}
    for key, (default, options) in _CHOICES.items():
        choice[key], line = _read(entries, "", key, default, str)
        if choice[key] not in options:
            raise ConfigError(f"{key} must be {_one_of(options)}", line)
    if choice["output"] == "csv" and choice["mode"] != "sampled":
        raise ConfigError("output csv requires mode sampled", entries["", "output"][1])
    prep_phase, line = _read(entries, "", "prep_phase", "max", str)
    if prep_phase not in ("max", "alt"):
        prep_phase, line = _read(entries, "", "prep_phase", None, int)
        if not 0 <= prep_phase <= 7:
            raise ConfigError("prep_phase steps must be in 0..7", line)
    rates = {}
    for key in NOISE_PARAMS:
        rates[key], line = _read(entries, "noise", key, 0.0, float)
        if not 0.0 <= rates[key] <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1]", line)
    target, line = _read(entries, "device", "cnot_target", None, int)
    if target is not None and not 0 <= target < n:
        raise ConfigError("cnot_target out of range", line)
    rank, line = _read(entries, "device", "robustness_rank", None, _rank)
    if rank is not None and sorted(rank) != list(range(n)):
        raise ConfigError("robustness_rank must be a permutation", line)
    return RunConfig(n, shots, seed, **choice, prep_phase=prep_phase, noise=NoiseModel(**rates),
                     device=DeviceModel(n, cnot_target=target, robustness_rank=rank))
