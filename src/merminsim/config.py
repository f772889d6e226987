"""Run configuration: flat key = value text with [noise] and [device]
sections. Unknown keys, duplicates, and bad values are rejected with line
numbers."""
from __future__ import annotations

from dataclasses import dataclass

from .experiment import SIZES
from .noise import NOISE_PARAMS, NoiseModel
from .transpile import DeviceModel


# Sampling costs about 12 ns per shot, so this cap turns a mistyped count
# (one with a few digits too many) into an error instead of hours of work.
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


_TOP_KEYS = {"n", "shots", "seed", "mode", "reduction", "output", "prep_phase"}
_DEVICE_KEYS = {"cnot_target", "robustness_rank"}


def _parse_int(value: str, key: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"bad value for {key}", line) from None


def _parse_float(value: str, key: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"bad value for {key}", line) from None


def parse_config(text: str) -> RunConfig:
    section = ""
    # (section, key) -> (value, line) of each key given.
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("noise", "device"):
                raise ConfigError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        allowed = {"": _TOP_KEYS, "noise": NOISE_PARAMS, "device": _DEVICE_KEYS}[section]
        if key not in allowed:
            raise ConfigError(f"unknown key {key}", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key}", lineno)
        entries[(section, key)] = value, lineno

    got = entries.get(("", "n"))
    if got is None:
        raise ConfigError("missing required key n", last_line)
    n = _parse_int(got[0], "n", got[1])
    if n not in SIZES:
        *rest, last = SIZES
        raise ConfigError(f"n must be {', '.join(map(str, rest))} or {last}", got[1])

    got = entries.get(("", "shots"))
    shots = SIZES[n].shots if got is None else _parse_int(got[0], "shots", got[1])
    if shots < 1:
        raise ConfigError("shots must be >= 1", got[1])
    if shots > MAX_SHOTS:
        raise ConfigError(f"shots must be <= {MAX_SHOTS}", got[1])

    got = entries.get(("", "seed"))
    seed = 0 if got is None else _parse_int(got[0], "seed", got[1])
    if seed < 0:
        raise ConfigError("seed must be >= 0", got[1])

    got = entries.get(("", "mode"))
    mode = "exact" if got is None else got[0]
    if mode not in ("exact", "sampled"):
        raise ConfigError("mode must be exact or sampled", got[1])

    got = entries.get(("", "reduction"))
    reduction = "classes" if got is None else got[0]
    if reduction not in ("classes", "full-terms"):
        raise ConfigError("reduction must be classes or full-terms", got[1])

    got = entries.get(("", "output"))
    output = "table" if got is None else got[0]
    if output not in ("json", "table", "csv"):
        raise ConfigError("output must be json, table or csv", got[1])
    if output == "csv" and mode != "sampled":
        raise ConfigError("output csv requires mode sampled", got[1])

    got = entries.get(("", "prep_phase"))
    prep_phase: object = "max"
    if got is not None:
        token = got[0]
        if token in ("max", "alt"):
            prep_phase = token
        else:
            steps = _parse_int(token, "prep_phase", got[1])
            if not 0 <= steps <= 7:
                raise ConfigError("prep_phase steps must be in 0..7", got[1])
            prep_phase = steps

    kwargs = {}
    for key in NOISE_PARAMS:
        got = entries.get(("noise", key))
        if got is not None:
            p = _parse_float(got[0], key, got[1])
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{key} must be in [0, 1]", got[1])
            kwargs[key] = p
    noise = NoiseModel(**kwargs)

    target = None
    rank = None
    got = entries.get(("device", "cnot_target"))
    if got is not None:
        target = _parse_int(got[0], "cnot_target", got[1])
        if not 0 <= target < n:
            raise ConfigError("cnot_target out of range", got[1])
    got = entries.get(("device", "robustness_rank"))
    if got is not None:
        try:
            rank = tuple(int(tok) for tok in got[0].split())
        except ValueError:
            raise ConfigError("bad value for robustness_rank", got[1]) from None
        if sorted(rank) != list(range(n)):
            raise ConfigError("robustness_rank must be a permutation", got[1])
    device = DeviceModel(n, cnot_target=target, robustness_rank=rank)

    return RunConfig(n, shots, seed, mode, reduction, output, prep_phase, noise, device)
