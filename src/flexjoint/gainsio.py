"""Flat key = value files for controller gains and plant parameters."""

from __future__ import annotations

import math
from pathlib import Path

from .control import GainSet
from .fuzzy import FlrBounds
from .plant import PlantParams
from .record import Record

GAIN_KEYS = ("kp1", "kd1", "kp2", "kd2")
BOUND_KEYS = ("dkp1_lo", "dkp1_hi", "dkd1_lo", "dkd1_hi",
              "dkp2_lo", "dkp2_hi", "dkd2_lo", "dkd2_hi")
PLANT_KEYS = ("m", "g", "l", "I_l", "I_m", "k", "mu")


def _parse_kv(path, allowed) -> dict[str, float]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}: line {lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise ValueError(f"{where}: invalid number {val.strip()!r}") from None
        if not math.isfinite(values[key]):
            raise ValueError(f"{where}: non-finite number {val.strip()!r}")
    return values


class LoadedGains(Record):
    gains: GainSet
    bounds: FlrBounds
    repaired_pairs: tuple[str, ...]  # pairs whose (lo, hi) labels were swapped


def load_gains(path) -> LoadedGains:
    """Parse a gains file; missing regulator-bound keys default to 0 and
    any (lo, hi) pair stored in reversed order is normalized to (min, max),
    with the repair reported."""
    values = _parse_kv(path, set(GAIN_KEYS) | set(BOUND_KEYS))
    for key in GAIN_KEYS:
        if key not in values:
            raise ValueError(f"{path}: missing required key {key!r}")
    pairs = {}
    repaired = []
    for name in ("dkp1", "dkd1", "dkp2", "dkd2"):
        lo = values.get(f"{name}_lo", 0.0)
        hi = values.get(f"{name}_hi", 0.0)
        if lo > hi:
            repaired.append(name)
            lo, hi = hi, lo
        pairs[name] = (lo, hi)
    try:
        gains = GainSet(values["kp1"], values["kd1"], values["kp2"],
                        values["kd2"])
        bounds = FlrBounds(**pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return LoadedGains(gains=gains, bounds=bounds, repaired_pairs=tuple(repaired))


def gains_text(gains: GainSet, bounds: FlrBounds | None = None) -> str:
    lines = [f"{k} = {float(getattr(gains, k))!r}" for k in GAIN_KEYS]
    if bounds is not None:
        for name in ("dkp1", "dkd1", "dkp2", "dkd2"):
            lo, hi = getattr(bounds, name)
            lines.append(f"{name}_lo = {float(lo)!r}")
            lines.append(f"{name}_hi = {float(hi)!r}")
    return "\n".join(lines) + "\n"


def load_plant(path) -> PlantParams:
    """Plant-parameter overrides in the same key = value format; keys not
    present keep their defaults."""
    values = _parse_kv(path, set(PLANT_KEYS))
    try:
        return PlantParams(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
