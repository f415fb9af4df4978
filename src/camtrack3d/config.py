"""Run configuration: a flat `key = value` text file covering the gate
thresholds, process/observation noise scalars, frame interval, assembly
wait budget and simulation seed. Unknown keys are rejected so typos fail
fast."""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .association import GateConfig
from .tracker import ObservationModel, ProcessModel

GATE_KEYS = {f.name for f in fields(GateConfig)}
SCALAR_KEYS = {"dt", "q_pos", "q_vel", "r_px", "wait_budget", "seed"}
KNOWN_KEYS = GATE_KEYS | SCALAR_KEYS

DEFAULTS: dict[str, Any] = {
    "dt": 0.01,
    "q_pos": 1e-4,
    "q_vel": 0.25,
    "r_px": 1.0,
    "wait_budget": 0.005,
    "seed": 0,
}


def parse_value(text: str) -> int | float:
    """An int if `text` is one, else a float; every known key is numeric."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_config(text: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = parse_value(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} must be a number, got {value!r}") from None
    return out


def load_config(path) -> dict[str, Any]:
    with open(path) as f:
        return parse_config(f.read())


def save_config(path, cfg: dict[str, Any]) -> None:
    with open(path, "w") as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]!r}\n")


def gate_from_config(cfg: dict[str, Any]) -> GateConfig:
    kw = {k: v for k, v in cfg.items() if k in GATE_KEYS}
    return GateConfig(**kw)


def models_from_config(cfg: dict[str, Any], cameras) -> tuple[ProcessModel, ObservationModel, GateConfig]:
    merged = dict(DEFAULTS)
    merged.update(cfg)
    pm = ProcessModel(dt=float(merged["dt"]), q_pos=float(merged["q_pos"]),
                      q_vel=float(merged["q_vel"]))
    om = ObservationModel(cameras=cameras, r_px=float(merged["r_px"]))
    return pm, om, gate_from_config(cfg)
