"""Training configuration and the divergence error: what the command line
needs to build its parser and map errors to exit codes, kept apart from the
trainer so that neither compiles the towers. `hta.alignment` re-exports all
three names. Also the helpers that several verbs share: reading a UTF-8 text
or JSON input file, and counting the cores this process may use."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path


def read_text(path) -> str:
    """The text of a UTF-8 input file; other bytes raise ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_json(path):
    """The value of a UTF-8 JSON input file; bad text raises ValueError naming it."""
    try:
        return json.loads(read_text(path))
    except RecursionError as exc:
        raise ValueError(f"{path}: nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, or every core
    where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # not on macOS or Windows
        return os.cpu_count() or 1


class DivergenceError(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss} at step {step}")
        self.step = step


LOG_TAU_FLOOR = -5.0   # tau never drops below e^-5


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 200
    base_lr: float = 2e-5
    final_lr: float = 4e-8
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.02
    clip_norm: float = 10.0
    init_tau: float = 0.01
    batch_size: int = 16

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        # zero is allowed so a frozen run is expressible
        if not (0.0 <= self.final_lr <= self.base_lr):
            raise ValueError("need 0 <= final_lr <= base_lr")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.init_tau < math.exp(LOG_TAU_FLOOR):
            raise ValueError(f"init_tau must be >= e^{LOG_TAU_FLOOR:g}, the floor "
                             f"on tau, got {self.init_tau}")
