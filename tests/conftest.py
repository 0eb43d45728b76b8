import os
from pathlib import Path

import numpy as np

# pytest puts src/ on sys.path (pyproject.toml); the Python processes that
# tests start import hta from the same checkout.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def central_diff(f, x: np.ndarray, idx, h: float = 1e-6) -> float:
    """Central finite difference of scalar f at one coordinate of x,
    restoring x afterwards."""
    orig = x[idx]
    x[idx] = orig + h
    hi = f()
    x[idx] = orig - h
    lo = f()
    x[idx] = orig
    return (hi - lo) / (2.0 * h)


def rel_err(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)
