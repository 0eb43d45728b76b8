"""Binary tensor files and parameter checkpoints.

Tensor file layout: magic b"HTA1", u32 little-endian rank, `rank` u32
little-endian extents, then the row-major payload as 32-bit IEEE-754
little-endian floats. Storage is float32 only; everything is promoted back
to float64 on load because all compute runs in 64-bit.

A checkpoint is a directory: one tensor file per named parameter group plus
a manifest.json listing names, shapes and the model config.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import uuid
from pathlib import Path

import numpy as np

from .config import read_json

MAGIC = b"HTA1"
F32_MAX = float(np.finfo(np.float32).max)


def write_tensor(path, array) -> None:
    """Write a tensor file. Values float32 cannot hold (NaN, infinities and
    magnitudes above its maximum) raise ValueError before the file is opened."""
    a = np.asarray(array, dtype=np.float64)
    if not np.all(np.abs(a) <= F32_MAX):      # False for NaN as well
        raise ValueError(f"{path}: values are NaN, infinite or beyond float32 "
                         f"range (|x| <= {F32_MAX:.7g})")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", a.ndim))
        for n in a.shape:
            f.write(struct.pack("<I", n))
        f.write(a.astype("<f4").tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Load a tensor file. The header is checked against the file size before
    anything it announces is read, so a malformed file raises ValueError, and
    so does a file longer than its header announces."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if size < 8:
            raise ValueError(f"{path}: truncated header")
        (rank,) = struct.unpack("<I", f.read(4))
        if 8 + 4 * rank > size:
            raise ValueError(
                f"{path}: truncated header: rank {rank} in {size} bytes")
        shape = struct.unpack(f"<{rank}I", f.read(4 * rank))
        count = math.prod(shape)
        end = 8 + 4 * rank + 4 * count
        if end > size:
            raise ValueError(
                f"{path}: truncated payload: shape {shape} in {size} bytes")
        if end < size:
            raise ValueError(f"{path}: {size - end} bytes past the payload: "
                             f"shape {shape} in {size} bytes")
        data = np.frombuffer(f.read(4 * count), dtype="<f4", count=count)
    return data.astype(np.float64).reshape(shape)


def _safe_name(name: str) -> str:
    return name.replace("/", "_").replace(".", "_")


def save_checkpoint(directory, params: dict[str, np.ndarray],
                    config: dict | None = None) -> None:
    """Write the checkpoint into a temporary sibling directory, then swap it
    in for `directory`, so a save that fails leaves an existing checkpoint as
    it was. Two names that map to one file raise ValueError before anything
    is written, and so does an existing `directory` that holds files but no
    manifest.json, since the swap would delete them."""
    files: dict[str, str] = {}
    for name in params:
        fname = _safe_name(name) + ".hta"
        other = files.setdefault(fname, name)
        if other != name:
            raise ValueError(f"parameters {other!r} and {name!r} both map to {fname}")
    d = Path(os.path.abspath(directory))
    if d.exists() and not (d / "manifest.json").exists() and any(d.iterdir()):
        raise ValueError(f"{d} is not a checkpoint (no manifest.json); not replacing it")
    d.parent.mkdir(parents=True, exist_ok=True)
    tmp = d.with_name(f".{d.name}.{uuid.uuid4().hex}")
    tmp.mkdir()
    try:
        manifest = {"params": {}, "config": config or {}}
        for fname, name in files.items():
            write_tensor(tmp / fname, params[name])
            manifest["params"][name] = {"file": fname,
                                        "shape": list(np.shape(params[name]))}
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2))
        old = tmp.with_name(tmp.name + ".old")
        if d.exists():
            d.rename(old)
        tmp.rename(d)
        shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_checkpoint(directory):
    """(params, config) of a checkpoint. The manifest is untrusted: anything
    but {"params": {name: {"file": ..., "shape": [...]}, ...}, "config": {...}},
    with each file a plain file in `directory` (not a link) that holds a
    tensor of that shape, raises ValueError."""
    d = Path(directory)
    manifest = read_json(d / "manifest.json")
    if type(manifest) is not dict or type(manifest.get("params")) is not dict \
            or type(manifest.get("config", {})) is not dict:
        raise ValueError(f"{d}: manifest.json needs a 'params' object and an "
                         f"optional 'config' object")
    params = {}
    for name, entry in manifest["params"].items():
        fname = entry.get("file") if type(entry) is dict else None
        path = d / fname if type(fname) is str and fname == Path(fname).name else None
        if path is None or path.is_symlink() or not path.is_file():
            raise ValueError(f"{name}: 'file' must name a plain file in {d}, "
                             f"got {fname!r:.80}")
        arr = read_tensor(path)
        if list(arr.shape) != entry.get("shape"):
            raise ValueError(f"{name}: shape {list(arr.shape)} != manifest "
                             f"{entry.get('shape')!r:.80}")
        params[name] = arr
    return params, manifest.get("config", {})
