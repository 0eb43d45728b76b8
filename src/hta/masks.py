"""Attention mask construction for hierarchical temporal attention.

Token order in the full sequence of length S = 1 + U*V + T*N:
position 0 is [CLS]; positions 1 .. U*V hold the [MST] tokens (the first V at
hierarchy level 0, the next V at level 1, ...); the remaining T*N positions are
patch tokens in frame-major order, frame t patch n at 1 + U*V + t*N + n.

A mask is a plain boolean array, True where attention is blocked; the
attention softmax gives blocked positions weight 0, and a dump writes them as
"-inf". `slt_mask` is [T*N, T*N] over patch tokens; `gst_stacked_mask` is
[S, S] over the full sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TokenLayout:
    """Geometry of the token sequence: T frames, N patches/frame, U hierarchy
    levels with V [MST] tokens each, temporal scale r, token width d."""
    T: int
    N: int
    U: int
    V: int
    r: int
    d: int = 64

    def __post_init__(self):
        if min(self.T, self.N, self.V, self.d) < 1 or self.U < 0 or self.r < 2:
            raise ValueError(f"invalid layout {self}")

    @property
    def seq_len(self) -> int:
        return 1 + self.U * self.V + self.T * self.N

    @property
    def num_mst(self) -> int:
        return self.U * self.V


def slt_mask(layout: TokenLayout) -> np.ndarray:
    """Spatially-local temporal mask over patch tokens: (i, j) allowed iff the
    two patches share a spatial position, i.e. |j - i| = 0 mod N."""
    idx = np.arange(layout.T * layout.N)
    return (np.abs(idx[None, :] - idx[:, None]) % layout.N) != 0


def gst_stacked_mask(layout: TokenLayout) -> np.ndarray:
    """Square mask for global spatio-temporal attention, rows [cls; mst; patch].

    [CLS] attends everything. A level-u [MST] token attends the [MST] tokens
    at levels <= u and the patches of every r^u-th frame. A patch attends
    every [MST] token and the patches of its own frame. Only [CLS] attends
    [CLS].
    """
    uv = layout.num_mst
    mst, patch = slice(1, 1 + uv), slice(1 + uv, layout.seq_len)
    level = np.arange(uv) // layout.V
    frame = np.arange(layout.T * layout.N) // layout.N
    # r^u in Python ints, capped at T: a stride >= T admits frame 0 alone
    stride = np.array([min(layout.r ** u, layout.T) for u in range(layout.U)], int)
    allowed = np.zeros((layout.seq_len, layout.seq_len), dtype=bool)
    allowed[0] = True
    allowed[mst, mst] = level[:, None] >= level[None, :]
    allowed[mst, patch] = (frame[None, :] % stride[level][:, None]) == 0
    allowed[patch, mst] = True
    allowed[patch, patch] = frame[:, None] == frame[None, :]
    return ~allowed


def mask_to_csv(mask: np.ndarray) -> str:
    """CSV rows of "0"/"-inf"."""
    lines = [",".join("-inf" if b else "0" for b in row) for row in mask.tolist()]
    return "\n".join(lines) + "\n"


def mask_to_pgm(mask: np.ndarray) -> str:
    """ASCII PGM: allowed -> white (255), blocked -> black (0)."""
    rows, cols = mask.shape
    body = "\n".join(" ".join("0" if b else "255" for b in row)
                     for row in mask.tolist())
    return f"P2\n{cols} {rows}\n255\n{body}\n"
