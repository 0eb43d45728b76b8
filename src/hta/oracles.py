"""Independent references: entry-by-entry mask predicates, a sort-based
retrieval ranker and the closed-form info-NCE loss, which the tape's loss
node must match. They share no code path with the code they check. A mask is
True where attention is blocked, as in `hta.masks`."""

from __future__ import annotations

import numpy as np

from .masks import TokenLayout


def reference_slt_mask(layout: TokenLayout) -> np.ndarray:
    tn = layout.T * layout.N
    out = np.empty((tn, tn), dtype=bool)
    for i in range(tn):
        for j in range(tn):
            out[i, j] = abs(j - i) % layout.N != 0
    return out


def reference_stacked_mask(layout: TokenLayout) -> np.ndarray:
    """Square global mask, rows [cls; mst; patch], evaluated predicate by
    predicate. Patch and [MST] rows never attend the [CLS] column."""
    s = layout.seq_len
    uv = layout.num_mst
    n = layout.N
    out = np.full((s, s), True)

    def col_kind(j):
        if j == 0:
            return "cls", 0
        if j <= uv:
            return "mst", j - 1
        return "patch", j - 1 - uv

    out[0, :] = False                                 # [CLS] attends everything
    for row in range(1, s):
        if row <= uv:                                 # [MST] row
            i = row - 1
            level = i // layout.V
            for j in range(s):
                kind, k = col_kind(j)
                if kind == "mst":
                    if level >= k // layout.V:
                        out[row, j] = False
                elif kind == "patch":
                    if (k // n) % (layout.r ** level) == 0:
                        out[row, j] = False
        else:                                         # patch row
            i = row - 1 - uv
            for j in range(s):
                kind, k = col_kind(j)
                if kind == "mst":
                    out[row, j] = False
                elif kind == "patch" and k // n == i // n:
                    out[row, j] = False
    return out


def brute_force_ranks(s: np.ndarray) -> np.ndarray:
    """Pessimistic ground-truth ranks by explicitly sorting each row with ties
    ordered against the diagonal entry."""
    s = np.asarray(s, dtype=np.float64)
    q = s.shape[0]
    ranks = np.empty(q, dtype=np.int64)
    for i in range(q):
        # score descending; among equal scores the ground truth sorts last
        order = sorted(range(q), key=lambda j: (-s[i, j], 1 if j == i else 0))
        ranks[i] = order.index(i) + 1
    return ranks


def info_nce(v: np.ndarray, t: np.ndarray, tau: float) -> float:
    """Symmetric info-NCE: mean over i of the two cross-entropy terms with
    positives on the diagonal of v @ t.T / tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if v.shape != t.shape or v.ndim != 2:
        raise ValueError(f"embedding shapes differ: {v.shape} vs {t.shape}")
    logits = (v @ t.T) / tau
    return float(_ce_diag(logits) + _ce_diag(logits.T))


def _ce_diag(z: np.ndarray) -> float:
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return float((lse - np.diag(z)).mean())
