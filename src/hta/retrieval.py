"""Similarity, dual-softmax re-scoring, and retrieval metrics (R@K, MdR, MnR).

Ground truth is the diagonal of a square similarity matrix. Ranks break ties
pessimistically: a candidate tying with the ground-truth score counts ahead
of it.

`similarity`, `dual_softmax`, `ranks` and `evaluate` work on the full Q x Q
matrix and are the reference. `paired_ranks` ranks from the embeddings one
block of rows at a time, in O(block) memory; `hta eval` uses it. Both paths
share the tie rule and the softmax steps below. A block's scores can differ
from the full product's in the last ulp where BLAS splits the product
differently, so near-ties may rank differently from the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Scores per row block of `paired_ranks`: 1 MB of float64, which stays in L2.
BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class RetrievalReport:
    r1: float
    r5: float
    r10: float
    avg: float
    mdr: float
    mnr: float

    def as_dict(self) -> dict:
        return {"R@1": self.r1, "R@5": self.r5, "R@10": self.r10,
                "Avg": self.avg, "MdR": self.mdr, "MnR": self.mnr}


def _pair(queries, candidates) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    if q.ndim != 2 or c.ndim != 2 or q.shape[1] != c.shape[1]:
        raise ValueError(f"embedding dims differ: {q.shape} vs {c.shape}")
    return q, c


def similarity(queries: np.ndarray, candidates: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise dot products of unit-norm rows: [Q, D] x [C, D] -> [Q, C],
    written into `out` when it is given."""
    q, c = _pair(queries, candidates)
    return np.matmul(q, c.T, out=out)


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < np.inf:                    # False for NaN too
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


def _check_square(shape: tuple, what: str) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} needs a square matrix, got {shape}")


def _exp_shifted(z: np.ndarray, shift: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.subtract(z, shift, out=out)
    return np.exp(out, out=out)


def _dual_softmax_rows(z: np.ndarray, colmax: np.ndarray, colsum: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
    """Rows z of alpha*S, re-scored in place: row-softmax(z) times the
    column softmax, given the column max of alpha*S and the column sums of
    exp(alpha*S - colmax). `scratch` is a buffer of z's shape."""
    col = _exp_shifted(z, colmax, scratch)
    col /= colsum
    row = _exp_shifted(z, z.max(axis=1, keepdims=True), z)
    row /= row.sum(axis=1, keepdims=True)
    row *= col
    return row


def dual_softmax(s: np.ndarray, alpha: float = 100.0) -> np.ndarray:
    """Elementwise product of row-softmax(alpha*S) and column-softmax(alpha*S);
    inference-time re-scoring only."""
    _check_alpha(alpha)
    s = np.asarray(s, dtype=np.float64)
    _check_square(s.shape, "dual_softmax")
    z = alpha * s
    scratch = np.empty_like(z)
    colmax = z.max(axis=0)
    colsum = _exp_shifted(z, colmax, scratch).sum(axis=0)
    return _dual_softmax_rows(z, colmax, colsum, scratch)


def _rank_rows(s: np.ndarray, start: int) -> np.ndarray:
    """Pessimistic ranks of rows `start`.. of a score matrix, given as the
    block s whose row i has its ground truth in column start + i: every score
    >= the ground truth counts, the ground truth itself included."""
    if not np.isfinite(s).all():
        raise ValueError("similarity matrix contains non-finite entries")
    i = np.arange(len(s))
    return (s >= s[i, start + i][:, None]).sum(axis=1)


def ranks(s: np.ndarray) -> np.ndarray:
    """Pessimistic rank of the diagonal entry within each row."""
    s = np.asarray(s, dtype=np.float64)
    _check_square(s.shape, "paired evaluation")
    return _rank_rows(s, 0)


def _row_blocks(n: int, rows: int) -> list[tuple[int, int]]:
    """[start, stop) row ranges of `rows` rows, the last one of up to rows + 1.
    No block has a single row unless n == 1: numpy multiplies one row by a
    matrix-vector product, which rounds differently from the full product."""
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _score_blocks(queries, candidates, alpha: float | None = None):
    """Yield (start, block): rows start.. of similarity(queries, candidates),
    or of its dual_softmax when alpha is given, equal to the rows of the full
    matrix. Each block is a view into a buffer that the next block reuses.
    Dual softmax computes the scores three times: for the column max, for the
    column sums, and for the block itself."""
    q, c = _pair(queries, candidates)
    if alpha is not None:
        _check_alpha(alpha)
    _check_square((len(q), len(c)), "paired evaluation")
    n = len(q)
    rows = max(2, BLOCK_ELEMS // max(n, 1))
    blocks = _row_blocks(n, rows)
    buf = np.empty((min(rows + 1, n), n))
    scratch = np.empty_like(buf)

    def scores(a, b):
        z = similarity(q[a:b], c, out=buf[:b - a])
        if alpha is not None:
            z *= alpha
        return z

    if alpha is not None:
        colmax = np.full(n, -np.inf)
        for a, b in blocks:
            np.maximum(colmax, scores(a, b).max(axis=0), out=colmax)
        colsum = np.zeros(n)
        for a, b in blocks:
            # row by row in index order: the order of numpy's axis-0 sum
            for e in _exp_shifted(scores(a, b), colmax, scratch[:b - a]):
                colsum += e
    for a, b in blocks:
        z = scores(a, b)
        if alpha is not None:
            z = _dual_softmax_rows(z, colmax, colsum, scratch[:b - a])
        yield a, z


def paired_ranks(queries: np.ndarray, candidates: np.ndarray,
                 alpha: float | None = None) -> np.ndarray:
    """ranks(similarity(queries, candidates)), or the ranks of its
    dual_softmax with this alpha, computed one block of rows at a time: about
    BLOCK_ELEMS scores and at least two rows per block. Equal to the
    full-matrix ranks wherever BLAS rounds each block's product as it rounds
    the full one (exactly representable products always; OpenBLAS 0.3.31 at
    Q = 1k and 5k); otherwise near-ties may rank differently."""
    q, c = _pair(queries, candidates)
    r = np.empty(len(q), dtype=np.int64)
    for start, z in _score_blocks(q, c, alpha):
        r[start:start + len(z)] = _rank_rows(z, start)
    return r


def metrics_from_ranks(r: np.ndarray) -> RetrievalReport:
    r = np.asarray(r)
    if r.ndim != 1 or len(r) == 0 or (r < 1).any():
        raise ValueError("ranks must be a non-empty 1-D array of values >= 1")
    q = len(r)

    def recall(k):
        return 100.0 * float((r <= k).sum()) / q

    r1, r5, r10 = recall(1), recall(5), recall(10)
    order = np.sort(r)
    mdr = float(order[(q - 1) // 2])   # lower of the two middles for even Q
    return RetrievalReport(r1, r5, r10, (r1 + r5 + r10) / 3.0, mdr,
                           float(r.mean()))


def evaluate(s: np.ndarray) -> RetrievalReport:
    return metrics_from_ranks(ranks(s))
