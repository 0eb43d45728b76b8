"""Similarity, dual-softmax re-scoring, and retrieval metrics (R@K, MdR, MnR).

Ground truth is the diagonal of a square similarity matrix. Ranks break ties
pessimistically: a candidate tying with the ground-truth score counts ahead
of it.

`similarity`, `dual_softmax` and `ranks` work on the full Q x Q matrix and
are the reference. `paired_ranks` ranks from the embeddings one
block of rows at a time (dual softmax takes its column statistics from blocks
of columns first), on one thread per core that BLAS leaves free, with one
O(block) memory budget shared by the threads; `hta eval` uses it. Its ranks
do not depend on the number of threads. Both paths share the tie rule and the
softmax steps below. A block's scores can differ from the full product's in
the last ulp where BLAS splits the product differently, and blocks shrink as
threads are added, so near-ties may rank differently from the reference.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import usable_cores

# Scores in flight in `paired_ranks`, shared by its threads: 2 MB of float64.
# Thinner blocks reread the candidates more often: at Q = 5k on two threads,
# 26-row blocks ranked about 18% faster than 13-row ones (2-vCPU Xeon,
# OpenBLAS at 1 thread).
BLOCK_ELEMS = 1 << 18


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


def _check_finite(s: np.ndarray) -> None:
    if not np.isfinite(s).all():
        raise ValueError("similarity matrix contains non-finite entries")


def _rank_rows(s: np.ndarray, start: int) -> np.ndarray:
    """Pessimistic ranks of rows `start`.. of a score matrix, given as the
    block s whose row i has its ground truth in column start + i: every score
    >= the ground truth counts, the ground truth itself included."""
    _check_finite(s)
    i = np.arange(len(s))
    return np.count_nonzero(s >= s[i, start + i][:, None], axis=1)


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


def _workers() -> int:
    """Threads for the row blocks: usable_cores(), divided by the threads
    each BLAS product starts. OpenBLAS and MKL read that count from these
    variables when they load and use every core without them, so an unpinned
    BLAS leaves one thread. (On a 2-core host with OpenBLAS on both cores,
    two threads made Q = 5k dual-softmax ranking about 1.5x slower: each
    thread's BLAS threads spin on the cores the other needs.)"""
    cores = usable_cores()
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def _map_blocks(blocks: list[tuple[int, int]], size: int, workers: int, work) -> None:
    """Call work(a, b, buf, scratch) for each block [a, b), on up to `workers`
    threads, the caller's included. Each thread reuses two flat buffers of
    `size` elements. The first error stops every thread, and it is raised once
    all of them have ended."""
    lock = threading.Lock()
    todo, error = iter(blocks), None

    def run():
        nonlocal error
        buf, scratch = np.empty((2, size))
        try:
            while True:
                with lock:
                    block = next(todo, None)
                    if block is None or error is not None:
                        return
                work(*block, buf, scratch)
        except BaseException as exc:
            with lock:
                if error is None:
                    error = exc

    threads = [threading.Thread(target=run)
               for _ in range(min(workers, len(blocks)) - 1)]
    try:
        for t in threads:
            t.start()
        run()
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    if error is not None:
        raise error


def _score_blocks(queries, candidates, alpha: float | None, use) -> None:
    """Call use(start, block) for the row blocks of similarity(queries,
    candidates), or of its dual_softmax when alpha is given, equal to the rows
    of the full matrix. Calls come from several threads at once, and each
    block is a view into a buffer that its thread reuses. Dual softmax first
    takes the column max and column sums from column blocks, alpha times the
    transpose of similarity(candidates[a:b], queries), whose axis-0
    reductions add the rows in index order as dual_softmax does; so it
    computes the scores twice. Every block of either pass writes only its own
    slice, so no pass depends on the thread order."""
    q, c = _pair(queries, candidates)
    if alpha is not None:
        _check_alpha(alpha)
    _check_square((len(q), len(c)), "paired evaluation")
    n, workers = len(q), _workers()
    # the threads share one budget of BLOCK_ELEMS scores; a column block is as
    # wide as a row block is high, and no block is one row or column thin
    blocks = _row_blocks(n, max(2, BLOCK_ELEMS // max(workers * n, 1)))
    size = n * max((b - a for a, b in blocks), default=0)

    if alpha is not None:
        colmax, colsum = np.empty(n), np.empty(n)

        def columns(a, b, buf, scratch):
            # rows a:b of S^T: BLAS rounds them as it rounds a row block
            zt = similarity(c[a:b], q, out=buf[:n * (b - a)].reshape(b - a, n))
            z = np.multiply(zt.T, alpha, out=scratch[:zt.size].reshape(n, b - a))
            _check_finite(z)          # also catches an alpha*S that overflows
            z.max(axis=0, out=colmax[a:b])
            _exp_shifted(z, colmax[a:b], z).sum(axis=0, out=colsum[a:b])

        _map_blocks(blocks, size, workers, columns)

    def rows(a, b, buf, scratch):
        z = similarity(q[a:b], c, out=buf[:n * (b - a)].reshape(b - a, n))
        if alpha is not None:
            z *= alpha
            z = _dual_softmax_rows(z, colmax, colsum, scratch[:z.size].reshape(z.shape))
        use(a, z)

    _map_blocks(blocks, size, workers, rows)


def paired_ranks(queries: np.ndarray, candidates: np.ndarray,
                 alpha: float | None = None) -> np.ndarray:
    """ranks(similarity(queries, candidates)), or the ranks of its
    dual_softmax with this alpha, from blocks of at least two rows (or, for
    the column statistics, columns) on _workers() threads, about BLOCK_ELEMS
    scores in flight in all. The ranks do not depend on the number of threads.
    They equal the full-matrix ranks wherever BLAS rounds each block's product
    as it rounds the full one: always for exactly representable products, and
    on OpenBLAS 0.3.31 at Q = 1k and 5k with 1, 2 and 4 threads. One column
    block that spans every column is the transposed product, which can differ
    in the last ulp (Q = 300, 363 and 500 on one thread). Otherwise near-ties
    may rank differently."""
    q, c = _pair(queries, candidates)
    r = np.empty(len(q), dtype=np.int64)

    def rank(start, z):
        r[start:start + len(z)] = _rank_rows(z, start)

    _score_blocks(q, c, alpha, rank)
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
