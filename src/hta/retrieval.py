"""Similarity, dual-softmax re-scoring, and retrieval metrics (R@K, MdR, MnR).

Ground truth is the diagonal of a square similarity matrix. Ranks break ties
pessimistically: a candidate tying with the ground-truth score counts ahead
of it.

`similarity`, `dual_softmax`, `ranks` and `evaluate` work on the full Q x Q
matrix and are the reference. `paired_ranks` ranks from the embeddings one
block of rows at a time, on one thread per core that BLAS leaves free, with
one O(block) memory budget shared by the threads; `hta eval` uses it. Its
ranks do not depend on the number of threads. Both paths share the tie rule
and the softmax steps below. A block's scores can differ from the full
product's in the last ulp where BLAS splits the product differently, and
block rows shrink as threads are added, so near-ties may rank differently
from the reference.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

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
    """Threads for the row blocks: the cores this process may use, divided by
    the threads each BLAS product starts. OpenBLAS and MKL read that count
    from these variables when they load and use every core without them, so
    an unpinned BLAS leaves one thread. (On a 2-core host with OpenBLAS on
    both cores, two threads made Q = 5k dual-softmax ranking about 1.5x
    slower: each thread's BLAS threads spin on the cores the other needs.)"""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:              # not on macOS or Windows
        cores = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def _map_blocks(blocks: list[tuple[int, int]], width: int, workers: int,
                work, then=None) -> None:
    """Call work(a, b, buf, scratch) for each row block [a, b), on up to
    `workers` threads, the caller's included. Threads take blocks in order, and
    each reuses two buffers of the longest block's rows by `width` columns.
    then(out), if given, gets each block's result one at a time, in block
    order. The first error stops every thread, and it is raised once all of
    them have ended."""
    cond = threading.Condition()
    todo = iter(enumerate(blocks))
    turn, error = 0, None
    rows = max((b - a for a, b in blocks), default=0)

    def run():
        nonlocal turn, error
        buf, scratch = np.empty((2, rows, width))
        try:
            while True:
                with cond:
                    k, (a, b) = next(todo, (-1, (0, 0)))
                    if k < 0 or error is not None:
                        return
                out = work(a, b, buf, scratch)
                if then is not None:
                    with cond:
                        cond.wait_for(lambda: turn == k or error is not None)
                        if error is not None:
                            return
                    then(out)
                    with cond:
                        turn += 1
                        cond.notify_all()
        except BaseException as exc:
            with cond:
                if error is None:
                    error = exc
                cond.notify_all()

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
    block is a view into a buffer that its thread reuses. Dual softmax
    computes the scores three times: for the column max, for the column sums,
    and for the block itself. Every pass is exact in any thread order: maxima
    combine in any order, the column sums add blocks in block order, and each
    block of the last pass is independent of the others."""
    q, c = _pair(queries, candidates)
    if alpha is not None:
        _check_alpha(alpha)
    _check_square((len(q), len(c)), "paired evaluation")
    n, workers = len(q), _workers()
    # the threads share one budget of BLOCK_ELEMS scores
    blocks = _row_blocks(n, max(2, BLOCK_ELEMS // max(workers * n, 1)))

    def scores(a, b, buf):
        z = similarity(q[a:b], c, out=buf[:b - a])
        if alpha is not None:
            z *= alpha
        return z

    if alpha is not None:
        def block_max(a, b, buf, scratch):
            z = scores(a, b, buf)
            _check_finite(z)          # also catches an alpha*S that overflows
            return z.max(axis=0)

        def block_exp(a, b, buf, scratch):
            return _exp_shifted(scores(a, b, buf), colmax, scratch[:b - a])

        def add_rows(e):
            # the bits of `colsum += row` row by row in index order: row 0
            # takes the running sum, and numpy's axis-0 sum adds rows in order
            e[0] += colsum
            e.sum(axis=0, out=colsum)

        colmax, colsum = np.full(n, -np.inf), np.zeros(n)
        _map_blocks(blocks, n, workers, block_max,
                    lambda m: np.maximum(colmax, m, out=colmax))
        _map_blocks(blocks, n, workers, block_exp, add_rows)

    def score(a, b, buf, scratch):
        z = scores(a, b, buf)
        if alpha is not None:
            z = _dual_softmax_rows(z, colmax, colsum, scratch[:b - a])
        use(a, z)

    _map_blocks(blocks, n, workers, score)


def paired_ranks(queries: np.ndarray, candidates: np.ndarray,
                 alpha: float | None = None) -> np.ndarray:
    """ranks(similarity(queries, candidates)), or the ranks of its
    dual_softmax with this alpha, computed one block of rows at a time on
    _workers() threads: about BLOCK_ELEMS scores in flight in all and at
    least two rows per block. The ranks do not depend on the number of
    threads. They equal the full-matrix ranks wherever BLAS rounds each
    block's product as it rounds the full one (exactly representable
    products always; OpenBLAS 0.3.31 at Q = 1k and 5k with the block rows of
    1, 2 and 4 threads); otherwise near-ties may rank differently."""
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


def evaluate(s: np.ndarray) -> RetrievalReport:
    return metrics_from_ranks(ranks(s))
