"""Similarity, dual-softmax re-scoring, and retrieval metrics (R@K, MdR, MnR).

Ground truth is the diagonal of a square similarity matrix. Ranks break ties
pessimistically: a candidate tying with the ground-truth score counts ahead
of it.

`similarity`, `dual_softmax` and `ranks` work on the full Q x Q matrix and
are the reference. `paired_ranks` ranks from the embeddings one
block of rows at a time, on one thread per core that BLAS leaves free, with
one O(block) memory budget shared by the threads; `hta eval` uses it. Dual
softmax ranks a row by keys 2 alpha S_ij - w_j, with w_j the log of column
j's exp sum from a first pass over blocks of columns; only a row the keys
cannot settle (another key too close, or a product that could be
subnormal) is re-scored as `dual_softmax` does, by the same
`_dual_softmax_rows`, and every row is where the input has no keys. Its
blocks follow the core count, so its ranks do not depend on the number of
threads or the BLAS thread variables. `_rank_rows` holds the tie rule for
every path. A block's scores can differ from the full
product's in the last ulp where BLAS splits the product differently, and
blocks shrink as cores are added, so near-ties may rank differently from the
reference.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .config import usable_cores

# Scores in flight in `paired_ranks`, shared by its threads: 2 MB of float64.
# Thinner blocks reread the candidates more often: at Q = 5k on two threads,
# 26-row blocks ranked about 18% faster than 13-row ones (2-vCPU Xeon,
# OpenBLAS at 1 thread).
BLOCK_ELEMS = 1 << 18

LOG_TINY = np.log(np.finfo(np.float64).tiny)      # the least normal, 2^-1022


def _pair(queries, candidates) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    if q.ndim != 2 or c.ndim != 2 or q.shape[1] != c.shape[1]:
        raise ValueError(f"embedding dims differ: {q.shape} vs {c.shape}")
    return q, c


def similarity(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Pairwise dot products of unit-norm rows: [Q, D] x [C, D] -> [Q, C]."""
    q, c = _pair(queries, candidates)
    return q @ c.T


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < np.inf:                    # False for NaN too
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


def _check_square(shape: tuple, what: str) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} needs a square matrix, got {shape}")


def _dual_softmax_rows(z: np.ndarray, colmax: np.ndarray,
                       colsum: np.ndarray) -> np.ndarray:
    """Rows z of alpha*S, re-scored in place: row-softmax(z) times the
    column softmax, given the column max of alpha*S and the column sums of
    exp(alpha*S - colmax)."""
    col = z - colmax
    np.exp(col, out=col)
    col /= colsum
    z -= z.max(axis=1, keepdims=True)
    row = np.exp(z, out=z)
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
    colmax = z.max(axis=0)
    colsum = np.exp(z - colmax).sum(axis=0)
    return _dual_softmax_rows(z, colmax, colsum)


def _check_finite(s: np.ndarray) -> None:
    if not np.isfinite(s).all():
        raise ValueError("similarity matrix contains non-finite entries")


def _rank_rows(s: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Pessimistic ranks of the rows of a score block s whose row i has its
    ground truth in column truth[i]: every score >= the ground truth counts,
    the ground truth itself included."""
    _check_finite(s)
    return np.count_nonzero(s >= s[np.arange(len(s)), truth][:, None], axis=1)


def ranks(s: np.ndarray) -> np.ndarray:
    """Pessimistic rank of the diagonal entry within each row."""
    s = np.asarray(s, dtype=np.float64)
    _check_square(s.shape, "paired evaluation")
    return _rank_rows(s, np.arange(len(s)))


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


def _map_blocks(blocks: list[tuple[int, int]], workers: int, work) -> None:
    """Call work(a, b) for each block [a, b), on up to `workers` threads, the
    caller's included. The first error stops every thread, and it is raised
    once all of them have ended."""
    lock = threading.Lock()
    todo, error = iter(blocks), None

    def run():
        nonlocal error
        try:
            while True:
                with lock:
                    block = next(todo, None)
                    if block is None or error is not None:
                        return
                work(*block)
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


def _rank_keys(z: np.ndarray, start: int, half_w: np.ndarray,
               margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows `start`.. of alpha*S, given as the block z whose row i has its
    ground truth in column start + i, compared by their half keys
    z - half_w: per row, the number of half keys above the ground truth's by
    more than `margin`, and the number within `margin` of it, itself
    included."""
    h = z - half_w
    i = np.arange(len(z))
    d = h[i, start + i][:, None]
    above = np.count_nonzero(h > d + margin, axis=1)
    return above, np.count_nonzero(h >= d - margin, axis=1) - above


def paired_ranks(queries: np.ndarray, candidates: np.ndarray,
                 alpha: float | None = None) -> np.ndarray:
    """ranks(similarity(queries, candidates)), or ranks(dual_softmax(...,
    alpha)), from blocks of at least two rows (or columns) on _workers()
    threads, about BLOCK_ELEMS scores in flight in all.

    Dual softmax ranks by keys. With z = alpha*S, log p_ij = k_ij - m_i -
    log rho_i, where k_ij = 2 z_ij - w_j, w_j = log sum_k exp(z_kj), and the
    row max m_i and shifted exp sum rho_i are one number per row, so within
    a row the keys order the products. A first pass over column blocks,
    similarity(candidates[a:b], queries) as it comes, takes w; a second over
    row blocks compares half keys z - w/2 (k/2 exactly) without exp: a row's
    rank is 1 + the number of keys above its ground truth's by more than a
    margin that bounds how far the two computations round apart (see
    below). A row whose ground-truth product could be subnormal, or where
    another key lies within the margin, takes the exact path: its block's
    own scores re-scored over the whole row by _dual_softmax_rows, with the
    column max and sums of every column block. The first row block that
    needs them takes one lock and runs the column blocks on all the threads
    through _map_blocks; any other that needs them meanwhile waits on that
    lock. A column block is alpha times the transpose of
    similarity(candidates[a:b], queries), copied in C order so that the
    axis-0 reductions add the rows in index order as dual_softmax does. An
    input has no keys, and every row takes the exact path with no key pass,
    when the keys could overflow, a score is not finite, or a bound from the
    diagonal alone says that most ground-truth products could be subnormal.
    An alpha*S that overflows raises ValueError naming alpha.

    Every block writes only its own slice of w, the column statistics or the
    ranks, and the block height follows usable_cores(), not the thread
    count, so the ranks do not depend on the number of threads. They equal
    the full-matrix ranks wherever BLAS rounds each block's product as it
    rounds the full one: always for exactly representable products, and on
    OpenBLAS 0.3.31 at Q = 1k and 5k with 1, 2 and 4 threads. One column
    block that spans every column is the transposed product, which can
    differ in the last ulp (Q = 300, 363 and 500 on one core). Otherwise
    near-ties may rank differently."""
    q, c = _pair(queries, candidates)
    if alpha is not None:
        _check_alpha(alpha)
    _check_square((len(q), len(c)), "paired evaluation")
    n, workers = len(q), _workers()
    # one budget of BLOCK_ELEMS scores for as many threads as cores; a column
    # block is as wide as a row block is high, and none is one row or column thin
    blocks = _row_blocks(n, max(2, BLOCK_ELEMS // max(usable_cores() * n, 1)))
    r = np.empty(n, dtype=np.int64)
    if alpha is None:
        def plain(a, b):
            r[a:b] = _rank_rows(similarity(q[a:b], c), np.arange(a, b))

        _map_blocks(blocks, workers, plain)
        return r

    colmax, colsum = np.empty(n), np.empty(n)

    def columns(a, b):
        # rows a:b of S^T: BLAS rounds them as it rounds a row block
        with np.errstate(over="ignore"):          # an overflow is named below
            z = np.multiply(similarity(c[a:b], q).T, alpha, order="C")
        if not np.isfinite(z).all():
            _check_finite(similarity(c[a:b], q))  # S itself, else alpha*S overflowed
            raise ValueError(f"alpha = {alpha:g} overflows the dual softmax: "
                             "alpha * similarity has non-finite entries")
        z.max(axis=0, out=colmax[a:b])
        z -= colmax[a:b]
        np.exp(z, out=z).sum(axis=0, out=colsum[a:b])

    # Cauchy-Schwarz bounds every score of alpha*S, in any BLAS summation
    # order (D < 2^30), by `big`; it is NaN or inf for non-finite embeddings.
    with np.errstate(over="ignore"):
        norms = [float(np.sqrt(np.einsum("ij,ij->i", x, x).max(initial=0.0)))
                 for x in (q, c)]
    big = (1 + 2**-20) * alpha * norms[0] * norms[1]

    # The margin. Let u = 2^-53, M = big, and take numpy's exp and log within
    # 4 ulps (8 u). Against k_ij - m_i - log rho_i, with w_j exact on the
    # column blocks' scores, dual_softmax's log p_ij is off by at most
    # u (6 M + Q + 27): two exp arguments (2 u M each), two exps (8 u each),
    # the column sum (its Q terms and their order, (Q + 2 M + 8) u), two
    # divisions and the product (u each); rho_i is one number per row. The
    # key is off by at most u (6 M + 11 Q + 8): w's sum ((Q + 2 M + 8) u),
    # log (8 u log Q), shift (u (M + log Q)) and 2 z - w (u (3 M + log Q)),
    # with log Q <= Q. So where two keys differ by more than twice the sum,
    # 2 u (12 M + 12 Q + 35), the products compare as the keys do while both
    # are normal, and an entry whose key is lower is lower or subnormal. Half
    # keys z - w/2 are the keys halved exactly, and the thresholds d +- margin
    # round by at most u (2 M + Q): 64 u (M + Q + 8) leaves five times the
    # half of that sum.
    margin = 2**-47 * (big + n + 8)
    # 2 d - m_i below the floor: p_ii could be below 2^-1022
    log_n = np.log(max(n, 1))
    floor = LOG_TINY + log_n + 2 * margin
    keyed = 4 * big < np.inf     # else keys could overflow: every row is exact
    if keyed:
        # 2 d - m_i >= 2 (z_ii - big) - log Q, as w_i <= big + log Q and
        # m_i <= big: if most rows could fall below the floor, the keys would
        # send most rows to the exact path, and every row takes it at once
        low = 2 * (alpha * np.einsum("ij,ij->i", q, c) - big) - log_n < floor
        keyed = np.count_nonzero(low) <= n // 2
    half_w = np.empty(n)

    def keys(a, b):
        z = similarity(c[a:b], q)             # row j - a is column j of S
        z *= alpha
        top = z.max(axis=1, keepdims=True)
        z -= top
        half_w[a:b] = (top[:, 0] + np.log(np.exp(z, out=z).sum(axis=1))) / 2

    if keyed:
        _map_blocks(blocks, workers, keys)
    lock, ready = threading.Lock(), False

    def exact_columns():
        # the first row block to need the column statistics computes them on
        # every worker; any other that needs them meanwhile waits here, and
        # runs the pass again if it raised (the call raises the first error)
        nonlocal ready
        with lock:
            if not ready:
                _map_blocks(blocks, workers, columns)
                ready = True

    def rows(a, b):
        z = similarity(q[a:b], c)
        with np.errstate(over="ignore"):  # only without keys; columns() names it
            z *= alpha
        k = np.arange(b - a)                # without keys, every row is exact
        if keyed:
            above, near = _rank_keys(z, a, half_w, margin)
            r[a:b] = above + 1
            d = z[k, a + k] - half_w[a:b]
            # log p_ii >= 2 d - m_i - log Q to within the margin, and m_i <= big
            low = 2 * d - big < floor
            if low.any():
                low = 2 * d - z.max(axis=1) < floor     # p_ii could be subnormal
            # the exact path re-scores the block's own rows (a one-row product
            # would round otherwise): those with other keys within the margin,
            # and those whose products could be subnormal
            k = np.flatnonzero((near > 1) | low)
        if len(k):
            exact_columns()
            r[a + k] = _rank_rows(_dual_softmax_rows(z[k], colmax, colsum), a + k)

    _map_blocks(blocks, workers, rows)
    return r


def metrics_from_ranks(r: np.ndarray) -> dict[str, float]:
    """{"R@1", "R@5", "R@10", "Avg", "MdR", "MnR"}: recalls in percent, their
    mean, and the median and mean rank, as `hta eval` prints them."""
    r = np.asarray(r)
    if r.ndim != 1 or len(r) == 0 or (r < 1).any():
        raise ValueError("ranks must be a non-empty 1-D array of values >= 1")
    q = len(r)

    def recall(k):
        return 100.0 * float((r <= k).sum()) / q

    r1, r5, r10 = recall(1), recall(5), recall(10)
    order = np.sort(r)
    mdr = float(order[(q - 1) // 2])   # lower of the two middles for even Q
    return {"R@1": r1, "R@5": r5, "R@10": r10, "Avg": (r1 + r5 + r10) / 3.0,
            "MdR": mdr, "MnR": float(r.mean())}
