import itertools
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hta import retrieval
from hta.oracles import brute_force_ranks
from hta.retrieval import (_dual_softmax_rows, _map_blocks, _rank_keys, _rank_rows,
                           _row_blocks, dual_softmax, metrics_from_ranks, paired_ranks,
                           ranks, similarity)


def test_similarity_is_plain_inner_product():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(3, 5))
    c = rng.normal(size=(4, 5))
    assert np.allclose(similarity(q, c), q @ c.T)
    with pytest.raises(ValueError):
        similarity(q, rng.normal(size=(4, 6)))


def test_ranks_hand_worked_2x2():
    s = np.array([[0.7071, 0.0], [0.7071, 1.0]])
    assert ranks(s).tolist() == [1, 1]
    # ties against the true match count as losses (pessimistic)
    s = np.array([[0.5, 0.5], [0.1, 0.2]])
    assert ranks(s).tolist() == [2, 1]


def test_ranks_permutation_equivariance():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(6, 6))
    perm = rng.permutation(6)
    permuted = s[np.ix_(perm, perm)]
    assert np.array_equal(ranks(permuted), ranks(s)[perm])


def test_ranks_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(7, 7))
    assert np.array_equal(ranks(np.tanh(s) * 3 + 1), ranks(s))


def test_metrics_from_ranks_fixture():
    rep = metrics_from_ranks(np.array([1, 2, 6]))
    assert rep["R@1"] == pytest.approx(100 / 3, abs=1e-9)
    assert rep["R@5"] == pytest.approx(200 / 3, abs=1e-9)
    assert rep["R@10"] == pytest.approx(100.0)
    assert rep["MdR"] == 2
    assert rep["MnR"] == pytest.approx(3.0)


def test_mdr_even_count_takes_lower_middle():
    assert metrics_from_ranks(np.array([1, 2, 3, 10]))["MdR"] == 2
    assert metrics_from_ranks(np.array([4, 4]))["MdR"] == 4


def test_evaluate_perfect_and_worst_case():
    rep = metrics_from_ranks(ranks(np.eye(5)))
    assert (rep["R@1"], rep["R@5"], rep["R@10"]) == (100.0, 100.0, 100.0)
    assert rep["MdR"] == 1 and rep["MnR"] == 1.0
    rep = metrics_from_ranks(ranks(-np.eye(5)))  # diagonal strictly worst
    assert rep["R@1"] == 0.0 and rep["MnR"] == 5.0


def test_evaluate_requires_square():
    with pytest.raises(ValueError):
        ranks(np.zeros((2, 3)))


def test_report_keys_in_eval_order():
    d = metrics_from_ranks(ranks(np.eye(2)))
    assert list(d) == ["R@1", "R@5", "R@10", "Avg", "MdR", "MnR"]
    assert d["Avg"] == pytest.approx((d["R@1"] + d["R@5"] + d["R@10"]) / 3)


def test_dual_softmax_1x1_is_one():
    assert np.allclose(dual_softmax(np.array([[3.7]])), [[1.0]])


def test_dual_softmax_row_col_product():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(4, 4))
    alpha = 2.5
    r = np.exp(alpha * s)
    row = r / r.sum(axis=1, keepdims=True)
    col = r / r.sum(axis=0, keepdims=True)
    assert np.allclose(dual_softmax(s, alpha), row * col, atol=1e-12)


def test_dual_softmax_preserves_dominant_diagonal():
    rng = np.random.default_rng(5)
    s = rng.uniform(0, 0.6, size=(4, 4))
    np.fill_diagonal(s, 0.9)   # margin 0.3 > 0.2
    r = ranks(dual_softmax(s, alpha=100.0))
    assert (r == 1).all()
    assert metrics_from_ranks(r)["R@1"] == 100.0


def test_dual_softmax_can_change_ranks():
    # a column-hub candidate gets suppressed by the column softmax
    s = np.array([[1.0, 0.95, 0.0],
                  [0.2, 0.90, 0.0],
                  [0.1, 0.85, 0.3]])
    plain = metrics_from_ranks(ranks(s))
    dsl = metrics_from_ranks(ranks(dual_softmax(s, alpha=10.0)))
    assert dsl["MnR"] <= plain["MnR"]


# -- blocked ranking ---------------------------------------------------------


def grid_pair(seed: int, q: int, dups: int):
    """Queries and candidates with entries in multiples of 1/4, so every dot
    product is exact and the scores do not depend on how BLAS splits the
    product. `dups` candidate rows copy others, so scores tie."""
    rng = np.random.default_rng(seed)
    queries = rng.integers(-3, 4, size=(q, 8)) / 4.0
    candidates = rng.integers(-3, 4, size=(q, 8)) / 4.0
    for _ in range(dups):
        i, j = rng.integers(0, q, size=2)
        candidates[i] = candidates[j]
    return queries, candidates


def unit_pair(seed: int, q: int):
    """Text and video rows as the benchmark's Q = 5k input draws them: unit
    video rows v, and text rows v + 1.5 * noise, normalized."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(q, 32))
    t = v + 1.5 * rng.normal(size=v.shape)
    return tuple(x / np.linalg.norm(x, axis=1, keepdims=True) for x in (t, v))


def recording(real, calls):
    """A stand-in for the function that scores a block, real: _rank_rows
    ranks rows of S or of its dual softmax given their ground-truth columns,
    _rank_keys compares the blocks of alpha*S by their keys from a start
    row. It records (those columns or that start, block) in `calls`."""
    def record(z, at, *args):
        calls.append((at, z.copy()))
        return real(z, at, *args)
    return record


def scored_blocks(queries, candidates, alpha):
    """paired_ranks(queries, candidates, alpha) and the blocks it scored,
    as (start, block) sorted by start: the blocks _rank_keys compares when
    the keys rank, else those _rank_rows ranks. When the keys rank, each
    call of _rank_rows ranks exact rows, which must be bitwise those of
    dual_softmax that it ranks."""
    by_rows, by_keys = [], []
    with mock.patch.object(retrieval, "_rank_rows",
                           side_effect=recording(_rank_rows, by_rows)), \
            mock.patch.object(retrieval, "_rank_keys",
                              side_effect=recording(_rank_keys, by_keys)):
        got = paired_ranks(queries, candidates, alpha)
    if by_keys:
        p = dual_softmax(similarity(queries, candidates), alpha)
        assert all(np.array_equal(rows, p[truth]) for truth, rows in by_rows)
    blocks = by_keys or [(int(truth[0]), z) for truth, z in by_rows]
    return got, sorted(blocks, key=lambda blk: blk[0]), bool(by_keys)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 5),
       shape=st.sampled_from(["1", "2", "rows-1", "rows", "rows+1", "2rows+1",
                              "1000", "1352"]),
       alpha=st.none() | st.floats(0.5, 200.0), dups=st.integers(0, 20))
def test_paired_ranks_equal_full_matrix_reference(seed, rows, shape, alpha, dups):
    # small shapes run with blocks of `rows` rows; 1000 and 1352 give each
    # thread the one-thread block size (262 and 193 rows; at 1352 the one-row
    # tail joins the last block). The threads share the budget, so it is
    # scaled by the number of cores, which bounds theirs.
    q = {"1": 1, "2": 2, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
         "2rows+1": 2 * rows + 1, "1000": 1000, "1352": 1352}[shape]
    q = max(q, 1)
    block = retrieval.BLOCK_ELEMS if q >= 1000 else rows * q
    # With alpha, the blocks scored are those of alpha*S that the key pass
    # compares, and whose rows the exact path re-scores; or, where most
    # ground-truth products could be subnormal, the dual-softmax blocks.
    queries, candidates = grid_pair(seed, q, dups)
    s = similarity(queries, candidates)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", block * retrieval.usable_cores()):
        got, blocks, keyed = scored_blocks(queries, candidates, alpha)
    assert np.array_equal(got, ranks(s if alpha is None else dual_softmax(s, alpha)))
    assert [a for a, _ in blocks] == [a for a, _ in _row_blocks(q, max(2, block // q))]
    assert all(len(z) >= 2 for _, z in blocks) or q == 1
    want = s if alpha is None else alpha * s if keyed else dual_softmax(s, alpha)
    assert np.array_equal(np.concatenate([z for _, z in blocks]), want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 8),
       q=st.sampled_from([2, 3, 9, 17, 25, 41]) | st.integers(2, 80),
       workers=st.integers(2, 5), alpha=st.none() | st.floats(0.5, 1000.0),
       dups=st.integers(0, 20))
def test_paired_ranks_do_not_depend_on_the_thread_count(seed, rows, q, workers,
                                                        alpha, dups):
    # one budget of `rows` rows per block on one core, whatever the thread
    # count; q % rows == 1 leaves a one-row tail to join
    queries, candidates = grid_pair(seed, q, dups)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", rows * q), \
            mock.patch.object(retrieval, "usable_cores", lambda: 1):
        with mock.patch.object(retrieval, "_workers", lambda: 1):
            one = paired_ranks(queries, candidates, alpha)
        with mock.patch.object(retrieval, "_workers", lambda: workers):
            several = paired_ranks(queries, candidates, alpha)
    assert np.array_equal(one, several)


@pytest.mark.parametrize("alpha", [None, 100.0])
def test_scored_blocks_do_not_depend_on_the_thread_count(alpha):
    # at Q = 363, blocks sized by the thread count (one 363-row block on one
    # thread, 361 + 2 rows on two) round scores differently in the last ulp
    # (566 of them on OpenBLAS 0.3.31 at 1 BLAS thread), which flips
    # near-ties. With alpha, the dual-softmax blocks of these rows, most of
    # whose ground-truth products could be subnormal, are recorded, and the
    # key pass's blocks of the same rows normalized.
    rng = np.random.default_rng(0)
    queries, candidates = rng.normal(size=(363, 32)), rng.normal(size=(363, 32))
    inputs = [(queries, candidates, False)]
    if alpha is not None:
        inputs.append((*(x / np.linalg.norm(x, axis=1, keepdims=True)
                         for x in (queries, candidates)), True))
    for queries, candidates, by_keys in inputs:
        scored = {}
        for workers in (1, 2):
            with mock.patch.object(retrieval, "_workers", lambda: workers):
                _, scored[workers], keyed = scored_blocks(queries, candidates, alpha)
            assert keyed == by_keys
        assert [a for a, _ in scored[1]] == [a for a, _ in scored[2]]
        assert all(np.array_equal(z1, z2)
                   for (_, z1), (_, z2) in zip(scored[1], scored[2]))


@pytest.mark.parametrize("env, cores, want", [
    ({}, 4, 1),                                 # BLAS threads on every core
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
    ({"MKL_NUM_THREADS": "1"}, 2, 2),
    ({"OMP_NUM_THREADS": "1"}, 1, 1),           # e.g. taskset -c 0
    ({"OMP_NUM_THREADS": "8"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),      # 0 means every core
])
def test_workers_share_the_cores_with_blas(monkeypatch, env, cores, want):
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(retrieval.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    assert retrieval._workers() == want


def run_bounded(fn, *args):
    """fn(*args) on a thread joined with a timeout, so a deadlock fails the
    test instead of hanging it; returns the exception fn raised, or None."""
    raised = []

    def target():
        try:
            fn(*args)
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), f"{fn.__name__} did not return"
    return raised[0] if raised else None


def test_map_blocks_runs_every_block_once():
    """More threads than cores and a short switch interval: every block runs
    once."""
    blocks = _row_blocks(400, 2)
    seen = []

    def work(a, b):
        time.sleep(0.0005 * (a % 3))    # blocks finish out of order
        seen.append((a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_bounded(_map_blocks, blocks, 8, work) is None
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == blocks


def test_exact_column_blocks_run_once_under_contention():
    """More threads than cores, a short switch interval and slow products:
    every candidate has a twin, so row blocks on every thread need the
    column statistics at once. The first runs the column blocks on every
    thread while the others wait on the lock; each block runs once, and the
    ranks are those of one thread."""
    queries, candidates = unit_pair(4, 60)
    candidates[1::2] = candidates[::2]

    def slow(*args):
        time.sleep(0.0005)
        return similarity(*args)

    ranked = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # 8 threads first, so that no earlier call's column statistics lie in
        # the memory np.empty hands out
        for workers in (8, 1):
            with mock.patch.object(retrieval, "BLOCK_ELEMS", 2 * 60), \
                    mock.patch.object(retrieval, "usable_cores", lambda: 1), \
                    mock.patch.object(retrieval, "_workers", lambda: workers), \
                    mock.patch.object(retrieval, "similarity", side_effect=slow) as sim:
                assert run_bounded(lambda: ranked.update(
                    {workers: paired_ranks(queries, candidates, 100.0)})) is None
            assert len(sim.call_args_list) == 3 * len(_row_blocks(60, 2))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(ranked[1], ranked[8])
    s = similarity(queries, candidates)
    assert np.array_equal(ranked[1], ranks(dual_softmax(s, 100.0)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha, passes", [(None, 1), (100.0, 2)])
def test_dual_softmax_computes_the_scores_twice(workers, alpha, passes):
    # one pass of column blocks for the key columns, one of row blocks; the
    # input has no near-tie and no product near underflow, so no row is exact
    queries, candidates = unit_pair(2, 50)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", 12 * 50), \
            mock.patch.object(retrieval, "_workers", lambda: workers), \
            mock.patch.object(retrieval, "usable_cores", lambda: workers), \
            mock.patch.object(retrieval, "similarity", wraps=similarity) as sim:
        paired_ranks(queries, candidates, alpha)
    # call_args_list, not call_count: its append does not race between threads
    assert len(sim.call_args_list) == passes * len(_row_blocks(50, 12 // workers))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["duplicate", "underflow", "most underflow"])
def test_exact_rows_score_every_column_block_once(workers, case):
    # a duplicated candidate puts rows 7 and 31 on the exact path; at
    # alpha = 300, so do their ground-truth products, which underflow when
    # their candidates are their queries negated. Either way the exact path
    # scores every column block once, and re-scores each row in the call for
    # its row block. At alpha = 1e5 most ground-truth products could
    # underflow, and every row takes the two exact passes, with no key pass.
    queries, candidates = unit_pair(2, 50)
    if case == "duplicate":
        candidates[31] = candidates[7]
    if case == "underflow":
        candidates[[7, 31]] = -queries[[7, 31]]
    alpha = {"duplicate": 100.0, "underflow": 300.0, "most underflow": 1e5}[case]
    blocks = _row_blocks(50, 12 // workers)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", 12 * 50), \
            mock.patch.object(retrieval, "_workers", lambda: workers), \
            mock.patch.object(retrieval, "usable_cores", lambda: workers), \
            mock.patch.object(retrieval, "similarity", wraps=similarity) as sim, \
            mock.patch.object(retrieval, "_rank_keys", wraps=_rank_keys) as keyed, \
            mock.patch.object(retrieval, "_dual_softmax_rows",
                              wraps=_dual_softmax_rows) as exact:
        got = paired_ranks(queries, candidates, alpha)
    assert np.array_equal(got, ranks(dual_softmax(similarity(queries, candidates),
                                                  alpha)))
    passes = 2 if case == "most underflow" else 3
    assert len(sim.call_args_list) == passes * len(blocks)
    if case == "most underflow":
        assert not keyed.call_args_list
        assert len(exact.call_args_list) == len(blocks)
    else:
        assert len(keyed.call_args_list) == len(blocks)
        assert [len(z) for (z, *_), _ in exact.call_args_list] == [1, 1]


def nudge(rng, s, frac):
    """s with a share `frac` of its entries moved 1 to 4 ulps up or down."""
    s = s.copy()
    pick = rng.random(s.shape) < frac
    steps = rng.integers(1, 5, size=s.shape)
    toward = np.where(rng.random(s.shape) < 0.5, -np.inf, np.inf)
    for k in range(1, 5):
        at = pick & (steps >= k)
        s[at] = np.nextafter(s[at], toward[at])
    return s


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 300), rows=st.integers(2, 9),
       workers=st.sampled_from([1, 3]), log_scale=st.floats(-3, 6),
       log_alpha=st.floats(-1, 5), huge=st.booleans(), dups=st.integers(0, 30),
       frac=st.sampled_from([0.0, 0.05, 0.5]))
def test_paired_ranks_equal_dual_softmax_ranks_exactly(seed, q, rows, workers, log_scale,
                                                       log_alpha, huge, dups, frac):
    # s @ I = s, so no BLAS rounding enters: keys and the exact path rank as
    # the reference does, through duplicated rows and columns, ulp-near
    # ties, zero and subnormal products, and alpha*S near 1e307
    rng = np.random.default_rng(seed)
    alpha = 10.0 ** log_alpha
    s = rng.normal(size=(q, q)) * 10.0 ** log_scale
    if huge:
        s = s / np.abs(s).max() * (1e307 / alpha)
    for _ in range(dups):
        i, j = rng.integers(0, q, size=2)
        if rng.random() < 0.5:
            s[i] = s[j]
        else:
            s[:, i] = s[:, j]
    s = nudge(rng, s, frac)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", rows * q), \
            mock.patch.object(retrieval, "usable_cores", lambda: 1), \
            mock.patch.object(retrieval, "_workers", lambda: workers):
        got = paired_ranks(s, np.eye(q), alpha)
    assert np.array_equal(got, ranks(dual_softmax(s, alpha)))


@pytest.mark.parametrize("reason", ["near-tie", "underflow", "most underflow",
                                    "overflow"])
def test_each_exact_path_ranks_as_the_reference(reason):
    # one input for each reason a row leaves the keys: a 1-ulp near-tie (rows
    # 5 and 9 see two copies of one column) and three ground-truth products
    # that underflow (rows 3, 17 and 30) send those rows to the exact path;
    # ground-truth products that could underflow in most rows, and keys that
    # could overflow, send every row, with no key pass
    rng = np.random.default_rng(11)
    s = rng.uniform(0, 0.1, size=(40, 40))
    alpha = {"near-tie": 100.0, "underflow": 400.0}.get(reason, 1e5)
    if reason == "near-tie":
        s[:, 9] = np.nextafter(s[:, 5], 1.0)
    if reason == "underflow":
        s = np.eye(40) + s / 10
        s[[3, 17, 30], [3, 17, 30]] = -1.0
    if reason == "overflow":
        s = s / s.max() * (1e307 / alpha)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", 4 * 40), \
            mock.patch.object(retrieval, "usable_cores", lambda: 1), \
            mock.patch.object(retrieval, "_rank_keys", wraps=_rank_keys) as keyed, \
            mock.patch.object(retrieval, "_dual_softmax_rows",
                              wraps=_dual_softmax_rows) as exact:
        got = paired_ranks(s, np.eye(40), alpha)
    assert np.array_equal(got, ranks(dual_softmax(s, alpha)))
    blocks = len(_row_blocks(40, 4))
    exact_rows = {"near-tie": [5, 9], "underflow": [3, 17, 30]}.get(reason)
    if exact_rows is None:          # no key pass, one exact call per row block
        assert not keyed.call_args_list
        assert len(exact.call_args_list) == blocks
    else:                           # one exact call per block of exact rows
        assert len(keyed.call_args_list) == blocks
        assert [len(z) for (z, *_), _ in exact.call_args_list] == [1] * len(exact_rows)


@pytest.mark.parametrize("direction", ["t2v", "v2t"])
def test_benchmark_input_takes_no_exact_row(direction):
    text, video = unit_pair(3, 1000)
    queries, candidates = (text, video) if direction == "t2v" else (video, text)
    with mock.patch.object(retrieval, "_dual_softmax_rows",
                           wraps=_dual_softmax_rows) as exact:
        paired_ranks(queries, candidates, 100.0)
    assert not exact.call_args_list


@pytest.mark.parametrize("fail_at", ["scores", "unordered", "columns"])
def test_no_thread_outlives_a_call(fail_at):
    """A call that raises in any pass, in any thread, still joins every
    thread, those of the column pass that a row block starts included."""
    queries, candidates = grid_pair(1, 60, 0)
    before = threading.active_count()
    calls = 0

    def work(a, b):
        nonlocal calls
        calls += 1
        if a == 20:
            raise RuntimeError("boom")

    products = itertools.count(1)      # next() on it is atomic across threads

    def column_fails(x, y):
        # the key pass makes one product per row block with the queries on
        # the right; the next such product is the column pass's first block
        if y is queries and next(products) == len(_row_blocks(60, 2)) + 1:
            time.sleep(0.05)            # the other row blocks reach the lock
            raise RuntimeError("column block")
        return similarity(x, y)

    with mock.patch.object(retrieval, "BLOCK_ELEMS", 2 * 60), \
            mock.patch.object(retrieval, "_workers", lambda: 4):
        assert run_bounded(paired_ranks, queries, candidates, 10.0) is None
        if fail_at == "scores":         # a late block's scores are non-finite
            bad = queries.copy()
            bad[57, 0] = np.nan
            exc = run_bounded(paired_ranks, bad, candidates, 10.0)
            assert isinstance(exc, ValueError) and "non-finite" in str(exc)
        elif fail_at == "unordered":    # a block's own work raises
            exc = run_bounded(_map_blocks, _row_blocks(60, 2), 4, work)
            assert isinstance(exc, RuntimeError)
            assert calls < 30               # the first error stops the rest
        else:                           # a column block raises while row blocks wait
            candidates[1::2] = candidates[::2]      # a twin in every row block
            with mock.patch.object(retrieval, "similarity", side_effect=column_fails):
                exc = run_bounded(paired_ranks, queries, candidates, 10.0)
            assert isinstance(exc, RuntimeError) and str(exc) == "column block"
    assert threading.active_count() == before


def test_paired_ranks_match_brute_force_with_ties():
    queries, candidates = grid_pair(0, 40, 15)
    s = similarity(queries, candidates)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", 3 * 40):
        assert np.array_equal(paired_ranks(queries, candidates), brute_force_ranks(s))
        assert np.array_equal(paired_ranks(queries, candidates, 2.0),
                              brute_force_ranks(dual_softmax(s, 2.0)))


def test_row_blocks_never_leave_a_single_row():
    assert _row_blocks(1, 2) == [(0, 1)]
    assert _row_blocks(5, 2) == [(0, 2), (2, 5)]
    assert _row_blocks(6, 2) == [(0, 2), (2, 4), (4, 6)]
    assert _row_blocks(0, 2) == []


@pytest.mark.parametrize("alpha", [None, 100.0])
def test_paired_ranks_errors(alpha):
    rng = np.random.default_rng(6)
    q, c = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    with pytest.raises(ValueError, match="dims differ"):
        paired_ranks(q, rng.normal(size=(4, 5)), alpha)
    with pytest.raises(ValueError, match="square"):
        paired_ranks(q, c[:3], alpha)
    for bad in (np.nan, np.inf):
        q2 = q.copy()
        q2[2, 1] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            paired_ranks(q2, c, alpha)
    assert paired_ranks(q[:0], c[:0], alpha).shape == (0,)
    with pytest.raises(ValueError):
        metrics_from_ranks(paired_ranks(q[:0], c[:0], alpha))
    with pytest.raises(ValueError):
        paired_ranks(np.zeros(3), c, alpha)     # not a matrix


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_paired_ranks_rejects_non_positive_alpha(alpha):
    q = np.eye(3)
    with pytest.raises(ValueError, match="alpha"):
        paired_ranks(q, q, alpha)


def test_paired_ranks_non_finite_dual_softmax_raises():
    q = np.eye(3) * 2.0     # alpha * S overflows to inf, exp gives NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            ranks(dual_softmax(similarity(q, q), 1e308))
        with pytest.raises(ValueError, match="non-finite"):
            paired_ranks(q, q, 1e308)


@pytest.mark.parametrize("alpha, s01", [(None, "-inf"), (100.0, "-inf"),
                                        (1e10, "-1e300")])
def test_paired_ranks_reject_scores_that_overflow(alpha, s01):
    # S[0, 1] (or alpha * S[0, 1]) is -inf, which the dual softmax's exp would
    # turn into a finite 0: blocks are checked before re-scoring too
    big = 1e200 if s01 == "-inf" else 1e150
    q = np.array([[big, 1.0], [0.0, 1.0], [0.0, 2.0]])
    c = np.array([[1.0, 0.0], [-big, 1.0], [0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        paired_ranks(q, c, alpha)


def test_paired_ranks_memory_is_o_block():
    q = 3000
    rng = np.random.default_rng(7)
    queries, candidates = rng.normal(size=(q, 32)), rng.normal(size=(q, 32))
    tracemalloc.start()
    try:
        paired_ranks(queries, candidates, 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < q * q * 8 / 10, f"peak {peak} bytes"


def test_exact_rows_memory_is_o_block(monkeypatch):
    # one candidate repeated: every row's keys tie, so every row leaves the
    # keys for the exact path, block by block
    q = 3000
    queries, candidates = unit_pair(7, q)
    candidates[:] = candidates[0]
    exact_rows = []

    def counting(z, *args):         # a Mock would keep every block alive
        exact_rows.append(len(z))
        return _dual_softmax_rows(z, *args)

    monkeypatch.setattr(retrieval, "_dual_softmax_rows", counting)
    tracemalloc.start()
    try:
        paired_ranks(queries, candidates, 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(exact_rows) == q
    assert peak < q * q * 8 / 10, f"peak {peak} bytes"


@pytest.mark.parametrize("workers", [2, 4])
def test_paired_ranks_threads_share_one_memory_budget(workers):
    q = 3000
    rng = np.random.default_rng(7)
    queries, candidates = rng.normal(size=(q, 32)), rng.normal(size=(q, 32))
    with mock.patch.object(retrieval, "_workers", lambda: workers), \
            mock.patch.object(retrieval, "usable_cores", lambda: workers):
        tracemalloc.start()
        try:
            paired_ranks(queries, candidates, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < q * q * 8 / 10, f"peak {peak} bytes"
