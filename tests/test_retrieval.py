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
from hta.retrieval import (_map_blocks, _row_blocks, _score_blocks, dual_softmax,
                           metrics_from_ranks, paired_ranks, ranks, similarity)


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
    assert rep.r1 == pytest.approx(100 / 3, abs=1e-9)
    assert rep.r5 == pytest.approx(200 / 3, abs=1e-9)
    assert rep.r10 == pytest.approx(100.0)
    assert rep.mdr == 2
    assert rep.mnr == pytest.approx(3.0)


def test_mdr_even_count_takes_lower_middle():
    assert metrics_from_ranks(np.array([1, 2, 3, 10])).mdr == 2
    assert metrics_from_ranks(np.array([4, 4])).mdr == 4


def test_evaluate_perfect_and_worst_case():
    rep = metrics_from_ranks(ranks(np.eye(5)))
    assert (rep.r1, rep.r5, rep.r10) == (100.0, 100.0, 100.0)
    assert rep.mdr == 1 and rep.mnr == 1.0
    rep = metrics_from_ranks(ranks(-np.eye(5)))  # diagonal strictly worst
    assert rep.r1 == 0.0 and rep.mnr == 5.0


def test_evaluate_requires_square():
    with pytest.raises(ValueError):
        ranks(np.zeros((2, 3)))


def test_report_as_dict_keys():
    d = metrics_from_ranks(ranks(np.eye(2))).as_dict()
    assert set(d) == {"R@1", "R@5", "R@10", "MdR", "MnR", "Avg"}
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
    assert metrics_from_ranks(r).r1 == 100.0


def test_dual_softmax_can_change_ranks():
    # a column-hub candidate gets suppressed by the column softmax
    s = np.array([[1.0, 0.95, 0.0],
                  [0.2, 0.90, 0.0],
                  [0.1, 0.85, 0.3]])
    plain = metrics_from_ranks(ranks(s))
    dsl = metrics_from_ranks(ranks(dual_softmax(s, alpha=10.0)))
    assert dsl.mnr <= plain.mnr


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 5),
       shape=st.sampled_from(["1", "2", "rows-1", "rows", "rows+1", "2rows+1",
                              "1000", "1352"]),
       alpha=st.none() | st.floats(0.5, 200.0), dups=st.integers(0, 20))
def test_paired_ranks_equal_full_matrix_reference(seed, rows, shape, alpha, dups):
    # small shapes run with blocks of `rows` rows; 1000 and 1352 give each
    # thread the one-thread block size (262 and 193 rows; at 1352 the one-row
    # tail joins the last block). The threads share the budget, so it is
    # scaled by their number.
    q = {"1": 1, "2": 2, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
         "2rows+1": 2 * rows + 1, "1000": 1000, "1352": 1352}[shape]
    q = max(q, 1)
    block = retrieval.BLOCK_ELEMS if q >= 1000 else rows * q
    queries, candidates = grid_pair(seed, q, dups)
    s = similarity(queries, candidates)
    full = s if alpha is None else dual_softmax(s, alpha)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", block * retrieval._workers()):
        got = paired_ranks(queries, candidates, alpha)
        blocks = []
        _score_blocks(queries, candidates, alpha,
                      lambda a, z: blocks.append((a, z.copy())))
        blocks.sort(key=lambda blk: blk[0])
    assert np.array_equal(got, ranks(full))
    assert [a for a, _ in blocks] == [a for a, _ in _row_blocks(q, max(2, block // q))]
    assert all(len(z) >= 2 for _, z in blocks) or q == 1
    assert np.array_equal(np.concatenate([z for _, z in blocks]), full)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 8),
       q=st.sampled_from([2, 3, 9, 17, 25, 41]) | st.integers(2, 80),
       workers=st.integers(2, 5), alpha=st.none() | st.floats(0.5, 1000.0),
       dups=st.integers(0, 20))
def test_paired_ranks_do_not_depend_on_the_thread_count(seed, rows, q, workers,
                                                        alpha, dups):
    # one budget of `rows` rows per block on one core: blocks shrink with the
    # thread count, and q % rows_per_block == 1 leaves a one-row tail to join
    queries, candidates = grid_pair(seed, q, dups)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", rows * q):
        with mock.patch.object(retrieval, "_workers", lambda: 1):
            one = paired_ranks(queries, candidates, alpha)
        with mock.patch.object(retrieval, "_workers", lambda: workers):
            several = paired_ranks(queries, candidates, alpha)
    assert np.array_equal(one, several)


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


def test_map_blocks_threads_keep_their_own_buffers():
    """More threads than cores and a short switch interval: every block runs
    once, on buffers of `size` elements, and what a block writes into its
    thread's two buffers is still there after other threads have run."""
    blocks = _row_blocks(400, 2)
    seen, clobbered = [], []

    def work(a, b, buf, scratch):
        buf[:], scratch[:] = a, -a - 1
        time.sleep(0.0005 * (a % 3))    # blocks finish out of order
        if buf.shape != (8,) or (buf != a).any() or (scratch != -a - 1).any():
            clobbered.append(a)
        seen.append((a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_bounded(_map_blocks, blocks, 8, 8, work) is None
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == blocks and clobbered == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha, passes", [(None, 1), (100.0, 2)])
def test_dual_softmax_computes_the_scores_twice(workers, alpha, passes):
    # one pass of column blocks for the column statistics, one of row blocks
    queries, candidates = grid_pair(2, 50, 0)
    with mock.patch.object(retrieval, "BLOCK_ELEMS", 12 * 50), \
            mock.patch.object(retrieval, "_workers", lambda: workers), \
            mock.patch.object(retrieval, "similarity", wraps=similarity) as sim:
        paired_ranks(queries, candidates, alpha)
    # call_args_list, not call_count: its append does not race between threads
    assert len(sim.call_args_list) == passes * len(_row_blocks(50, 12 // workers))


@pytest.mark.parametrize("fail_at", ["scores", "unordered"])
def test_no_thread_outlives_a_call(fail_at):
    """A call that raises in any pass, in any thread, still joins every
    thread."""
    queries, candidates = grid_pair(1, 60, 0)
    before = threading.active_count()
    calls = 0

    def work(a, b, buf, scratch):
        nonlocal calls
        calls += 1
        if a == 20:
            raise RuntimeError("boom")

    with mock.patch.object(retrieval, "BLOCK_ELEMS", 2 * 60), \
            mock.patch.object(retrieval, "_workers", lambda: 4):
        assert run_bounded(paired_ranks, queries, candidates, 10.0) is None
        if fail_at == "scores":         # a late block's scores are non-finite
            bad = queries.copy()
            bad[57, 0] = np.nan
            exc = run_bounded(paired_ranks, bad, candidates, 10.0)
            assert isinstance(exc, ValueError) and "non-finite" in str(exc)
        else:                           # a block's own work raises
            exc = run_bounded(_map_blocks, _row_blocks(60, 2), 120, 4, work)
            assert isinstance(exc, RuntimeError)
            assert calls < 30               # the first error stops the rest
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


@pytest.mark.parametrize("workers", [2, 4])
def test_paired_ranks_threads_share_one_memory_budget(workers):
    q = 3000
    rng = np.random.default_rng(7)
    queries, candidates = rng.normal(size=(q, 32)), rng.normal(size=(q, 32))
    with mock.patch.object(retrieval, "_workers", lambda: workers):
        tracemalloc.start()
        try:
            paired_ranks(queries, candidates, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < q * q * 8 / 10, f"peak {peak} bytes"
