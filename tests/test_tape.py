import json
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rel_err
from hta.alignment import AlignmentBatch, total_loss_node
from hta.masks import TokenLayout
from hta.selftest import check_masked_weights
from hta.tape import (GELU_BLOCK, LN_EPS, Tape, gelu_value, layer_norm_value,
                      masked_softmax_value)
from hta.towers import (TextTowerConfig, VideoTowerConfig, init_text_params,
                        init_video_params, register_params)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    t = Tape()
    out = t.bmm(t.constant(np.eye(2)), t.constant(a))
    assert np.array_equal(t.value(out), a)


def test_matmul_hand_example():
    t = Tape()
    out = t.bmm(t.constant([[1.0, 2.0], [3.0, 4.0]]),
                t.constant([[5.0], [6.0]]))
    assert np.array_equal(t.value(out), [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    a = t.constant(np.zeros((2, 3)))
    b = t.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        t.bmm(a, b)
    # 1-D operands are refused too, not left to fail in backward
    vec = t.constant(np.zeros(3))
    with pytest.raises(ValueError, match=r"\(3,\).*\(3, 2\)"):
        t.bmm(vec, t.constant(np.zeros((3, 2))))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
        t.bmm(a, vec)


def test_sum_matmul_grad_is_bt_broadcast():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    t = Tape()
    na = t.leaf(a)
    root = t.sum(t.bmm(na, t.constant(b)))
    g = t.backward(root)[na]
    # d sum(AB) / dA has B's row sums broadcast down the rows
    assert np.allclose(g, np.tile(b.sum(axis=1), (3, 1)))
    h = 1e-6
    for idx in [(0, 0), (2, 3), (1, 2)]:
        ap, am = a.copy(), a.copy()
        ap[idx] += h
        am[idx] -= h
        fd = ((ap @ b).sum() - (am @ b).sum()) / (2 * h)
        assert rel_err(fd, g[idx]) <= 1e-4


def test_linear_is_bitwise_matmul_plus_bias():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
    probe = rng.normal(size=(5, 4))
    _assert_same_rows(
        _value_and_grads(lambda t, n: t.linear(*n), [x, w, b], probe),
        _value_and_grads(lambda t, n: t.add(t.bmm(n[0], n[1]), n[2]), [x, w, b],
                         probe))
    t = Tape()
    with pytest.raises(ValueError, match=r"\(5, 3\).*\(4, 3\)"):
        t.linear(t.constant(x), t.constant(w.T), t.constant(b))
    # leading axes are flattened into the rows of the same GEMM
    x3 = rng.normal(size=(2, 5, 3))
    probe3 = rng.normal(size=(2, 5, 4))
    batched = _value_and_grads(lambda t, n: t.linear(*n), [x3, w, b], probe3)
    flat = _value_and_grads(lambda t, n: t.linear(*n), [x3.reshape(10, 3), w, b],
                            probe3.reshape(10, 4))
    _assert_same_rows(batched, flat)


def _value_and_grads(build, inputs, probe):
    """The value of build on leaves of `inputs` and the gradients of
    sum(value * probe) with respect to each leaf."""
    t = Tape()
    ids = [t.leaf(v) for v in inputs]
    out = build(t, ids)
    grads = t.backward(t.sum(t.mul(out, t.constant(probe))))
    return [t.value(out)] + [grads[i] for i in ids]


def _assert_same_rows(batched, flat):
    """Bitwise equal arrays, each of `batched` read in the shape of `flat`."""
    for got, want in zip(batched, flat):
        assert got.reshape(want.shape).tobytes() == want.tobytes()


# -- masked softmax -------------------------------------------------------


def test_masked_softmax_uniform():
    p = masked_softmax_value(np.zeros((1, 4)), np.zeros((1, 4), bool))
    assert np.allclose(p, 0.25)


def test_masked_softmax_blocks_middle():
    mask = np.array([[False, True, False]])
    p = masked_softmax_value(np.zeros((1, 3)), mask)
    assert np.allclose(p, [[0.5, 0.0, 0.5]])
    assert p[0, 1] == 0.0


def test_masked_softmax_stabilized():
    p = masked_softmax_value(np.array([[1000.0, 999.0]]), np.zeros((1, 2), bool))
    e = math.e
    assert np.allclose(p, [[e / (1 + e), 1 / (1 + e)]])
    assert np.isfinite(p).all()


@pytest.mark.parametrize("mask", [np.eye(3), np.eye(3, dtype=np.int64),
                                  np.zeros((3, 3))])
def test_masked_softmax_rejects_non_boolean_mask(mask):
    # a 0/1 "allowed" map would otherwise be read as "blocked" and inverted
    with pytest.raises(ValueError, match="boolean"):
        masked_softmax_value(np.zeros((3, 3)), mask)
    with pytest.raises(ValueError, match="boolean"):
        Tape().masked_softmax(Tape().constant(np.zeros((3, 3))), mask)


def test_masked_softmax_fully_masked_row_raises():
    mask = np.full((2, 3), True)
    mask[0] = False
    with pytest.raises(ValueError, match="row 1"):
        masked_softmax_value(np.zeros((2, 3)), mask)


def test_masked_softmax_broadcasts_mask_over_leading_axes():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2, 3, 4, 5))
    mask = _mask_for(rng, (4, 5))
    p = masked_softmax_value(logits, mask)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(p[i, j], masked_softmax_value(logits[i, j], mask))
    with pytest.raises(ValueError, match="does not match"):
        masked_softmax_value(logits, mask[:, :4])
    blocked = mask.copy()
    blocked[2] = True
    with pytest.raises(ValueError, match="row 2"):
        masked_softmax_value(logits, blocked)


def test_bmm_shape_error_names_both_shapes():
    t = Tape()
    a = t.constant(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
        t.bmm(a, t.constant(np.zeros((3, 4, 2))))
    with pytest.raises(ValueError, match="bmm"):
        t.bmm(a, t.constant(np.zeros((2, 3, 2))))


def test_masked_softmax_row_sums_and_exact_zeros():
    rng = np.random.default_rng(2)
    for _ in range(20):
        logits = rng.normal(size=(5, 7)) * 10
        allowed = rng.random((5, 7)) < 0.5
        allowed[:, 0] = True
        mask = ~allowed
        p = masked_softmax_value(logits, mask)
        assert check_masked_weights([("random mask", p, mask)]) is None


@pytest.mark.parametrize("blocked_logit", [np.inf, np.nan, 1e308])
def test_masked_softmax_ignores_blocked_logits(blocked_logit):
    # whatever a blocked entry holds, its weight is an exact zero, the allowed
    # weights are bitwise those of a zero there, and no warning is raised
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(2, 4, 5)) * 10
    mask = _mask_for(rng, (4, 5))
    expected = masked_softmax_value(np.where(mask, 0.0, logits), mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="warn"):
            p = masked_softmax_value(np.where(mask, blocked_logit, logits), mask)
    assert np.array_equal(p, expected)
    assert (p[:, mask] == 0.0).all() and np.isfinite(p).all()


# -- layer norm -----------------------------------------------------------


def test_layer_norm_constant_vector_is_zero():
    out, _, _ = layer_norm_value(np.full((2, 4), 3.0), np.ones(4), np.zeros(4))
    assert np.array_equal(out, np.zeros((2, 4)))


def test_layer_norm_two_point():
    out, _, _ = layer_norm_value(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_leading_axes_are_bitwise_flat_rows():
    # the gain and bias gradients sum all rows in one pass, whatever the
    # leading axes: a [2, 5, 6] input must round exactly as its [10, 6] rows
    rng = np.random.default_rng(7)
    x, g, b = rng.normal(size=(2, 5, 6)), rng.normal(size=6), rng.normal(size=6)
    probe = rng.normal(size=(2, 5, 6))

    def build(t, n):
        return t.layer_norm(*n)

    _assert_same_rows(_value_and_grads(build, [x, g, b], probe),
                      _value_and_grads(build, [x.reshape(10, 6), g, b],
                                       probe.reshape(10, 6)))


@pytest.mark.parametrize("shape", [(32, 19, 64), (4, 260, 64), "transposed"])
def test_layer_norm_value_is_the_two_pass_expression_bitwise(shape):
    # x - mu is computed once and scaled in place; the arrays must be those
    # of the expression that computed it twice, on the benchmark's S = 19
    # layout, the long one (S = 260) and a non-contiguous input
    rng = np.random.default_rng(5)
    x = (rng.normal(size=(64, 19, 8)).transpose(2, 1, 0) if shape == "transposed"
         else rng.normal(size=shape))
    gain, bias = rng.normal(size=64), rng.normal(size=64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    for got, want in zip(layer_norm_value(x, gain, bias), (xhat * gain + bias, xhat, inv)):
        assert np.array_equal(got, want)


def test_layer_norm_zero_gain_gives_bias():
    rng = np.random.default_rng(3)
    bias = rng.normal(size=5)
    out, _, _ = layer_norm_value(rng.normal(size=(3, 5)), np.zeros(5), bias)
    assert np.allclose(out, np.tile(bias, (3, 1)))


# -- backward -------------------------------------------------------------


def test_backward_leaf_root():
    t = Tape()
    x = t.leaf(np.asarray(2.5))
    assert t.backward(x)[x] == 1.0


def test_backward_sum_of_squares():
    t = Tape()
    x = t.leaf([1.0, 2.0, 3.0])
    root = t.sum(t.mul(x, x))
    assert np.allclose(t.backward(root)[x], [2.0, 4.0, 6.0])


def test_backward_nonscalar_root_rejected():
    t = Tape()
    x = t.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        t.backward(x)


def test_gelu_is_scipy_erf_gelu_bitwise():
    # a numpy port of erf differs from scipy's in the last bit on some inputs
    from scipy.special import erf
    x = np.concatenate([np.random.default_rng(9).normal(scale=3.0, size=10_000),
                        np.linspace(-40.0, 40.0, 801),
                        [-1e300, -1e8, -1e-300, 0.0, 1e-300, 1e8, 1e300]])
    phi = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    with np.errstate(over="ignore"):
        deriv = phi + x * (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    # a tracked input also computes the derivative, without a warning
    for tracked in (False, True):
        t = Tape()
        leaf = t.leaf(x, requires_grad=tracked)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = t.gelu(leaf)
            grads = t.backward(t.sum(out))
        assert t.value(out).tobytes() == (x * phi).tobytes()
        if tracked:
            assert grads[leaf].tobytes() == deriv.tobytes()


def gelu_formula(x, tracked):
    """Tape.gelu's arrays as whole-array numpy ops with scipy's erf."""
    from scipy.special import erf
    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    if not tracked:
        return x * phi, None
    with np.errstate(over="ignore"):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    deriv = phi + x * pdf
    return x * phi, deriv


def first_warning(fn, *args):
    """The text of the first warning fn raises, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(*args)
    except RuntimeWarning as w:
        return str(w)
    return None


SQRT2 = math.sqrt(2.0)
GELU_ELEMENTS = {       # classes of input, each as a function of an rng and a count
    "boundary": lambda r, n: r.choice([np.nextafter(SQRT2, v) for v in (0.0, np.inf)]
                                      + [SQRT2, 1.0], n) * r.choice([-1.0, 1.0], n),
    "tail": lambda r, n: (10.0 ** r.uniform(math.log10(SQRT2), 2.0, n)
                          * r.choice([-1.0, 1.0], n)),
    "huge": lambda r, n: 10.0 ** r.uniform(0.0, 300.0, n) * r.choice([-1.0, 1.0], n),
    "zero": lambda r, n: r.choice([0.0, -0.0], n),
    "subnormal": lambda r, n: r.choice([5e-324, 1e-310, 2.2e-308], n) * r.choice([-1.0, 1.0], n),
    "nan": lambda r, n: r.choice([np.nan, -np.nan], n),
    "inf": lambda r, n: r.choice([np.inf, -np.inf], n),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       size=st.sampled_from([0, 1, GELU_BLOCK - 1, GELU_BLOCK, GELU_BLOCK + 1,
                             3 * GELU_BLOCK + 5]),
       classes=st.sets(st.sampled_from(sorted(GELU_ELEMENTS))),
       layout=st.sampled_from(["contiguous", "strided", "reversed", "column"]),
       tracked=st.booleans())
def test_gelu_value_is_the_scipy_formula_bitwise(seed, size, classes, layout, tracked):
    # dense |x| / sqrt 2 <= 1, with elements of the other classes at random
    # places, in a contiguous array or a view that is not
    rng = np.random.default_rng(seed)
    x = rng.uniform(-SQRT2, SQRT2, size)
    for name in sorted(classes):
        at = rng.choice(size, size=min(size, 1 + size // 50), replace=False)
        x[at] = GELU_ELEMENTS[name](rng, len(at))
    if layout == "strided":
        base = np.zeros(2 * size)
        base[::2] = x
        x = base[::2]
    elif layout == "reversed":
        x = x[::-1].copy()[::-1]
    elif layout == "column":
        base = np.zeros((size, 3))
        base[:, 1] = x
        x = base[:, 1:2]
    # with warnings as errors both fail alike: only +-inf warns ("invalid
    # value" as x or Phi meets a zero), in the formula and the kernel
    assert (first_warning(gelu_value, x, tracked)
            == first_warning(gelu_formula, x, tracked))
    with np.errstate(invalid="ignore"):
        got, want = gelu_value(x, tracked), gelu_formula(x, tracked)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            # NaN at the same places, but not always of the same sign: the
            # formula's own NaN signs change with the array's length, since
            # numpy evaluates `phi + x * pdf` in place in the product from
            # 256 KiB on, and with the place in its SIMD loop
            nan = np.isnan(w)
            assert g.shape == w.shape and np.array_equal(np.isnan(g), nan)
            assert g[~nan].tobytes() == w[~nan].tobytes()


def test_gelu_loads_scipy_only_for_a_tail_element(tmp_path):
    # a fresh process: a GELU whose every |x| / sqrt 2 is at most 1 runs
    # without scipy; one element past it loads scipy for that block
    code = ("import json, sys\n"
            "import numpy as np\n"
            "from hta.tape import gelu_value\n"
            "x = np.linspace(-np.sqrt(2.0), np.sqrt(2.0), 40_001)\n"
            "out = [x, *gelu_value(x, True)]\n"
            "loaded = ['scipy' in sys.modules]\n"
            "x = x.copy()\n"
            "x[17] = 1.5\n"
            "out += [x, *gelu_value(x, True)]\n"
            "loaded.append('scipy' in sys.modules)\n"
            "np.save(sys.argv[1], np.stack(out))\n"
            "print(json.dumps(loaded))\n")
    arrays = tmp_path / "gelu.npy"
    out = subprocess.run([sys.executable, "-c", code, str(arrays)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [False, True]
    got = np.load(arrays)
    for x, value, deriv in (got[:3], got[3:]):
        want = gelu_formula(x, True)
        assert value.tobytes() == want[0].tobytes() and deriv.tobytes() == want[1].tobytes()


def test_backward_bitwise_deterministic():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))

    def build():
        t = Tape()
        na, nb = t.leaf(a), t.leaf(b)
        root = t.sum(t.gelu(t.add(t.bmm(na, nb), t.mul(na, nb))))
        return t, na, root

    t1, n1, r1 = build()
    g1 = t1.backward(r1)[n1]
    g1_again = t1.backward(r1)[n1]
    t2, n2, r2 = build()
    g2 = t2.backward(r2)[n2]
    assert np.array_equal(g1, g1_again)
    assert np.array_equal(g1, g2)


def test_backward_returns_exactly_the_tracked_leaves():
    t = Tape()
    a, b, unused = t.leaf([1.0, 2.0]), t.leaf([3.0, 4.0]), t.leaf([5.0])
    c = t.constant([0.5, 0.5])
    root = t.sum(t.mul(t.add(a, c), t.exp(b)))
    assert sorted(t.backward(root)) == [a, b]
    assert t.backward(t.sum(c)) == {}         # an untracked root has no gradients


def _benchmark_step(b: int):
    """Parameters, a batch of b pairs and the configs of the benchmark layout."""
    lay = TokenLayout(T=4, N=4, U=2, V=1, r=2, d=64)
    vcfg = VideoTowerConfig(layout=lay, L=4, heads=4, D=32, patch=4)
    tcfg = TextTowerConfig()
    rng = np.random.default_rng(8)
    params = init_video_params(vcfg, rng) | init_text_params(tcfg, rng)
    params["log_tau"] = np.asarray(math.log(0.07))
    tokens = [[i % tcfg.vocab, (3 * i) % tcfg.vocab] for i in range(b)]
    batch = AlignmentBatch(list(rng.normal(size=(b, 4, 8, 8, 3))), tokens, tokens)
    return params, batch, vcfg, tcfg


def test_backward_memory_holds_only_gradients_in_flight():
    """At B = 32 on the benchmark layout, backward allocates about 6 MB when it
    drops each non-leaf gradient after use; keeping all of them took 43 MB."""
    params, batch, vcfg, tcfg = _benchmark_step(32)
    t = Tape()
    pid = register_params(t, params)
    root = total_loss_node(t, batch, pid, vcfg, tcfg)
    tracemalloc.start()
    try:
        grads = t.backward(root)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15 << 20, f"peak {peak} bytes"
    assert sorted(grads) == sorted(pid.values())


def test_forward_holds_only_what_backward_reads():
    """At B = 32 on the benchmark layout the forward holds 23 MiB once it has
    returned (26 MiB when the last GST block computed every row): the logits, the p.v products before the head merge, the output
    projections and most residual sums die with their handles. A tape that
    kept every value held 45 MiB."""
    import scipy.special  # noqa: F401  (its import is not the forward's memory)
    params, batch, vcfg, tcfg = _benchmark_step(32)
    tracemalloc.start()
    try:
        t = Tape()
        root = total_loss_node(t, batch, register_params(t, params), vcfg, tcfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 32 << 20, f"held {held} bytes"


def test_values_live_only_while_a_handle_or_a_vjp_holds_them():
    t = Tape()
    x = t.leaf(np.arange(4.0))
    y = t.add(x, x)        # add's vjps keep only shapes
    e = t.exp(y)           # exp's vjp keeps its output
    root = t.sum(e)
    y_ref, e_ref = weakref.ref(y.value), weakref.ref(e.value)
    del y, e
    assert y_ref() is None
    assert e_ref() is not None
    assert np.array_equal(t.backward(root)[x], 2.0 * np.exp(2.0 * np.arange(4.0)))
    del t
    assert e_ref() is None


# -- per-op finite-difference property -------------------------------------
#
# Each entry: inputs(rng) -> list of leaf arrays, build(tape, ids) -> node id.
# The scalar under test is sum(out * random probe) so every output entry
# contributes to the gradient.

def _mask_for(rng, shape):
    allowed = rng.random(shape) < 0.6
    allowed[:, 0] = True
    return ~allowed


OPS = {
    "add": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))],
            lambda t, n: t.add(n[0], n[1])),
    "add_broadcast": (lambda r: [r.normal(size=(3, 4)), r.normal(size=4)],
                      lambda t, n: t.add(n[0], n[1])),
    "mul": (lambda r: [r.normal(size=(4, 3)), r.normal(size=(4, 3))],
            lambda t, n: t.mul(n[0], n[1])),
    "mul_scalar": (lambda r: [r.normal(size=(4, 3)), np.asarray(r.normal())],
                   lambda t, n: t.mul(n[0], n[1])),
    "scale": (lambda r: [r.normal(size=(3, 3))],
              lambda t, n: t.scale(n[0], -1.7)),
    "matmul": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2))],
               lambda t, n: t.bmm(n[0], n[1])),
    "linear": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2)),
                          r.normal(size=2)],
               lambda t, n: t.linear(n[0], n[1], n[2])),
    "linear_batched": (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4, 2)),
                                  r.normal(size=2)],
                       lambda t, n: t.linear(n[0], n[1], n[2])),
    "bmm": (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(2, 4, 2))],
            lambda t, n: t.bmm(n[0], n[1])),
    "transpose": (lambda r: [r.normal(size=(2, 5))],
                  lambda t, n: t.transpose(n[0])),
    "transpose_axes": (lambda r: [r.normal(size=(2, 3, 4))],
                       lambda t, n: t.transpose(n[0], (1, 2, 0))),
    "reshape": (lambda r: [r.normal(size=(2, 6))],
                lambda t, n: t.reshape(n[0], (3, 2, 2))),
    "sum": (lambda r: [r.normal(size=(3, 4))], lambda t, n: t.sum(n[0])),
    "exp": (lambda r: [r.normal(size=(3, 3))], lambda t, n: t.exp(n[0])),
    "gelu": (lambda r: [r.normal(size=(4, 4))], lambda t, n: t.gelu(n[0])),
    "layer_norm": (
        lambda r: [r.normal(size=(3, 6)), r.normal(size=6), r.normal(size=6)],
        lambda t, n: t.layer_norm(n[0], n[1], n[2])),
    "layer_norm_batched": (
        lambda r: [r.normal(size=(2, 3, 6)), r.normal(size=6), r.normal(size=6)],
        lambda t, n: t.layer_norm(n[0], n[1], n[2])),
    "masked_softmax": (
        lambda r: [r.normal(size=(4, 5)), _mask_for(r, (4, 5))],
        lambda t, n: t.masked_softmax(n[0], t.value(n[1]) != 0)),
    "masked_softmax_batched": (
        lambda r: [r.normal(size=(2, 4, 5)), _mask_for(r, (4, 5))],
        lambda t, n: t.masked_softmax(n[0], t.value(n[1]) != 0)),
    "normalize_rows": (lambda r: [r.normal(size=(3, 4)) + 0.5],
                       lambda t, n: t.normalize_rows(n[0])),
    "cross_entropy_diag": (lambda r: [r.normal(size=(4, 4))],
                           lambda t, n: t.cross_entropy_diag(n[0])),
    "take_rows": (lambda r: [r.normal(size=(5, 3))],
                  lambda t, n: t.take_rows(n[0], np.array([4, 0, 0, 2]))),
    "take_rows_axis": (lambda r: [r.normal(size=(2, 5, 3))],
                       lambda t, n: t.take_rows(n[0], slice(1, 4), axis=1)),
    "concat_rows": (lambda r: [r.normal(size=(2, 3)), r.normal(size=(4, 3))],
                    lambda t, n: t.concat_rows([n[0], n[1]])),
    "concat_rows_axis": (lambda r: [r.normal(size=(3, 2)), r.normal(size=(3, 4))],
                         lambda t, n: t.concat_rows([n[0], n[1]], axis=1)),
    "broadcast_to": (lambda r: [r.normal(size=(2, 3))],
                     lambda t, n: t.broadcast_to(n[0], (4, 2, 3))),
    "broadcast_to_inner": (lambda r: [r.normal(size=(2, 1, 3))],
                           lambda t, n: t.broadcast_to(n[0], (2, 3, 3))),
}

DIFFERENTIABLE_LEAVES = {
    # masked_softmax's second input is a constant mask, not differentiated
    "masked_softmax": [0],
    "masked_softmax_batched": [0],
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradient_matches_finite_differences(name):
    """Analytic vs central differences, 100 seeds per op, tensors <= 64 elems."""
    make, build = OPS[name]
    h = 1e-6
    for seed in range(100):
        rng = np.random.default_rng(seed)
        inputs = make(rng)
        probe = rng.normal(size=np.shape(eval_op(build, inputs)))

        def scalar(vals):
            t = Tape()
            out = build(t, [t.leaf(v) for v in vals])
            return float(t.value(t.sum(t.mul(out, t.constant(probe)))))

        t = Tape()
        leaves = [t.leaf(v) for v in inputs]
        out = build(t, leaves)
        root = t.sum(t.mul(out, t.constant(probe)))
        grads = t.backward(root)
        diffable = DIFFERENTIABLE_LEAVES.get(name, range(len(inputs)))
        for k in diffable:
            x = inputs[k]
            coords = ([()] if x.ndim == 0 else
                      [np.unravel_index(i, x.shape) for i in
                       rng.choice(x.size, size=min(2, x.size), replace=False)])
            for idx in coords:
                hi = [v.copy() for v in inputs]
                lo = [v.copy() for v in inputs]
                hi[k][idx] += h
                lo[k][idx] -= h
                fd = (scalar(hi) - scalar(lo)) / (2 * h)
                an = np.asarray(grads[leaves[k]])[idx]
                assert rel_err(fd, an, floor=1e-6) <= 1e-4, (name, seed, k, idx)


def eval_op(build, inputs):
    t = Tape()
    return t.value(build(t, [t.leaf(v) for v in inputs]))
