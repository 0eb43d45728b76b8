import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erf

from conftest import rel_err
from hta import towers
from hta.alignment import AlignmentBatch, total_loss_node
from hta.masks import TokenLayout, gst_stacked_mask, slt_mask
from hta.selftest import check_masked_weights, layer_weights
from hta.tape import Tape, layer_norm_value
from hta.towers import (TEXT_PARAMS, TextTowerConfig, VideoTowerConfig,
                        embed_frames_batch, encode_text, encode_video_batch,
                        gst_block, init_text_params, init_video_params, patchify,
                        register_params, slt_block, text_embedding, tower_params,
                        video_embedding, video_embeddings)

FIG3 = TokenLayout(T=4, N=4, U=2, V=1, r=2, d=8)
CFG = VideoTowerConfig(layout=FIG3, L=2, heads=2, D=4, patch=4)
TCFG = TextTowerConfig(vocab=16, context=6, D=4, width=4)


def randomized_slt_params(cfg, rng):
    """Init params with non-zero SlT output projections and temporal
    embeddings, so no block is an identity."""
    d = cfg.layout.d
    params = init_video_params(cfg, rng)
    for l in range(cfg.L):
        params[f"layer{l}.slt.wo"] = rng.normal(0.0, 0.02, (d, d))
    params["pos.temporal"] = rng.normal(0.0, 0.02, params["pos.temporal"].shape)
    return params


def fig3_params(seed=0, randomize_slt=False):
    rng = np.random.default_rng(seed)
    if randomize_slt:
        return randomized_slt_params(CFG, rng)
    return init_video_params(CFG, rng)


def random_clip(rng):
    return rng.normal(size=(4, 8, 8, 3))


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        VideoTowerConfig(layout=TokenLayout(T=2, N=1, U=0, V=1, r=2, d=6), heads=4)
    with pytest.raises(ValueError):
        VideoTowerConfig(layout=FIG3, L=0, heads=2)
    for heads, patch in ((0, 4), (-4, 4), (2, 0), (2, -4)):
        with pytest.raises(ValueError, match="heads and patch must be >= 1"):
            VideoTowerConfig(layout=FIG3, heads=heads, patch=patch)


def test_tower_params_split_a_checkpoint_by_tower():
    video = init_video_params(CFG, np.random.default_rng(0))
    text = init_text_params(TCFG, np.random.default_rng(1))
    both = video | text | {"log_tau": np.asarray(-2.0)}
    assert set(text) == set(TEXT_PARAMS)
    assert tower_params(both, "video").keys() == video.keys()
    assert tower_params(both, "text").keys() == text.keys()


# -- embed_frames_batch---------------------------------------------------


def test_patchify_counts():
    x = np.zeros((4, 8, 8, 3))
    assert patchify(x, 4).shape == (16, 48)   # N = HW/P^2 = 4 per frame
    with pytest.raises(ValueError, match="divisible"):
        patchify(np.zeros((2, 10, 8, 3)), 4)


def test_embed_zero_clip_gives_position_sums():
    params = fig3_params(randomize_slt=True)
    tape = Tape()
    pid = register_params(tape, params)
    out = tape.value(embed_frames_batch(tape, [np.zeros((4, 8, 8, 3))], pid, CFG))[0]
    expected = (np.tile(params["pos.spatial"], (4, 1))
                + np.repeat(params["pos.temporal"], 4, axis=0))
    assert np.allclose(out, expected)


def test_embed_frame_permutation():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(5)
    clip = random_clip(rng)
    swapped = clip[[1, 0, 2, 3]]
    tape = Tape()
    pid = register_params(tape, params)
    e1 = tape.value(embed_frames_batch(tape, [clip], pid, CFG))[0]
    e2 = tape.value(embed_frames_batch(tape, [swapped], pid, CFG))[0]
    tpos = params["pos.temporal"]
    # content moves with the frame, temporal embedding stays with the slot
    assert np.allclose(e2[0:4] - tpos[0], e1[4:8] - tpos[1])
    assert np.allclose(e2[4:8] - tpos[1], e1[0:4] - tpos[0])
    assert np.allclose(e2[8:], e1[8:])


@pytest.mark.parametrize("clips, bad", [
    # 2 frames of 8 x 16 hold as many patches as 4 frames of 8 x 8
    ([np.zeros((4, 8, 8, 3)), np.zeros((2, 8, 16, 3))], 1),
    # 0 + 8 frames hold as many patches as two 4-frame clips
    ([np.zeros((0, 8, 8, 3)), np.zeros((8, 8, 8, 3))], 0),
    # two channels, not three
    ([np.zeros((4, 8, 8, 3)), np.zeros((4, 8, 8, 2))], 1),
    # 10 rows of pixels are not whole 4x4 patches
    ([np.zeros((4, 8, 8, 3)), np.zeros((4, 10, 8, 3))], 1),
])
def test_a_clip_of_the_wrong_shape_is_refused(clips, bad):
    shape = re.escape(str(clips[bad].shape))
    with pytest.raises(ValueError, match=rf"clip {bad} has shape {shape}, layout "
                                         rf"expects 4 frames of 4 patches"):
        video_embeddings(clips, fig3_params(), CFG)


# -- SlT block -------------------------------------------------------------


def test_slt_special_rows_untouched_any_weights():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(FIG3.seq_len, 8))
    tape = Tape()
    pid = register_params(tape, params)
    out = tape.value(slt_block(tape, tape.constant(z[None]), 1, pid, CFG))[0]
    assert np.array_equal(out[:3], z[:3])
    assert not np.allclose(out[3:], z[3:])


def test_slt_single_frame_is_value_path_plus_residual():
    lay = TokenLayout(T=1, N=4, U=1, V=1, r=2, d=8)
    cfg = VideoTowerConfig(layout=lay, L=1, heads=2, D=4, patch=4)
    rng = np.random.default_rng(8)
    params = init_video_params(cfg, rng)
    params["layer0.slt.wo"] = rng.normal(0.0, 0.1, (8, 8))
    z = rng.normal(size=(lay.seq_len, 8))
    tape = Tape()
    pid = register_params(tape, params)
    out = tape.value(slt_block(tape, tape.constant(z[None]), 0, pid, cfg))[0]
    # T=1: each patch attends only itself, so attention output is the value
    # path of its own row
    x, _, _ = layer_norm_value(z[2:], params["layer0.slt.ln.g"],
                               params["layer0.slt.ln.b"])
    v = x @ params["layer0.slt.wv"] + params["layer0.slt.bv"]
    expected = z[2:] + v @ params["layer0.slt.wo"] + params["layer0.slt.bo"]
    assert np.allclose(out[2:], expected)


def test_slt_shape_mismatch():
    params = fig3_params()
    tape = Tape()
    pid = register_params(tape, params)
    with pytest.raises(ValueError, match="shape"):
        slt_block(tape, tape.constant(np.zeros((1, 5, 8))), 0, pid, CFG)


# -- GST block --------------------------------------------------------------


def gst_weights(params, z, layer):
    """The per-head [S, S] weights that `gst_block` of `layer` computes on z."""
    return [w for label, w, _ in layer_weights(CFG, params, z)
            if label.startswith(f"layer{layer}.gst ")]


def test_gst_patch_row_weights_only_mst_and_same_frame():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(9)
    z = rng.normal(size=(FIG3.seq_len, 8))
    for w in gst_weights(params, z, 0):
        patch_row = w[3]                      # frame-0 patch 0
        allowed = {1, 2, 3, 4, 5, 6}          # [MST] x2 + frame-0 patches
        assert set(np.flatnonzero(patch_row > 0)) <= allowed
        assert patch_row[0] == 0.0            # never [CLS]
        assert abs(patch_row.sum() - 1.0) <= 1e-12


def test_gst_cls_row_spans_everything():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(10)
    z = rng.normal(size=(FIG3.seq_len, 8))
    for w in gst_weights(params, z, 1):
        assert (w[0] > 0).all()
        assert abs(w[0].sum() - 1.0) <= 1e-12


def test_gst_mst_level1_skips_odd_frames():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(11)
    z = rng.normal(size=(FIG3.seq_len, 8))
    odd_frame_cols = list(range(7, 11)) + list(range(15, 19))
    for w in gst_weights(params, z, 0):
        assert (w[2][odd_frame_cols] == 0.0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 3), st.integers(1, 2),
       st.integers(2, 3), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
@example(3, 1, 0, 1, 2, 2, 0)      # one patch per frame, no [MST] level
@example(2, 3, 3, 1, 2, 1, 0)      # levels 1 and 2 have strides r^u >= T
def test_tower_weights_hold_the_masks_on_drawn_layouts(t, n, u, v, r, heads, seed):
    lay = TokenLayout(T=t, N=n, U=u, V=v, r=r, d=4 * heads)
    cfg = VideoTowerConfig(layout=lay, L=2, heads=heads, D=4)
    rng = np.random.default_rng(seed)
    params = randomized_slt_params(cfg, rng)
    cases = list(layer_weights(cfg, params, rng.normal(size=(lay.seq_len, lay.d))))
    assert len(cases) == 2 * cfg.L * heads
    assert check_masked_weights(cases) is None


def test_gst_block_frame_isolation():
    # a frame-0 patch output row cannot depend on frame-1 patch inputs,
    # nor any non-[CLS] row on the [CLS] input row
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(12)
    z1 = rng.normal(size=(FIG3.seq_len, 8))
    z2 = z1.copy()
    z2[7:11] += rng.normal(size=(4, 8))       # frame-1 patches
    z3 = z1.copy()
    z3[0] += rng.normal(size=8)               # [CLS] row

    def run(z):
        tape = Tape()
        pid = register_params(tape, params)
        return tape.value(gst_block(tape, tape.constant(z[None]), 0, pid, CFG))[0]

    o1, o2, o3 = run(z1), run(z2), run(z3)
    assert np.array_equal(o1[3:7], o2[3:7])
    assert np.array_equal(o1[1:], o3[1:])


# -- blocks vs an independent per-clip recomputation --------------------------


def reference_attention(z, params, pre, mask, heads):
    """Residual plus pre-LN multi-head attention over the rows of z under a
    boolean mask (True = blocked), in plain numpy."""
    mu, var = z.mean(axis=1, keepdims=True), z.var(axis=1, keepdims=True)
    x = (z - mu) / np.sqrt(var + 1e-5)
    x = x * params[f"{pre}.ln.g"] + params[f"{pre}.ln.b"]
    q, k, v = (x @ params[f"{pre}.w{c}"] + params[f"{pre}.b{c}"] for c in "qkv")
    dh = z.shape[1] // heads
    out = np.zeros_like(z)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = np.where(mask, -np.inf, q[:, cols] @ k[:, cols].T / np.sqrt(dh))
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[:, cols] = w / w.sum(axis=1, keepdims=True) @ v[:, cols]
    return z + out @ params[f"{pre}.wo"] + params[f"{pre}.bo"]


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("lay", [FIG3, TokenLayout(T=3, N=2, U=1, V=2, r=2, d=8)])
def test_blocks_match_per_clip_recomputation(lay, b):
    # the batched blocks against each clip's flat sequence under the mask
    # family's own entries: pins the SlT regroup to the SlT predicate
    cfg = VideoTowerConfig(layout=lay, L=1, heads=2, D=4, patch=4)
    rng = np.random.default_rng(22 + b)
    params = {k: rng.normal(0.0, 0.3, v.shape)
              for k, v in init_video_params(cfg, rng).items()}
    s, ns = lay.seq_len, 1 + lay.num_mst
    z = rng.normal(size=(b, s, lay.d))
    tape = Tape()
    pid = register_params(tape, params)
    slt = tape.value(slt_block(tape, tape.constant(z), 0, pid, cfg))
    gst = tape.value(gst_block(tape, tape.constant(z), 0, pid, cfg))
    for c in range(b):
        zc = z[c]
        want = np.vstack([zc[:ns], reference_attention(
            zc[ns:], params, "layer0.slt", slt_mask(lay), cfg.heads)])
        assert np.abs(slt[c] - want).max() <= 1e-12
        y = reference_attention(zc, params, "layer0.gst",
                                gst_stacked_mask(lay), cfg.heads)
        hid = y @ params["layer0.mlp.w1"] + params["layer0.mlp.b1"]
        hid = hid * 0.5 * (1.0 + erf(hid / np.sqrt(2.0)))
        want = y + hid @ params["layer0.mlp.w2"] + params["layer0.mlp.b2"]
        assert np.abs(gst[c] - want).max() <= 1e-12


# -- query rows: the last GST block computes only the [CLS] rows ---------------

# The benchmark's layout (S = 19) and a long-clip layout (T = 16 frames of
# 16 x 16 patches, S = 260); the long one runs a narrower, shallower tower to
# keep a B = 32 step small.
BENCH_CFG = VideoTowerConfig(layout=TokenLayout(T=4, N=4, U=2, V=1, r=2, d=64),
                             L=4, heads=4, D=32, patch=4)
LONG_CFG = VideoTowerConfig(layout=TokenLayout(T=16, N=16, U=3, V=1, r=2, d=16),
                            L=2, heads=2, D=8, patch=4)


def clips_for(cfg, rng, b):
    side = 4 * int(math.isqrt(cfg.layout.N))     # square frames, patch 4
    return rng.normal(size=(b, cfg.layout.T, side, side, 3))


@pytest.mark.parametrize("b", [1, 32])
@pytest.mark.parametrize("cfg", [BENCH_CFG, LONG_CFG], ids=["S19", "S260"])
def test_gst_query_rows_equal_the_full_block_rows(cfg, b):
    lay = cfg.layout
    rng = np.random.default_rng(40 + b)
    params = randomized_slt_params(cfg, rng)
    z = rng.normal(size=(b, lay.seq_len, lay.d))
    tape = Tape()
    pid = register_params(tape, params, requires_grad=False)
    full = tape.value(gst_block(tape, tape.constant(z), cfg.L - 1, pid, cfg))
    for rows in (slice(0, 1), slice(1, 1 + lay.num_mst), np.array([5, 0, 3])):
        got = tape.value(gst_block(tape, tape.constant(z), cfg.L - 1, pid, cfg, rows))
        want = full[:, rows]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def full_last_layer(monkeypatch):
    """Make encode_video_batch run every GST block on all rows and pick the
    query rows from the full output: the reference for the [CLS]-only path."""
    full_block = towers.gst_block

    def block(tape, z, layer, pid, config, rows=None):
        out = full_block(tape, z, layer, pid, config)
        return out if rows is None else tape.take_rows(out, rows, axis=1)

    monkeypatch.setattr(towers, "gst_block", block)


@pytest.mark.parametrize("cfg", [BENCH_CFG, LONG_CFG], ids=["S19", "S260"])
def test_cls_only_last_layer_matches_the_full_one_in_a_training_step(
        cfg, monkeypatch):
    rng = np.random.default_rng(7)
    tcfg = TextTowerConfig(vocab=16, context=6, D=cfg.D, width=4)
    params = randomized_slt_params(cfg, rng) | init_text_params(tcfg, rng)
    params["log_tau"] = np.asarray(np.log(0.07))
    b = 32
    batch = AlignmentBatch(list(clips_for(cfg, rng, b)),
                           [[i % 16] for i in range(b)],
                           [[(3 * i + 1) % 16, i % 5] for i in range(b)])

    def step():
        tape = Tape()
        pid = register_params(tape, params)
        emb = tape.value(encode_video_batch(tape, batch.clips, pid, cfg))
        loss = total_loss_node(tape, batch, pid, cfg, tcfg)
        grads = tape.backward(loss)
        return emb, loss.value, {name: grads[nid] for name, nid in pid.items()}

    emb, loss, grads = step()
    full_last_layer(monkeypatch)
    want_emb, want_loss, want_grads = step()

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert close(emb, want_emb) and close(loss, want_loss)
    assert grads.keys() == want_grads.keys()
    # a key bias adds one constant to a whole softmax row, so its exact
    # gradient is 0: both paths hold only rounding noise there
    scale = max(np.abs(g).max() for g in want_grads.values())
    for name, g in want_grads.items():
        if name.endswith(".bk"):
            assert np.abs(grads[name]).max() <= 1e-12 * scale, name
        else:
            assert close(grads[name], g), name


# -- encode_video / encode_text ----------------------------------------------


def test_encode_video_unit_norm_and_deterministic():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(13)
    clip = random_clip(rng)
    v1 = video_embedding(clip, params, CFG)
    v2 = video_embedding(clip, params, CFG)
    assert abs(np.linalg.norm(v1) - 1.0) <= 1e-12
    assert np.array_equal(v1, v2)
    assert v1.shape == (CFG.D,)


def test_encode_video_batch_matches_single():
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(14)
    clips = [random_clip(rng) for _ in range(3)]
    batch = video_embeddings(clips, params, CFG)
    singles = np.stack([video_embedding(c, params, CFG) for c in clips])
    assert np.allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("b", [1, 8])
def test_inference_equals_the_tracked_forward_bitwise(b):
    # video_embeddings and text_embedding record no vjps, since their
    # parameters are constants; that must not change a bit of the result
    rng = np.random.default_rng(22)
    params = fig3_params(randomize_slt=True) | init_text_params(TCFG, rng)
    clips = [random_clip(rng) for _ in range(b)]
    tokens = [rng.integers(0, TCFG.vocab, size=1 + i % TCFG.context).tolist()
              for i in range(b)]
    tape = Tape()
    pid = register_params(tape, params)
    want = tape.value(encode_video_batch(tape, clips, pid, CFG))
    assert video_embeddings(clips, params, CFG).tobytes() == want.tobytes()
    for ids in tokens:
        want = tape.value(encode_text(tape, [ids], pid, TCFG))[0]
        assert text_embedding(ids, params, TCFG).tobytes() == want.tobytes()


def test_static_clip_frame_symmetry_at_init():
    # zero-init SlT + zero temporal embeddings: identical frames stay
    # identical through every layer
    params = fig3_params()        # pristine init
    rng = np.random.default_rng(15)
    frame = rng.normal(size=(8, 8, 3))
    clip = np.stack([frame] * 4)
    tape = Tape()
    pid = register_params(tape, params)
    # a one-clip sequence is [CLS; MST; patches] in token order
    special = tape.reshape(tape.concat_rows([pid["cls"], pid["mst"]]), (1, 3, 8))
    z = tape.concat_rows([special, embed_frames_batch(tape, [clip], pid, CFG)],
                         axis=1)
    for l in range(CFG.L):
        z = slt_block(tape, z, l, pid, CFG)
        z = gst_block(tape, z, l, pid, CFG)
        rows = tape.value(z)[0, 3:].reshape(4, 4, 8)
        for t in range(1, 4):
            assert np.allclose(rows[t], rows[0], atol=1e-12)


def test_encode_text_errors():
    rng = np.random.default_rng(16)
    params = init_text_params(TCFG, rng)
    tape = Tape()
    pid = register_params(tape, params)
    with pytest.raises(ValueError, match="empty"):
        encode_text(tape, [[]], pid, TCFG)
    with pytest.raises(ValueError, match="empty"):
        encode_text(tape, [[1, 2], []], pid, TCFG)
    with pytest.raises(ValueError, match="7 tokens"):
        encode_text(tape, [[1] * 7], pid, TCFG)
    with pytest.raises(ValueError, match="7 tokens"):
        encode_text(tape, [[3], [1] * 7], pid, TCFG)
    with pytest.raises(ValueError, match="vocabulary"):
        encode_text(tape, [[99]], pid, TCFG)
    with pytest.raises(ValueError, match="vocabulary"):
        encode_text(tape, [[1], [2, -1]], pid, TCFG)


def test_encode_text_batch_matches_single():
    rng = np.random.default_rng(21)
    params = init_text_params(TCFG, rng)
    lists = [[3], [1, 5, 2, 9], [0] * 6, [15, 15]]
    tape = Tape()
    pid = register_params(tape, params)
    batch = tape.value(encode_text(tape, lists, pid, TCFG))
    singles = np.stack([text_embedding(x, params, TCFG) for x in lists])
    assert batch.shape == (4, TCFG.D)
    assert np.allclose(batch, singles, rtol=0.0, atol=1e-12)


def test_encode_text_single_token():
    rng = np.random.default_rng(17)
    params = init_text_params(TCFG, rng)
    out = text_embedding([3], params, TCFG)
    row = params["text.emb"][3] + params["text.pos"][0]
    expected = row @ params["text.proj.w"]
    expected /= np.linalg.norm(expected)
    assert np.allclose(out, expected)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_encode_text_permutation_invariant():
    rng = np.random.default_rng(18)
    params = init_text_params(TCFG, rng)
    a = text_embedding([1, 5, 2, 9], params, TCFG)
    b = text_embedding([9, 2, 5, 1], params, TCFG)
    assert np.allclose(a, b)    # documented mean-pool stand-in limitation


def test_shape_contract_other_layouts():
    for lay in (TokenLayout(T=2, N=4, U=0, V=1, r=2, d=8),
                TokenLayout(T=3, N=4, U=3, V=2, r=3, d=8)):
        cfg = VideoTowerConfig(layout=lay, L=1, heads=2, D=5, patch=4)
        rng = np.random.default_rng(19)
        params = init_video_params(cfg, rng)
        clip = rng.normal(size=(lay.T, 8, 8, 3))
        v = video_embedding(clip, params, cfg)
        assert v.shape == (5,)


def test_encode_video_gradient_probe():
    # quick end-to-end differentiability sanity check on one coordinate;
    # the full per-group sweep runs in the acceptance suite
    params = fig3_params(randomize_slt=True)
    rng = np.random.default_rng(20)
    clip = random_clip(rng)
    probe = rng.normal(size=(1, CFG.D))

    def scalar():
        tape = Tape()
        pid = register_params(tape, params)
        out = encode_video_batch(tape, [clip], pid, CFG)
        return float(tape.value(tape.sum(tape.mul(out, tape.constant(probe)))))

    tape = Tape()
    pid = register_params(tape, params)
    out = encode_video_batch(tape, [clip], pid, CFG)
    root = tape.sum(tape.mul(out, tape.constant(probe)))
    grads = tape.backward(root)
    h = 1e-6
    for name in ("patch_proj.w", "layer1.gst.wq", "layer0.mlp.w2", "head.w"):
        idx = (1, 2)
        x = params[name]
        orig = x[idx]
        x[idx] = orig + h
        hi = scalar()
        x[idx] = orig - h
        lo = scalar()
        x[idx] = orig
        fd = (hi - lo) / (2 * h)
        assert rel_err(fd, np.asarray(grads[pid[name]])[idx], 1e-7) <= 1e-4
