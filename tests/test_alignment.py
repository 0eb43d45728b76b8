import math
import weakref

import numpy as np
import pytest

from hta import alignment
from hta.alignment import (AdamW, AlignmentBatch, DivergenceError, TrainConfig,
                           clip_by_global_norm, cosine_lr, info_nce_node,
                           total_loss_node, train)
from hta.masks import TokenLayout
from hta.oracles import info_nce
from hta.tape import Tape
from hta.towers import (TextTowerConfig, VideoTowerConfig, init_text_params,
                        init_video_params, register_params, text_embedding,
                        video_embedding)

LAYOUT = TokenLayout(T=2, N=4, U=1, V=1, r=2, d=8)
VCFG = VideoTowerConfig(layout=LAYOUT, L=1, heads=2, D=4, patch=4)
TCFG = TextTowerConfig(vocab=12, context=4, D=4, width=4)


def tiny_setup(seed=0, b=3):
    rng = np.random.default_rng(seed)
    params = init_video_params(VCFG, rng)
    params.update(init_text_params(TCFG, rng))
    clips = [rng.normal(size=(2, 8, 8, 3)) for _ in range(b)]
    subs = [[1 + i] for i in range(b)]
    caps = [[5 + i] for i in range(b)]
    return params, AlignmentBatch(clips, subs, caps)


# -- info_nce closed forms ----------------------------------------------------


def test_info_nce_identity_pair():
    e = np.eye(2)
    expected = 2 * math.log(1.0 + math.exp(-1.0))
    assert abs(info_nce(e, e, 1.0) - expected) <= 1e-12


def test_info_nce_uniform_logits_is_2_log_b():
    # all-equal similarities: both directions give log B exactly
    for b in (2, 3, 7):
        v = np.tile(np.eye(1, 4), (b, 1))
        assert abs(info_nce(v, v, 1.0) - 2 * math.log(b)) <= 1e-12


def test_info_nce_near_2_log_b_at_huge_tau():
    # tau = 100 washes out random unit-vector similarities
    rng = np.random.default_rng(1)
    b = 8
    v = rng.normal(size=(b, 16))
    t = rng.normal(size=(b, 16))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    loss = info_nce(v, t, 100.0)
    assert abs(loss - 2 * math.log(b)) <= 0.2 * 2 * math.log(b)


def test_info_nce_orthogonal_transform_invariance():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(5, 6))
    t = rng.normal(size=(5, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert abs(info_nce(v @ q, t @ q, 0.3) - info_nce(v, t, 0.3)) <= 1e-10


def test_info_nce_errors():
    with pytest.raises(ValueError, match="tau"):
        info_nce(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(ValueError, match="shapes"):
        info_nce(np.eye(2), np.eye(3), 1.0)


def test_info_nce_node_matches_plain():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4, 5))
    t = rng.normal(size=(4, 5))
    tau = 0.2
    tape = Tape()
    node = info_nce_node(tape, tape.constant(v), tape.constant(t),
                         tape.constant(np.asarray(math.log(tau))))
    assert abs(float(tape.value(node)) - info_nce(v, t, tau)) <= 1e-12


def test_total_loss_is_sum_of_two_terms():
    params, batch = tiny_setup()
    params["log_tau"] = np.asarray(math.log(0.07))
    tape = Tape()
    pid = register_params(tape, params)
    loss = float(tape.value(total_loss_node(tape, batch, pid, VCFG, TCFG)))
    v = np.stack([video_embedding(c, params, VCFG) for c in batch.clips])
    s = np.stack([text_embedding(x, params, TCFG) for x in batch.subtitles])
    c = np.stack([text_embedding(x, params, TCFG) for x in batch.captions])
    expected = info_nce(v, s, 0.07) + info_nce(v, c, 0.07)
    assert abs(loss - expected) <= 1e-10


# -- schedule / clipping / optimizer -----------------------------------------


def test_cosine_lr_endpoints_and_midpoint():
    cfg = TrainConfig(steps=101, base_lr=1e-3, final_lr=1e-5)
    assert cosine_lr(0, cfg) == pytest.approx(1e-3)
    assert cosine_lr(100, cfg) == pytest.approx(1e-5, abs=1e-18)
    assert cosine_lr(50, cfg) == pytest.approx((1e-3 + 1e-5) / 2)


def test_cosine_lr_monotone_nonincreasing():
    cfg = TrainConfig(steps=40, base_lr=1.0, final_lr=0.0)
    vals = [cosine_lr(s, cfg) for s in range(40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_clip_by_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
    pre = clip_by_global_norm(grads, 10.0)       # norm 5, untouched
    assert pre == pytest.approx(5.0)
    assert np.array_equal(grads["a"], [3.0, 0.0])
    pre = clip_by_global_norm(grads, 1.0)
    assert pre == pytest.approx(5.0)
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total == pytest.approx(1.0)


def test_train_config_validation():
    with pytest.raises(ValueError, match="final_lr"):
        TrainConfig(base_lr=1e-5, final_lr=1e-3)
    with pytest.raises(ValueError):
        TrainConfig(init_tau=0.0)
    for bad in ({"steps": 0}, {"steps": -3}, {"batch_size": 0}, {"beta1": 1.0},
                {"beta2": -0.1}, {"weight_decay": -1e-3}, {"init_tau": math.nan},
                {"clip_norm": math.nan}, {"base_lr": math.inf, "final_lr": math.inf},
                {"weight_decay": math.nan}, {"beta1": math.nan},
                {"init_tau": 5e-324}, {"init_tau": math.exp(-5.0) * 0.999}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(base_lr=0.0, final_lr=0.0)       # frozen run is legal
    TrainConfig(init_tau=math.exp(-5.0))         # tau may start at its floor
    TrainConfig(steps=1, batch_size=1, beta1=0.0, beta2=0.0, weight_decay=0.0)


def test_adamw_decay_rules():
    params = {"w": np.ones((2, 2)), "b": np.ones(2),
              "log_tau": np.asarray(0.0)}
    cfg = TrainConfig(weight_decay=0.5, base_lr=1.0, final_lr=0.0)
    opt = AdamW(params, cfg)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    opt.step(params, zeros, lr=1.0)
    assert np.allclose(params["w"], 0.5)         # decayed
    assert np.allclose(params["b"], 1.0)         # 1-D: no decay
    assert params["log_tau"] == 0.0              # temperature: no decay


def test_adamw_single_step_magnitude():
    # with zero init moments, |update| = lr regardless of gradient scale
    params = {"w": np.zeros((1, 2))}
    opt = AdamW(params, TrainConfig(weight_decay=0.0))
    opt.step(params, {"w": np.array([[7.0, -0.003]])}, lr=0.1)
    assert np.allclose(np.abs(params["w"]), 0.1, atol=1e-6)


# -- train loop ----------------------------------------------------------------


def test_train_zero_lr_is_noop_on_params():
    params, batch = tiny_setup(seed=4)
    before = {k: v.copy() for k, v in params.items()}
    cfg = TrainConfig(steps=3, base_lr=0.0, final_lr=0.0, batch_size=3)
    trace = train(batch, params, VCFG, TCFG, cfg, seed=0)
    assert len(trace) == 3
    losses = [t[1] for t in trace]
    assert max(losses) - min(losses) <= 1e-12    # same full batch every step
    for k, v in before.items():
        assert np.array_equal(params[k], v)


def test_train_reduces_loss_and_is_deterministic():
    params1, batch = tiny_setup(seed=5)
    params2 = {k: v.copy() for k, v in params1.items()}
    cfg = TrainConfig(steps=25, base_lr=3e-3, final_lr=1e-4, batch_size=3,
                      init_tau=0.07)
    t1 = train(batch, params1, VCFG, TCFG, cfg, seed=0)
    t2 = train(batch, params2, VCFG, TCFG, cfg, seed=0)
    assert t1 == t2
    assert t1[-1][1] < t1[0][1]
    # tau stayed above its floor
    assert all(tau >= math.exp(-5.0) - 1e-12 for _, _, _, tau in t1)


def test_train_divergence_raises():
    # NaN weights in either tower reach the loss; in the video tower they pass
    # through masked softmax, which must not mistake them for a blocked row
    for name in ("text.proj.w", "layer0.gst.wq"):
        params, batch = tiny_setup(seed=6)
        params[name][0, 0] = np.nan
        with pytest.raises(DivergenceError) as e:
            train(batch, params, VCFG, TCFG, TrainConfig(steps=2, batch_size=3))
        assert e.value.step == 0


def test_batch_validation():
    with pytest.raises(ValueError, match="length"):
        AlignmentBatch([np.zeros((2, 8, 8, 3))], [[1]], [])
    with pytest.raises(ValueError, match="length"):
        AlignmentBatch([], [], [])


def test_log_tau_floor_enforced():
    params, batch = tiny_setup(seed=7)
    # start at the floor with a big lr: the projection must hold it there
    cfg = TrainConfig(steps=5, base_lr=1.0, final_lr=1.0,
                      init_tau=math.exp(-5.0) * 1.0001, batch_size=3)
    trace = train(batch, params, VCFG, TCFG, cfg, seed=0)
    assert all(tau >= math.exp(-5.0) - 1e-12 for _, _, _, tau in trace)
    assert float(params["log_tau"]) >= -5.0


def test_a_step_releases_its_gradients_before_the_next_forward(monkeypatch):
    # a step's tape and gradients (about 4 MiB at B = 32) must not stay alive
    # through the next step's forward and backward
    params, batch = tiny_setup(seed=8)
    refs, clip, loss_node = [], alignment.clip_by_global_norm, alignment.total_loss_node

    def watched_clip(grads, max_norm):
        refs.extend(weakref.ref(g) for g in grads.values())
        return clip(grads, max_norm)

    def watched_loss(*args):
        alive = [r for r in refs if r() is not None]
        assert not alive, f"{len(alive)} gradients of the last step are alive"
        return loss_node(*args)

    monkeypatch.setattr(alignment, "clip_by_global_norm", watched_clip)
    monkeypatch.setattr(alignment, "total_loss_node", watched_loss)
    train(batch, params, VCFG, TCFG, TrainConfig(steps=3, batch_size=3))
    assert refs
