"""Acceptance suite: the quantitative and property-based gates for the
package, one test per criterion. Each test prints a PASS/FAIL line so the
verbose run doubles as a human-readable report."""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import rel_err
from hta.alignment import (AlignmentBatch, TrainConfig, info_nce, total_loss,
                           train)
from hta.masks import TokenLayout, gst_stacked_mask
from hta.oracles import brute_force_ranks
from hta.retrieval import dual_softmax, metrics_from_ranks, ranks, similarity
from hta.selftest import (check_masked_weights, check_masks, check_ranks,
                          check_slt_identity, layer_weights)
from hta.tape import Tape
from hta.towers import (TextTowerConfig, VideoTowerConfig, init_text_params,
                        init_video_params, register_params, text_embedding,
                        video_embedding, video_embeddings)

FIG3 = TokenLayout(T=4, N=4, U=2, V=1, r=2, d=8)


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# daily-driver toy tower shared by criteria 3-5
def toy_setup(seed=0):
    cfg = VideoTowerConfig(layout=FIG3, L=2, heads=2, D=4, patch=4)
    tcfg = TextTowerConfig(vocab=24, context=4, D=4, width=4)
    rng = np.random.default_rng(seed)
    params = init_video_params(cfg, rng)
    params.update(init_text_params(tcfg, rng))
    return cfg, tcfg, params, rng


def test_criterion_01_mask_oracle_full_grid():
    t0 = time.monotonic()
    grid = itertools.product((2, 4, 8, 12), (1, 4, 9), (0, 1, 2, 3), (1, 2, 4), (2, 3))
    layouts = [TokenLayout(T=t, N=n, U=u, V=v, r=r) for t, n, u, v, r in grid]
    failure = check_masks(layouts)
    elapsed = time.monotonic() - t0
    report(1, failure is None and len(layouts) == 288 and elapsed < 5.0,
           failure or f"{len(layouts)} layouts exact in {elapsed:.2f}s")


def test_criterion_02_fig3_hand_enumeration():
    # layout T=4, N=4, U=2, V=1, r=2 -> 19 tokens:
    # [CLS], [MST] level 0, [MST] level 1, then 4 frames x 4 patches.
    rows = ["o" * 19,                         # [CLS] sees everything
            "xox" + "o" * 16]                 # level 0: stride 1, no coarser MST
    rows.append("xoo" + "oooo" + "xxxx" + "oooo" + "xxxx")   # level 1: frames {0,2}
    for t in range(4):
        blocks = "".join("oooo" if b == t else "xxxx" for b in range(4))
        rows.extend(["xoo" + blocks] * 4)     # patches: MSTs + own frame, no [CLS]
    expected = np.array([[c == "x" for c in row] for row in rows])
    got = gst_stacked_mask(FIG3)
    report(2, np.array_equal(got, expected),
           "19x19 stacked mask matches the hand enumeration")


def test_criterion_03_zero_init_identity():
    cfg, _, params, rng = toy_setup()
    failure = check_slt_identity(
        cfg, params, [rng.normal(size=(FIG3.seq_len, 8)) for _ in range(100)])
    report(3, failure is None,
           failure or "SlT block bitwise identity on 100 random inputs")


def test_criterion_04_mask_enforcement():
    cfg, _, params, rng = toy_setup()
    for l in range(cfg.L):    # give SlT real weights too
        params[f"layer{l}.slt.wo"] = rng.normal(0.0, 0.1, (8, 8))
    z = rng.normal(size=(FIG3.seq_len, 8))
    failure = check_masked_weights(layer_weights(cfg, params, z))
    report(4, failure is None,
           failure or "masked weights exactly 0; rows sum to 1 +- 1e-12")


def test_criterion_05_gradient_fidelity():
    t0 = time.monotonic()
    cfg, tcfg, params, rng = toy_setup(seed=11)
    # randomize the structurally-zero groups so gradients actually flow
    for l in range(cfg.L):
        params[f"layer{l}.slt.wo"] = rng.normal(0.0, 0.3, (8, 8))
    params["pos.temporal"] = rng.normal(0.0, 0.05, params["pos.temporal"].shape)
    params["log_tau"] = np.asarray(math.log(0.5))
    batch = AlignmentBatch([rng.normal(size=(4, 8, 8, 3)) for _ in range(4)],
                           [[1 + i] for i in range(4)],
                           [[9 + i] for i in range(4)])

    tape = Tape()
    pid = register_params(tape, params)
    from hta.alignment import total_loss_node
    loss_node = total_loss_node(tape, batch, pid, cfg, tcfg)
    node_grads = tape.backward(loss_node)

    def loss():
        return total_loss(batch, params, cfg, tcfg)

    # directional derivative per parameter group: robust against the
    # roundoff floor that single tiny coordinates would hit
    h = 1e-6
    worst = (0.0, "")
    for name, value in params.items():
        g = np.asarray(node_grads[pid[name]])
        d = rng.normal(size=value.shape)
        d /= np.linalg.norm(d) if value.ndim else 1.0
        analytic = float((g * d).sum())
        orig = value.copy()
        value += h * d
        hi = loss()
        value[...] = orig - h * d
        lo = loss()
        value[...] = orig
        err = rel_err((hi - lo) / (2 * h), analytic, 1e-7)
        if err > worst[0]:
            worst = (err, name)
    elapsed = time.monotonic() - t0
    report(5, worst[0] <= 1e-4 and elapsed < 60.0,
           f"worst rel err {worst[0]:.2e} ({worst[1]}) in {elapsed:.1f}s")


def test_criterion_06_closed_form_loss():
    two = info_nce(np.eye(2), np.eye(2), 1.0)
    expected = 2.0 * math.log(1.0 + math.exp(-1.0))
    one = info_nce(np.ones((1, 3)), np.ones((1, 3)), 1.0)
    report(6, abs(two - expected) <= 1e-9 and one == 0.0,
           f"B=2 loss {two:.9f} (target {expected:.9f}); B=1 loss {one}")


def test_criterion_07_synthetic_alignment():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    lay = TokenLayout(T=4, N=4, U=2, V=1, r=2, d=64)
    vcfg = VideoTowerConfig(layout=lay, L=4, heads=4, D=32, patch=4)
    tcfg = TextTowerConfig(vocab=70, context=4, D=32, width=32)
    clips, subs, caps = [], [], []
    for i in range(64):   # shared low-res latent, upsampled, per-frame noise
        base = rng.normal(size=(4, 4, 3))
        up = np.kron(base, np.ones((2, 2, 1)))
        clips.append(np.stack([up + 0.1 * rng.normal(size=up.shape)
                               for _ in range(4)]))
        subs.append([i])
        caps.append([i])
    dataset = AlignmentBatch(clips, subs, caps)
    params = init_video_params(vcfg, rng)
    params.update(init_text_params(tcfg, rng))
    config = TrainConfig(steps=350, base_lr=3e-3, final_lr=1e-4,
                         batch_size=8, init_tau=0.07)
    trace = train(dataset, params, vcfg, tcfg, config, seed=1)

    losses = np.array([t[1] for t in trace])
    medians = [float(np.median(losses[i:i + 50]))
               for i in range(0, config.steps, 50)]
    monotone = all(a > b for a, b in zip(medians, medians[1:]))

    v = np.concatenate([video_embeddings(clips[i:i + 8], params, vcfg)
                        for i in range(0, 64, 8)])
    t = np.stack([text_embedding(s, params, tcfg) for s in subs])
    r1 = metrics_from_ranks(ranks(similarity(t, v))).r1 / 100.0
    elapsed = time.monotonic() - t0
    report(7, r1 >= 0.95 and monotone and elapsed < 180.0,
           f"t2v R@1 {r1:.3f}, window medians "
           f"{['%.3f' % m for m in medians]}, {elapsed:.0f}s")


def test_criterion_08_metric_oracle():
    rng = np.random.default_rng(8)
    matrices = [rng.normal(size=(8, 8)) for _ in range(200)]
    matrices += [rng.normal(size=(q, q)) for q in (1, 2, 5, 17)]    # other sizes
    matrices.append(rng.integers(0, 3, size=(8, 8)).astype(float))   # ties
    failure = check_ranks(matrices)
    rep = metrics_from_ranks(np.array([1, 2, 6]))
    ok = round(rep.r1, 2) == 33.33 and rep.mdr == 2 and rep.mnr == 3.0
    report(8, failure is None and ok,
           failure or f"{len(matrices)} matrices exact; fixture R@1 {rep.r1:.2f}, "
                      f"MdR {rep.mdr:g}, MnR {rep.mnr}")


def test_criterion_09_dual_softmax_properties():
    rng = np.random.default_rng(9)
    equiv = True
    for _ in range(100):
        s = rng.normal(size=(6, 6))
        p, q = rng.permutation(6), rng.permutation(6)
        a = dual_softmax(s[np.ix_(p, q)])
        b = dual_softmax(s)[np.ix_(p, q)]
        # summation order differs under permutation; exact up to 1 ulp
        equiv &= bool(np.abs(a - b).max() <= 1e-15)
    preserved = True
    for _ in range(20):
        s = rng.uniform(0.0, 0.6, size=(5, 5))
        np.fill_diagonal(s, 0.9)
        assert (brute_force_ranks(s) == 1).all()   # dominance, by oracle
        preserved &= (metrics_from_ranks(ranks(dual_softmax(s))).as_dict()
                      == metrics_from_ranks(ranks(s)).as_dict())
    report(9, equiv and preserved,
           "permutation-equivariant; metrics preserved under dominance")


def test_criterion_10_curation_properties():
    from hta.datapipe import (SummarizerSpec, TranscriptSentence,
                              extract_clips, summarize_clips)
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    t, sentences = 0.0, []
    for i in range(1000):
        d = float(rng.exponential(6.0))
        words = " ".join(f"w{i}_{j}" for j in range(int(rng.integers(3, 12))))
        sentences.append(TranscriptSentence(words + ".", t, t + d))
        t += d
    clips = extract_clips("v", sentences)
    summarize_clips(clips, SummarizerSpec())

    ok, detail = True, []
    for name, target in (("short", 13.0), ("medium", 30.0), ("long", 60.0)):
        group = [c for c in clips if c.scale == name]
        mean = sum(c.duration for c in group) / len(group)
        ok &= abs(mean - target) <= 0.2 * target
        detail.append(f"{name} {mean:.1f}s")
        # zero sentence-splitting violations: boundaries are sentence
        # boundaries and the ranges tile the corpus exactly
        covered = []
        for c in group:
            a, b = c.sentence_range
            ok &= c.start == sentences[a].start and c.end == sentences[b].end
            covered.extend(range(a, b + 1))
        ok &= covered == list(range(1000))
    # cap applies to produced summaries; short clips bypass verbatim
    ok &= all(len(c.summarized_subtitle.split()) <= 25
              for c in clips if c.scale != "short")
    ok &= all(c.summarized_subtitle == c.subtitle
              for c in clips if c.scale == "short")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(10, ok, f"means {', '.join(detail)} in {elapsed:.2f}s")


def test_criterion_11_determinism():
    # byte-identical repeat of a seeded train + encode round; the < 5 min
    # single-threaded budget for the whole suite is checked by timing a
    # full pytest run, not by this test
    def round_trip():
        cfg, tcfg, params, rng = toy_setup(seed=3)
        batch = AlignmentBatch([rng.normal(size=(4, 8, 8, 3)) for _ in range(4)],
                               [[1 + i] for i in range(4)],
                               [[9 + i] for i in range(4)])
        trace = train(batch, params, cfg, tcfg,
                      TrainConfig(steps=10, base_lr=1e-3, final_lr=1e-4,
                                  batch_size=4), seed=0)
        emb = video_embedding(batch.clips[0], params, cfg)
        return trace, emb

    (trace1, emb1), (trace2, emb2) = round_trip(), round_trip()
    report(11, trace1 == trace2 and np.array_equal(emb1, emb2),
           "seeded train + encode repeats byte-identically")
