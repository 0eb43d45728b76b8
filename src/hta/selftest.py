"""The package's four invariant checks, each written once. `hta selftest`
(`run`) calls them on small inputs; the acceptance suite calls them on its
full inputs. A check returns None when the invariant holds on every input,
else a one-line message that names the first input breaking it."""

from __future__ import annotations

import math

import numpy as np

from .masks import TokenLayout, gst_stacked_mask, slt_mask
from .oracles import brute_force_ranks, reference_slt_mask, reference_stacked_mask
from .retrieval import ranks
from .tape import Tape, layer_norm_value, masked_softmax_value
from .towers import VideoTowerConfig, init_video_params, register_params, slt_block


def check_masks(layouts) -> str | None:
    """Both mask families equal their brute-force oracles entry for entry."""
    for lay in layouts:
        for family, build, oracle in (("slt", slt_mask, reference_slt_mask),
                                      ("gst", gst_stacked_mask, reference_stacked_mask)):
            if not np.array_equal(build(lay), oracle(lay)):
                return f"{family} mask differs from its oracle at {lay}"
    return None


def check_slt_identity(config: VideoTowerConfig, params, inputs) -> str | None:
    """The SlT block of every layer returns each [S, d] input bitwise, as it
    must while the SlT output projections are zero."""
    for i, z in enumerate(inputs):
        tape = Tape()
        pid = register_params(tape, params)
        for l in range(config.L):
            if not np.array_equal(
                    tape.value(slt_block(tape, tape.constant(z), l, pid, config)), z):
                return f"SlT layer {l} is not an identity on input {i}"
    return None


def head_weights(x_pre, params, pre: str, mask, heads: int) -> list[np.ndarray]:
    """Per-head attention weights of block `pre` on the rows x_pre, recomputed
    in plain numpy from its layer norm and q/k projections."""
    x, _, _ = layer_norm_value(x_pre, params[f"{pre}.ln.g"], params[f"{pre}.ln.b"])
    q = x @ params[f"{pre}.wq"] + params[f"{pre}.bq"]
    k = x @ params[f"{pre}.wk"] + params[f"{pre}.bk"]
    dh = x.shape[1] // heads
    return [masked_softmax_value(q[:, h * dh:(h + 1) * dh] @ k[:, h * dh:(h + 1) * dh].T
                                 / math.sqrt(dh), mask) for h in range(heads)]


def layer_weights(config: VideoTowerConfig, params, z):
    """(label, weights, mask) for every head of the SlT and GST blocks of
    every layer, each block applied to the same [S, d] sequence z."""
    lay = config.layout
    blocks = (("slt", z[1 + lay.num_mst:], slt_mask(lay)),
              ("gst", z, gst_stacked_mask(lay)))
    for l in range(config.L):
        for blk, x, mask in blocks:
            for h, w in enumerate(head_weights(x, params, f"layer{l}.{blk}", mask,
                                               config.heads)):
                yield f"layer{l}.{blk} head {h}", w, mask


def check_masked_weights(cases) -> str | None:
    """For each (label, weights [..., s, s], mask [s, s]): the weights are
    exactly 0 where the mask blocks, and every row sums to 1 within 1e-12."""
    for label, w, mask in cases:
        if not (w[..., mask] == 0.0).all():
            return f"{label}: a blocked weight is not 0"
        err = np.abs(w.sum(axis=-1) - 1.0).max()
        if not err <= 1e-12:
            return f"{label}: a row sum is off from 1 by {err:.3g}"
    return None


def check_ranks(matrices) -> str | None:
    """retrieval.ranks equals the sort-based brute-force ranker exactly."""
    for i, s in enumerate(matrices):
        if not np.array_equal(ranks(s), brute_force_ranks(s)):
            return f"ranks differ from the brute-force ranker on matrix {i} {s.shape}"
    return None


def run(seed: int = 0) -> int:
    """Every check on small inputs; prints one PASS/FAIL line per check and
    returns the exit code."""
    rng = np.random.default_rng(seed)
    layouts = [TokenLayout(T=t, N=n, U=u, V=v, r=r)
               for t, n, u, v, r in ((4, 4, 2, 1, 2), (2, 1, 0, 1, 2), (8, 9, 3, 4, 3),
                                     (4, 1, 9, 1, 256))]     # r^8 = 2^64
    cfg = VideoTowerConfig(layout=TokenLayout(T=4, N=4, U=2, V=1, r=2, d=8),
                           L=2, heads=2, D=4)
    params = init_video_params(cfg, rng)
    inputs = [rng.normal(size=(cfg.layout.seq_len, 8)) for _ in range(3)]
    checks = [
        ("mask oracle equivalence", check_masks(layouts)),
        ("zero-init SlT identity", check_slt_identity(cfg, params, inputs)),
        ("masked attention weights",
         check_masked_weights(layer_weights(cfg, params, inputs[0]))),
        ("retrieval rank oracle",     # the integer matrix is full of ties
         check_ranks([rng.normal(size=(8, 8)), rng.integers(0, 3, (8, 8)) * 1.0])),
    ]
    for name, failure in checks:
        print(f"FAIL  {name}: {failure}" if failure else f"PASS  {name}")
    return 1 if any(failure for _, failure in checks) else 0
