"""The package's four invariant checks, each written once. `hta selftest`
(`run`) calls them on small inputs; the acceptance suite calls them on its
full inputs. A check returns None when the invariant holds on every input,
else a one-line message that names the first input breaking it. The masked
weights check judges the weights that the towers' own blocks compute."""

from __future__ import annotations

import numpy as np

from .masks import TokenLayout, gst_stacked_mask, slt_mask
from .oracles import brute_force_ranks, reference_slt_mask, reference_stacked_mask
from .retrieval import dual_softmax, paired_ranks
from .tape import Tape
from .towers import (VideoTowerConfig, gst_block, init_video_params, register_params,
                     slt_block)


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
                    tape.value(slt_block(tape, tape.constant(z[None]), l, pid, config)),
                    z[None]):
                return f"SlT layer {l} is not an identity on input {i}"
    return None


class _Attended(Exception):
    """Carries a block's first softmax node out of the block."""


def layer_weights(config: VideoTowerConfig, params, z):
    """(label, weights, mask) for every head of the SlT and GST blocks of
    every layer, each block applied to the same [S, d] sequence z. The
    weights are those of the block's own first masked softmax, its
    [G, heads, t, t] groups laid out as [heads, t*G, t*G] (group g's position
    t at t*G + g); the mask is the masks-module predicate."""
    tape = Tape()
    pid = register_params(tape, params, requires_grad=False)

    def stop(logits, blocked):
        raise _Attended(Tape.masked_softmax(tape, logits, blocked))
    tape.masked_softmax = stop
    x, lay = tape.constant(z[None]), config.layout
    for l in range(config.L):
        for blk, block, mask in (("slt", slt_block, slt_mask(lay)),
                                 ("gst", gst_block, gst_stacked_mask(lay))):
            try:
                block(tape, x, l, pid, config)
            except _Attended as hit:
                w = hit.args[0].value[0]     # [G, heads, t, t] of the one clip
            g, heads, t = w.shape[:3]
            full = np.zeros((heads, t * g, t * g))
            for k in range(g):
                full[:, k::g, k::g] = w[k]
            for h in range(heads):
                yield f"layer{l}.{blk} head {h}", full[h], mask


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
    """The ranker of `hta eval`, retrieval.paired_ranks, equals the sort-based
    brute-force ranker exactly, on each square matrix s and on its dual
    softmax: at alpha = 100, at alpha = 1e5, where products underflow, and
    at alpha = 100 on s / 100 with each odd column an ulp-nudged copy of the
    one before, and on s / 100 + 10 I with its first two rows swapped, whose
    ground-truth products underflow there, so that the exact path settles
    the near-ties and those two rows. It ranks s against the identity, since
    s @ I = s exactly."""
    for i, s in enumerate(matrices):
        eye = np.eye(len(s))
        if not np.array_equal(paired_ranks(s, eye), brute_force_ranks(s)):
            return f"ranks differ from the brute-force ranker on matrix {i} {s.shape}"
        twins = s / 100
        twins[:, 1::2] = np.nextafter(twins[:, :-1:2], np.inf)
        swapped = s / 100 + 10 * eye
        swapped[:2] = swapped[1::-1]             # no-op for a 1 x 1 s
        for m, alpha, what in ((s, 100.0, ""), (s, 1e5, ""),
                               (twins, 100.0, " with twin columns"),
                               (swapped, 100.0, " with two rows swapped")):
            if not np.array_equal(paired_ranks(m, eye, alpha),
                                  brute_force_ranks(dual_softmax(m, alpha))):
                return (f"dual-softmax ranks at alpha {alpha:g} differ from the "
                        f"brute-force ranker on matrix {i} {s.shape}{what}")
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
