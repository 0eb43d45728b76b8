"""Quick invariant suite behind `hta selftest` — a fast subset of the test
suite suitable for an installed package."""

from __future__ import annotations

import numpy as np

from .masks import TokenLayout, gst_stacked_mask, slt_mask
from .oracles import brute_force_ranks, reference_stacked_mask
from .retrieval import evaluate
from .tape import MASK_NEG, Tape, masked_softmax_value
from .towers import VideoTowerConfig, init_video_params, register_params, slt_block


def run(seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    checks = []

    # Mask constructors vs brute-force predicates on a few layouts.
    ok = True
    for t, n, u, v, r in ((4, 4, 2, 1, 2), (2, 1, 0, 1, 2), (8, 9, 3, 4, 3)):
        lay = TokenLayout(T=t, N=n, U=u, V=v, r=r)
        ok &= np.array_equal(gst_stacked_mask(lay), reference_stacked_mask(lay))
    checks.append(("mask oracle equivalence", ok))

    # Masked softmax: rows sum to 1, blocked entries exactly zero.
    lay = TokenLayout(T=4, N=4, U=2, V=1, r=2)
    mask = slt_mask(lay)
    logits = rng.normal(size=mask.shape)
    p = masked_softmax_value(logits, mask)
    checks.append(("masked softmax rows", np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
                   and np.all(p[mask <= MASK_NEG] == 0.0)))

    # Zero-init SlT identity.
    cfg = VideoTowerConfig(layout=TokenLayout(T=4, N=4, U=2, V=1, r=2, d=8),
                           L=1, heads=2, D=4)
    params = init_video_params(cfg, rng)
    tape = Tape()
    pid = register_params(tape, params)
    z = tape.constant(rng.normal(size=(cfg.layout.seq_len, 8)))
    out = slt_block(tape, z, 0, pid, cfg)
    checks.append(("zero-init SlT identity",
                   np.array_equal(tape.value(out), tape.value(z))))

    # Retrieval metrics vs brute-force ranker.
    s = rng.normal(size=(8, 8))
    checks.append(("retrieval rank oracle",
                   evaluate(s).mnr == float(brute_force_ranks(s).mean())))

    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0
