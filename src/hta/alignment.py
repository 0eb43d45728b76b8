"""Dual-supervision contrastive objective and a small AdamW training loop.

The loss aligns each video embedding with two text embeddings (subtitle and
caption) via a symmetric info-NCE over in-batch negatives, with a learnable
temperature kept positive by optimizing its log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LOG_TAU_FLOOR, DivergenceError, TrainConfig
from .tape import Tape
from .towers import (TextTowerConfig, VideoTowerConfig, encode_text,
                     encode_video_batch, register_params)


@dataclass
class AlignmentBatch:
    """B (clip, subtitle tokens, caption tokens) triplets, paired by index."""
    clips: list
    subtitles: list
    captions: list

    def __post_init__(self):
        b = len(self.clips)
        if b < 1 or len(self.subtitles) != b or len(self.captions) != b:
            raise ValueError("clips, subtitles and captions must share length B >= 1")

    def __len__(self):
        return len(self.clips)


def info_nce_node(tape: Tape, v: int, t: int, log_tau: int) -> int:
    """Tape version of `oracles.info_nce`, with tau = exp(log_tau)."""
    sims = tape.bmm(v, tape.transpose(t))
    scaled = tape.mul(sims, tape.exp(tape.scale(log_tau, -1.0)))
    return tape.add(tape.cross_entropy_diag(scaled),
                    tape.cross_entropy_diag(tape.transpose(scaled)))


def total_loss_node(tape: Tape, batch: AlignmentBatch, pid: dict[str, int],
                    vcfg: VideoTowerConfig, tcfg: TextTowerConfig) -> int:
    """info_nce(video, subtitle) + info_nce(video, caption) on the tape."""
    v = encode_video_batch(tape, batch.clips, pid, vcfg)
    s = encode_text(tape, batch.subtitles, pid, tcfg)
    c = encode_text(tape, batch.captions, pid, tcfg)
    lt = pid["log_tau"]
    return tape.add(info_nce_node(tape, v, s, lt), info_nce_node(tape, v, c, lt))


def cosine_lr(step: int, config: TrainConfig) -> float:
    """Cosine decay from base_lr to final_lr over config.steps."""
    if config.steps <= 1:
        return config.base_lr
    frac = step / (config.steps - 1)
    return config.final_lr + 0.5 * (config.base_lr - config.final_lr) * (
        1.0 + math.cos(math.pi * frac))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm.
    Returns the pre-clip norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class AdamW:
    """AdamW with decoupled weight decay. No decay on the temperature, layer
    norm gains/biases, or other 1-D parameters, following common practice."""

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name in sorted(params):
            g = grads.get(name)
            if g is None:
                continue
            p = params[name]
            if p.ndim >= 2:     # the 0-d temperature and 1-D vectors never decay
                p -= lr * cfg.weight_decay * p
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def _train_step(batch: AlignmentBatch, params: dict[str, np.ndarray], opt: AdamW,
                vcfg: VideoTowerConfig, tcfg: TextTowerConfig, lr: float,
                step: int) -> float:
    """One optimizer step on `batch`; returns its loss. The tape and the
    gradients die with the call, so the next step starts without them."""
    tape = Tape()
    pid = register_params(tape, params)
    loss_node = total_loss_node(tape, batch, pid, vcfg, tcfg)
    loss = float(tape.value(loss_node))
    if not math.isfinite(loss):
        raise DivergenceError(step, loss)
    node_grads = tape.backward(loss_node)
    # copy: backward may hand out views, and clipping mutates in place
    grads = {name: np.array(node_grads[nid], dtype=np.float64)
             for name, nid in pid.items() if nid in node_grads}
    clip_by_global_norm(grads, opt.config.clip_norm)
    opt.step(params, grads, lr)
    params["log_tau"] = np.maximum(params["log_tau"], LOG_TAU_FLOOR)
    return loss


def train(dataset: AlignmentBatch, params: dict[str, np.ndarray],
          vcfg: VideoTowerConfig, tcfg: TextTowerConfig, config: TrainConfig,
          seed: int = 0):
    """Optimize params in place on in-batch negatives drawn from `dataset`.

    Returns the per-step trace as a list of (step, loss, lr, tau) tuples.
    Raises DivergenceError on the first non-finite loss; numpy's overflow and
    invalid-value warnings on the way there are silenced, since that check
    reports them.
    """
    if len(dataset) < 1:
        raise ValueError("empty dataset")
    params.setdefault("log_tau", np.asarray(math.log(config.init_tau)))
    opt = AdamW(params, config)
    rng = np.random.default_rng(seed)
    trace = []
    b = min(config.batch_size, len(dataset))
    for step in range(config.steps):
        idx = rng.choice(len(dataset), size=b, replace=False)
        batch = AlignmentBatch([dataset.clips[i] for i in idx],
                               [dataset.subtitles[i] for i in idx],
                               [dataset.captions[i] for i in idx])
        lr = cosine_lr(step, config)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = _train_step(batch, params, opt, vcfg, tcfg, lr, step)
            trace.append((step, loss, lr, float(np.exp(params["log_tau"]))))
    return trace
