"""Video tower with hierarchical temporal attention, and a small text tower.

Per transformer layer the video tower applies, in order:
  1. spatially-local temporal attention over patch tokens only (SlT),
     with [CLS]/[MST] rows passed through untouched,
  2. global spatio-temporal attention over each clip's full sequence (GST),
  3. an MLP, each step with a residual connection.
The final-layer [CLS] row, linearly projected and L2-normalized, is the
video embedding. The text tower is a deliberately simple stand-in:
embedding + position lookup, mean pool, linear projection, L2 norm.

All forward code is written against a `Tape` so the whole model is
differentiable end to end. A batch of B clips is a [B, S, d] residual stream.
GST attends within each clip's S tokens under one shared S x S mask, and SlT
attends within each (clip, spatial position) group of T patch tokens, which
is exactly the SlT mask predicate, so it needs no mask at all. Single clips
are the B=1 case of the same code path.

The embedding reads only the final [CLS] rows, so the last GST block takes
queries from position 0 alone: its attention, output projection, residual
and MLP run on B rows, while every token of the last SlT output still serves
as a key and a value. Inference registers only the tower's own parameters
(`tower_params`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .masks import TokenLayout, gst_stacked_mask
from .tape import Tape

MLP_RATIO = 4       # MLP hidden width, in multiples of the token width d
INIT_STD = 0.02     # standard deviation of every randomly initialized weight


@dataclass(frozen=True)
class VideoTowerConfig:
    layout: TokenLayout
    L: int = 4
    heads: int = 4
    D: int = 32
    patch: int = 4              # patch side P; frames are H x W x 3, H,W % P == 0

    def __post_init__(self):
        if self.heads < 1 or self.patch < 1:
            raise ValueError(f"heads and patch must be >= 1, got heads={self.heads}, "
                             f"patch={self.patch}")
        if self.layout.d % self.heads != 0:
            raise ValueError(f"d={self.layout.d} not divisible by heads={self.heads}")
        if self.L < 1 or self.D < 1:
            raise ValueError("L and D must be >= 1")


@dataclass(frozen=True)
class TextTowerConfig:
    vocab: int = 256
    context: int = 32
    D: int = 32
    width: int = 32


def init_video_params(config: VideoTowerConfig,
                      rng: np.random.Generator) -> dict[str, np.ndarray]:
    lay = config.layout
    d = lay.d
    pdim = config.patch * config.patch * 3
    p = {
        "patch_proj.w": rng.normal(0.0, INIT_STD, (pdim, d)),
        "patch_proj.b": np.zeros(d),
        "pos.spatial": rng.normal(0.0, INIT_STD, (lay.N, d)),
        # temporal embeddings start at zero: at init every frame is treated
        # like a still image and per-frame representations are symmetric
        "pos.temporal": np.zeros((lay.T, d)),
        "cls": rng.normal(0.0, INIT_STD, (1, d)),
        "head.w": rng.normal(0.0, INIT_STD, (d, config.D)),
    }
    if lay.num_mst:
        p["mst"] = rng.normal(0.0, INIT_STD, (lay.num_mst, d))
    for l in range(config.L):
        for blk in ("slt", "gst"):
            pre = f"layer{l}.{blk}"
            p[f"{pre}.ln.g"] = np.ones(d)
            p[f"{pre}.ln.b"] = np.zeros(d)
            for w in ("wq", "wk", "wv"):
                p[f"{pre}.{w}"] = rng.normal(0.0, INIT_STD, (d, d))
            for b in ("bq", "bk", "bv", "bo"):
                p[f"{pre}.{b}"] = np.zeros(d)
            # SlT output projections start at zero so each block is an exact
            # identity at initialization.
            if blk == "slt":
                p[f"{pre}.wo"] = np.zeros((d, d))
            else:
                p[f"{pre}.wo"] = rng.normal(0.0, INIT_STD, (d, d))
        h = MLP_RATIO * d
        p[f"layer{l}.mlp.w1"] = rng.normal(0.0, INIT_STD, (d, h))
        p[f"layer{l}.mlp.b1"] = np.zeros(h)
        p[f"layer{l}.mlp.w2"] = rng.normal(0.0, INIT_STD, (h, d))
        p[f"layer{l}.mlp.b2"] = np.zeros(d)
    return p


def init_text_params(config: TextTowerConfig,
                     rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "text.emb": rng.normal(0.0, INIT_STD, (config.vocab, config.width)),
        "text.pos": rng.normal(0.0, INIT_STD, (config.context, config.width)),
        "text.proj.w": rng.normal(0.0, INIT_STD, (config.width, config.D)),
    }


# The text tower's parameter names. Every other name but the loss
# temperature "log_tau" is a video tower parameter.
TEXT_PARAMS = ("text.emb", "text.pos", "text.proj.w")


def tower_params(params: dict[str, np.ndarray], tower: str) -> dict[str, np.ndarray]:
    """The parameters of one tower, "video" or "text", out of `params`."""
    if tower == "text":
        return {name: params[name] for name in TEXT_PARAMS}
    return {name: v for name, v in params.items()
            if name not in TEXT_PARAMS and name != "log_tau"}


def register_params(tape: Tape, params: dict[str, np.ndarray],
                    requires_grad: bool = True) -> dict[str, int]:
    return {name: tape.leaf(v, requires_grad) for name, v in params.items()}


def patchify(clip: np.ndarray, patch: int) -> np.ndarray:
    """[T, H, W, 3] -> [T*N, P*P*3] rows in frame-major, raster patch order."""
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 4 or clip.shape[3] != 3:
        raise ValueError(f"expected clip [T, H, W, 3], got {clip.shape}")
    t, h, w, _ = clip.shape
    if h % patch or w % patch:
        raise ValueError(f"frame size {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = clip.reshape(t, gh, patch, gw, patch, 3)
    x = x.transpose(0, 1, 3, 2, 4, 5)          # t, gh, gw, P, P, 3
    return x.reshape(t * gh * gw, patch * patch * 3)


@lru_cache(maxsize=32)
def _gst_mask(layout: TokenLayout) -> np.ndarray:
    return gst_stacked_mask(layout)


# -- forward blocks ------------------------------------------------------------

def embed_frames_batch(tape: Tape, clips, pid: dict[str, int],
                       config: VideoTowerConfig) -> int:
    """Patch tokens [B, T*N, d]: linear patch projection + spatial and temporal
    position embeddings."""
    lay = config.layout
    patches = [patchify(c, config.patch) for c in clips]
    for i, (clip, p) in enumerate(zip(clips, patches)):
        if len(clip) != lay.T or len(p) != lay.T * lay.N:
            raise ValueError(
                f"clip {i} has shape {np.shape(clip)}, layout expects {lay.T} "
                f"frames of {lay.N} patches of {config.patch}x{config.patch}")
    x = tape.linear(tape.constant(np.stack(patches)), pid["patch_proj.w"],
                    pid["patch_proj.b"])
    x = tape.reshape(x, (len(clips), lay.T, lay.N, lay.d))
    x = tape.add(x, pid["pos.spatial"])
    x = tape.add(x, tape.reshape(pid["pos.temporal"], (lay.T, 1, lay.d)))
    return tape.reshape(x, (len(clips), lay.T * lay.N, lay.d))


def _attention(tape: Tape, x: int, pre: str, pid: dict[str, int],
               mask: np.ndarray, heads: int, stride: int = 1,
               rows=None) -> int:
    """Multi-head masked self-attention within each sequence of x [B, n, d]
    (post-LN input).

    Positions i and j of a sequence attend each other iff i = j mod stride,
    so each sequence holds `stride` interleaved groups of s = len(mask)
    positions, and each group becomes one entry of a [B, stride, heads] batch
    of attentions. Keys and values come from every position, queries only
    from the positions `rows` (a take_rows key, with stride 1; None: all n),
    and the output is [B, queries, d], in the order of x.
    """
    b, n, d = tape.value(x).shape
    s, dh = mask.shape[1], d // heads
    if n != s * stride:
        raise ValueError(f"sequence shape {(b, n, d)} != (B, {s * stride}, d)")
    x_q = x
    if rows is not None:
        mask = mask[rows]
        x_q = tape.take_rows(x, rows, axis=1)

    def project(src: int, w: str, axes) -> int:
        y = tape.linear(src, pid[f"{pre}.w{w}"], pid[f"{pre}.b{w}"])
        return tape.transpose(tape.reshape(y, (b, -1, stride, heads, dh)), axes)

    q = project(x_q, "q", (0, 2, 3, 1, 4))   # [B, stride, heads, q, dh]
    kt = project(x, "k", (0, 2, 3, 4, 1))      # [B, stride, heads, dh, s]
    v = project(x, "v", (0, 2, 3, 1, 4))       # [B, stride, heads, s, dh]
    logits = tape.scale(tape.bmm(q, kt), 1.0 / math.sqrt(dh))
    out = tape.bmm(tape.masked_softmax(logits, mask), v)
    merged = tape.reshape(tape.transpose(out, (0, 3, 1, 2, 4)), (b, -1, d))
    return tape.linear(merged, pid[f"{pre}.wo"], pid[f"{pre}.bo"])


def slt_block(tape: Tape, z: int, layer: int, pid: dict[str, int],
              config: VideoTowerConfig) -> int:
    """Spatially-local temporal attention on z [B, S, d]; [CLS]/[MST] rows
    bypass it."""
    lay = config.layout
    ns = 1 + lay.num_mst
    special = tape.take_rows(z, slice(0, ns), axis=1)
    patches = tape.take_rows(z, slice(ns, None), axis=1)
    pre = f"layer{layer}.slt"
    x = tape.layer_norm(patches, pid[f"{pre}.ln.g"], pid[f"{pre}.ln.b"])
    # frames of one spatial position are N rows apart within a clip's patches
    attn = _attention(tape, x, pre, pid, np.zeros((lay.T, lay.T), bool), config.heads,
                      stride=lay.N)
    return tape.concat_rows([special, tape.add(attn, patches)], axis=1)


def gst_block(tape: Tape, z: int, layer: int, pid: dict[str, int],
              config: VideoTowerConfig, rows=None) -> int:
    """Global spatio-temporal attention within each clip of z [B, S, d], then
    MLP, each with a residual. Only the positions `rows` of each clip (a
    take_rows key; None: all S) are computed, and the output is [B, rows, d];
    every position still serves as a key and a value."""
    pre = f"layer{layer}.gst"
    x = tape.layer_norm(z, pid[f"{pre}.ln.g"], pid[f"{pre}.ln.b"])
    if rows is not None:
        z = tape.take_rows(z, rows, axis=1)
    z = tape.add(_attention(tape, x, pre, pid, _gst_mask(config.layout), config.heads,
                            rows=rows), z)
    m = f"layer{layer}.mlp"
    h = tape.gelu(tape.linear(z, pid[f"{m}.w1"], pid[f"{m}.b1"]))
    mlp = tape.linear(h, pid[f"{m}.w2"], pid[f"{m}.b2"])
    return tape.add(mlp, z)


def encode_video_batch(tape: Tape, clips, pid: dict[str, int],
                       config: VideoTowerConfig) -> int:
    """Unit-norm video embeddings as a [B, D] tape node."""
    lay = config.layout
    b = len(clips)
    patches = embed_frames_batch(tape, clips, pid, config)
    specials = [pid["cls"]]
    if lay.num_mst:
        specials.append(pid["mst"])
    special = tape.broadcast_to(tape.concat_rows(specials),
                                (b, 1 + lay.num_mst, lay.d))
    z = tape.concat_rows([special, patches], axis=1)
    for l in range(config.L):
        z = slt_block(tape, z, l, pid, config)
        # the embedding reads only the final [CLS] rows, so the last GST
        # block computes just those: z ends as [B, 1, d]
        last = l == config.L - 1
        z = gst_block(tape, z, l, pid, config, rows=slice(0, 1) if last else None)
    return tape.normalize_rows(tape.matmul(tape.reshape(z, (b, lay.d)), pid["head.w"]))


def encode_text(tape: Tape, token_lists, pid: dict[str, int],
                config: TextTowerConfig) -> int:
    """Unit-norm text embeddings of B token lists as a [B, D] tape node
    (mean-pool stand-in, order-insensitive by construction)."""
    lens = [len(ids) for ids in token_lists]
    if min(lens) == 0:
        raise ValueError("empty token sequence")
    if max(lens) > config.context:
        raise ValueError(
            f"input has {max(lens)} tokens, context length is {config.context}"
        )
    ids = np.concatenate([np.asarray(x, dtype=np.int64) for x in token_lists])
    if ids.min() < 0 or ids.max() >= config.vocab:
        raise ValueError("token id out of vocabulary range")
    positions = np.concatenate([np.arange(n) for n in lens])
    x = tape.add(tape.take_rows(pid["text.emb"], ids),
                 tape.take_rows(pid["text.pos"], positions))
    # row i of the pooling matrix averages the tokens of list i
    pool = np.repeat(np.eye(len(lens)) / np.array(lens)[:, None], lens, axis=1)
    pooled = tape.matmul(tape.constant(pool), x)
    return tape.normalize_rows(tape.matmul(pooled, pid["text.proj.w"]))


def video_embedding(clip, params: dict[str, np.ndarray],
                    config: VideoTowerConfig) -> np.ndarray:
    """Forward-only convenience wrapper returning a [D] vector."""
    return video_embeddings([clip], params, config)[0]


def video_embeddings(clips, params: dict[str, np.ndarray],
                     config: VideoTowerConfig) -> np.ndarray:
    tape = Tape()
    pid = register_params(tape, tower_params(params, "video"),
                          requires_grad=False)   # records no vjps
    return tape.value(encode_video_batch(tape, clips, pid, config))


def text_embedding(token_ids, params: dict[str, np.ndarray],
                   config: TextTowerConfig) -> np.ndarray:
    tape = Tape()
    pid = register_params(tape, tower_params(params, "text"),
                          requires_grad=False)   # records no vjps
    return tape.value(encode_text(tape, [token_ids], pid, config))[0]
