"""Span tracing of the hta modules from outside the package.

`Tracer.install()` replaces public functions of each hta module with
wrappers that record a span (name, start, end, parent, run id) per call, and
count the work done at the same boundary. A function is rebound in every hta
module that imported it (for example `alignment.encode_text`, `cli.train`,
`towers.slt_mask`), and methods are wrapped on their class, so calls made
inside the package are traced too. Spans stay in memory until the workload
ends; `layer_metrics` derives self times (span minus child spans) from them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

from hta import alignment, cli, datapipe, masks, retrieval, tape, tensor_io, towers
from hta.alignment import AdamW
from hta.tape import Tape

MODULES = (masks, tape, towers, alignment, retrieval, datapipe, tensor_io, cli)

# Tape methods that are not ops: node creation, value access and the reverse
# pass (traced on its own as tape.backward).
_NOT_OPS = {"leaf", "constant", "value", "backward"}
TAPE_OPS = sorted(n for n, v in vars(Tape).items()
                  if callable(v) and not n.startswith("_") and n not in _NOT_OPS)

FUNCTIONS = {
    towers: ("embed_frames_batch", "slt_block", "gst_block", "encode_text",
             "video_embeddings", "text_embedding"),
    masks: ("slt_mask", "gst_stacked_mask"),
    alignment: ("train", "total_loss_node", "info_nce_node",
                "clip_by_global_norm"),
    retrieval: ("similarity", "dual_softmax", "ranks", "metrics_from_ranks"),
    tensor_io: ("read_tensor", "write_tensor", "save_checkpoint"),
    datapipe: ("segment", "read_transcript_line", "extract_clips",
               "caption_frames", "summarize_clips", "clip_to_json", "stats"),
    cli: ("run",),
}


def _hta1_bytes(shape) -> int:
    return 8 + 4 * len(shape) + 4 * int(np.prod(shape))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._allowed: dict[int, tuple[np.ndarray, int]] = {}

    def _wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, spans[parent][4] if stack else idx]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, out)
            return out

        return traced

    # -- counters, computed from shapes at the call boundary ---------------

    def _count_matmul(self, args, out):
        t, a, b = args
        (m, k), n = t.value(a).shape, t.value(b).shape[1]
        self.counts["matmul_flop"] += 2 * m * k * n

    def _count_softmax(self, args, out):
        t, logits, mask = args
        self.counts["score_elems"] += t.value(logits).size
        self.counts["mask_bytes"] += mask.nbytes
        # masks are cached arrays, so count their allowed entries once
        hit = self._allowed.get(id(mask))
        if hit is None or hit[0] is not mask:
            hit = self._allowed[id(mask)] = (mask, int(np.count_nonzero(mask == 0.0)))
        self.counts["allowed_elems"] += hit[1]

    def _count_clip(self, args, out):
        self.counts["clip_fired"] += out > args[1]

    def _count_read(self, args, out):
        self.counts["bytes_read"] += _hta1_bytes(out.shape)

    def _count_write(self, args, out):
        self.counts["bytes_written"] += _hta1_bytes(np.shape(args[1]))

    def _count_similarity(self, args, out):
        self.counts["matrix_bytes"] += out.nbytes

    def _count_clips(self, args, out):
        self.counts["sentences"] += len(args[1])
        self.counts["clips"] += len(out)

    def install(self) -> None:
        """Wrap every traced function and method; call once per process."""
        counters = {
            "read_tensor": self._count_read, "write_tensor": self._count_write,
            "clip_by_global_norm": self._count_clip,
            "similarity": self._count_similarity,
            "extract_clips": self._count_clips,
        }
        for module, names in FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                fn = getattr(module, attr)
                wrapped = self._wrap(f"{layer}.{attr}", fn, counters.get(attr))
                for mod in MODULES:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
        op_counters = {"matmul": self._count_matmul,
                       "masked_softmax": self._count_softmax}
        for op in TAPE_OPS + ["backward"]:
            setattr(Tape, op, self._wrap(f"tape.{op}", getattr(Tape, op),
                                         op_counters.get(op)))
        AdamW.step = self._wrap("alignment.AdamW.step", AdamW.step)


# Per-layer metrics derived from the spans; times are self times in ms.
PER_LAYER = (
    "towers.embed_frames_batch.self_ms",
    "towers.slt_block.self_ms",
    "towers.gst_block.self_ms",
    "towers.encode_text.self_ms",
    "towers.encode_text.calls",
    "towers.video_embeddings.self_ms",
    "towers.text_embedding.self_ms",
    "tape.masked_softmax.self_ms",
    "tape.masked_softmax.calls",
    "tape.masked_softmax.score_elems",
    "tape.masked_softmax.mask_bytes",
    "tape.masked_softmax.allowed_frac",
    "tape.matmul.self_ms",
    "tape.matmul.calls",
    "tape.matmul.fwd_gflop",
    "tape.ops",
    "tape.other_ops.self_ms",
    "tape.backward.self_ms",
    "masks.builds",
    "masks.build_ms",
    "alignment.train.self_ms",
    "alignment.total_loss_node.self_ms",
    "alignment.info_nce_node.self_ms",
    "alignment.clip_by_global_norm.self_ms",
    "alignment.clip_fired_frac",
    "alignment.AdamW.step.self_ms",
    "retrieval.similarity.self_ms",
    "retrieval.dual_softmax.self_ms",
    "retrieval.ranks.self_ms",
    "retrieval.metrics_from_ranks.self_ms",
    "retrieval.matrix_mb",
    "tensor_io.read_tensor.self_ms",
    "tensor_io.write_tensor.self_ms",
    "tensor_io.save_checkpoint.self_ms",
    "tensor_io.bytes_read",
    "tensor_io.bytes_written",
    "datapipe.segment.self_ms",
    "datapipe.read_transcript_line.self_ms",
    "datapipe.extract_clips.self_ms",
    "datapipe.caption_frames.self_ms",
    "datapipe.summarize_clips.self_ms",
    "datapipe.clip_to_json.self_ms",
    "datapipe.stats.self_ms",
    "datapipe.clips_per_sentence",
    "cli.run.self_ms",
    "trace.spans",
)

# On train workloads these layers are reported per training step.
PER_STEP_LAYERS = ("towers.", "tape.", "alignment.")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, steps: int = 1) -> dict[str, float]:
    """Per-layer metrics of the recorded spans and counters. Layers in
    PER_STEP_LAYERS are divided by `steps`; the rest are totals."""
    spans, c = tracer.spans, tracer.counts
    child = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        self_ms[name] += (end - start - child[i]) * 1e3
        calls[name] += 1
    reported_ops = ("tape.masked_softmax", "tape.matmul")
    out = {}
    for metric in PER_LAYER:
        if metric.endswith(".self_ms"):
            out[metric] = self_ms[metric[:-len(".self_ms")]]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[:-len(".calls")]]
    out.update({
        "tape.masked_softmax.score_elems": c["score_elems"],
        "tape.masked_softmax.mask_bytes": c["mask_bytes"],
        "tape.masked_softmax.allowed_frac": _ratio(c["allowed_elems"],
                                                   c["score_elems"]),
        "tape.matmul.fwd_gflop": c["matmul_flop"] / 1e9,
        "tape.ops": sum(calls[f"tape.{op}"] for op in TAPE_OPS),
        "tape.other_ops.self_ms": sum(self_ms[f"tape.{op}"] for op in TAPE_OPS
                                      if f"tape.{op}" not in reported_ops),
        "masks.builds": calls["masks.slt_mask"] + calls["masks.gst_stacked_mask"],
        "masks.build_ms": self_ms["masks.slt_mask"] + self_ms["masks.gst_stacked_mask"],
        "alignment.clip_fired_frac": _ratio(c["clip_fired"],
                                            calls["alignment.clip_by_global_norm"]),
        "retrieval.matrix_mb": c["matrix_bytes"] / 1e6,
        "tensor_io.bytes_read": c["bytes_read"],
        "tensor_io.bytes_written": c["bytes_written"],
        "datapipe.clips_per_sentence": _ratio(c["clips"], c["sentences"]),
        "trace.spans": len(spans),
    })
    for metric in out:
        if metric.startswith(PER_STEP_LAYERS) and not metric.endswith("_frac"):
            out[metric] /= steps
    return out
