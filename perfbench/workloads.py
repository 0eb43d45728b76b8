"""One benchmark workload, run in its own process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --work DIR --result FILE [--trace SPANS_CSV]

The process generates its inputs from the seed as files under DIR, then runs
a closed loop: one client issues one op at a time, through hta's public entry
points, until S seconds have passed (at least one op). Every op's outputs are
checked; an op fails on a non-zero exit, a non-finite loss or a failed check.
With --trace it runs exactly one op with span tracing on and reports the
per-layer metrics instead. The result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from hta import cli, oracles, tensor_io, towers
from hta.masks import TokenLayout

import tracer as tracing

# The acceptance-criterion-7 tower: T=4, N=4, U=2, V=1, r=2, d=64, L=4,
# heads=4, D=32, patch 4 on 8x8 frames, so S = 19 tokens per clip.
LAYOUT = TokenLayout(T=4, N=4, U=2, V=1, r=2, d=64)
VIDEO = towers.VideoTowerConfig(layout=LAYOUT, L=4, heads=4, D=32, patch=4)
FRAME = 8
MODEL_FLAGS = ["--width", "64", "--layers", "4", "--heads", "4",
               "--embed-dim", "32", "--patch", "4", "--hierarchies", "2",
               "--mst-per-level", "1", "--temporal-scale", "2"]

ALPHA = 100.0                 # hta eval's default dual-softmax alpha


def cli_call(argv) -> tuple[int, str, float]:
    """Run one hta CLI invocation; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue(), time.perf_counter() - t0


def synthetic_clips(rng: np.random.Generator, n: int) -> np.ndarray:
    """[n, T, 8, 8, 3] clips: a low-res latent per clip, upsampled, with
    per-frame noise (the criterion-7 task)."""
    base = rng.normal(size=(n, 1, FRAME // 2, FRAME // 2, 3))
    up = base.repeat(2, axis=2).repeat(2, axis=3)
    return up + 0.1 * rng.normal(size=(n, LAYOUT.T, FRAME, FRAME, 3))


def ranks_report(r: np.ndarray) -> dict:
    """Retrieval metrics from ranks, computed independently of hta."""
    q = len(r)
    rec = {k: 100.0 * int((r <= k).sum()) / q for k in (1, 5, 10)}
    return {"R@1": rec[1], "R@5": rec[5], "R@10": rec[10],
            "Avg": (rec[1] + rec[5] + rec[10]) / 3.0,
            "MdR": float(np.sort(r)[(q - 1) // 2]), "MnR": int(r.sum()) / q}


def same_report(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        math.isclose(got[k], want[k], rel_tol=0.0, abs_tol=1e-9) for k in want)


class Region:
    """The measured part of an op: tracing is on inside it, and its wall
    time is added to `seconds`."""

    def __init__(self, tracer: tracing.Tracer, trace: bool):
        self.tracer, self.trace, self.seconds = tracer, trace, 0.0

    def __enter__(self):
        self.tracer.recording = self.trace
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0
        self.tracer.recording = False


class Workload:
    """Inputs generated in __init__; `op` runs one op of the closed loop."""

    batch = None              # clips per attention batch, if the towers run
    units = 1                 # per-layer metrics are per unit (training step)
    ITEMS = CALL = ""         # the samples reported as items_per_s and call_ms
    NAMED: dict = {}          # every sample an op records: name -> unit

    def op(self, sample: dict, errors: list, region: Region) -> None:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []


class Train(Workload):
    """`hta train` on synthetic pairs, one token per text."""

    STEPS_WINDOW = 50
    ITEMS, CALL = "train_samples_per_s", "train_ms"
    NAMED = {"train_samples_per_s": "samples/s", "train_ms": "ms",
             "train_final_loss": "loss"}

    def __init__(self, work: Path, rng, seed: int, batch: int, pairs: int,
                 steps: int, vocab: int):
        self.work, self.seed = work, seed
        self.batch, self.pairs, self.steps, self.vocab = batch, pairs, steps, vocab
        self.data = work / "data"
        self.data.mkdir()
        tensor_io.write_tensor(self.data / "clips.hta", synthetic_clips(rng, pairs))
        ids = [[i] for i in range(pairs)]
        (self.data / "texts.json").write_text(
            json.dumps({"subtitles": ids, "captions": ids}))
        self.clips = tensor_io.read_tensor(self.data / "clips.hta")
        self.units = steps

    def op(self, sample, errors, region) -> None:
        out = self.work / "ckpt"
        with region:
            code, _, wall = cli_call([
                "--seed", self.seed, "train", "--data", self.data, "--out", out,
                "--steps", self.steps, "--batch-size", self.batch,
                "--base-lr", "3e-3", "--final-lr", "1e-4", "--init-tau", "0.07",
                "--vocab", self.vocab, "--context", "4", *MODEL_FLAGS])
        if code != 0:
            errors.append(f"hta train exited {code}")
            return
        sample["train_ms"] = wall * 1e3
        sample["train_samples_per_s"] = self.batch * self.steps / wall
        rows = (out / "trace.csv").read_text().split()[1:]
        losses = np.array([float(r.split(",")[1]) for r in rows])
        if len(losses) != self.steps or not np.isfinite(losses).all():
            errors.append("trace.csv: missing or non-finite losses")
            return
        sample["train_final_loss"] = float(losses[-self.STEPS_WINDOW:].mean())
        w = min(self.STEPS_WINDOW, self.steps // 2)
        if not np.median(losses[:w]) > np.median(losses[-w:]):
            errors.append(f"loss did not fall: first-{w} median "
                          f"{np.median(losses[:w]):.4f}, last {np.median(losses[-w:]):.4f}")
        params, config = tensor_io.load_checkpoint(out)
        vc, tc = config["video"], config["text"]
        vcfg = towers.VideoTowerConfig(
            layout=TokenLayout(*vc["layout"], d=vc["d"]), L=vc["L"],
            heads=vc["heads"], D=vc["D"], patch=vc["patch"])
        tcfg = towers.TextTowerConfig(**tc)
        v = np.concatenate([towers.video_embeddings(self.clips[i:i + 8], params, vcfg)
                            for i in range(0, self.pairs, 8)])
        t = np.stack([towers.text_embedding([i], params, tcfg)
                      for i in range(self.pairs)])
        rep = ranks_report(oracles.brute_force_ranks(t @ v.T))
        # chance: MdR ~ Q/2 and R@10 = 10/Q; demand Q/8 and four times that
        q = self.pairs
        if rep["MdR"] > q / 8 or rep["R@10"] < 4 * 1000.0 / q:
            errors.append(f"t2v retrieval near chance: MdR {rep['MdR']}, "
                          f"R@10 {rep['R@10']:.1f} on Q={q}")


class EncodeEval(Workload):
    """Forward-only gallery encoding, HTA1 writes, then `hta eval`."""

    GALLERY = 1000
    SYNTH = 5000
    batch = 8                 # inference batch of video_embeddings
    NAMED = {"encode_pairs_per_s": "pairs/s", "eval_q1k_ms": "ms",
             "eval_q5k_ms": "ms", "eval_ms": "ms"}
    TEXT = towers.TextTowerConfig(vocab=256, context=32, D=32, width=32)

    def __init__(self, work: Path, rng, seed: int):
        self.work = work
        d = work / "gallery"
        d.mkdir()
        tensor_io.write_tensor(d / "clips.hta", synthetic_clips(rng, self.GALLERY))
        self.texts = [rng.integers(0, self.TEXT.vocab, size=int(n)).tolist()
                      for n in rng.integers(1, 9, size=self.GALLERY)]
        (d / "texts.json").write_text(json.dumps(self.texts))
        self.clips = tensor_io.read_tensor(d / "clips.hta")
        params_rng = np.random.default_rng(seed)
        self.params = towers.init_video_params(VIDEO, params_rng)
        self.params.update(towers.init_text_params(self.TEXT, params_rng))
        # Q = 5k: text rows are noisy copies of the video rows
        v = rng.normal(size=(self.SYNTH, VIDEO.D))
        t = v + 1.5 * rng.normal(size=v.shape)
        self.files = {"q1k": (work / "video_1k.hta", work / "text_1k.hta"),
                      "q5k": (work / "video_5k.hta", work / "text_5k.hta")}
        for path, x in zip(self.files["q5k"], (v, t)):
            tensor_io.write_tensor(path, x / np.linalg.norm(x, axis=1, keepdims=True))
        self.first: dict = {}          # the first op's hta eval reports
        self.check_rows = rng.choice(self.GALLERY, size=2, replace=False)

    def op(self, sample, errors, region) -> None:
        reports, walls = {}, defaultdict(float)
        with region:
            t0 = time.perf_counter()
            v = np.concatenate([
                towers.video_embeddings(self.clips[i:i + self.batch], self.params, VIDEO)
                for i in range(0, self.GALLERY, self.batch)])
            t = np.stack([towers.text_embedding(ids, self.params, self.TEXT)
                          for ids in self.texts])
            sample["encode_pairs_per_s"] = self.GALLERY / (time.perf_counter() - t0)
            for path, x in zip(self.files["q1k"], (v, t)):
                tensor_io.write_tensor(path, x)
            for q, (vf, tf) in self.files.items():
                for direction in ("t2v", "v2t"):
                    for dsl in (False, True):
                        code, out, wall = cli_call(
                            ["eval", "--video-emb", vf, "--text-emb", tf,
                             "--direction", direction] + (["--dsl"] if dsl else []))
                        if code != 0:
                            errors.append(f"hta eval {q} {direction} exited {code}")
                            continue
                        walls[q] += wall
                        reports[q, direction, dsl] = json.loads(out)
            for q, wall in walls.items():     # mean over the four calls
                sample[f"eval_{q}_ms"] = wall * 1e3 / 4
            sample["eval_ms"] = sum(walls.values()) * 1e3

        norms = np.concatenate([np.linalg.norm(v, axis=1), np.linalg.norm(t, axis=1)])
        if np.abs(norms - 1.0).max() > 1e-12:
            errors.append(f"embedding norm off by {np.abs(norms - 1.0).max():.2e}")
        for i in self.check_rows:
            one = towers.video_embedding(self.clips[i], self.params, VIDEO)
            if np.abs(one - v[i]).max() > 1e-12:
                errors.append(f"batched row {i} differs from video_embedding "
                              f"by {np.abs(one - v[i]).max():.2e}")
        for key, got in reports.items():
            if not (got["R@1"] <= got["R@5"] <= got["R@10"] <= 100.0 and got["MdR"] >= 1):
                errors.append(f"hta eval {key}: inconsistent report {got}")
            if not same_report(got, self.first.setdefault(key, got)):
                errors.append(f"hta eval {key}: {got} differs from the first op")

    def final_check(self) -> list[str]:
        """The Q=1k reports against oracles.brute_force_ranks; run once, after
        the timed loop, because the oracle takes seconds per matrix."""
        video, text = (tensor_io.read_tensor(p) for p in self.files["q1k"])
        errors = []
        for direction, s in (("t2v", text @ video.T), ("v2t", video @ text.T)):
            z = ALPHA * s
            row = np.exp(z - z.max(axis=1, keepdims=True))
            row /= row.sum(axis=1, keepdims=True)
            col = np.exp(z - z.max(axis=0, keepdims=True))
            col /= col.sum(axis=0, keepdims=True)
            for dsl, m in ((False, s), (True, row * col)):
                want = ranks_report(oracles.brute_force_ranks(m))
                got = self.first.get(("q1k", direction, dsl))
                if got is None or not same_report(got, want):
                    errors.append(f"hta eval q1k {direction} dsl={dsl}: {got} != oracle {want}")
        return errors


VOCAB = ("the", "a", "camera", "person", "walks", "talks", "table", "scene",
         "green", "blue", "slowly", "opens", "door", "hand", "cup", "light",
         "moves", "left", "right", "turns", "shows", "small", "box", "room")


class Curate(Workload):
    """`hta curate` with the extractive fallback summarizer."""

    FILES, VIDEOS = 6, 40
    NAMED = {"curate_sentences_per_s": "sentences/s", "curate_ms": "ms"}

    def __init__(self, work: Path, rng, seed: int):
        self.work = work
        self.inp, self.out = work / "transcripts", work / "curated"
        self.inp.mkdir()
        self.sentences: dict[str, int] = {}
        for f in range(self.FILES):
            lines = [self._transcript(rng, f"v{f}-{v}", word_level=v % 2 == 0)
                     for v in range(self.VIDEOS)]
            (self.inp / f"part{f}.jsonl").write_text("\n".join(lines) + "\n")
        self.total = sum(self.sentences.values())

    def _transcript(self, rng, vid: str, word_level: bool) -> str:
        n = int(rng.integers(100, 200))
        self.sentences[vid] = n
        t = 0.0
        words, sentences = [], []
        for _ in range(n):
            ws = [VOCAB[i] for i in rng.integers(0, len(VOCAB), size=int(rng.integers(4, 16)))]
            ws[-1] += "." if rng.random() < 0.8 else "?"
            start = t
            for w in ws:
                dur = float(rng.uniform(0.2, 0.6))
                words.append({"w": w, "t0": round(t, 3), "t1": round(t + dur, 3)})
                t += dur + 0.05
            sentences.append({"text": " ".join(ws), "t0": round(start, 3),
                              "t1": words[-1]["t1"]})
            t += float(rng.uniform(0.0, 1.5))
        if word_level:
            return json.dumps({"video_id": vid, "words": words})
        return json.dumps({"video_id": vid, "sentences": sentences})

    def op(self, sample, errors, region) -> None:
        with region:
            code, _, wall = cli_call(["curate", "--in", self.inp, "--out", self.out,
                                      "--summarizer", "fallback",
                                      "--placeholder-captions"])
        if code != 0:
            errors.append(f"hta curate exited {code}")
            return
        sample["curate_ms"] = wall * 1e3
        sample["curate_sentences_per_s"] = self.total / wall
        ranges = defaultdict(list)
        lines = defaultdict(int)
        for path in sorted(self.out.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                c = json.loads(line)
                ranges[c["video_id"], c["scale"]].append(tuple(c["sentence_range"]))
                lines[c["scale"]] += 1
                if c["scale"] == "short":
                    summarized = (c["summarized_subtitle"] == c["subtitle"]
                                  and c["summarized_caption"] == c["caption"])
                else:
                    summarized = (len(c["summarized_subtitle"].split()) <= 25
                                  and len(c["summarized_caption"].split()) <= 25)
                if not summarized:
                    errors.append(f"{c['video_id']} {c['scale']}: bad summary")
        for (vid, scale), got in ranges.items():
            got.sort()
            starts = [a for a, _ in got]
            ends = [b + 1 for _, b in got]
            if starts != [0] + ends[:-1] or ends[-1] != self.sentences[vid]:
                errors.append(f"{vid} {scale}: sentence ranges do not tile")
        if {vid for vid, _ in ranges} != set(self.sentences):
            errors.append("curated output is missing videos")
        table = json.loads((self.out / "stats.json").read_text())
        if {k: v["count"] for k, v in table.items()} != dict(lines):
            errors.append(f"stats.json counts {table} != output lines {dict(lines)}")


class EncodeEvalCurate(Workload):
    """`hta curate`, then gallery encoding and `hta eval`: the work that
    follows training. One op runs both parts."""

    batch = EncodeEval.batch
    ITEMS, CALL = "encode_pairs_per_s", "cli_ms"
    NAMED = {**EncodeEval.NAMED, **Curate.NAMED, "cli_ms": "ms"}

    def __init__(self, work: Path, rng, seed: int):
        self.parts = (Curate(work, rng, seed), EncodeEval(work, rng, seed))

    def op(self, sample, errors, region) -> None:
        for part in self.parts:
            part.op(sample, errors, region)
        sample["cli_ms"] = sample["curate_ms"] + sample["eval_ms"]

    def final_check(self) -> list[str]:
        return [err for part in self.parts for err in part.final_check()]


WORKLOADS = {
    "train_b32": lambda w, rng, s: Train(w, rng, s, batch=32, pairs=256, steps=40, vocab=256),
    "encode_eval_curate": EncodeEvalCurate,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace", type=Path, metavar="SPANS_CSV",
                   help="trace one op and write its spans to this file")
    args = p.parse_args(argv)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    region = Region(tracer, trace=bool(args.trace))
    workload = WORKLOADS[args.workload](args.work, np.random.default_rng(args.seed),
                                        args.seed)
    samples: dict[str, list] = defaultdict(list)
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    op_walls = []
    while True:
        sample, op_errors = {}, []
        t0 = time.perf_counter()
        try:
            workload.op(sample, op_errors, region)
        except Exception:  # an op that raises is a failed op, not a failed run
            op_errors.append(traceback.format_exc(limit=4))
        attempted += 1
        failed += bool(op_errors)
        errors += op_errors
        for key, value in sample.items():
            samples[key].append(value)
        op_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + statistics.median(op_walls) > args.seconds:
            break
    final_errors = workload.final_check()
    if final_errors:
        errors += final_errors
        failed = attempted

    medians = {k: statistics.median(v) for k, v in samples.items()}
    result = {
        "attempted": attempted, "failed": failed, "errors": errors[:10],
        "measured_s": region.seconds,
        "metrics": {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "items_per_s": medians.get(workload.ITEMS, 0.0),
            "call_ms": medians.get(workload.CALL, 0.0),
        },
        "named": {name: [medians.get(name, 0.0), unit]
                  for name, unit in workload.NAMED.items()},
    }
    if args.trace:
        per_layer = result["per_layer"] = tracing.layer_metrics(tracer, workload.units)
        allowed = per_layer["tape.masked_softmax.allowed_frac"]
        if workload.batch and not 0.0 < allowed <= 1.0 / workload.batch:
            result["errors"].append(f"allowed_frac {allowed} outside (0, 1/{workload.batch}]")
            result["failed"] = attempted
        with open(args.trace, "w") as f:
            f.write("name,start,end,parent,run\n")
            for name, t0, t1, parent, run in tracer.spans:
                f.write(f"{name},{t0:.9f},{t1:.9f},{parent},{run}\n")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
