"""Command-line entry point: mask dumps, training, evaluation, curation.

Exit codes: 0 success, 1 usage, contract or config error, a diverged
training run or an allocation that failed, 2 I/O or transport error or a
curate worker that died.
Every run that writes an artifact also writes a reproducibility manifest
(<out>.manifest.json) with the config hash, seed, and package version.

Importing this module loads only the dispatcher (argparse, json, dataclasses
and the small `config` module), and no numpy. Each verb imports the hta
modules it runs when it is dispatched, so a process compiles and loads no code
its verb never calls: `curate`, and an argv error the parser rejects, never
load numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import DivergenceError, TrainConfig, read_json, read_text


def _write_manifest(out_path, args_dict: dict, seed: int) -> None:
    import hashlib
    args_dict = {k: v for k, v in args_dict.items() if not callable(v)}
    blob = json.dumps(args_dict, sort_keys=True, default=str)
    manifest = {
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": seed,
        "version": __version__,
        "args": args_dict,
    }
    Path(str(out_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def cmd_mask(args) -> int:
    from .masks import TokenLayout, gst_stacked_mask, mask_to_csv, mask_to_pgm, slt_mask
    try:
        parts = [int(x) for x in args.layout.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 5:
        raise ValueError(f"--layout wants five integers T,N,U,V,r, got {args.layout!r}")
    layout = TokenLayout(*parts)
    mask = slt_mask(layout) if args.family == "slt" else gst_stacked_mask(layout)
    text = mask_to_csv(mask) if args.format == "csv" else mask_to_pgm(mask)
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest(args.out, vars(args), args.seed)
    else:
        sys.stdout.write(text)
    return 0


def _read_config_file(path, kinds: dict) -> dict:
    """Flat key=value config file; '#' starts a comment. Each value is parsed
    by kinds[key]. A non-blank line without '=', a key without a value, a
    repeated or unknown key and a value its kind rejects raise ValueError
    naming the file, the line and the key."""
    values = {}
    for n, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        problem = ("is not key = value" if not (eq and key) else
                   "has no value" if not val else
                   "is repeated" if key in values else
                   "is not a config key" if key not in kinds else None)
        where = f"{path} line {n}: {key!r}"
        if problem:
            raise ValueError(f"{where} {problem}")
        try:
            values[key] = kinds[key](val)
        except ValueError:
            raise ValueError(f"{where} wants {kinds[key].__name__}, "
                             f"got {val!r:.80}") from None
    return values


def _read_texts(path, vocab: int, context: int) -> tuple[list, list]:
    """texts.json: {"subtitles": [[id, ...], ...], "captions": [...]}, each
    list holding 1 to `context` token ids, ints in [0, vocab). Anything else
    raises ValueError."""
    texts = read_json(path)
    if type(texts) is not dict:
        raise ValueError(f"{path}: expected an object with 'subtitles' and 'captions'")
    for key in ("subtitles", "captions"):
        seqs = texts.get(key)
        if type(seqs) is not list or not all(
                type(ids) is list and 0 < len(ids) <= context
                and all(type(i) is int and 0 <= i < vocab for i in ids)
                for ids in seqs):
            raise ValueError(f"{path}: {key!r} must be a list of lists of 1 to "
                             f"{context} token ids in [0, {vocab})")
    return texts["subtitles"], texts["captions"]


def cmd_train(args) -> int:
    import numpy as np
    from . import alignment
    from .masks import TokenLayout
    from .tensor_io import read_tensor, save_checkpoint
    from .towers import (TextTowerConfig, VideoTowerConfig, init_text_params,
                         init_video_params)
    fields = dataclasses.fields(TrainConfig)
    kinds = {f.name: type(f.default) for f in fields}
    kwargs = _read_config_file(args.config, kinds) if args.config else {}
    for f in fields:
        flag = getattr(args, f.name)
        if flag is not None:            # flags take precedence over the file
            kwargs[f.name] = flag
    config = TrainConfig(**kwargs)

    data = Path(args.data)
    clips = read_tensor(data / "clips.hta")
    if clips.ndim != 5 or len(clips) < 1:
        raise ValueError(f"{data / 'clips.hta'}: want [B, T, H, W, 3] with B >= 1, "
                         f"got {clips.shape}")
    subtitles, captions = _read_texts(data / "texts.json", args.vocab, args.context)
    if not len(subtitles) == len(captions) == len(clips):
        raise ValueError(f"{data / 'texts.json'}: {len(subtitles)} subtitles and "
                         f"{len(captions)} captions for {len(clips)} clips in clips.hta")
    dataset = alignment.AlignmentBatch(list(clips), subtitles, captions)

    t, h, w, channels = clips.shape[1:]
    p = args.patch                      # VideoTowerConfig rejects p < 1
    if p >= 1 and not (t >= 1 and min(h, w) >= p and h % p == w % p == 0
                       and channels == 3):
        raise ValueError(f"{data / 'clips.hta'}: want T >= 1 frames of H x W x 3, H and "
                         f"W positive multiples of the patch {p}, got {clips.shape}")
    n = (h // p) * (w // p) if p >= 1 else 1
    layout = TokenLayout(T=t, N=n, U=args.hierarchies, V=args.mst_per_level,
                         r=args.temporal_scale, d=args.width)
    vcfg = VideoTowerConfig(layout=layout, L=args.layers, heads=args.heads,
                            D=args.embed_dim, patch=args.patch)
    tcfg = TextTowerConfig(vocab=args.vocab, context=args.context,
                           D=args.embed_dim, width=args.embed_dim)
    rng = np.random.default_rng(args.seed)
    params = init_video_params(vcfg, rng)
    params.update(init_text_params(tcfg, rng))

    trace = alignment.train(dataset, params, vcfg, tcfg, config, seed=args.seed)
    save_checkpoint(args.out, params, config={
        "video": {"layout": [layout.T, layout.N, layout.U, layout.V, layout.r],
                  "d": layout.d, "L": vcfg.L, "heads": vcfg.heads,
                  "D": vcfg.D, "patch": vcfg.patch},
        "text": {"vocab": tcfg.vocab, "context": tcfg.context,
                 "D": tcfg.D, "width": tcfg.width},
    })
    trace_path = Path(args.out) / "trace.csv"
    with open(trace_path, "w") as f:
        f.write("step,loss,lr,tau\n")
        for step, loss, lr, tau in trace:
            f.write(f"{step},{loss:.10g},{lr:.10g},{tau:.10g}\n")
    _write_manifest(args.out, vars(args), args.seed)
    print(f"trained {config.steps} steps, final loss {trace[-1][1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    from . import retrieval
    from .tensor_io import read_tensor
    video = read_tensor(args.video_emb)
    text = read_tensor(args.text_emb)
    if video.ndim != 2 or min(video.shape) < 1 or video.shape != text.shape:
        raise ValueError(f"{args.video_emb} {video.shape} and {args.text_emb} "
                         f"{text.shape}: want two [Q, D] of one shape, Q, D >= 1")
    queries, candidates = (text, video) if args.direction == "t2v" else (video, text)
    r = retrieval.paired_ranks(queries, candidates,
                               alpha=args.alpha if args.dsl else None)
    payload = json.dumps(retrieval.metrics_from_ranks(r), indent=2)
    if args.out:
        Path(args.out).write_text(payload)
        _write_manifest(args.out, vars(args), args.seed)
    print(payload)
    return 0


def _map_files(fn, paths: list, workers: int) -> list:
    """[fn(path) for path in paths]. Where there are two workers or more and
    the platform can fork, worker k of that many forked processes calls fn on
    paths k, k + workers, ... in order, up to the first call that raises, and
    pipes back its results and that error. The first path in order whose call
    raised decides the error, as in the serial loop, and a worker that ends
    without sending its results raises OSError. Every worker has been reaped
    when this returns or raises.

    Plain fork and one pipe per worker, not a multiprocessing pool: a pool
    unpickles each result on a helper thread, and that thread's malloc arena
    kept up to 25 MB of freed results resident (the peak RSS of perfbench's
    encode_eval_curate read 166-188 MB in four runs, against 159-162 MB)."""
    if workers < 2 or not hasattr(os, "fork"):
        return list(map(fn, paths))
    import pickle
    pids, pipes, done = [], [], {}
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:            # the worker; it never returns
                    try:
                        sent = {}
                        for i in range(k, len(paths), workers):
                            try:
                                sent[i] = fn(paths[i]), None
                            except Exception as exc:
                                sent[i] = None, exc
                                break
                        pickle.dump(sent, out)
                        out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        # a worker writes once, after its last call, so reading the pipes in
        # turn never stalls a worker that is still curating
        for pipe in pipes:
            try:
                done.update(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                pass                    # the worker died: its paths are missing
    finally:
        for pipe in pipes:              # a worker still writing gets EPIPE
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    results = []
    for i, path in enumerate(paths):
        if i not in done:
            raise OSError(f"a curate worker ended before it curated {path}")
        result, error = done[i]
        if error is not None:
            raise error
        results.append(result)
    return results


def cmd_curate(args) -> int:
    from . import datapipe
    from .config import usable_cores
    if args.scales is None:     # resolved here, so the manifest records it
        args.scales = ",".join(f"{x:g}" for x in datapipe.DEFAULT_SCALES)
    scales = tuple(float(x) for x in args.scales.split(","))
    datapipe.check_scales(scales)
    datapipe.check_fps(args.fps)
    endpoint = "" if args.summarizer == "fallback" else args.summarizer
    spec = datapipe.SummarizerSpec(endpoint=endpoint)
    in_dir, out_dir = Path(args.in_dir), Path(args.out_dir)
    os.listdir(in_dir)      # FileNotFoundError or NotADirectoryError: exit 2
    if os.path.realpath(out_dir) == os.path.realpath(in_dir):
        raise ValueError(f"--out {out_dir} is the --in directory; its transcripts "
                         "would be overwritten")
    paths = sorted(in_dir.glob("*.jsonl"))
    fps = args.fps if args.placeholder_captions else None
    curated = _map_files(lambda path: datapipe.curate_file(path, scales, spec, fps),
                         paths, min(usable_cores(), len(paths)))
    counts = [row for _, rows in curated for row in rows]
    if not counts:
        raise ValueError(f"no transcripts found in {in_dir}")
    table = datapipe.stats(counts)
    # every file has parsed: a contract error above leaves no partial output
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, (text, _) in zip(paths, curated):
        (out_dir / path.name).write_text(text)
    (out_dir / "stats.json").write_text(json.dumps(table, indent=2))
    _write_manifest(out_dir / "clips", vars(args), args.seed)
    print(json.dumps(table, indent=2))
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    return selftest.run(seed=args.seed)


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, so it exits 1 with one stderr line
    instead of argparse's usage text and exit 2. Subparsers inherit this."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hta", description="hierarchical temporal attention toolkit")
    p.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub = p.add_subparsers(dest="verb", required=True)

    m = sub.add_parser("mask", help="dump attention masks")
    msub = m.add_subparsers(dest="mask_verb", required=True)
    md = msub.add_parser("dump")
    md.add_argument("--layout", required=True, help="T,N,U,V,r")
    md.add_argument("--family", choices=["slt", "gst"], required=True)
    md.add_argument("--format", choices=["csv", "pgm"], default="csv")
    md.add_argument("--out")
    md.set_defaults(func=cmd_mask)

    t = sub.add_parser("train", help="train the toy aligner")
    t.add_argument("--config", help="flat key=value TrainConfig file")
    t.add_argument("--data", required=True, help="dir with clips.hta + texts.json")
    t.add_argument("--out", required=True, help="checkpoint directory")
    for f in dataclasses.fields(TrainConfig):     # one flag per field
        t.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=None)
    t.add_argument("--width", type=int, default=64, help="token width d")
    t.add_argument("--layers", type=int, default=4)
    t.add_argument("--heads", type=int, default=4)
    t.add_argument("--embed-dim", type=int, default=32)
    t.add_argument("--patch", type=int, default=4)
    t.add_argument("--hierarchies", type=int, default=2)
    t.add_argument("--mst-per-level", type=int, default=1)
    t.add_argument("--temporal-scale", type=int, default=2)
    t.add_argument("--vocab", type=int, default=256)
    t.add_argument("--context", type=int, default=32)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="retrieval metrics from embedding files")
    e.add_argument("--video-emb", required=True)
    e.add_argument("--text-emb", required=True)
    e.add_argument("--dsl", action="store_true", help="dual-softmax re-scoring")
    e.add_argument("--alpha", type=float, default=100.0)
    e.add_argument("--direction", choices=["t2v", "v2t"], default="t2v")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("curate", help="multi-scale clip curation")
    c.add_argument("--in", dest="in_dir", required=True)
    c.add_argument("--out", dest="out_dir", required=True)
    c.add_argument("--scales", help="short,medium,long clip targets in seconds "
                   "(default: datapipe.DEFAULT_SCALES)")
    c.add_argument("--fps", type=float, default=0.1)
    c.add_argument("--summarizer", default="fallback",
                   help='"fallback" or an external endpoint URL')
    c.add_argument("--placeholder-captions", action="store_true",
                   help="fill captions with the frame schedule (no captioner)")
    c.set_defaults(func=cmd_curate)

    s = sub.add_parser("selftest", help="run the invariant suite")
    s.set_defaults(func=cmd_selftest)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, DivergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except OSError as exc:          # datapipe.TransportError too
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
