import dataclasses
import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hta import alignment, config, datapipe, selftest, towers
from hta.alignment import TrainConfig
from hta.cli import build_parser, run
from hta.masks import TokenLayout, mask_to_csv, slt_mask
from hta.tensor_io import load_checkpoint, write_tensor


def test_mask_dump_csv_stdout(capsys):
    assert run(["mask", "dump", "--layout", "2,4,1,1,2", "--family", "slt"]) == 0
    out = capsys.readouterr().out
    assert out == mask_to_csv(slt_mask(TokenLayout(T=2, N=4, U=1, V=1, r=2)))


def test_mask_dump_pgm_file(tmp_path, capsys):
    out = tmp_path / "m.pgm"
    assert run(["mask", "dump", "--layout", "4,4,2,1,2", "--family", "gst",
                "--format", "pgm", "--out", str(out)]) == 0
    text = out.read_text()
    lay = TokenLayout(T=4, N=4, U=2, V=1, r=2)
    assert text.startswith("P2\n")
    assert f"{lay.seq_len} {lay.seq_len}" in text.splitlines()[1]
    manifest = json.loads((tmp_path / "m.pgm.manifest.json").read_text())
    assert {"config_hash", "seed", "version"} <= set(manifest)


def test_mask_dump_bad_layout_exits_1(capsys):
    for layout in ("2,4", "4,4,a,1,2", "4,4,2,1,2,1", ""):
        assert run(["mask", "dump", "--layout", layout, "--family", "slt"]) == 1
        assert capsys.readouterr().err == (f"error: --layout wants five integers "
                                           f"T,N,U,V,r, got {layout!r}\n")


def test_eval_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    v = rng.normal(size=(4, 8))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    write_tensor(tmp_path / "v.hta", v)
    write_tensor(tmp_path / "t.hta", v)      # perfect retrieval
    out = tmp_path / "report.json"
    assert run(["eval", "--video-emb", str(tmp_path / "v.hta"),
                "--text-emb", str(tmp_path / "t.hta"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["R@1"] == 100.0 and report["MdR"] == 1


def test_eval_dsl_flag(tmp_path, capsys):
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 5))
    write_tensor(tmp_path / "v.hta", v)
    write_tensor(tmp_path / "t.hta", v)
    assert run(["eval", "--video-emb", str(tmp_path / "v.hta"),
                "--text-emb", str(tmp_path / "t.hta"),
                "--dsl", "--alpha", "10", "--direction", "v2t"]) == 0
    assert "R@1" in capsys.readouterr().out


def test_eval_missing_file_exits_2(tmp_path, capsys):
    assert run(["eval", "--video-emb", str(tmp_path / "nope.hta"),
                "--text-emb", str(tmp_path / "nope.hta")]) == 2


def test_curate_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(2)
    t, sentences = 0.0, []
    for i in range(120):
        d = float(rng.exponential(6.0))
        sentences.append({"text": f"word{i} word{i}.", "t0": t, "t1": t + d})
        t += d
    src = tmp_path / "in"
    src.mkdir()
    (src / "vid0.jsonl").write_text(
        json.dumps({"video_id": "vid0", "sentences": sentences}) + "\n")
    out = tmp_path / "out"
    assert run(["curate", "--in", str(src), "--out", str(out),
                "--placeholder-captions", "--fps", "0.2"]) == 0
    lines = (out / "vid0.jsonl").read_text().strip().splitlines()
    clips = [json.loads(l) for l in lines]
    assert {c["scale"] for c in clips} == {"short", "medium", "long"}
    assert all(c["caption"].startswith("frame at") for c in clips)
    short = [c for c in clips if c["scale"] == "short"]
    assert all(c["summarized_subtitle"] == c["subtitle"] for c in short)
    table = json.loads((out / "stats.json").read_text())
    assert table["long"]["mean_duration"] > table["short"]["mean_duration"]


def test_curate_empty_dir_exits_1(tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    assert run(["curate", "--in", str(src), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("kind, code, err", [
    ("missing", 2, "i/o error: [Errno 2] No such file or directory"),
    ("file", 2, "i/o error: [Errno 20] Not a directory"),
    ("empty", 1, "error: no transcripts found")], ids=("missing", "file", "empty"))
def test_curate_input_must_be_a_directory(tmp_path, capsys, kind, code, err):
    src = tmp_path / "in"
    if kind == "file":
        src.write_text("{}")
    elif kind == "empty":
        src.mkdir()
    assert run(["curate", "--in", str(src), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("words, err", [
    ([{"w": "a", "t0": 5, "t1": 6}, {"w": "b.", "t0": 1, "t1": 2}],
     "non-monotone timestamps at word 1"),
    ([{"w": "a.", "t0": 1, "t1": 1}],
     "video 'q' words item 0: sentence end 1 <= start 1"),
], ids=("order", "empty sentence"))
def test_curate_transcript_error_names_file_and_line(tmp_path, capsys, words, err):
    src = tmp_path / "in"
    src.mkdir()
    (src / "a.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    (src / "b.jsonl").write_text("\n".join(json.dumps(line) for line in (
        {"video_id": "p", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]},
        {"video_id": "q", "words": words})))
    assert run(["curate", "--in", str(src), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {src / 'b.jsonl'} line 2: {err}\n"


@pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink"])
def test_curate_out_may_not_be_in(tmp_path, capsys, spelling):
    src = tmp_path / "in"
    src.mkdir()
    (src / "t.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    out = {"same": str(src), "dotdot": str(src / ".." / "in"),
           "symlink": str(tmp_path / "link")}[spelling]
    (tmp_path / "link").symlink_to(src)
    before = tree(tmp_path)
    assert run(["curate", "--in", str(src), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert tree(tmp_path) == before


@pytest.mark.parametrize("argv, err", [
    (["train", "--data", "x", "--out", "y", "--steps", "abc"],
     "argument --steps: invalid int value: 'abc'"),
    ([], "the following arguments are required: verb"),
    (["mask", "dump", "--layout", "2,4,1,1,2"],
     "the following arguments are required: --family"),
    (["eval", "--video-emb", "v", "--text-emb", "t", "--bogus"],
     "unrecognized arguments: --bogus"),
], ids=("bad int", "no verb", "missing flag", "unknown flag"))
def test_usage_error_exits_1_with_one_line(capsys, argv, err):
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hta train")


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert {argv[1] for argv in commands} == {"mask", "train", "eval", "curate", "selftest"}
    for argv in commands:
        assert argv[0] == "hta"
        build_parser().parse_args(argv[1:])     # a usage error raises ValueError


def test_module_form_runs_the_cli(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "hta.cli", "curate", "--in",
                           str(tmp_path / "missing"), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("i/o error:")


@pytest.mark.parametrize("t1, fps", [(1e6, "0.1"), (1e300, "0.1"), (5.0, "inf"),
                                     (5.0, "1e308")])
def test_curate_unbounded_caption_frames_exit_1(tmp_path, capsys, t1, fps):
    src = tmp_path / "in"
    src.mkdir()
    (src / "v.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": t1}]}))
    assert run(["curate", "--in", str(src), "--out", str(tmp_path / "out"),
                "--placeholder-captions", "--fps", fps]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "v.jsonl").exists()


def test_curate_caption_frame_error_names_file_and_line(tmp_path, capsys):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "a.jsonl").write_text(json.dumps(
        {"video_id": "a", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    (src / "b.jsonl").write_text("\n".join(json.dumps(line) for line in (
        {"video_id": "p", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]},
        {"video_id": "b", "sentences": [{"text": "a.", "t0": 0.0, "t1": 1e6}]})))
    assert run(["curate", "--in", str(src), "--out", str(out),
                "--placeholder-captions", "--fps", "0.1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {src / 'b.jsonl'} line 2: clip 'b' 0-1e+06s needs more than "
        "1000 caption frames at fps 0.1\n")
    assert not out.exists()


def _no_infinity(token):
    raise AssertionError(f"stats.json holds {token}, which strict JSON refuses")


@pytest.mark.parametrize("t0, t1, err", [
    (0, 1e308, "video 'a' sentences item 0: expected {'text': str, 't0': number, "
               "'t1': number} with |t| <= 1e+12, got {'text': 'a.', 't0': 0, 't1': 1e+308}"),
    (-1e12, 1e12, None),
], ids=("spans overflow the sum", "at the bound"))
def test_curate_two_long_videos_keep_stats_finite(tmp_path, capsys, t0, t1, err):
    # two clips of 1e308 s each sum to inf in stats; two of 2e12 s each, the
    # longest the time bound allows, keep stats.json strict JSON
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "v.jsonl").write_text("\n".join(json.dumps(
        {"video_id": vid, "sentences": [{"text": "a.", "t0": t0, "t1": t1}]})
        for vid in ("a", "b")))
    code = run(["curate", "--in", str(src), "--out", str(out)])
    if err is not None:
        assert code == 1
        assert capsys.readouterr().err == f"error: {src / 'v.jsonl'} line 1: {err}\n"
        assert not out.exists()
        return
    assert code == 0
    table = json.loads((out / "stats.json").read_text(), parse_constant=_no_infinity)
    assert table["long"]["count"] == 2 and table["long"]["mean_duration"] == 2e12


@pytest.mark.parametrize("fps", ["nan", "0", "-1", "inf"])
def test_curate_bad_fps_exits_1_before_reading(tmp_path, capsys, fps):
    # the flag is checked before the (missing) input directory is opened,
    # so the error is the flag's, not an i/o error or a line's
    assert run(["curate", "--in", str(tmp_path / "missing"), "--out",
                str(tmp_path / "out"), "--fps", fps]) == 1
    assert capsys.readouterr().err == (
        f"error: fps must be finite and positive, got {float(fps)}\n")


@pytest.mark.parametrize("scales", ["nan,30,60", "-1,0,5", "inf,inf,inf", "13,30,0",
                                    "13,30", "13,30,60,90"])
def test_curate_degenerate_scales_exit_1(tmp_path, capsys, scales):
    src = tmp_path / "in"
    src.mkdir()
    (src / "v.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    assert run(["curate", "--in", str(src), "--out", str(tmp_path / "out"),
                f"--scales={scales}"]) == 1
    assert "scales must be 3 finite targets > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_curate_bad_later_file_writes_nothing(tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    for name, t1 in (("a", 5.0), ("b", 1e6)):    # b has too many caption frames
        (src / f"{name}.jsonl").write_text(json.dumps(
            {"video_id": name, "sentences": [{"text": "a.", "t0": 0.0, "t1": t1}]}))
    out = tmp_path / "out"
    assert run(["curate", "--in", str(src), "--out", str(out),
                "--placeholder-captions"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "a.jsonl").exists() and not (out / "stats.json").exists()


def test_curate_transport_error_exits_2(tmp_path, monkeypatch, capsys):
    def unreachable(clips, spec, post=None):
        raise datapipe.TransportError("summarizer down")

    monkeypatch.setattr(datapipe, "summarize_clips", unreachable)
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "v.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    assert run(["curate", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "i/o error: summarizer down\n"
    assert not (tmp_path / "out").exists()


# -- curate on forked workers ----------------------------------------------------

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and Path("/proc/self/stat").exists()),
    reason="curate workers need fork, and the child check reads /proc")
TEST_PID = os.getpid()
SUMMARIZE_CLIPS = datapipe.summarize_clips
CURATE_FILE = datapipe.curate_file


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):      # ended while listed
            continue
        if ppid == TEST_PID:
            pids.append(int(stat.parent.name))
    return pids


def summarize_unless_down(clips, spec, post=None):
    """summarize_clips, but a video whose id starts with "down" cannot reach
    its summarizer."""
    if clips[0].video_id.startswith("down"):
        raise datapipe.TransportError(f"summarizer down for {clips[0].video_id}")
    SUMMARIZE_CLIPS(clips, spec, post)


def exit_in_worker(*args):
    """A per-file function that ends the worker process running it."""
    if os.getpid() == TEST_PID:
        raise AssertionError("curate_file ran in the test process")
    os._exit(1)


BAD_LINES = ('{"video_id": "bad", "words": 5}', '{"video_id": "bad", "words": [',
             '{"video_id": "bad", "sentences": [{"text": "a.", "t0": 1, "t1": 1}]}',
             '{"video_id": "bad", "sentences": [{"text": "a.", "t0": 0, "t1": 1e6}]}',
             '{"sentences": [{"text": "a.", "t0": 0, "t1": 1}]}')


@st.composite
def transcript_files(draw):
    """1 to 5 files of 0 to 3 lines. A line is a blank, a transcript in
    either form, or now and then a fault: a malformed line (exit 1) or a
    video whose summarizer is down (exit 2)."""
    files = []
    for f in range(draw(st.integers(1, 5))):
        lines = []
        for n in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["words"] * 4 + ["sentences"] * 4
                                        + ["blank", "bad", "down"]))
            if kind == "blank":
                lines.append("")
            elif kind == "bad":
                lines.append(draw(st.sampled_from(BAD_LINES)))
            else:
                form = "sentences" if kind == "sentences" else "words"
                key = "text" if form == "sentences" else "w"
                t, items = 0.0, []
                for _ in range(draw(st.integers(1, 8))):
                    t0 = t + draw(st.sampled_from([0.0, 0.3, 2.5]))
                    t = t0 + draw(st.floats(0.01, 30.0))
                    items.append({key: draw(st.sampled_from(["a", "b c", "d.", "e?"])),
                                  "t0": t0, "t1": t})
                vid = f"{'down' if kind == 'down' else 'v'}{f}-{n}"
                lines.append(json.dumps({"video_id": vid, form: items}))
        files.append(lines)
    return files


@needs_fork
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(transcript_files())
def test_curate_workers_write_what_one_process_writes(tmp_path_factory, capsys, files):
    # one process is the reference: three workers write the same bytes and
    # print the same lines, or fail with the same message and code and write
    # nothing, and leave no process behind
    src = tmp_path_factory.mktemp("curate") / "in"
    src.mkdir()
    for f, lines in enumerate(files):
        (src / f"f{f}.jsonl").write_text("\n".join(lines) + "\n")
    seen = []
    for cores in (1, 3):
        out = src.parent / f"out{cores}"
        with mock.patch.object(config, "usable_cores", lambda: cores), \
                mock.patch.object(datapipe, "summarize_clips", summarize_unless_down):
            code = run(["curate", "--in", str(src), "--out", str(out),
                        "--placeholder-captions"])
        assert children() == []
        written = {name: data for name, data in tree(out).items()
                   if not name.endswith(".manifest.json")} if out.exists() else None
        assert (code == 0) == (written is not None)
        seen.append((code, capsys.readouterr(), written))
    assert seen[1] == seen[0]


@needs_fork
def test_curate_fails_promptly_when_a_worker_dies(tmp_path, monkeypatch, capsys):
    src = tmp_path / "in"
    src.mkdir()
    for name in ("a", "b"):
        (src / f"{name}.jsonl").write_text(json.dumps(
            {"video_id": name, "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    monkeypatch.setattr(datapipe, "curate_file", exit_in_worker)
    monkeypatch.setattr(config, "usable_cores", lambda: 2)
    codes = []
    thread = threading.Thread(daemon=True, target=lambda: codes.append(
        run(["curate", "--in", str(src), "--out", str(tmp_path / "out")])))
    thread.start()
    thread.join(60)
    assert codes == [2], "curate did not return within 60 s"
    assert capsys.readouterr().err == (
        f"i/o error: a curate worker ended before it curated {src / 'a.jsonl'}\n")
    assert not (tmp_path / "out").exists()
    assert children() == []


def record_freeze_count(path, *args):
    """datapipe.curate_file, after noting the caller's pid and gc freeze
    count in freezes.jsonl beside the input file."""
    with open(Path(path).parent.parent / "freezes.jsonl", "a") as log:
        log.write(json.dumps([os.getpid(), gc.get_freeze_count()]) + "\n")
    return CURATE_FILE(path, *args)


@needs_fork
@pytest.mark.parametrize("fault", ["none", "malformed", "worker dies"])
def test_curate_freezes_the_workers_heaps_not_the_parents(tmp_path, monkeypatch,
                                                          capsys, fault):
    # a frozen parent skips its own full collections, so its freeze count
    # must read 0 after every call, whatever the call ends in
    src = tmp_path / "in"
    src.mkdir()
    for name in ("a", "b"):
        (src / f"{name}.jsonl").write_text(json.dumps(
            {"video_id": name, "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    if fault == "malformed":
        (src / "b.jsonl").write_text(BAD_LINES[0])
    per_file = exit_in_worker if fault == "worker dies" else record_freeze_count
    monkeypatch.setattr(datapipe, "curate_file", per_file)
    monkeypatch.setattr(config, "usable_cores", lambda: 2)
    assert gc.get_freeze_count() == 0
    code = run(["curate", "--in", str(src), "--out", str(tmp_path / "out")])
    assert code == {"none": 0, "malformed": 1, "worker dies": 2}[fault]
    assert gc.get_freeze_count() == 0
    assert children() == []
    if fault != "worker dies":          # each file ran on a frozen worker
        workers = [json.loads(line) for line in
                   (tmp_path / "freezes.jsonl").read_text().splitlines()]
        assert len({pid for pid, _ in workers} - {TEST_PID}) == 2
        assert all(frozen > 0 for _, frozen in workers)


def test_curate_writes_an_empty_file_for_a_file_without_clips(tmp_path, capsys):
    # a file with no transcript lines was written as "\n", which no JSON
    # reader accepts as a line
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "a.jsonl").write_text(json.dumps(
        {"video_id": "a", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}) + "\n")
    (src / "empty.jsonl").write_text("")
    (src / "blank.jsonl").write_text("\n\n")
    assert run(["curate", "--in", str(src), "--out", str(out)]) == 0
    assert (out / "empty.jsonl").read_bytes() == (out / "blank.jsonl").read_bytes() == b""
    assert [json.loads(line)["video_id"] for line in
            (out / "a.jsonl").read_text().splitlines()] == ["a"] * 3


# Texts that exercise the writer and the word counts: quotes, backslashes,
# control and non-ASCII characters, a non-BMP character, empty strings and
# whitespace that str.split splits on.
GOLDEN_TEXTS = ("the", 'say "hi"', "back\\slash", "tab\there", "Caf\u00e9",
                "\u3000", "", "emoji \U0001F600", "new\nline", "end.", "why?",
                "x\x1cy", "  two  spaces ", "wow!", "nel\x85")
GOLDEN_SHA256 = {
    "f0.jsonl": "80df1ada7b6c411feccba5787294908eefaafb89061a3e107435fc6a6ebdfd48",
    "f1.jsonl": "4d38ee1fc0ca382172bdb5e434c87b153a7346ba3c2e45d413cdb2a5554959b0",
    "stats.json": "11a57b9c9b76a806afe53773be0505f81013237d479a5e1da560dc249baead9c",
}


def golden_corpus(src):
    """2 files of 5 videos, both transcript forms, int and float times."""
    for f in range(2):
        lines = []
        for v in range(5):
            form, key = (("words", "w") if (f + v) % 2 == 0 else ("sentences", "text"))
            t, items = (v if v % 2 else 0.5 * v), []
            for i in range(30 + 9 * v):
                text = GOLDEN_TEXTS[(7 * i + 3 * v + f) % len(GOLDEN_TEXTS)]
                if key == "text" and i % 4 == 3:
                    text += "."
                dur = 1 + i % 3 if i % 5 == 0 else 0.25 * (1 + (3 * i + v) % 11)
                items.append({key: text, "t0": t, "t1": t + dur})
                t += dur + (0.5 if i % 7 == 0 else 0)
            lines.append(json.dumps({"video_id": f"f{f}v{v}", form: items}))
        if f == 1:
            lines.insert(2, "")
        (src / f"f{f}.jsonl").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("cores", [1, 2])
def test_curate_golden_bytes(tmp_path, monkeypatch, capsys, cores):
    # the digests were recorded before the writer and the word counts were
    # rewritten; any change that moves a byte of the output fails here
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    golden_corpus(src)
    monkeypatch.setattr(config, "usable_cores", lambda: cores)
    assert run(["curate", "--in", str(src), "--out", str(out),
                "--placeholder-captions", "--scales", "7,20,45"]) == 0
    assert capsys.readouterr().out == (out / "stats.json").read_text() + "\n"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


@pytest.mark.parametrize("cores", [1, 2])
def test_curate_cuts_files_at_newlines_only(tmp_path, monkeypatch, capsys, cores):
    # a JSON string may hold a raw U+0085 or U+2028, at which splitlines()
    # cut a valid line in two; a later error still names its physical line
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    lines = [json.dumps({"video_id": f"v{i}", "sentences": [
        {"text": f"a{c}b.", "t0": 0.0, "t1": 5.0}]}, ensure_ascii=False)
        for i, c in enumerate("\x85\u2028")]
    for name in ("a", "b"):
        (src / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(config, "usable_cores", lambda: cores)
    assert run(["curate", "--in", str(src), "--out", str(out)]) == 0
    for name in ("a", "b"):
        clips = [json.loads(line) for line in
                 (out / f"{name}.jsonl").read_text(encoding="utf-8").split("\n") if line]
        assert [(c["video_id"], c["subtitle"]) for c in clips] == (
            [("v0", "a\x85b.")] * 3 + [("v1", "a\u2028b.")] * 3)
    (src / "b.jsonl").write_text("\n".join([lines[1], "{"]), encoding="utf-8")
    assert run(["curate", "--in", str(src), "--out", str(tmp_path / "out2")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {src / 'b.jsonl'} line 2: ")


def test_train_smoke_and_config_precedence(tmp_path, capsys):
    rng = np.random.default_rng(3)
    b = 4
    clips = rng.normal(size=(b, 2, 8, 8, 3))
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "clips.hta", clips)
    (data / "texts.json").write_text(json.dumps({
        "subtitles": [[i + 1] for i in range(b)],
        "captions": [[i + 10] for i in range(b)],
    }))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 400   # overridden by the flag\nbase_lr = 1e-3\n"
                   "final_lr = 1e-4\nbatch_size = 4\n")
    out = tmp_path / "ckpt"
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out", str(out), "--steps", "3",
                "--width", "8", "--layers", "1", "--heads", "2",
                "--embed-dim", "4", "--hierarchies", "1",
                "--vocab", "16", "--context", "4"]) == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "step,loss,lr,tau"
    assert len(trace) == 4                    # flag beat the file's 400
    assert float(trace[1].split(",")[2]) == pytest.approx(1e-3)  # file lr used
    manifest = json.loads((out / "manifest.json").read_text())
    assert "layer0.gst.wq" in manifest["params"]
    assert manifest["config"]["video"]["layout"] == [2, 4, 1, 1, 2]
    assert (tmp_path / "ckpt.manifest.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_train_config_field_settable(tmp_path, monkeypatch, capsys, source):
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros((2, 2, 8, 8, 3)))
    (data / "texts.json").write_text(json.dumps(
        {"subtitles": [[1], [2]], "captions": [[1], [2]]}))
    seen = []

    def fake_train(dataset, params, vcfg, tcfg, config, seed=0):
        seen.append(config)
        return [(0, 1.0, config.base_lr, config.init_tau)]

    monkeypatch.setattr(alignment, "train", fake_train)
    # a non-default value per field; a new field fails here until it is listed
    want = {"steps": 7, "base_lr": 3e-3, "final_lr": 1e-4, "beta1": 0.8,
            "beta2": 0.99, "weight_decay": 0.1, "clip_norm": 5.0,
            "init_tau": 0.05, "batch_size": 3}
    fields = dataclasses.fields(TrainConfig)
    assert set(want) == {f.name for f in fields}
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "o"),
            "--width", "8", "--layers", "1", "--heads", "2", "--embed-dim", "4",
            "--hierarchies", "1", "--vocab", "16", "--context", "4"]
    if source == "flag":
        for name, value in want.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
    else:
        cfg = tmp_path / "train.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in want.items()))
        argv += ["--config", str(cfg)]
    assert run(argv) == 0
    assert {f.name: getattr(seen[0], f.name) for f in fields} == want
    assert all(want[f.name] != f.default for f in fields)


def test_train_config_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 2\nstpes = 1\n")
    assert run(["train", "--config", str(cfg), "--data", str(tmp_path),
                "--out", str(tmp_path / "o")]) == 1
    assert "stpes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, line, key", [
    ("steps = 2\nsteps\n", 2, "steps"),
    ("# comment\n\nbase_lr = 1e-3\nbatch_size =   # no value\n", 4, "batch_size"),
    ("steps=2\nsteps=3\n", 2, "steps"),
    ("= 3\n", 1, ""),
    ("base_lr = 1e-3\nsteps = abc\n", 2, "steps"),
], ids=("no =", "no value", "repeated", "no key", "bad value"))
def test_train_config_malformed_line_exits_1(tmp_path, capsys, text, line, key):
    model = small_dataset(tmp_path / "data")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(text)
    assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                "--out", str(tmp_path / "o"), *model]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} line {line}: {key!r} ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, data", [
    ("data/texts.json", b'{"subtitles": [[1]], "cap'),
    ("data/texts.json", b'{"subtitles": [[1]], "captions": [["\xff"]]}'),
    ("ckpt/manifest.json", b'{"params": {"a": '),
    ("in/v.jsonl", b'{"video_id": "v", "sentences": []}\n"\xff"\n'),
    ("train.cfg", b"steps = 2  # \xff\n"),
    ("ckpt/manifest.json", b"[" * 100_000 + b"]" * 100_000),
], ids=("truncated texts", "texts not utf-8", "truncated manifest",
        "transcript not utf-8", "config not utf-8", "deep manifest"))
def test_untrusted_file_errors_name_the_file(tmp_path, capsys, name, data):
    model = small_dataset(tmp_path / "data")
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    if name.startswith("ckpt/"):        # no verb loads a checkpoint
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path.parent)
        err = f"error: {exc.value}\n"
    else:
        argv = (["curate", "--in", str(path.parent)] if name.startswith("in/") else
                ["train", "--data", str(tmp_path / "data"), *model]
                + (["--config", str(path)] if name == "train.cfg" else []))
        assert run([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def small_dataset(data):
    """Write a 4-clip dataset into `data`; return the model flags that fit it."""
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros((4, 2, 8, 8, 3)))
    (data / "texts.json").write_text(json.dumps(
        {"subtitles": [[1], [2], [3], [4]], "captions": [[5], [6], [7], [8]]}))
    return small_dataset_flags()


def small_dataset_flags():
    return ["--width", "8", "--layers", "1", "--heads", "2", "--embed-dim", "4",
            "--hierarchies", "1", "--vocab", "16", "--context", "4"]


@pytest.mark.parametrize("flags, message", [
    ("--steps 0", "steps"), ("--steps -3", "steps"), ("--batch-size 0", "batch_size"),
    ("--init-tau nan", "init_tau must be finite"),
    ("--clip-norm nan", "clip_norm must be finite"),
    ("--base-lr inf --final-lr inf", "base_lr must be finite"),
    ("--weight-decay nan", "weight_decay must be finite"),
    ("--beta2 1", "beta2"), ("--weight-decay -0.5", "weight_decay"),
    ("--init-tau 5e-324", "init_tau must be >= e^-5"),
    ("--weight-decay 1e300 --steps 3", "non-finite loss nan at step 1"),
    ("--patch 0", "patch must be >= 1"), ("--patch -4", "patch must be >= 1"),
    ("--heads 0", "heads and patch"), ("--heads -4", "heads and patch"),
])
def test_train_bad_config_exits_1_before_writing(tmp_path, capsys, flags, message):
    model = small_dataset(tmp_path / "data")
    assert run(["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"),
                *model, *flags.split()]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert not (tmp_path / "o").exists()


def test_diverging_train_writes_one_stderr_line(tmp_path):
    model = small_dataset(tmp_path / "data")
    proc = subprocess.run(
        [sys.executable, "-c", "from hta.cli import main; main()", "train",
         "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"), *model,
         "--weight-decay", "1e300", "--steps", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: non-finite loss nan at step 1"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(max_size=80) | st.lists(
    st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)] + ["#", "=", " "])
    | st.text(max_size=6), max_size=12).map("".join))
def test_train_config_file_exits_0_or_1(tmp_path_factory, monkeypatch, text):
    tmp = tmp_path_factory.mktemp("cfg")
    model = small_dataset(tmp / "data")
    monkeypatch.setattr(alignment, "train", lambda *a, **k: [(0, 1.0, 1e-3, 0.01)])
    (tmp / "train.cfg").write_text(text, encoding="utf-8")
    assert run(["train", "--config", str(tmp / "train.cfg"), "--data", str(tmp / "data"),
                "--out", str(tmp / "o"), *model]) in (0, 1)


def test_train_bad_clip_rank_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros((2, 8, 8, 3)))   # rank 4
    (data / "texts.json").write_text(json.dumps(
        {"subtitles": [[1], [2]], "captions": [[1], [2]]}))
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("subtitles, captions", [(3, 4), (4, 5)])
def test_train_texts_count_error_names_the_file(tmp_path, capsys, subtitles, captions):
    model = small_dataset(tmp_path / "data")       # 4 clips
    texts = tmp_path / "data" / "texts.json"
    texts.write_text(json.dumps({"subtitles": [[1]] * subtitles,
                                 "captions": [[2]] * captions}))
    assert run(["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"),
                *model]) == 1
    assert capsys.readouterr().err == (f"error: {texts}: {subtitles} subtitles and "
                                       f"{captions} captions for 4 clips in clips.hta\n")
    assert not (tmp_path / "o").exists()


def test_train_without_clips_names_the_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros((0, 4, 16, 16, 3)))
    (data / "texts.json").write_text(json.dumps({"subtitles": [], "captions": []}))
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {data / 'clips.hta'}: want [B, T, H, "
                                       "W, 3] with B >= 1, got (0, 4, 16, 16, 3)\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("shape", [(2, 0, 16, 16, 3), (2, 4, 0, 16, 3), (2, 4, 6, 6, 3)])
def test_train_frames_not_whole_patches_name_the_file(tmp_path, capsys, shape):
    # no frames, no rows, and 6 x 6 frames under 4 x 4 patches: each was
    # blamed on the layout or the patch count, without the file
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros(shape))
    (data / "texts.json").write_text(json.dumps({"subtitles": [[1], [2]],
                                                 "captions": [[3], [4]]}))
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "o"), "--patch", "4"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'clips.hta'}: want T >= 1 frames of H x W x 3, H and W "
        f"positive multiples of the patch 4, got {shape}\n")
    assert not (tmp_path / "o").exists()


def test_allocation_failure_exits_1_with_one_line(monkeypatch, capsys):
    # slt_mask's int64 temporary here is about 727 TiB, more than a process
    # can map, so it fails at once under any overcommit setting
    argv = ["mask", "dump", "--layout", "10000000,1,0,1,2", "--family", "slt"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def no_memory(layout):
        raise MemoryError        # as Python's own allocators do: no message
    monkeypatch.setattr("hta.masks.slt_mask", no_memory)
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


MALFORMED_TEXTS = {name: json.dumps(texts) for name, texts in {
    "list": [],
    "int subtitles": {"subtitles": 5, "captions": [[1], [2]]},
    "flat captions": {"subtitles": [[1], [2]], "captions": [1, 2, 3, 4]},
    "float token": {"subtitles": [[1], [1.5]], "captions": [[1], [2]]},
    "no captions": {"subtitles": [[1], [2]]},
    "bool token": {"subtitles": [[1], [True]], "captions": [[1], [2]]},
    "token = vocab": {"subtitles": [[1], [2]], "captions": [[1], [16]]},
    "huge token": {"subtitles": [[1], [10 ** 30]], "captions": [[1], [2]]},
    "empty tokens": {"subtitles": [[1], []], "captions": [[1], [2]]},
    "over context": {"subtitles": [[1], [2]], "captions": [[1], [1, 2, 3, 4, 5, 6]]},
}.items()} | {"deep": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("texts", MALFORMED_TEXTS.values(), ids=MALFORMED_TEXTS.keys())
def test_train_malformed_texts_json_exits_1(tmp_path, capsys, texts):
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros((2, 2, 8, 8, 3)))
    (data / "texts.json").write_text(texts)
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                "--steps", "1", "--width", "8", "--layers", "1", "--heads", "2",
                "--embed-dim", "4", "--hierarchies", "1", "--vocab", "16",
                "--context", "4"]) == 1
    assert "texts.json" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_errors_exit_1(tmp_path, capsys):
    rng = np.random.default_rng(2)
    files = {"v": rng.normal(size=(4, 3)), "t": rng.normal(size=(4, 3)),
             "t3": rng.normal(size=(3, 3)), "d5": rng.normal(size=(4, 5))}
    for name, a in files.items():
        write_tensor(tmp_path / f"{name}.hta", a)
    nan = tmp_path / "nan.hta"      # write_tensor refuses NaN, so patch a file
    raw = bytearray((tmp_path / "t.hta").read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    nan.write_bytes(bytes(raw))

    def run_eval(text, *flags):
        return run(["eval", "--video-emb", str(tmp_path / "v.hta"),
                    "--text-emb", str(tmp_path / text), *flags])

    for flags in ([], ["--dsl"], ["--direction", "v2t", "--dsl"]):
        assert run_eval("t.hta", *flags) == 0
        assert run_eval("d5.hta", *flags) == 1          # dims differ
        assert run_eval("t3.hta", *flags) == 1          # not square
        assert run_eval("nan.hta", *flags) == 1         # non-finite scores
    assert run_eval("t.hta", "--dsl", "--alpha", "0") == 1
    assert run_eval("t.hta", "--dsl", "--alpha", "-2") == 1
    err = capsys.readouterr().err
    for text in ("want two [Q, D] of one shape", "non-finite", "alpha"):
        assert text in err
    for alpha in ("nan", "inf"):
        assert run_eval("t.hta", "--dsl", "--alpha", alpha) == 1
        err = capsys.readouterr().err
        assert err == f"error: alpha must be finite and positive, got {alpha}\n"


@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["plain", "-W error"])
def test_eval_dsl_overflow_is_one_line_naming_alpha(tmp_path, warnings):
    # finite embeddings whose scores exceed 1.8: only alpha * S overflows. The
    # column statistics run on worker threads, whose numpy error state is
    # their own, so a fresh process sees what `hta eval` prints.
    rng = np.random.default_rng(0)
    for name in ("v", "t"):
        write_tensor(tmp_path / f"{name}.hta", rng.normal(size=(50, 8)))
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "hta.cli", "eval", "--video-emb",
         str(tmp_path / "v.hta"), "--text-emb", str(tmp_path / "t.hta"),
         "--dsl", "--alpha", "1e308"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ("error: alpha = 1e+308 overflows the dual softmax: "
                           "alpha * similarity has non-finite entries\n")


@pytest.mark.parametrize("video, text", [((5, 5), (6, 5)), ((5, 5), (5,)),
                                         ((5, 5), (5, 4)), ((0, 5), (0, 5)),
                                         ((5, 0), (5, 0))],
                         ids=["rows differ", "1-D", "dims differ", "0 rows", "0 dims"])
def test_eval_shape_error_names_both_files(tmp_path, capsys, video, text):
    v, t = tmp_path / "v.hta", tmp_path / "t.hta"
    write_tensor(v, np.ones(video))
    write_tensor(t, np.ones(text))
    assert run(["eval", "--video-emb", str(v), "--text-emb", str(t)]) == 1
    assert capsys.readouterr().err == (f"error: {v} {video} and {t} {text}: "
                                       "want two [Q, D] of one shape, Q, D >= 1\n")


def test_selftest_command(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_selftest_names_the_input_that_breaks_an_invariant(monkeypatch, capsys):
    # an SlT mask that blocks nothing
    monkeypatch.setattr(selftest, "slt_mask",
                        lambda lay: np.zeros((lay.T * lay.N,) * 2, bool))
    assert run(["selftest"]) == 1
    assert ("FAIL  mask oracle equivalence: slt mask differs from its oracle at "
            "TokenLayout(T=4, N=4, U=2") in capsys.readouterr().out
    monkeypatch.undo()

    def assert_weights_fail(block):
        assert run(["selftest"]) == 1
        out, err = capsys.readouterr()
        assert (f"FAIL  masked attention weights: layer0.{block} head 0: a blocked "
                "weight is not 0\n") in out and err == ""
        monkeypatch.undo()

    # a GST block that attends everything
    monkeypatch.setattr(towers, "_gst_mask",
                        lambda lay: np.zeros((lay.seq_len,) * 2, bool))
    assert_weights_fail("gst")
    # an SlT block that attends all T*N patches: stride 1, a mask that blocks nothing
    attention = towers._attention

    def slt_attends_all(tape, x, pre, pid, mask, heads, stride=1, rows=None):
        if pre.endswith(".slt"):
            n = tape.value(x).shape[1]
            mask, stride = np.zeros((n, n), bool), 1
        return attention(tape, x, pre, pid, mask, heads, stride, rows)
    monkeypatch.setattr(towers, "_attention", slt_attends_all)
    assert_weights_fail("slt")


def test_importing_cli_loads_neither_selftest_nor_oracles():
    code = "import sys, hta.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "hta.cli" in loaded
    assert not {"hta.selftest", "hta.oracles", "numpy", "scipy", "urllib.request",
                "http.client"} & set(loaded)


def test_verbs_without_gelu_never_load_scipy(tmp_path):
    write_tensor(tmp_path / "e.hta", np.eye(4))
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "v.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    emb = str(tmp_path / "e.hta")
    verbs = [["mask", "dump", "--layout", "4,4,2,1,2", "--family", "gst"],
             ["eval", "--video-emb", emb, "--text-emb", emb, "--dsl"],
             ["curate", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
              "--summarizer", "fallback"],
             ["selftest"]]
    # one process runs the verbs in turn and reports, after each, its exit
    # code and whether scipy has been loaded so far
    code = ("import contextlib, io, json, sys\n"
            "from hta.cli import run\n"
            "report = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        report.append([argv[0], run(argv), 'scipy' in sys.modules])\n"
            "print(json.dumps(report))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(verbs)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[argv[0], 0, False] for argv in verbs]


# The hta modules and the costly stdlib and third-party modules each verb
# loads beyond `import hta.cli`, which loads hta, hta.cli and hta.config only.
# No verb here loads the HTTP stack (only an external summarizer does), and
# none loads multiprocessing: curate forks its workers itself. Neither the
# dispatcher nor curate loads numpy.
WATCHED = ("numpy", "hashlib", "logging", "scipy", "urllib.request", "http.client",
           "multiprocessing", "concurrent.futures")
VERB_MODULES = {
    "import": set(),
    "mask": {"hta.masks", "numpy"},
    "eval": {"hta.retrieval", "hta.tensor_io", "numpy"},
    "curate": {"hta.datapipe", "hashlib", "logging"},
    "train": {"hta.alignment", "hta.towers", "hta.masks", "hta.tape", "hta.tensor_io",
              "numpy", "hashlib"},      # gelu needs scipy only for |x| > sqrt 2
    "selftest": {"hta.selftest", "hta.oracles", "hta.masks", "hta.tape", "hta.towers",
                 "hta.retrieval", "numpy", "hashlib"},  # numpy.random loads hashlib
}


@pytest.mark.parametrize("verb", VERB_MODULES)
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, verb):
    emb = str(tmp_path / "e.hta")
    write_tensor(emb, np.eye(4))
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "v.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    argv = {
        "import": [],
        "mask": ["mask", "dump", "--layout", "4,4,2,1,2", "--family", "gst"],
        "eval": ["eval", "--video-emb", emb, "--text-emb", emb, "--dsl"],
        "curate": ["curate", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")],
        "train": ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"),
                  "--steps", "1", *small_dataset(tmp_path / "data")],
        "selftest": ["selftest"],
    }[verb]
    # a fresh process runs the verb (or only imports the CLI) and reports its
    # exit code and the hta and watched modules it loaded
    code = ("import contextlib, io, json, sys\n"
            "import hta.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = hta.cli.run(sys.argv[2:]) if sys.argv[2:] else 0\n"
            "watched = json.loads(sys.argv[1])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                               if m.split('.')[0] == 'hta' or m in watched)]))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(WATCHED), *argv],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [0, sorted({"hta", "hta.cli", "hta.config"}
                                         | VERB_MODULES[verb])]


@needs_fork
def test_curate_workers_load_no_numpy(tmp_path):
    (tmp_path / "in").mkdir()
    for name in ("a", "b"):
        (tmp_path / "in" / f"{name}.jsonl").write_text(json.dumps(
            {"video_id": name, "sentences": [{"text": "a.", "t0": 0.0, "t1": 5.0}]}))
    # a fresh process curates two files on two forked workers; each file's
    # worker records its pid and whether numpy is loaded once it is done
    code = ("import contextlib, io, json, os, sys\n"
            "from hta import cli, config, datapipe\n"
            "config.usable_cores = lambda: 2\n"
            "curate_file = datapipe.curate_file\n"
            "def recording(*args):\n"
            "    result = curate_file(*args)\n"
            "    with open(sys.argv[1], 'a') as log:\n"
            "        log.write(json.dumps([os.getpid(), 'numpy' in sys.modules]) + '\\n')\n"
            "    return result\n"
            "datapipe.curate_file = recording\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(sys.argv[2:])\n"
            "print(json.dumps([os.getpid(), code, 'numpy' in sys.modules]))\n")
    log = tmp_path / "workers.jsonl"
    out = subprocess.run([sys.executable, "-c", code, str(log), "curate", "--in",
                          str(tmp_path / "in"), "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, check=True).stdout
    parent, exit_code, parent_numpy = json.loads(out)
    workers = [json.loads(line) for line in log.read_text().splitlines()]
    assert (exit_code, parent_numpy) == (0, False)
    assert len({pid for pid, _ in workers} - {parent}) == 2
    assert not any(numpy for _, numpy in workers)


# -- every verb on drawn argv ---------------------------------------------------
#
# Flag values come from a small alphabet of what breaks parsers and contracts:
# non-finite, zero and negative numbers, non-numbers, and paths that are
# missing or of the wrong kind. The first value of each flag is a valid one,
# drawn half the time, so that draws also get past the parser. "@name" stands
# for that entry of a fresh directory (see argv_fixture); "@missing" is never
# created. Model sizes stay at most 3 (widths and vocabularies at most 64), so
# no draw allocates more than a few MB, and train runs at most one step.

NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e300", "abc", ""]
SMALL_INTS = ["-1", "0", "1", "2", "3", "1.5", "nan", "abc", ""]
WIDE_INTS = SMALL_INTS + ["4", "8", "16", "64"]
PATHS = ["@missing", "@missing/x", "@dir", "@file"]
OUTS = ["@out", *PATHS]
ARGV_FLAGS = {      # flag -> values, a valid one first; None marks a switch
    "mask": {"--layout": ["4,4,2,1,2", "2,1,0,1,2", "2,4", "4,4,2,1,1", "abc",
                          *(",".join([v] * 5) for v in SMALL_INTS)],
             "--family": ["gst", "slt", "x"], "--format": ["pgm", "csv", "x"],
             "--out": OUTS},
    "eval": {"--video-emb": ["@emb", "@emb3", "@garbage", *PATHS],
             "--text-emb": ["@emb", "@emb3", "@garbage", *PATHS],
             "--dsl": None, "--alpha": ["100", *NUMBERS],
             "--direction": ["v2t", "t2v", "x"], "--out": OUTS},
    "curate": {"--in": ["@in", "@bad_in", *PATHS], "--out": OUTS,
               "--scales": ["13,30,60", "nan,30,60", "1,2", "0,1,2", "abc"],
               "--fps": ["0.5", *NUMBERS], "--placeholder-captions": None},
    "train": {"--data": ["@data", "@bad_data", *PATHS], "--out": OUTS,
              "--config": ["@cfg", *PATHS], "--steps": ["1", "0", "-1", "abc"],
              "--base-lr": ["1e-3", *NUMBERS], "--beta2": ["0.9", *NUMBERS],
              "--init-tau": ["0.1", *NUMBERS], "--batch-size": ["2", *WIDE_INTS],
              "--width": ["16", *WIDE_INTS], "--layers": ["2", *SMALL_INTS],
              "--heads": ["1", *SMALL_INTS], "--embed-dim": ["8", *WIDE_INTS],
              "--patch": ["2", *WIDE_INTS], "--hierarchies": ["3", *SMALL_INTS],
              "--mst-per-level": ["2", *SMALL_INTS],
              "--temporal-scale": ["3", *WIDE_INTS], "--vocab": ["64", *WIDE_INTS],
              "--context": ["2", *WIDE_INTS]},
    "selftest": {},
}
REQUIRED = {"--layout", "--family", "--video-emb", "--text-emb", "--in", "--out",
            "--data"}


def argv_fixture(tmp):
    """Create every "@name" entry but @missing and @out under tmp."""
    small_dataset(tmp / "data")
    (tmp / "bad_data").mkdir()
    write_tensor(tmp / "bad_data" / "clips.hta", np.zeros((2, 2, 8, 8, 3)))
    (tmp / "bad_data" / "texts.json").write_text('{"subtitles": [[1]]}')
    (tmp / "cfg").write_text("steps = 1\nbase_lr = 1e-3\n")
    write_tensor(tmp / "emb", np.eye(4, 3))
    write_tensor(tmp / "emb3", np.ones((3, 3)))
    (tmp / "garbage").write_bytes(b"HTA1\xff\xff\xff\xff")
    (tmp / "dir").mkdir()
    (tmp / "file").write_text("x")
    for name, t1 in (("in", 5.0), ("bad_in", -1.0)):
        (tmp / name).mkdir()
        (tmp / name / "v.jsonl").write_text(json.dumps(
            {"video_id": "v", "sentences": [{"text": "a.", "t0": 0.0, "t1": t1}]}))


@st.composite
def drawn_argv(draw, verb):
    def value(values):
        return draw(st.sampled_from(values)) if draw(st.booleans()) else values[0]

    argv = ["--seed", value(["3", *SMALL_INTS])] if draw(st.booleans()) else []
    argv += ["mask", "dump"] if verb == "mask" else [verb]
    if verb == "train":     # a tiny model for one step; drawn flags override it
        argv += ["--steps", "1", *small_dataset_flags()]
    for flag, values in ARGV_FLAGS[verb].items():
        if draw(st.integers(0, 9)) < (9 if flag in REQUIRED else 3):
            argv += [flag] if values is None else [flag, value(values)]
    return argv


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("verb", ARGV_FLAGS)
def test_drawn_argv_exits_0_1_or_2_with_one_line(tmp_path_factory, capsys, verb):
    @settings(max_examples=40 if verb == "train" else 25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn_argv(verb))
    def check(argv):
        tmp = tmp_path_factory.mktemp("argv")
        argv_fixture(tmp)
        before = tree(tmp)
        code = run([str(tmp / a[1:]) if a.startswith("@") else a for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") <= 1, err
        assert code == 0 or tree(tmp) == before

    check()
