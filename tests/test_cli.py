import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hta import alignment, datapipe, selftest
from hta.alignment import TrainConfig
from hta.cli import run
from hta.masks import TokenLayout, mask_to_csv, slt_mask
from hta.tensor_io import write_tensor


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
    assert run(["mask", "dump", "--layout", "2,4", "--family", "slt"]) == 1
    assert "error:" in capsys.readouterr().err


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
], ids=("no =", "no value", "repeated", "no key"))
def test_train_config_malformed_line_exits_1(tmp_path, capsys, text, line, key):
    model = small_dataset(tmp_path / "data")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(text)
    assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                "--out", str(tmp_path / "o"), *model]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} line {line}: {key!r} ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def small_dataset(data):
    """Write a 4-clip dataset into `data`; return the model flags that fit it."""
    data.mkdir()
    write_tensor(data / "clips.hta", np.zeros((4, 2, 8, 8, 3)))
    (data / "texts.json").write_text(json.dumps(
        {"subtitles": [[1], [2], [3], [4]], "captions": [[5], [6], [7], [8]]}))
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
    for text in ("dims differ", "square", "non-finite", "alpha"):
        assert text in err
    for alpha in ("nan", "inf"):
        assert run_eval("t.hta", "--dsl", "--alpha", alpha) == 1
        err = capsys.readouterr().err
        assert err == f"error: alpha must be finite and positive, got {alpha}\n"


def test_selftest_command(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_selftest_names_the_input_that_breaks_an_invariant(monkeypatch, capsys):
    # an SlT mask that blocks nothing
    monkeypatch.setattr(selftest, "slt_mask", lambda lay: np.zeros((lay.T * lay.N,) * 2))
    assert run(["selftest"]) == 1
    assert ("FAIL  mask oracle equivalence: slt mask differs from its oracle at "
            "TokenLayout(T=4, N=4, U=2") in capsys.readouterr().out


def test_importing_cli_loads_neither_selftest_nor_oracles():
    code = "import sys, hta.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "hta.cli" in loaded
    assert not {"hta.selftest", "hta.oracles", "scipy", "urllib.request",
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
# No verb here loads the HTTP stack (only an external summarizer does).
WATCHED = ("hashlib", "logging", "scipy", "urllib.request", "http.client")
VERB_MODULES = {
    "import": set(),
    "mask": {"hta.masks", "hta.tape"},
    "eval": {"hta.retrieval", "hta.tensor_io"},
    "curate": {"hta.datapipe", "hashlib", "logging"},
    "train": {"hta.alignment", "hta.towers", "hta.masks", "hta.tape", "hta.tensor_io",
              "hashlib", "logging", "scipy"},       # scipy loads logging
    "selftest": {"hta.selftest", "hta.oracles", "hta.masks", "hta.tape", "hta.towers",
                 "hta.retrieval", "hashlib"},     # numpy.random loads hashlib
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
