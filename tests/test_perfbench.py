"""perfbench's tracer wraps hta functions and methods by name, and counts
work from their arguments, so renaming one or changing what it is called with
breaks only a traced benchmark run; these tests break first."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_finds_every_name_it_wraps():
    # conftest puts this checkout's src/ on PYTHONPATH; the -c script's
    # directory, perfbench/, comes first on sys.path
    run = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# One traced call of each verb the benchmark runs. A counter that raises is
# turned into exit code 1 by cli.run, so every exit code must be 0.
TRACED_VERBS = """
import contextlib, io, json, sys
from pathlib import Path
import numpy as np
from hta import cli
from hta.tensor_io import write_tensor
from tracer import Tracer, layer_metrics

work = Path(sys.argv[1])
data, inp = work / "data", work / "in"
data.mkdir()
inp.mkdir()
write_tensor(data / "clips.hta", np.zeros((4, 2, 8, 8, 3)))
(data / "texts.json").write_text(json.dumps(
    {"subtitles": [[1], [2], [3], [4]], "captions": [[5], [6], [7], [8]]}))
emb = np.random.default_rng(0).normal(size=(50, 8))
write_tensor(work / "emb.hta", emb / np.linalg.norm(emb, axis=1, keepdims=True))
sentences = [{"text": f"word{i} word{i}.", "t0": 6.0 * i, "t1": 6.0 * i + 5.0}
             for i in range(40)]
(inp / "v.jsonl").write_text(json.dumps({"video_id": "v", "sentences": sentences}))

tracer = Tracer()
tracer.install()
tracer.recording = True
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    codes["train"] = cli.run([
        "train", "--data", str(data), "--out", str(work / "ckpt"), "--steps", "2",
        "--batch-size", "4", "--width", "8", "--layers", "1", "--heads", "2",
        "--embed-dim", "4", "--hierarchies", "1", "--vocab", "16",
        "--context", "4"])
    codes["eval"] = cli.run(["eval", "--video-emb", str(work / "emb.hta"),
                             "--text-emb", str(work / "emb.hta"), "--dsl"])
    codes["curate"] = cli.run(["curate", "--in", str(inp),
                               "--out", str(work / "out"), "--placeholder-captions"])
print(json.dumps({"codes": codes, "ops": layer_metrics(tracer)["tape.ops"]}))
"""


def test_one_traced_call_of_each_verb_counts_its_work(tmp_path):
    run = subprocess.run([sys.executable, "-c", TRACED_VERBS, str(tmp_path)],
                         cwd=PERFBENCH, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["codes"] == {"train": 0, "eval": 0, "curate": 0}, run.stderr
    assert got["ops"] > 0
