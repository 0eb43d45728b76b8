"""perfbench's tracer wraps hta functions and methods by name, so renaming
one breaks only a traced benchmark run; this test breaks first."""

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
