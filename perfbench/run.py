"""Benchmark of the hta package. Run it from the repository root:

    python3 perfbench/run.py --workload train_b32 --seed 1 --seconds 50 --trace 0

The workloads are those listed in BENCHMARK.json; `all` runs each in turn.
Each workload runs in a fresh process that uses hta from ./src, with the BLAS
thread count fixed. With --trace 0 the run measures the end-to-end
metrics for --seconds; with --trace 1 it runs one op traced, untraced and
traced again, each in a fresh process, and reports the per-layer metrics, the
tracing overhead, and whether the exact counters repeated.

Earlier lines of standard output are a readable report (host, every metric
by name and unit, failures); the last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

BLAS_THREADS = 1           # steadier than 2 on a 2-vCPU host; see README
SETUP_RUNS = 5
DEADLINE_S = 170.0            # the whole run, so it ends within 180 s
WORKLOAD_PY = Path(__file__).resolve().parent / "workloads.py"
# Counters that must repeat exactly between two traced runs of the same op.
EXACT = ("tape.masked_softmax.calls", "tape.masked_softmax.score_elems",
         "tape.masked_softmax.mask_bytes", "tape.masked_softmax.allowed_frac",
         "tape.matmul.calls", "tape.matmul.fwd_gflop", "tape.ops",
         "towers.encode_text.calls", "masks.builds", "alignment.clip_fired_frac",
         "retrieval.matrix_mb", "tensor_io.bytes_read", "tensor_io.bytes_written",
         "datapipe.clips_per_sentence", "trace.spans")
IMPORT_CLI = ("import time; t = time.perf_counter(); import hta.cli; "
              "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def host_info() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.machine())
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(d / "type").strip() in ("Unified", "Data"):
            caches[f"L{_read(d / 'level').strip()}"] = _read(d / "size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "l2": caches.get("L2", "?"),
            "l3": caches.get("L3", "?"), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root, self.deadline, self.env = root, deadline, child_env(root)

    def _run(self, argv) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, timeout=timeout, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {argv[:3]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"exit {proc.returncode}: {argv[:3]}")
        return proc.stdout

    def import_times(self, n: int) -> list[float]:
        """Wall times of `import hta.cli`, each in a fresh process."""
        return [float(self._run(["-c", IMPORT_CLI])) for _ in range(n)]

    def workload(self, name: str, seed: int, seconds: float, work: Path,
                 spans: Path | None = None) -> dict:
        work.mkdir()
        result = work / "result.json"
        argv = [str(WORKLOAD_PY), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--work", str(work), "--result", str(result)]
        self._run(argv + (["--trace", str(spans)] if spans else []))
        return json.loads(result.read_text())


def measure(runner: Runner, name: str, seed: int, seconds: float, work: Path) -> dict:
    # set-up samples taken before and after the workload see more of the
    # host's slow and fast periods than samples taken back to back
    setup = runner.import_times(SETUP_RUNS // 2)
    res = runner.workload(name, seed, seconds, work / "run")
    setup += runner.import_times(SETUP_RUNS - SETUP_RUNS // 2)
    res["metrics"]["setup_s"] = statistics.median(setup)
    return res


def measure_traced(runner: Runner, name: str, seed: int, work: Path) -> dict:
    """The same single op traced, untraced, then traced again, each in a
    fresh process; the order cancels a steady drift in host speed."""
    spans = work.parent / f"spans-{name}.csv"
    traced = [runner.workload(name, seed, 0, work / "traced0", spans)]
    base = runner.workload(name, seed, 0, work / "untraced")
    traced.append(runner.workload(name, seed, 0, work / "traced1", spans))
    runs = [base] + traced
    res = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "errors": sum((r["errors"] for r in runs), []),
           "named": base["named"]}
    a, b = (r["per_layer"] for r in traced)
    moved = [k for k in EXACT if a[k] != b[k]]
    if moved:
        res["errors"].append(f"exact counters differ between runs: {moved}")
        res["failed"] = min(res["attempted"], res["failed"] + 1)
    metrics = {k: (a[k] + b[k]) / 2 for k in a}
    metrics["trace.overhead_ms"] = 1e3 * (
        (traced[0]["measured_s"] + traced[1]["measured_s"]) / 2 - base["measured_s"])
    res["metrics"] = metrics
    return res


def report(name: str, seed: int, trace: bool, res: dict, units: dict) -> dict:
    """Print the readable report; return the result object for the last line."""
    ok = res["failed"] == 0 and not res["errors"]
    print(f"== {name} seed={seed} trace={int(trace)}: {res['attempted']} ops, "
          f"{res['failed']} failed, ops_failed_frac "
          f"{res['failed'] / res['attempted']:.4f} ratio")
    for metric, unit in units.items():
        if metric in res["metrics"]:
            print(f"  {metric:42s} {res['metrics'][metric]:16.6g} {unit}")
    for metric, (value, unit) in res["named"].items():
        print(f"  {metric:42s} {value:16.6g} {unit}")
    for err in res["errors"]:
        print(f"  FAILED: {err.strip()}")
    return {"correct": ok, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in res["metrics"].items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "hta" / "__init__.py").is_file():
        print(f"error: no hta package under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            p.error(f"--workload must be one of {names} or all")
        names = [args.workload]
    host = host_info()
    print("host:", json.dumps(host))
    print(f"eval score matrices: Q=1k {1000 * 1000 * 8 / 1e6:g} MB, "
          f"Q=5k {5000 * 5000 * 8 / 1e6:g} MB (float64); L2 {host['l2']}, L3 {host['l3']}")
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, time.monotonic() + DEADLINE_S * len(names))
    results = {}
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                work = Path(tmp)
                res = (measure_traced(runner, name, args.seed, work) if args.trace
                       else measure(runner, name, args.seed, args.seconds, work))
            want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
            if set(res["metrics"]) != want:
                raise BenchError(f"{name} reported {sorted(set(res['metrics']) ^ want)}"
                                 " not as listed in BENCHMARK.json")
            results[name] = report(name, args.seed, bool(args.trace), res, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
