"""Benchmark of the prolate CLI and solvers, one fresh process per operation.

Usage, from the root of a checkout (no install or build step is needed):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Times ``import prolate`` several times (set-up), then runs passes over the
workload's operations until the next pass would end after ``--seconds``
(at least two passes).  Each operation is a fresh interpreter.  After the
timed passes, every output is checked against the independent oracle in
``oracle.py`` and against the digest of the same operation in the first
pass.  With ``--trace 1`` one more pass runs every operation under
``tracer.py`` and the per-layer metrics are reported instead of the
end-to-end ones.

Prints a ``record`` line stamping the software and hardware, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the sources
under ``src/prolate`` are absent, and 3 when set-up fails or the trace
cannot cover a layer.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench_work"
MIN_PASSES = 2  # the digest check needs a second pass
SETUP_REPEATS = 7
OP_TIMEOUT_S = 120.0

_STAMP = r"""
import ctypes, glob, importlib.util, json, os, platform
import numpy
import prolate
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            threads = int(getattr(lib, symbol)())
            break
print(json.dumps({
    "numba": importlib.util.find_spec("numba") is not None,
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
    "python": platform.python_version(),
}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    """One finished child process."""

    op: workloads.Op
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    err: Path


def child_env() -> dict:
    """Sources from the checkout only, and one BLAS thread per available core."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv: list[str], out: Path, err: Path, env: dict) -> tuple[int, float, float, float]:
    """Run argv to completion: exit code, wall s, CPU s and peak RSS MB of that child."""
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child alone
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_op(op: workloads.Op, tag: str, env: dict, workdir: Path, spans: Path | None = None) -> Run:
    argv = [sys.executable]
    if spans is not None:
        argv += [str(BENCH / "tracer.py"), str(spans), op.kind]
    elif op.kind == "lib":
        argv += [str(BENCH / "libop.py")]
    else:
        argv += ["-m", "prolate"]
    argv += op.cli_args() if op.kind == "cli" else [str(workdir / f"{op.name}.npy")]
    out, err = workdir / f"{tag}-{op.name}.out", workdir / f"{tag}-{op.name}.err"
    return Run(op, *spawn(argv, out, err, env), out, err)


def measure_setup(env: dict, workdir: Path) -> float:
    """Median wall time of a fresh ``import prolate``."""
    walls = []
    for i in range(SETUP_REPEATS):
        out, err = workdir / f"setup{i}.out", workdir / f"setup{i}.err"
        code, wall, _, _ = spawn([sys.executable, "-c", "import prolate"], out, err, env)
        if code != 0:
            raise BenchError(f"`import prolate` exited {code}: {err.read_text()[-500:]}")
        walls.append(wall)
    return statistics.median(walls)


def environment(env: dict, workdir: Path) -> dict:
    out, err = workdir / "stamp.out", workdir / "stamp.err"
    code, _, _, _ = spawn([sys.executable, "-c", _STAMP], out, err, env)
    if code != 0:
        raise BenchError(f"environment stamp exited {code}: {err.read_text()[-500:]}")
    return {**json.loads(out.read_text()), "nproc": len(os.sched_getaffinity(0))}


def run_passes(ops, seconds: float, env: dict, workdir: Path) -> tuple[list[list[Run]], list[float]]:
    """Timed passes: stop before a pass that would end after ``seconds``."""
    passes, walls = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        tick = time.perf_counter()
        passes.append([run_op(op, f"pass{len(passes)}", env, workdir) for op in ops])
        walls.append(time.perf_counter() - tick)
    return passes, walls


class Checker:
    """Failure reasons of finished runs: exit code, digest drift, oracle."""

    def __init__(self) -> None:
        self.reference: dict[str, str] = {}  # op name -> digest of its first good run
        self.verdicts: dict[tuple[str, str], str | None] = {}

    def failure(self, run: Run) -> str | None:
        name = run.op.name
        if run.exit != 0:
            return f"{name}: exit code {run.exit}: {run.err.read_text()[-300:].strip()}"
        data = run.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.reference.setdefault(name, digest):
            return f"{name}: output differs from the first run of the same operation"
        if (name, digest) not in self.verdicts:
            self.verdicts[name, digest] = oracle.check(run.op, data)
        return self.verdicts[name, digest]


def layer_metrics(spans_files: list[Path]) -> dict:
    """Self time, calls and work counters per span name, summed over operations."""
    totals = {
        name: {"self_s": 0.0, "calls": 0, **{key: 0 for key in counters}}
        for name, counters in tracer.SPAN_COUNTERS.items()
    }
    for path in spans_files:
        spans = json.loads(path.read_text())
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, child in zip(spans, covered):
            total = totals[span["name"]]
            total["self_s"] += span["end"] - span["start"] - child
            total["calls"] += 1
            for key in tracer.SPAN_COUNTERS[span["name"]]:
                total[key] += span[key]
    metrics = {}
    for name, total in totals.items():
        for key, value in total.items():
            unit = "s" if key == "self_s" else "bytes" if key.endswith("bytes") else "count"
            metrics[f"{name}.{key}"] = {"value": value, "unit": unit}
    return metrics


def traced_pass(ops, passes, walls, env: dict, workdir: Path) -> tuple[list[Run], dict]:
    """One more pass under the tracer; returns its runs and the per-layer metrics."""
    traced, spans_files = [], []
    tick = time.perf_counter()
    for op in ops:
        spans = workdir / f"traced-{op.name}.spans.json"
        traced.append(run_op(op, "traced", env, workdir, spans))
        if traced[-1].exit == tracer.TRACE_BROKEN:
            raise BenchError(traced[-1].err.read_text().strip())
        if traced[-1].exit == 0:
            spans_files.append(spans)
    traced_wall = time.perf_counter() - tick
    metrics = layer_metrics(spans_files)
    for name in workloads.op_names():
        op_walls = [run.wall_s for one_pass in passes for run in one_pass if run.op.name == name]
        metrics[f"op.{name}.wall_s"] = {
            "value": statistics.median(op_walls) if op_walls else 0.0, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(walls), "unit": "s"}
    return traced, metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              workdir: Path, scale: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns (record stamp, result object)."""
    ops = workloads.build(workload, seed, scale)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for op in ops:
        if op.kind == "lib":
            np.save(workdir / f"{op.name}.npy", op.matrix)
    env = child_env()
    setup_s = measure_setup(env, workdir)
    stamp = environment(env, workdir)
    passes, walls = run_passes(ops, seconds, env, workdir)
    runs = [run for one_pass in passes for run in one_pass]
    if trace:
        traced, metrics = traced_pass(ops, passes, walls, env, workdir)
        runs += traced
    checker = Checker()  # untraced runs first: they set the reference digests
    reasons = [reason for reason in map(checker.failure, runs) if reason]
    for reason in reasons:
        sys.stderr.write(f"perfbench: FAILED {reason}\n")
    if not trace:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(max(run.rss_mb for run in p) for p in passes),
                "unit": "MB",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "ok_ratio": {"value": 1.0 - len(reasons) / len(runs), "unit": "ratio"},
        }
    stamp["passes"] = len(passes)
    stamp["pass_wall_s"] = walls
    stamp["pass_cpu_s"] = [sum(run.cpu_s for run in one_pass) for one_pass in passes]
    result = {
        "correct": not reasons,
        "attempted": len(runs),
        "failed": len(reasons),
        "metrics": metrics,
    }
    return stamp, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prolate" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no prolate sources under {ROOT / 'src'}\n")
        return 2
    try:
        stamp, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    print("record " + json.dumps({"workload": args.workload, "seed": args.seed, **stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
