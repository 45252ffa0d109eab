"""Compare what two checkouts of prolate print and write, byte for byte.

Usage, from the root of a checkout:

    python3 tools/compare_reports.py PARENT_ROOT

Runs every operation that ``perfbench/workloads.py`` builds for the three
workloads, seeds 1-4, at toy and full scale (library operations through
``perfbench/libop.py``), plus ``commute M=3008 N=752 K=375``, ``commute
M=9 N=9 K=3`` and ``transition ratio-sweep M=64..512 out=FILE``.  Each
distinct operation runs once in this checkout and once in PARENT_ROOT,
each with ``PYTHONPATH`` set to that tree's ``src``, under one and under
two OpenBLAS threads, in a fresh working directory.  Prints every run
whose stdout, stderr, exit code or written files differ between the two
trees and exits 1 if any does; otherwise prints how many runs matched and
exits 0.  Only this checkout's ``perfbench/`` is read, never written.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEEDS = (1, 2, 3, 4)
SCALES = ("toy", "full")
THREADS = ("1", "2")
EXTRA = (
    ("commute", "M=3008", "N=752", "K=375"),
    ("commute", "M=9", "N=9", "K=3"),
    ("transition", "ratio-sweep", "M=64..512", "out=FILE"),
)


def operations() -> list[tuple[str, tuple[str, ...], np.ndarray | None]]:
    """Distinct (label, CLI arguments, library input or None), in build order."""
    ops, seen = [], set()
    for scale in SCALES:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for op in workloads.build(workload, seed, scale):
                    args = tuple(op.cli_args())
                    key = (args, None if op.matrix is None else op.matrix.tobytes())
                    if key not in seen:
                        seen.add(key)
                        label = f"{scale} {workload} seed={seed} {op.name}"
                        ops.append((label, args, op.matrix))
    return ops + [(" ".join(args), args, None) for args in EXTRA]


def run(tree: Path, args, matrix, threads: str) -> dict:
    """Exit code, stdout, stderr and every file the run leaves in its directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if matrix is None:
            argv = [sys.executable, "-m", "prolate", *args]
        else:
            np.save(work / "input.npy", matrix)
            argv = [sys.executable, str(BENCH / "libop.py"), "input.npy"]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python3 tools/compare_reports.py PARENT_ROOT\n")
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "prolate" / "__init__.py").is_file():
        sys.stderr.write(f"no prolate sources under {parent / 'src'}\n")
        return 2
    runs = differ = 0
    for label, args, matrix in operations():
        for threads in THREADS:
            mine, theirs = (run(tree, args, matrix, threads) for tree in (ROOT, parent))
            runs += 1
            fields = [key for key in mine if mine[key] != theirs[key]]
            if fields:
                differ += 1
                print(f"DIFFERS ({', '.join(fields)}) threads={threads}: {label}")
    print(f"{runs} runs compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
