"""Compare what two checkouts of prolate print and write, byte for byte.

Usage, from the root of a checkout:

    python3 tools/compare_reports.py PARENT_ROOT

Runs every operation that ``perfbench/workloads.py`` builds for the three
workloads, seeds 1-4, at toy and full scale (library operations through
``perfbench/libop.py``), plus the operations in ``EXTRA``, which reach
what those do not: odd N (bordered parity blocks and vectors, and the
values-only split of a symbol), a 1 x 1 symbol, an odd DFT side, a block
whose width changes with the BLAS thread count, decomposes at N = 1000 and
at N = 300 (a last band of rows shorter than the rest), JSON output and
the ratio sweep's written file.
Each distinct operation runs once in this checkout and once in
PARENT_ROOT, each with ``PYTHONPATH`` set to that tree's ``src``, under
one and under two OpenBLAS threads, in a fresh working directory.

Then a library pass: under one and under two OpenBLAS threads, one fresh
interpreter per tree runs the fixed list of ``library_calls`` and prints
one SHA-256 per call, over the bits of what the call returns: the values,
vectors, residual and iterations of both solvers, the Gram's singular
values, each certificate's width, bound, indices and margins, and every
numeric field of the low-rank splits and commuting fits.  Only values are
hashed, never a field name.

Prints every run whose stdout, stderr, exit code or written files differ
between the two trees, and every library call whose digest differs, and
exits 1 if any does; otherwise prints how many runs and calls matched and
exits 0.  Only this checkout's ``perfbench/`` is read, never written.
"""
from __future__ import annotations

import hashlib
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
    ("certify", "M=99", "N=33", "K=10"),
    ("commute", "M=99", "N=33", "K=16"),
    ("eigs", "M=1511", "N=661", "K=258"),
    ("certify", "M=1511", "N=661", "K=258", "eps=1e-12,1e-13"),
    ("dft-sub", "M=999", "p=3"),
    ("certify", "M=999", "p=3", "row=5", "col=11"),
    ("decompose", "M=1200", "N=1000", "K=100"),
    ("eigs", "M=1024", "N=256", "K=128", "format=json"),
    ("eigs", "M=8", "N=1", "K=1"),
    ("eigs", "M=99", "N=33", "K=10"),
    ("decompose", "M=1000", "N=300", "K=77"),
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


def _env(tree: Path, threads: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run(tree: Path, args, matrix, threads: str) -> dict:
    """Exit code, stdout, stderr and every file the run leaves in its directory."""
    env = _env(tree, threads)
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


def _item_bytes(item) -> bytes:
    """The bits of one returned value; an array with its dtype and shape."""
    if item is None:
        return b"-"
    if isinstance(item, np.ndarray):
        head = f"{item.dtype.str}{item.shape}:".encode()
        return head + np.ascontiguousarray(item).tobytes()
    if isinstance(item, (bool, int, np.bool_, np.integer)):
        return str(int(item)).encode()
    return float(item).hex().encode()


def _spectrum(spec) -> list:
    return [spec.values, spec.vectors, spec.residual, spec.iterations]


def _reports(reports) -> list:
    """Each clustering report's width, bound, indices and margins."""
    return [
        item
        for r in reports
        for item in (r.epsilon, r.width, r.bound, r.lower_index, r.upper_index,
                     r.lower_margin, r.upper_margin)
    ]


def _splits(certs) -> list:
    return [
        item
        for c in certs
        for item in (c.epsilon, c.n, c.order, c.rank, c.tail_bound, c.row_sum,
                     c.entry, c.range_residual, c.passed)
    ]


def _fit(fit) -> list:
    return [fit.diag, fit.offdiag, fit.commutator_norm, fit.alignment,
            *_spectrum(fit.tridiagonal), fit.compared, fit.max_value_dev,
            fit.min_alignment, fit.degenerate, fit.passed]


def library_calls() -> list:
    """(label, call returning the values to hash), in a fixed order."""
    import prolate as pr

    rng = np.random.default_rng(20261022)

    def sym(n):
        a = rng.standard_normal((n, n))
        return 0.5 * (a + a.T)

    inputs = [(f"random n={n}", sym(n)) for n in (1, 2, 3, 64, 129)]
    inputs += [
        ("out-of-range n=16", np.ldexp(sym(16), 600)),
        ("near-symmetric n=40", sym(40) + 1e-14 * rng.standard_normal((40, 40))),
        ("Fortran-ordered n=48", np.asfortranarray(sym(48))),
    ]
    for mnk in ((128, 32, 15), (99, 33, 10), (256, 64, 31)):
        symbol = pr.periodic_prolate(pr.ProlateParams(*mnk))
        inputs += [(f"prolate {mnk} symbol", symbol),
                   (f"prolate {mnk} dense", symbol.dense())]
    calls = [
        (f"{name} vectors {label}",
         lambda a=a, solver=solver: _spectrum(solver(a, want_vectors=True)))
        for label, a in inputs
        for name, solver in (("QL", pr.eigh_householder_ql), ("Jacobi", pr.eigh_jacobi))
    ]
    calls += [
        (f"QL values {label}", lambda a=a: _spectrum(pr.eigh_householder_ql(a)))
        for label, a in inputs if label.endswith("symbol")
    ]
    dft, real = pr.dft_submatrix(999, 3, 5, 11), sym(50)
    calls += [
        ("Gram complex DFT (999,3,5,11)", lambda: [pr.singular_values_via_gram(dft)]),
        ("Gram real symmetric n=50", lambda: [pr.singular_values_via_gram(real)]),
    ]
    levels = (1e-3, 1e-6, 1e-9, 1e-12, 1e-13)
    for mnk in ((1024, 256, 128), (1511, 661, 258)):
        params = pr.ProlateParams(*mnk)
        calls.append((f"certify {mnk}", lambda params=params: _reports(
            pr.certify_spectrum_clustering(params, levels))))
    for block in ((1024, 4, 3, 7), (999, 3, 5, 11)):
        calls.append((f"certify DFT {block}", lambda block=block: _reports(
            pr.certify_dft_submatrix(block[0], block[1], levels, *block[2:]))))
    for mnk, epsilons, order in (
        ((1024, 256, 128), (1e-3, 1e-6, 1e-9, 1e-12), None),
        ((1000, 300, 77), (1e-3, 1e-9), None),
        ((4096, 1024, 512), (1e-6,), 6),
    ):
        params = pr.ProlateParams(*mnk)
        calls.append((f"split {mnk} order={order}", lambda p=params, e=epsilons, o=order:
                      _splits(pr.certify_lowrank_split(p, e, o))))
    for mnk in ((256, 64, 31), (3008, 752, 375)):
        params = pr.ProlateParams(*mnk)
        calls.append((f"fit {mnk}", lambda p=params: _fit(
            pr.fit_commuting_tridiagonal(pr.periodic_prolate(p), p))))
    return calls


def library_pass() -> None:
    """Print each library call's label and the SHA-256 of its values."""
    for label, call in library_calls():
        digest = hashlib.sha256(b"|".join(map(_item_bytes, call()))).hexdigest()
        print(f"{label}\t{digest}")


def library_digests(tree: Path, threads: str) -> dict:
    """Label -> digest of each library call, run in a fresh interpreter on
    ``tree``'s sources; a failed run adds its exit code and last error line."""
    env = _env(tree, threads)
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "tools")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-c", "import compare_reports; compare_reports.library_pass()"],
            cwd=work, env=env, capture_output=True, text=True,
        )
    digests = dict(line.split("\t") for line in proc.stdout.splitlines())
    if proc.returncode:
        digests["exit"] = f"{proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    return digests


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
    calls = calls_differ = 0
    for threads in THREADS:
        mine, theirs = (library_digests(tree, threads) for tree in (ROOT, parent))
        for label in dict.fromkeys([*mine, *theirs]):
            calls += 1
            if mine.get(label) != theirs.get(label):
                calls_differ += 1
                print(f"DIFFERS (library) threads={threads}: {label}")
    print(f"{calls} library digests compared, {calls_differ} differ")
    return 1 if differ or calls_differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
