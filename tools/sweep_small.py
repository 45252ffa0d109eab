"""Check every small prolate and DFT certificate against LAPACK.

Usage, from the root of a checkout:

    python3 tools/sweep_small.py MMAX mMAX

Covers every prolate block with M <= MMAX (every N < M and every K with
2K+1 < M) and every cyclic DFT block with m <= mMAX (every p >= 2 dividing
m, with row and column offsets round(linspace(0, m-1, 6)), duplicates
dropped), at each eps in EPSILONS.  Each certificate is compared with the
report that LAPACK's descending spectrum gives at the same bound and centre:
eigvalsh of the dense prolate block, svd of dft_submatrix.  For each row
whose width or verdict differs it prints the block, eps, both widths and
a signed distance value - level: at each level that the two spectra count
differently, that of the value nearest the level, and the largest of these
(with no such level, the value nearest either level).  That distance is
LAPACK's when it exceeds MPMATH_BELOW; otherwise it comes from
40-digit mpmath (eigsy of the float64 block, converted exactly, or svd_c of
the DFT block).  Then it prints the running time and the count of rows
whose nearest value lies within NEAR_LEVEL of a level.  Exits 1 on any
verdict difference and on any width difference farther than NEAR_LEVEL
from a level, else 0.  LAPACK and mpmath serve only as oracles: the
certificates are computed by the library in this checkout's ``src``.
"""
from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import prolate as pr  # noqa: E402
from prolate import bounds  # noqa: E402

EPSILONS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-13)
NEAR_LEVEL = 1e-15
MPMATH_BELOW = 1e-12
DIGITS = 40


def _verdicts(report):
    return report.lower_index_ok, report.upper_index_ok, report.width_ok


def _prolate_blocks(m_max):
    """Per block: its label, certificates, matrix and LAPACK spectrum, the
    centre index nw2 and the (n, m) at which the bound is evaluated."""
    for m in range(2, m_max + 1):
        for n in range(1, m):
            for k in range((m - 2) // 2 + 1):
                params = pr.ProlateParams(M=m, N=n, K=k)
                dense = pr.periodic_prolate(params).dense()
                yield (
                    f"prolate M={m} N={n} K={k}",
                    pr.certify_spectrum_clustering(params, EPSILONS),
                    dense,
                    np.linalg.eigvalsh(dense)[::-1],
                    2 * ((n * (2 * k + 1)) // (2 * m)),
                    (n, m),
                )


def _dft_blocks(m_max):
    for m in range(2, m_max + 1):
        offsets = sorted({round(x) for x in np.linspace(0, m - 1, 6)})
        for p in range(2, m + 1):
            if m % p:
                continue
            length = m // p
            for row in offsets:
                for col in offsets:
                    block = pr.dft_submatrix(m, p, row, col)
                    yield (
                        f"dft M={m} p={p} row={row} col={col}",
                        pr.certify_dft_submatrix(m, p, EPSILONS, row, col),
                        block,
                        np.linalg.svd(block, compute_uv=False),
                        2 * (length // (2 * p)),
                        (length, m),
                    )


def _levels(kind, eps):
    if kind == "dft":
        return math.sqrt(eps), math.sqrt(1.0 - eps)
    return eps, 1.0 - eps


def _gap(values, level):
    """Signed distance value - level of the value nearest the level."""
    return min((value - level for value in values), key=abs)


def _distance(values, levels, crossed):
    """The gap at the crossed level farthest from its nearest value, or,
    when no level is crossed, at the level nearest a value."""
    gaps = [_gap(values, level) for level in crossed or levels]
    return (max if crossed else min)(gaps, key=abs)


def _crossed(computed, lapack, levels):
    """The levels with a different count of values above them in the two
    spectra."""
    return [
        level for level in levels
        if np.count_nonzero(computed > level) != np.count_nonzero(lapack > level)
    ]


def _exact_values(kind, block):
    """DIGITS-digit eigenvalues (prolate) or singular values (DFT) of the
    double-precision block, each entry converted exactly."""
    with mpmath.workdps(DIGITS):
        matrix = mpmath.matrix(block.tolist())
        if kind == "dft":
            return list(mpmath.svd_c(matrix, compute_uv=False))
        return list(mpmath.eigsy(matrix, eigvals_only=True))


def sweep(blocks, kind):
    """(blocks, rows, differing rows printed, near-level rows, failures)."""
    count = rows = differ = near = failures = 0
    for label, reports, block, lapack, nw2, size in blocks:
        count += 1
        exact = None
        for report in reports:
            rows += 1
            eps = report.epsilon
            levels = _levels(kind, eps)
            half = pr.transition_bound(*size, eps)
            ref = bounds._clustering_report(lapack, eps, half, nw2, *levels)
            near += abs(_distance(lapack, levels, [])) <= NEAR_LEVEL
            verdict_differs = _verdicts(report) != _verdicts(ref)
            if report.width == ref.width and not verdict_differs:
                continue
            differ += 1
            computed = report.spectrum.values if kind == "prolate" else report.singular_values
            crossed = _crossed(computed, lapack, levels)
            distance, source = _distance(lapack, levels, crossed), "LAPACK"
            if abs(distance) <= MPMATH_BELOW:
                if exact is None:
                    exact = _exact_values(kind, block)
                with mpmath.workdps(DIGITS):
                    distance = float(_distance(exact, levels, crossed))
                source = "mpmath"
            failures += verdict_differs or abs(distance) > NEAR_LEVEL
            print(
                f"{label} eps={eps:g}: width {report.width}, LAPACK {ref.width}"
                f"{', verdicts differ' if verdict_differs else ''};"
                f" value - level {distance:+.3e} ({source})"
            )
    return count, rows, differ, near, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(arg.isdigit() for arg in argv):
        sys.stderr.write("usage: python3 tools/sweep_small.py MMAX mMAX\n")
        return 2
    start = time.perf_counter()
    total_near = total_failures = 0
    for kind, blocks in (
        ("prolate", _prolate_blocks(int(argv[0]))),
        ("dft", _dft_blocks(int(argv[1]))),
    ):
        count, rows, differ, near, failures = sweep(blocks, kind)
        total_near += near
        total_failures += failures
        print(f"{kind}: {count} blocks, {rows} rows, {differ} differ, {failures} fail")
    print(
        f"{total_near} rows within {NEAR_LEVEL:g} of a level;"
        f" {time.perf_counter() - start:.2f} s"
    )
    return 1 if total_failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
