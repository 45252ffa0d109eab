"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import prolate as pr

FIG1 = pr.ProlateParams(M=1024, N=256, K=128)

CERTIFICATION_GRID = [
    (256, 64, 15),
    (512, 128, 31),
    (1024, 256, 128),
    (2048, 512, 255),
]

EPS_GRID = (1e-3, 1e-6, 1e-9, 1e-12)


def _verdict(name, ok, detail=""):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def fig1_spectrum():
    start = time.perf_counter()
    spectrum = pr.eigh_householder_ql(pr.periodic_prolate(FIG1).dense())
    return spectrum, time.perf_counter() - start


def test_criterion_1_figure1_reproduction(fig1_spectrum):
    spectrum, elapsed = fig1_spectrum
    lam = spectrum.values
    near_one = int((lam >= 0.5).sum())
    slack = math.ceil(pr.transition_bound(256, 1024, 1e-3))
    checks = [
        abs(near_one - 64) <= slack,
        abs(lam.sum() - 64.25) <= 1e-9,
        lam.min() >= -1e-12,
        lam.max() <= 1.0 + 1e-12,
        elapsed < 30.0,
    ]
    _verdict(
        "criterion 1",
        all(checks),
        f"count@0.5={near_one} sum={lam.sum():.12f} "
        f"range=[{lam.min():.2e}, 1+{lam.max() - 1:.2e}] time={elapsed:.2f}s",
    )


def test_criterion_2_certification_grid():
    start = time.perf_counter()
    failures = []
    for m, n, k in CERTIFICATION_GRID:
        params = pr.ProlateParams(M=m, N=n, K=k)
        for report in pr.certify_spectrum_clustering(params, EPS_GRID):
            if not report.passed:
                failures.append((m, n, k, report.epsilon))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2",
        not failures and elapsed < 300.0,
        f"grid=16 points failures={failures} time={elapsed:.1f}s",
    )


def test_criterion_3_width_growth():
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    widths = {}
    for m in sizes:
        params = pr.ProlateParams(M=m, N=m // 4, K=m // 8)
        spectrum = pr.eigh_householder_ql(pr.periodic_prolate(params).dense())
        for eps in EPS_GRID:
            width = pr.transition_width(spectrum.values, eps)
            widths[(m, eps)] = width
            if width > 2.0 * pr.transition_bound(m // 4, m, eps):
                _verdict("criterion 3", False, f"width exceeds cap at {(m, eps)}")
    limit = math.log(4096 * 8) / math.log(256 * 8) + 0.5
    ratios = {eps: widths[(4096, eps)] / widths[(256, eps)] for eps in EPS_GRID}
    ok = all(r <= limit for r in ratios.values())
    _verdict(
        "criterion 3",
        ok,
        "growth ratios "
        + " ".join(f"{eps:g}:{r:.3f}" for eps, r in ratios.items())
        + f" <= {limit:.3f}",
    )


def test_criterion_4_dft_submatrix_certificates():
    rng = np.random.default_rng(20260809)
    m = 1024
    worst_dev = 0.0
    failures = []
    for p in (2, 4, 8):
        base = pr.singular_values_via_gram(pr.dft_submatrix(m, p, 0, 0))
        offsets = [(int(rng.integers(0, m)), int(rng.integers(0, m))) for _ in range(5)]
        for ro, co in offsets:
            reports = pr.certify_dft_submatrix(m, p, (1e-3, 1e-6), ro, co)
            sigma = reports[0].spectrum.values
            worst_dev = max(worst_dev, float(np.abs(sigma - base).max()))
            for report in reports:
                if not report.passed:
                    failures.append((p, ro, co, report.epsilon))
    _verdict(
        "criterion 4",
        not failures and worst_dev <= 1e-10,
        f"offset agreement {worst_dev:.2e} <= 1e-10, failures={failures}",
    )


def test_criterion_5_gram_identity():
    worst = 0.0
    for m, p in ((64, 4), (256, 8)):
        length = m // p
        block = (np.fft.fft(np.eye(m), axis=0) / math.sqrt(m))[:length, :length]
        gram = block.conj().T @ block
        sym = np.empty(length)
        sym[0] = 1.0 / p
        k = np.arange(1, length)
        sym[1:] = np.sin(np.pi * k / p) / (m * np.sin(np.pi * k / m))
        idx = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
        prolate_block = sym[idx]
        worst = max(worst, float(np.abs(np.abs(gram) - np.abs(prolate_block)).max()))
    _verdict("criterion 5", worst <= 1e-12, f"entrywise deviation {worst:.2e}")


def _snapped_rank(lowrank):
    """Singular values above RANK_CUT times the largest, by LAPACK's SVD, once
    sigma^2 below GRAM_NOISE_FLOOR times the largest is snapped to zero."""
    squares = np.linalg.svd(lowrank, compute_uv=False) ** 2
    squares[squares < pr.eigensolve.GRAM_NOISE_FLOOR * squares[0]] = 0.0
    sigma = np.sqrt(squares)
    return int((sigma > pr.lowrank.RANK_CUT * sigma[0]).sum())


def test_criterion_6_decomposition_certificates():
    difference = (
        pr.periodic_prolate(FIG1).dense() - pr.sinc_prolate(FIG1.N, FIG1.W).dense()
    )
    details = []
    ok = True
    for eps in (1e-3, 1e-6):
        parts = pr.lowrank_tail_split(FIG1, eps)
        residual = difference - pr.SymbolMatrix(parts.symbol).dense()
        row_sum = float(np.abs(residual).sum(axis=1).max())
        entry = float(np.abs(residual).max())
        # the rank the certificate reports, against a LAPACK SVD count
        (cert,) = pr.certify_lowrank_split(FIG1, [eps])
        expected = _snapped_rank(pr.SymbolMatrix(parts.symbol).dense())
        rank_ok = cert.rank == expected and cert.rank <= 4 * parts.order
        ok = ok and row_sum <= eps / 16 and entry <= eps / (16 * FIG1.N) and rank_ok
        details.append(
            f"eps={eps:g}: R={parts.order} rowsum={row_sum:.2e}<={eps / 16:.2e} "
            f"entry={entry:.2e}<={eps / (16 * FIG1.N):.2e} "
            f"rank={cert.rank} (SVD {expected})<={4 * parts.order}"
        )
    _verdict("criterion 6", ok, "; ".join(details))


def test_criterion_7_projector_gap_rank():
    details = []
    ok = True
    for n in (128, 256):
        for eps in (1e-3, 1e-6):
            count, cap = pr.projector_gap_rank(n, 257 / 2048, eps)
            ok = ok and count <= cap
            details.append(f"n={n} eps={eps:g}: {count}<={cap:.1f}")
    _verdict("criterion 7", ok, " ".join(details))


def test_criterion_8_solver_oracle_agreement():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((64, 64))
        a = 0.5 * (a + a.T)
        ql = pr.eigh_householder_ql(a)
        ja = pr.eigh_jacobi(a)
        worst = max(worst, float(np.abs(ql.values - ja.values).max()))
    for m, n, k in ((256, 128, 63), (128, 64, 31), (1024, 256, 128)):
        dense = pr.periodic_prolate(pr.ProlateParams(M=m, N=n, K=k)).dense()
        ql = pr.eigh_householder_ql(dense)
        ja = pr.eigh_jacobi(dense)
        worst = max(worst, float(np.abs(ql.values - ja.values).max()))
    _verdict("criterion 8", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_9_commuting_fit():
    cases = [
        (64, 16, 7), (96, 24, 11), (128, 32, 15), (192, 48, 23), (256, 128, 63),
        (1024, 256, 128),
    ]
    details = []
    ok = True
    for m, n, k in cases:
        params = pr.ProlateParams(M=m, N=n, K=k)
        dense = pr.periodic_prolate(params).dense()
        fit = pr.fit_commuting_tridiagonal(dense, params)
        via_tri = fit.tridiagonal
        lam = pr.eigh_householder_ql(dense).values
        gaps = np.full(n, np.inf)
        step = np.abs(np.diff(lam))
        gaps[:-1] = np.minimum(gaps[:-1], step)
        gaps[1:] = np.minimum(gaps[1:], step)
        separated = gaps > 1e-6
        dev = float(np.abs(via_tri.values - lam)[separated].max())
        ok = ok and fit.commutator_norm <= 1e-8 and dev <= 1e-8
        details.append(f"N={n}: comm={fit.commutator_norm:.1e} dev={dev:.1e}")
    _verdict("criterion 9", ok, " ".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["eigs", "M=64", "N=16", "K=7"],
        ["transition", "M=64", "N=16", "K=7", "eps=1e-3,1e-6"],
        ["certify", "M=128", "N=32", "K=15", "eps=1e-3"],
        ["certify", "M=64", "p=4", "row=3", "col=7", "eps=1e-3"],
        ["dft-sub", "M=64", "p=8"],
        ["decompose", "M=256", "N=64", "K=31", "eps=1e-3"],
        ["commute", "M=64", "N=16", "K=7"],
    ]
    from prolate.cli import main

    ok = True
    for i, argv in enumerate(commands):
        paths = [tmp_path / f"cmd{i}_run{j}.out" for j in (0, 1)]
        for path in paths:
            code = main(argv + [f"out={path}", "format=csv"])
            ok = ok and code == 0
        ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    # one end-to-end double run through a fresh interpreter
    outs = [tmp_path / f"sub{j}.csv" for j in (0, 1)]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "prolate.cli", "eigs", "M=64", "N=16", "K=7",
             f"out={out}"],
            capture_output=True,
        )
        ok = ok and proc.returncode == 0
    ok = ok and outs[0].read_bytes() == outs[1].read_bytes()
    _verdict("criterion 10", ok, f"{len(commands)} commands byte-identical")
