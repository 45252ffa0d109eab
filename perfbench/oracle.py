"""Independent checks of every benchmark operation's output.

Nothing here imports ``prolate``.  The matrices are rebuilt from their
formulas with numpy, spectra come from LAPACK (``numpy.linalg.eigvalsh``
and ``numpy.linalg.svd``), and the certificate arithmetic is redone from
the documented formulas.  Tolerances are the library's documented ones;
each constant below names where it comes from.
"""
from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np

from workloads import Op

# The CLI's documented default eps list.
DEFAULT_EPS = (1e-3, 1e-6, 1e-9, 1e-12)
# README: QL and Jacobi agree to 1e-10 on every tested matrix (criterion 8).
VALUE_TOL = 1e-10
# Criterion 4: singular values of DFT blocks agree across offsets to 1e-10.
SIGMA_TOL = 1e-10
# README: Gram eigenvalues below 1e-9 of the largest are snapped to zero.
NOISE_FLOOR = 1e-9
# commuting.COMMUTATOR_TOL, also the CLI's cap on max_value_dev.
COMMUTE_TOL = 1e-8
# Eigenvalue separation below which `commute` skips a pair.
EIGENVALUE_GAP = 1e-6
# `decompose` counts singular values above 1e-10 of the largest.
RANK_REL = 1e-10
# Relative agreement of a printed bound with the same formula evaluated here.
FORMULA_RTOL = 1e-12


class Mismatch(Exception):
    """An output differs from the oracle."""


def check(op: Op, output: bytes) -> str | None:
    """None when ``output`` is right for ``op``, else a one-line reason."""
    try:
        if op.kind == "lib":
            _check_solvers(op.matrix, output)
        else:
            _CHECKS[op.command[0]](op, output)
    except (Mismatch, ValueError, IndexError, KeyError) as exc:
        return f"{op.name}: {exc}"
    return None


# --- matrices and formulas ---------------------------------------------------

def _toeplitz(symbol: np.ndarray) -> np.ndarray:
    i = np.arange(symbol.size)
    return symbol[np.abs(i[:, None] - i[None, :])]


def dirichlet(m: int, n: int, k: int) -> np.ndarray:
    """N x N periodic prolate block: sin(pi(2K+1)d/M) / (M sin(pi d/M))."""
    d = np.arange(1, n)
    symbol = np.empty(n)
    symbol[0] = (2 * k + 1) / m
    symbol[1:] = np.sin(np.pi * (2 * k + 1) * d / m) / (m * np.sin(np.pi * d / m))
    return _toeplitz(symbol)


def sinc(n: int, w: float) -> np.ndarray:
    d = np.arange(1, n)
    symbol = np.empty(n)
    symbol[0] = 2.0 * w
    symbol[1:] = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    return _toeplitz(symbol)


def dft_block(m: int, p: int, row: int, col: int) -> np.ndarray:
    length = m // p
    rows = (row + np.arange(length)) % m
    cols = (col + np.arange(length)) % m
    phase = np.outer(rows, cols) % m  # exact integer phase, reduced mod m
    return np.exp(-2j * np.pi * phase / m) / math.sqrt(m)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(a)[::-1]


def half_width(n: int, m: int, eps: float) -> float:
    """The documented half-width cap R(n, m, eps)."""
    first = (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(16.0 / eps)
    ratio = m / n
    second = 2.0 * max(-math.log(8.0 * math.pi * (ratio**2 - 1.0) * eps) / math.log(ratio), 0.0)
    return first + second


def eta_even(s: int) -> float:
    """Dirichlet eta at even s from Bernoulli numbers, in exact rationals."""
    bern = [Fraction(1)]
    for j in range(1, s + 1):
        bern.append(-sum(math.comb(j + 1, i) * bern[i] for i in range(j)) / (j + 1))
    zeta_over_pi = abs(bern[s]) * 2 ** (s - 1) / math.factorial(s)  # zeta(s) / pi^s
    return float((1 - Fraction(1, 2 ** (s - 1))) * zeta_over_pi) * math.pi**s


def tail_bound(m: int, n: int, order: int) -> float:
    ratio = n / m
    return 2.0 / math.pi * ratio ** (2 * order) / (ratio**-2 - 1.0)


def certified_order(m: int, n: int, eps: float) -> int:
    ratio = m / n
    order = math.ceil(
        max(-math.log(math.pi / 32.0 * (ratio**2 - 1.0) * eps) / (2.0 * math.log(ratio)), 0.0)
    )
    while tail_bound(m, n, order) > eps / 16.0:
        order += 1
    return order


# --- parsing -------------------------------------------------------------------

def _table(output: bytes, header: str, n_rows: int) -> list[list[str]]:
    body = [line for line in output.decode().splitlines() if not line.startswith("#")]
    if not body or body[0] != header:
        raise Mismatch(f"header {body[:1]} is not {header!r}")
    rows = [line.split(",") for line in body[1:]]
    width = header.count(",") + 1
    if len(rows) != n_rows or any(len(row) != width for row in rows):
        raise Mismatch(f"expected {n_rows} rows of {width} fields")
    return rows


def _same(label: str, got: str, want: str) -> None:
    if got != want:
        raise Mismatch(f"{label} {got} != expected {want}")


def _close(label: str, got, want: float, tol: float) -> None:
    if not abs(float(got) - want) <= tol:
        raise Mismatch(f"{label} {got} differs from {want!r} by more than {tol:g}")


def _flag(x: bool) -> str:
    return "true" if x else "false"


def _eps_list(op: Op) -> tuple[float, ...]:
    text = op.params.get("eps")
    return DEFAULT_EPS if text is None else tuple(float(e) for e in text.split(","))


def _clustering(values, nw2, half, low, high) -> tuple[int, bool, bool, bool]:
    """Expected width, lower/upper index flags and width flag of a certificate."""
    h = math.ceil(half)
    lo, hi, n = nw2 - h, nw2 + h + 1, values.size
    lower_ok = not 0 <= lo < n or bool(values[lo] >= high)
    upper_ok = not 0 <= hi < n or bool(values[hi] <= low)
    width = int(((values > low) & (values < high)).sum())
    return width, lower_ok, upper_ok, width <= 2.0 * half


def _check_certificate_row(row, eps, expected, bound) -> None:
    width, lower_ok, upper_ok, width_ok = expected
    _close("epsilon", row[0], eps, 0.0)
    _same(f"width at eps={eps:g}", row[1], str(width))
    _close(f"bound at eps={eps:g}", row[2], bound, FORMULA_RTOL * bound)
    flags = [lower_ok, upper_ok, width_ok, lower_ok and upper_ok and width_ok]
    _same(f"verdicts at eps={eps:g}", ",".join(row[3:]), ",".join(map(_flag, flags)))


# --- per-command checks ------------------------------------------------------------

def _check_eigs(op: Op, output: bytes) -> None:
    m, n, k = op.params["M"], op.params["N"], op.params["K"]
    rows = _table(output, "index,eigenvalue", n)
    for i, (row, want) in enumerate(zip(rows, eigenvalues(dirichlet(m, n, k)))):
        _same("index", row[0], str(i))
        _close(f"eigenvalue {i}", row[1], want, VALUE_TOL)


def _sweep_sizes(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split(".."))
    sizes = []
    while lo <= hi:
        sizes.append(lo)
        lo *= 2
    return sizes


def _check_transition(op: Op, output: bytes) -> None:
    eps_list = _eps_list(op)
    sizes = _sweep_sizes(op.params["M"])
    rows = iter(_table(output, "M,N,K,epsilon,width,bound_2R,pass", len(sizes) * len(eps_list)))
    for m in sizes:
        n, k = m // 4, m // 8
        lam = eigenvalues(dirichlet(m, n, k))
        for eps in eps_list:
            row = next(rows)
            _same("M,N,K", ",".join(row[:3]), f"{m},{n},{k}")
            _close("epsilon", row[3], eps, 0.0)
            width = int(((lam > eps) & (lam < 1.0 - eps)).sum())
            bound = 2.0 * half_width(n, m, eps)
            _same(f"width at M={m} eps={eps:g}", row[4], str(width))
            _close(f"bound at M={m} eps={eps:g}", row[5], bound, FORMULA_RTOL * bound)
            _same(f"pass at M={m} eps={eps:g}", row[6], _flag(width <= bound))


def _expected_sigma(m: int, p: int, row: int, col: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values by SVD, raw and with the documented noise floor applied."""
    sigma = np.linalg.svd(dft_block(m, p, row, col), compute_uv=False)
    return sigma, np.where(sigma**2 < NOISE_FLOOR * sigma[0] ** 2, 0.0, sigma)


def _check_sigma(got: np.ndarray, sigma: np.ndarray) -> None:
    """Agreement to 1e-10, or exactly zero where the SVD value is under the floor."""
    snapped = (got == 0.0) & (sigma <= math.sqrt(NOISE_FLOOR) * sigma[0] + SIGMA_TOL)
    bad = np.flatnonzero(~((np.abs(got - sigma) <= SIGMA_TOL) | snapped))
    if bad.size:
        i = bad[0]
        raise Mismatch(f"singular value {i} is {got[i]!r}, SVD gives {sigma[i]!r}")


def _check_certify(op: Op, output: bytes) -> None:
    eps_list = _eps_list(op)
    if "p" not in op.params:
        m, n, k = op.params["M"], op.params["N"], op.params["K"]
        header = "M,N,K,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass"
        lam = eigenvalues(dirichlet(m, n, k))
        nw2 = 2 * ((n * (2 * k + 1)) // (2 * m))
        for row, eps in zip(_table(output, header, len(eps_list)), eps_list):
            _same("M,N,K", ",".join(row[:3]), f"{m},{n},{k}")
            half = half_width(n, m, eps)
            _check_certificate_row(
                row[3:], eps, _clustering(lam, nw2, half, eps, 1.0 - eps), 2.0 * half
            )
        return
    m, p, r, c = (op.params[key] for key in ("M", "p", "row", "col"))
    header = "M,p,row,col,epsilon,width,bound_2R,lower_index_ok,upper_index_ok,width_ok,pass"
    _, sigma = _expected_sigma(m, p, r, c)
    length = m // p
    for row, eps in zip(_table(output, header, len(eps_list)), eps_list):
        _same("M,p,row,col", ",".join(row[:4]), f"{m},{p},{r},{c}")
        half = 0.0 if p == 1 else half_width(length, m, eps)
        expected = _clustering(
            sigma, 2 * (length // (2 * p)), half, math.sqrt(eps), math.sqrt(1.0 - eps)
        )
        _check_certificate_row(row[4:], eps, expected, 2.0 * half)


def _check_dft_sub(op: Op, output: bytes) -> None:
    m, p, r, c = (op.params[key] for key in ("M", "p", "row", "col"))
    sigma, _ = _expected_sigma(m, p, r, c)
    rows = _table(output, "index,singular_value", m // p)
    for i, row in enumerate(rows):
        _same("index", row[0], str(i))
    _check_sigma(np.array([float(row[1]) for row in rows]), sigma)


def _check_decompose(op: Op, output: bytes) -> None:
    m, n, k = op.params["M"], op.params["N"], op.params["K"]
    eps_list = _eps_list(op)
    w = (2 * k + 1) / (2 * m)
    difference = dirichlet(m, n, k) - sinc(n, w)
    d = np.arange(-(n - 1), n, dtype=np.float64)
    i = np.arange(n)
    header = "R,rank_L2_certified,tail_bound,row_sum_residual,pass"
    for row, eps in zip(_table(output, header, len(eps_list)), eps_list):
        order = certified_order(m, n, eps)
        symbol = np.zeros(d.size)
        for r in range(1, order + 1):
            symbol += (
                2.0 / (m * math.pi) * eta_even(2 * r)
                * (d / m) ** (2 * r - 1) * np.sin(2.0 * math.pi * w * d)
            )
        lowrank = symbol[(i[:, None] - i[None, :]) + (n - 1)]
        sigma = np.linalg.svd(lowrank, compute_uv=False)
        rank = 0
        if sigma.size and sigma[0] > 0.0:
            kept = sigma**2 >= NOISE_FLOOR * sigma[0] ** 2  # the Gram route's floor
            rank = int((kept & (sigma > RANK_REL * sigma[0])).sum())
        residual = np.abs(difference - lowrank)
        row_sum = float(residual.sum(axis=1).max())
        bound = tail_bound(m, n, order)
        _same(f"R at eps={eps:g}", row[0], str(order))
        _same(f"rank at eps={eps:g}", row[1], str(rank))
        _close(f"tail bound at eps={eps:g}", row[2], bound, FORMULA_RTOL * bound)
        # Both sides sum N terms of size <= 1 with different rounding.
        _close(f"row-sum residual at eps={eps:g}", row[3], row_sum, n * 4 * 2.0**-52)
        ok = (
            row_sum <= eps / 16.0
            and float(residual.max()) <= eps / (16.0 * n)
            and rank <= 4 * order
        )
        _same(f"pass at eps={eps:g}", row[4], _flag(ok))


def _check_commute(op: Op, output: bytes) -> None:
    m, n, k = op.params["M"], op.params["N"], op.params["K"]
    header = "N,commutator_norm,degenerate,compared,max_value_dev,min_alignment,pass"
    (row,) = _table(output, header, 1)
    lam = eigenvalues(dirichlet(m, n, k))
    gaps = np.full(n, np.inf)
    step = np.abs(np.diff(lam))
    gaps[:-1] = np.minimum(gaps[:-1], step)
    gaps[1:] = np.minimum(gaps[1:], step)
    _same("N", row[0], str(n))
    _close("commutator_norm", row[1], 0.0, COMMUTE_TOL)
    _same("degenerate", row[2], "false")
    _same("compared", row[3], str(int((gaps > EIGENVALUE_GAP).sum())))
    _close("max_value_dev", row[4], 0.0, COMMUTE_TOL)
    if not 0.0 < float(row[5]) <= 1.0 + VALUE_TOL:
        raise Mismatch(f"min_alignment {row[5]} is not in (0, 1]")
    _same("pass", row[6], "true")


def _check_solvers(a: np.ndarray, output: bytes) -> None:
    n = a.shape[0]
    out = np.load(io.BytesIO(output), allow_pickle=False)
    if out.shape != (2 + 2 * n, n):
        raise Mismatch(f"output shape {out.shape}, expected {(2 + 2 * n, n)}")
    lam = eigenvalues(a)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    for name, values, vectors in (
        ("QL", out[0], out[2 : 2 + n]),
        ("Jacobi", out[1], out[2 + n :]),
    ):
        _close(f"{name} eigenvalues vs eigvalsh", np.abs(values - lam).max(), 0.0, VALUE_TOL)
        residual = np.abs(a @ vectors - vectors * values[None, :]).max()
        _close(f"{name} residual", residual, 0.0, VALUE_TOL * scale)
        _close(f"{name} orthogonality", np.abs(vectors.T @ vectors - np.eye(n)).max(), 0.0,
               VALUE_TOL)
    _close("QL vs Jacobi eigenvalues", np.abs(out[0] - out[1]).max(), 0.0, VALUE_TOL)


_CHECKS = {
    "eigs": _check_eigs,
    "transition": _check_transition,
    "certify": _check_certify,
    "dft-sub": _check_dft_sub,
    "decompose": _check_decompose,
    "commute": _check_commute,
}
