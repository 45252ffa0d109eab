"""Dense constructors for time- and band-limiting operator matrices.

Builds the periodic (Dirichlet-kernel) prolate matrix, the classical
sinc-kernel prolate matrix and cyclic square submatrices of the unitary
DFT matrix.  The projector F F* onto the 2k+1 lowest-frequency DFT
vectors of length n is the square Dirichlet block M = N = n, K = k.
All builders are pure functions of their parameters and return freshly
allocated arrays that are safe to share read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ParameterError(ValueError):
    """A parameter is outside the documented domain of an operation."""


def _check_integer(value, name: str, positive: bool = False) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ParameterError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _check_bandwidth(w) -> float:
    w = float(w)
    if not 0.0 < w < 0.5:
        raise ParameterError(f"bandwidth ratio must lie in (0, 1/2), got {w}")
    return w


@dataclass(frozen=True)
class ProlateParams:
    """Problem sizes for a periodic prolate matrix.

    M is the ambient (period) length, N the time-limit length, and K the
    half-bandwidth: the frequency window keeps 2K+1 DFT bins.  Requires
    N <= M and 2K+1 < M, which pins the bandwidth ratio W = (2K+1)/(2M)
    strictly below 1/2, and M <= 2**53, so that M and every offset are
    exact doubles.
    """

    M: int
    N: int
    K: int

    def __post_init__(self) -> None:
        for name in ("M", "N", "K"):
            _check_integer(getattr(self, name), name)
        if self.M < 1:
            raise ParameterError(f"M must be positive, got {self.M}")
        if self.M > 2**53:
            raise ParameterError(f"M must be <= 2**53, got {self.M}")
        if self.N < 1:
            raise ParameterError(f"N must be positive, got {self.N}")
        if self.K < 0:
            raise ParameterError(f"K must be non-negative, got {self.K}")
        if self.N > self.M:
            raise ParameterError(f"need N <= M, got N={self.N} > M={self.M}")
        if 2 * self.K + 1 >= self.M:
            raise ParameterError(
                f"need 2K+1 < M, got 2K+1={2 * self.K + 1} >= M={self.M}"
            )

    @property
    def W(self) -> float:
        """Bandwidth ratio (2K+1)/(2M), strictly inside (0, 1/2)."""
        return (2 * self.K + 1) / (2 * self.M)

    @property
    def cluster_point(self) -> float:
        """N(2K+1)/M, the expected count of near-unit eigenvalues."""
        return self.N * (2 * self.K + 1) / self.M

    def _check_n_below_m(self) -> None:
        """The series split and the transition bound need N < M strictly."""
        if self.N >= self.M:
            raise ParameterError(f"need N < M, got N={self.N}, M={self.M}")


@dataclass
class SymbolMatrix:
    """Real symmetric Toeplitz matrix stored by its first column.

    Entry (m, k) of the dense realization is ``symbol[|m - k|]``, so the
    matrix is exactly symmetric by construction.
    """

    symbol: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.symbol):
            raise ParameterError("expected a real Toeplitz matrix, got a complex symbol")
        self.symbol = np.asarray(self.symbol, dtype=np.float64)
        if self.symbol.ndim != 1 or self.symbol.size == 0:
            raise ParameterError("symbol must be a non-empty 1-d real sequence")

    @property
    def n(self) -> int:
        return self.symbol.size

    def view(self) -> np.ndarray:
        """The n x n matrix as a read-only strided view of 2n - 1 values.

        Over the offsets -(n-1)..n-1 the symbol reads as the palindrome
        ``diagonals``; row i is diagonals[n-1-i : 2n-1-i], so no index
        array as large as the matrix is formed.
        """
        s = self.symbol
        diagonals = np.concatenate((s[:0:-1], s))
        return sliding_window_view(diagonals, s.size)[::-1]

    def dense(self) -> np.ndarray:
        """The n x n matrix: a private C-contiguous copy of `view`."""
        return self.view().copy()


def periodic_prolate(params: ProlateParams) -> SymbolMatrix:
    """N x N leading principal block of the periodic prolate matrix.

    Equivalent to building the full M x M Dirichlet-kernel Toeplitz matrix
    and dropping the last M-N rows and columns.  symbol[0] is the analytic
    limit (2K+1)/M; symbol[d] = sin(2*pi*W*d) / (M*sin(pi*d/M)).
    """
    m = params.M
    d = np.arange(1, params.N, dtype=np.float64)
    symbol = np.empty(params.N, dtype=np.float64)
    symbol[0] = (2 * params.K + 1) / m
    symbol[1:] = np.sin(2.0 * np.pi * params.W * d) / (m * np.sin(np.pi * d / m))
    return SymbolMatrix(symbol)


def sinc_prolate(n: int, w: float) -> SymbolMatrix:
    """n x n sinc-kernel prolate matrix for bandwidth ratio w in (0, 1/2).

    symbol[0] is the analytic limit 2w; symbol[k] = sin(2*pi*w*k)/(pi*k).
    """
    n = _check_integer(n, "dimension", positive=True)
    w = _check_bandwidth(w)
    symbol = np.empty(n, dtype=np.float64)
    symbol[0] = 2.0 * w
    if n > 1:
        k = np.arange(1, n, dtype=np.float64)
        symbol[1:] = np.sin(2.0 * np.pi * w * k) / (np.pi * k)
    return SymbolMatrix(symbol)


# Largest DFT size whose phases j*k, 0 <= j, k < m, fit in int64.
_MAX_PHASE_M = math.isqrt(2**63 - 1)


def dft_submatrix(
    m: int, p: int, row_offset: int = 0, col_offset: int = 0
) -> np.ndarray:
    """L x L cyclically-consecutive submatrix of the DFT matrix, L = m/p.

    Keeps rows row_offset..row_offset+L-1 and columns col_offset..
    col_offset+L-1 with indices taken mod m, so consecutive blocks wrap
    around the period.  Only the block is built: entry (j, k) is read at
    its phase j*k mod m from the table of exp(-2 pi i t / m) / sqrt(m),
    t = 0..m-1, or, for a block of fewer than m entries, computed from its
    phase by the same expression, so both ways give the same bits.
    The offsets are reduced mod m exactly, and m is at most
    isqrt(2**63 - 1), so every index and phase j*k fits in int64.
    """
    m = _check_integer(m, "dimension", positive=True)
    if m > _MAX_PHASE_M:
        raise ParameterError(f"dimension must be <= {_MAX_PHASE_M}, got {m}")
    p = _check_integer(p, "divisor", positive=True)
    if m % p != 0:
        raise ParameterError(f"p={p} does not divide m={m}")
    row_offset = _check_integer(row_offset, "row offset") % m
    col_offset = _check_integer(col_offset, "column offset") % m
    length = m // p
    rows = (row_offset + np.arange(length)) % m
    cols = (col_offset + np.arange(length)) % m
    phase = np.outer(rows, cols) % m
    direct = m > phase.size  # the table would outgrow the block
    values = np.exp(-2j * np.pi * (phase if direct else np.arange(m)) / m) / math.sqrt(m)
    return values if direct else values[phase]
