"""Constructive low-rank-plus-tail split of the two prolate kernels.

The difference between the periodic (Dirichlet-kernel) prolate block and
the sinc-kernel prolate matrix expands, offset by offset, into the
oscillatory power series

    t(r; k) = 2/(M*pi) * eta(2r) * (k/M)^(2r-1) * sin(2*pi*W*k),

where eta is the Dirichlet eta function eta(s) = (1 - 2^(1-s)) zeta(s),
evaluated exactly from its Bernoulli-number closed form at even s.
Truncating the series after R terms leaves a symmetric Toeplitz matrix
of rank at most 4R, kept like the two kernels as its symbol at offsets
0..N-1, plus a tail whose maximum absolute row sum is certified by a
geometric-series bound.  This module builds that symbol, certifies the
tail, counts the rank of the truncated part in an orthonormal basis of
the span that holds its range, grown from the two oscillations (no
monomial and no N x N solve), and runs the numeric effective-rank check
of the sinc-kernel matrix against its partial Fourier projector.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bounds import _check_epsilon, _series_order
from .eigensolve import (
    HOUSEHOLDER_CHUNK_ROWS,
    EigensolveError,
    eigh_householder_ql,
    singular_values_via_gram,
)
from .kernels import (
    ParameterError,
    ProlateParams,
    SymbolMatrix,
    _check_integer,
    periodic_prolate,
    sinc_prolate,
)

# A split is certified when its tail takes at most eps/TAIL_SHARE in max
# row sum (eps/(TAIL_SHARE*N) per entry) and its low-rank part has at most
# 4R singular values above RANK_CUT times the largest.  The Gram noise
# floor zeroes those below about 3.2e-5 times the largest first, so that
# floor is the cut in effect; RANK_CUT also bounds twice the part's
# distance from the span of its basis.
TAIL_SHARE = 16.0
RANK_CUT = 1e-10

# pi to 62 decimals: its relative error (< 1e-62), raised to a power
# s <= 200, stays far below half an ulp, so eta_even rounds only once.
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")


@functools.lru_cache(maxsize=None)
def _bernoulli(j: int) -> Fraction:
    """B_j from the recurrence sum_{i=0..j} C(j+1, i) B_i = 0, once per process."""
    if j == 0:
        return Fraction(1)
    terms = (math.comb(j + 1, i) * b for i in range(j) if (b := _bernoulli(i)))
    return -sum(terms) / (j + 1)


def eta_even(s: int) -> float:
    """Dirichlet eta at an even integer s in [2, 200], from its closed form.

    eta(s) = (1 - 2^(1-s)) |B_s| (2 pi)^s / (2 s!), with the Bernoulli
    number B_s from :func:`_bernoulli`, in rationals, pi to 62 decimals,
    rounded once.  Each value is evaluated once per process.
    """
    s = _check_integer(s, "s")
    if s % 2 != 0 or not 2 <= s <= 200:
        raise ParameterError(f"s must be an even integer in [2, 200], got {s}")
    return _eta_float(s)


@functools.lru_cache(maxsize=None)
def _eta_float(s: int) -> float:
    exact = (1 - Fraction(1, 2 ** (s - 1))) * abs(_bernoulli(s)) * (2 * _PI) ** s
    return float(exact / (2 * math.factorial(s)))


def truncation_order(params: ProlateParams, epsilon: float) -> int:
    """Ceiling of max(-log(8*pi*((M/N)^2-1)*eps) / (2 log(M/N)), 0)."""
    epsilon = _check_epsilon(epsilon)
    params._check_n_below_m()
    return math.ceil(_series_order(params.M / params.N, 8.0 * math.pi, epsilon))


def tail_bound_at(params: ProlateParams, order: int) -> float:
    """Certified max-row-sum bound on the tail dropped after ``order`` terms.

    Geometric bound N * sum_{r>order} 2/(pi*M) (N/M)^(2r-1)
    = (2/pi) (N/M)^(2*order) / ((M/N)^2 - 1).
    """
    if order < 0:
        raise ParameterError(f"order must be non-negative, got {order}")
    params._check_n_below_m()
    ratio = params.N / params.M
    return 2.0 / math.pi * ratio ** (2 * order) / (ratio**-2 - 1.0)


def certified_order(params: ProlateParams, epsilon: float) -> int:
    """Smallest truncation order whose certified tail bound is <= eps/16.

    Closed form: ceiling of max(-log(pi/32*((M/N)^2-1)*eps)/(2 log(M/N)), 0);
    note this is always at least the value of :func:`truncation_order`.
    """
    epsilon = _check_epsilon(epsilon)
    params._check_n_below_m()
    order = math.ceil(_series_order(params.M / params.N, math.pi / 32.0, epsilon))
    while tail_bound_at(params, order) > epsilon / TAIL_SHARE:  # float-boundary guard
        order += 1
    return order


@dataclass
class LowRankParts:
    """Truncated-series split of (periodic - sinc) prolate difference.

    The low-rank part is the Toeplitz matrix ``SymbolMatrix(symbol)`` of
    the first ``order`` series terms at offsets 0..N-1, of rank at most
    4*order (:func:`_range_rank`).  ``tail_bound`` certifies the maximum
    absolute row sum of what was dropped; tail_bound / N bounds each of
    its entries.
    """

    order: int
    symbol: np.ndarray = field(repr=False)
    tail_bound: float


def _split_plan(params: ProlateParams, epsilon: float, order) -> tuple[int, float]:
    """The order (``order``, or the certified one) and its tail bound,
    validated, with eps, before any eta is evaluated."""
    _check_epsilon(epsilon)
    if order is None:
        order = certified_order(params, epsilon)
    order = _check_integer(order, "order")
    bound = tail_bound_at(params, order)  # refuses N >= M and a negative order
    if order > 100:  # eta_even stops at s = 200
        raise ParameterError(
            f"truncation order {order} at M/N = {params.M / params.N:.6g} exceeds"
            " 100, the most series terms eta_even supplies"
        )
    return order, bound


def lowrank_tail_split(
    params: ProlateParams, epsilon: float, order: int | None = None
) -> LowRankParts:
    """Split the kernel difference into a rank-certified part plus a tail.

    By default the truncation order is the smallest one whose certified
    tail bound is at most eps/16 (the per-entry bound is then
    eps/(16 N)); pass ``order`` to inspect other truncations.  The
    low-rank part is kept as its symbol, summed from the truncated series
    one term at a time: no factor and no N x N matrix is formed.
    """
    order, bound = _split_plan(params, epsilon, order)
    m, n = params.M, params.N
    rows = np.arange(n, dtype=np.float64)
    oscillation = np.sin(2.0 * math.pi * params.W * rows)
    symbol = np.zeros(n)
    for r in range(1, order + 1):
        scale = 2.0 / (m * math.pi) * eta_even(2 * r)
        symbol += scale * (rows / m) ** (2 * r - 1) * oscillation
    return LowRankParts(order=order, symbol=symbol, tail_bound=bound)


@dataclass(frozen=True)
class SplitCertificate:
    """Verdict on one split, measured against the kernel difference itself.

    ``row_sum`` and ``entry`` are the maximum absolute row sum and entry of
    (periodic - sinc) minus the low-rank part L.  ``rank`` counts the
    singular values of L, measured in the span that holds its range
    (:func:`_range_rank`): those whose squares clear the
    GRAM_NOISE_FLOOR of 1e-9 times the largest square, so those above about
    3.2e-5 times the largest; RANK_CUT (1e-10) lies below that floor.
    ``range_residual`` is rho = ||(I - Q Q^T) L||_F for the orthonormal
    basis Q of that span: every singular value of L lies within 2 rho of
    one that was counted, or of 0.
    """

    epsilon: float
    n: int
    order: int
    rank: int
    tail_bound: float
    row_sum: float
    entry: float
    range_residual: float

    @property
    def passed(self) -> bool:
        return (
            self.row_sum <= self.epsilon / TAIL_SHARE
            and self.entry <= self.epsilon / (TAIL_SHARE * self.n)
            and self.rank <= 4 * self.order
        )


def _range_basis(params: ProlateParams, count: int) -> np.ndarray:
    """Orthonormal rows spanning (k/M)^j sin(2 pi W k), (k/M)^j cos(2 pi W k),
    j < ``count``, k < N: the block Krylov space of diag(k/M) from the two
    oscillations, grown with no monomial formed, as in Vandermonde with
    Arnoldi (Brubeck, Nakatsukasa and Trefethen, SIAM Rev. 63, 2021).

    One chain starts from each oscillation; its next column is k/M times
    its last kept row.  Each column, scaled by its largest |entry|, is
    projected off the rows kept so far, then again (classical Gram-Schmidt
    run twice).  A column whose second pass keeps less than 1/sqrt(2) of
    the norm left by the first lies in their span to rounding and is
    dropped (the Kahan-Parlett test; Parlett, The Symmetric Eigenvalue
    Problem, section 6.9).  A dropped or zero column ends its chain, the
    Krylov space being exhausted.  At most min(N, 2 count) rows are kept.
    """
    n = params.N
    rows = np.arange(n, dtype=np.float64)
    phase = 2.0 * math.pi * params.W * rows
    chains = [np.sin(phase), np.cos(phase)]
    basis = np.empty((min(n, 2 * count), n))
    kept = 0
    for _ in range(count):
        grown = []
        for column in chains:
            peak = np.abs(column).max()
            if kept == basis.shape[0] or peak == 0.0:
                continue
            done = basis[:kept]
            first = column / peak
            first -= done.T @ (done @ first)
            second = first - done.T @ (done @ first)
            square = second @ second
            if 2.0 * square >= first @ first > 0.0:
                basis[kept] = second / math.sqrt(square)
                grown.append(rows / params.M * basis[kept])
                kept += 1
        chains = grown
    return basis[:kept]


def _range_rank(params: ProlateParams, parts: LowRankParts) -> tuple[int, float]:
    """Rank of the low-rank part L, counted in the span that holds its
    range, and rho = ||(I - Q Q^T) L||_F.

    Expanding (i - j)^(2r-1) sin(2 pi W (i - j)) puts range(L) in the span
    of :func:`_range_basis` Q at count 2R.  L Q is formed from the symbol's
    read-only view, and L_p = Q^T L Q, averaged with its transpose
    so that it is exactly symmetric, goes to singular_values_via_gram,
    whose floor on the squares counts the rank as it did for L itself.  As
    ||L - Q L_p Q^T||_2 <= 2 rho, EigensolveError is raised when 2 rho
    exceeds RANK_CUT times the largest singular value: the basis then
    misses L, and the count is not L's.  Both products go a band of
    HOUSEHOLDER_CHUNK_ROWS rows at a time, so no N x N temporary is made.
    """
    lowrank = SymbolMatrix(parts.symbol).view()
    basis = _range_basis(params, 2 * parts.order)
    n = lowrank.shape[0]
    step = HOUSEHOLDER_CHUNK_ROWS
    bands = [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]
    image = np.empty((n, basis.shape[0]))  # L Q
    for rows in bands:
        image[rows] = lowrank[rows] @ basis.T
    buf = np.empty((bands[0].stop, n))
    square = 0.0
    for rows in bands:  # (I - Q Q^T) L = L - Q (L Q)^T, L being symmetric
        residual = buf[: rows.stop - rows.start]
        np.matmul(basis[:, rows].T, image.T, out=residual)
        np.subtract(lowrank[rows], residual, out=residual)
        square += float(np.vdot(residual, residual))
    rho = math.sqrt(square)
    top, rank = 0.0, 0
    if basis.size:
        projected = basis @ image
        sigma = singular_values_via_gram(0.5 * (projected + projected.T))
        top = sigma[0]
        rank = int((sigma > RANK_CUT * top).sum()) if top > 0.0 else 0
    if 2.0 * rho > RANK_CUT * top:
        raise EigensolveError(
            f"the low-rank part lies {rho:.3e} outside the span of its factors,"
            f" above RANK_CUT times its largest singular value {top:.3e}"
        )
    return rank, rho


def certify_lowrank_split(
    params: ProlateParams, epsilons, order: int | None = None
) -> list[SplitCertificate]:
    """Split (periodic - sinc) at each eps and certify the split numerically.

    Every eps and order is checked before any work.  Each eps then gets
    :func:`lowrank_tail_split` (at ``order`` if given), the residual
    measured from the symbols, and the rank of the low-rank part counted in
    the at most 4R-dimensional span of its range (:func:`_range_rank`): an
    O(N^2 R) count, with no N x N solve, that :class:`SplitCertificate` judges.
    """
    epsilons = [_check_epsilon(epsilon) for epsilon in epsilons]
    orders = [_split_plan(params, epsilon, order)[0] for epsilon in epsilons]
    diff = periodic_prolate(params).symbol - sinc_prolate(params.N, params.W).symbol
    certificates = []
    for epsilon, split_order in zip(epsilons, orders):
        parts = lowrank_tail_split(params, epsilon, order=split_order)
        residual = np.abs(diff - parts.symbol)
        rank, rho = _range_rank(params, parts)
        certificates.append(
            SplitCertificate(
                epsilon=epsilon,
                n=params.N,
                order=parts.order,
                rank=rank,
                tail_bound=parts.tail_bound,
                row_sum=float(SymbolMatrix(residual).view().sum(axis=1).max()),
                entry=float(residual.max()),
                range_residual=rho,
            )
        )
    return certificates


def projector_gap_rank(n: int, w: float, epsilon: float) -> tuple[int, float]:
    """Effective rank of (sinc prolate) minus (partial Fourier projector).

    Returns the count of eigenvalues of the difference whose magnitude
    exceeds eps, together with the analytic cap
    (4/pi^2 log(8n) + 6) * log(15/eps); the count is expected to stay at
    or below the cap.
    """
    epsilon = _check_epsilon(epsilon)
    sinc = sinc_prolate(n, w).symbol
    # F F* over the 2k+1 lowest DFT frequencies, k = floor(nw), is the periodic
    # prolate block with M = N = n, or the identity once 2k+1 = n
    k = math.floor(n * float(w))
    projector = np.eye(1, n)[0]
    if 2 * k + 1 < n:
        projector = periodic_prolate(ProlateParams(n, n, k)).symbol
    values = eigh_householder_ql(SymbolMatrix(sinc - projector)).values
    count = int((np.abs(values) > epsilon).sum())
    cap = (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(15.0 / epsilon)
    return count, cap
